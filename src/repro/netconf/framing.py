"""RFC 6242 message framing.

Two framers, matching the RFC:

* :class:`EomFramer` — ``]]>]]>`` end-of-message delimiter (the :base:1.0
  mechanism, mandatory for the hello exchange),
* :class:`ChunkedFramer` — ``\\n#<len>\\n...\\n##\\n`` chunks (the
  :base:1.1 mechanism used after both peers advertise it).

Both expose ``frame(payload) -> bytes`` and a stateful
``feed(data) -> list of payloads`` that tolerates arbitrary stream
segmentation.
"""

import re
from typing import List

from repro.netconf.errors import FramingError

EOM = b"]]>]]>"

_CHUNK_HEADER_RE = re.compile(rb"\n#(\d+)\n")
# what may still grow into a chunk header or the end-of-chunks marker:
# a true prefix of "\n#<digits>\n" or "\n##\n"
_HEADER_PREFIX_RE = re.compile(rb"\n(?:#(?:\d+|#)?)?")
_CHUNK_END = b"\n##\n"
MAX_CHUNK = 4294967295


class EomFramer:
    """]]>]]>-delimited framing."""

    def __init__(self):
        self._buffer = b""

    def frame(self, payload: bytes) -> bytes:
        if EOM in payload:
            raise FramingError("payload contains the EOM delimiter")
        return payload + EOM

    def feed(self, data: bytes) -> List[bytes]:
        self._buffer += data
        messages = []
        while True:
            index = self._buffer.find(EOM)
            if index < 0:
                break
            messages.append(self._buffer[:index])
            self._buffer = self._buffer[index + len(EOM):]
        return messages


class ChunkedFramer:
    """RFC 6242 §4.2 chunked framing."""

    def __init__(self):
        self._buffer = b""
        self._chunks: List[bytes] = []

    def frame(self, payload: bytes) -> bytes:
        if not payload:
            raise FramingError("cannot frame an empty message")
        if len(payload) > MAX_CHUNK:
            raise FramingError("message exceeds maximum chunk size")
        return b"\n#%d\n" % len(payload) + payload + _CHUNK_END

    def feed(self, data: bytes) -> List[bytes]:
        self._buffer += data
        messages: List[bytes] = []
        while self._buffer:
            if self._buffer.startswith(_CHUNK_END):
                messages.append(b"".join(self._chunks))
                self._chunks = []
                self._buffer = self._buffer[len(_CHUNK_END):]
                continue
            match = _CHUNK_HEADER_RE.match(self._buffer)
            if match is None:
                if not _could_be_header(self._buffer):
                    raise FramingError("malformed chunk header: %r"
                                       % self._buffer[:12])
                break  # need more data
            length = int(match.group(1))
            if length < 1 or length > MAX_CHUNK:
                raise FramingError("chunk length out of range: %d" % length)
            start = match.end()
            if len(self._buffer) < start + length:
                break  # chunk body incomplete
            self._chunks.append(self._buffer[start:start + length])
            self._buffer = self._buffer[start + length:]
        return messages


def _could_be_header(buffer: bytes) -> bool:
    """Whether ``buffer`` could still grow into a valid header/end."""
    return _HEADER_PREFIX_RE.fullmatch(buffer) is not None
