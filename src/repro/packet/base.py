"""Shared machinery for packet header classes."""

from typing import Optional, Type, Union


class PacketError(Exception):
    """Raised when a buffer cannot be parsed as the requested header."""


def checksum(data: bytes) -> int:
    """RFC 1071 Internet checksum over ``data``.

    2**16 = 1 (mod 0xFFFF), so the buffer read as one big-endian integer
    has the residue of its 16-bit word sum: a constant number of Python
    operations whatever the length.  The folded one's-complement sum is
    that residue, except that a non-zero sum congruent to 0 folds to
    0xFFFF, not 0.
    """
    value = int.from_bytes(data, "big") << 8 * (len(data) & 1)
    return ~(value % 0xFFFF or (value and 0xFFFF)) & 0xFFFF


class Header:
    """Base class for protocol headers.

    Subclasses implement :meth:`pack_header` and :meth:`unpack`.  Payloads
    chain through :attr:`payload`, which is either another header, raw
    ``bytes``, or ``None``.
    """

    payload: Union["Header", bytes, None] = None

    def pack(self) -> bytes:
        """Serialize this header and everything below it."""
        return self.pack_header() + self.pack_payload()

    def pack_header(self) -> bytes:
        raise NotImplementedError

    def pack_payload(self) -> bytes:
        if self.payload is None:
            return b""
        if isinstance(self.payload, Header):
            return self.payload.pack()
        return bytes(self.payload)

    @classmethod
    def unpack(cls, data: bytes) -> "Header":
        raise NotImplementedError

    def find(self, kind: Type["Header"]) -> Optional["Header"]:
        """Return the first header of type ``kind`` in this chain."""
        node: Union[Header, bytes, None] = self
        while isinstance(node, Header):
            if isinstance(node, kind):
                return node
            node = node.payload
        return None

    def raw_payload(self) -> bytes:
        """The innermost raw bytes of the chain (``b""`` when absent)."""
        node: Union[Header, bytes, None] = self.payload
        while isinstance(node, Header):
            node = node.payload
        return bytes(node) if node is not None else b""

    def __len__(self) -> int:
        return len(self.pack())
