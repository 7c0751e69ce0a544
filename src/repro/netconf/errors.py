"""NETCONF subsystem exceptions."""

from typing import Optional


class NetconfError(Exception):
    """Base class for NETCONF failures."""


class FramingError(NetconfError):
    """Malformed RFC 6242 framing."""


class SessionError(NetconfError):
    """The session cannot carry the RPC: hello not complete yet, or the
    session closed (a pending RPC fails with it at the close)."""


class RpcTimeout(NetconfError):
    """An RPC's reply did not arrive before its deadline.

    Raised exactly once per timed-out RPC: the pending handle expires,
    deregisters, and a late reply is counted but never resolves it.
    """


class RpcError(NetconfError):
    """An <rpc-error> reply, raised client-side.

    Mirrors the RFC 6241 error fields the server filled in.
    """

    def __init__(self, error_type: str = "application",
                 tag: str = "operation-failed",
                 severity: str = "error",
                 message: str = "", info: Optional[str] = None):
        super().__init__(message or tag)
        self.error_type = error_type
        self.tag = tag
        self.severity = severity
        self.message = message
        self.info = info

    def __repr__(self) -> str:
        return "RpcError(%s/%s: %s)" % (self.error_type, self.tag,
                                        self.message)
