"""NETCONF server (agent side).

Speaks hello and ``close-session`` over a transport and dispatches
every other ``<rpc>`` to a registered handler; an operation nothing
registered (``get`` and ``edit-config`` among them) is answered with
``operation-not-supported``.  After the hello exchange the session
upgrades to chunked framing when both peers advertise :base:1.1,
exactly as RFC 6242 prescribes.  Bytes that break the framing end the
session with one ``framing.error`` warn event.
"""

import itertools
import xml.etree.ElementTree as ET
from typing import Callable, Dict, List, Optional

from repro.netconf.errors import FramingError, NetconfError, RpcError
from repro.netconf.framing import ChunkedFramer, EomFramer
from repro.netconf import messages as nc
from repro.netconf.transport import InMemoryTransport

_session_ids = itertools.count(1)

RpcHandler = Callable[[ET.Element], Optional[List[ET.Element]]]


class NetconfServer:
    """One agent endpoint; create per accepted transport."""

    def __init__(self, transport: InMemoryTransport,
                 capabilities: Optional[List[str]] = None):
        self.transport = transport
        self.session_id = next(_session_ids)
        self.capabilities = list(capabilities or []) or [nc.CAP_BASE_10,
                                                         nc.CAP_BASE_11]
        self._rpc_handlers: Dict[str, RpcHandler] = {}
        self._rx_framer = EomFramer()
        self._tx_framer = EomFramer()
        self.peer_capabilities: Optional[List[str]] = None
        self.closed = False
        self.rpc_count = 0
        transport.set_receiver(self._receive)
        self._send(nc.build_hello(self.capabilities, self.session_id))

    # -- registration ----------------------------------------------------

    def register_rpc(self, name: str, handler: RpcHandler) -> None:
        """Handle a custom RPC by local name.  The handler receives the
        operation element and returns reply children (None = <ok/>)."""
        self._rpc_handlers[name] = handler

    # -- plumbing -----------------------------------------------------------

    def _send(self, element: ET.Element) -> None:
        if self.closed:
            return
        self.transport.send(self._tx_framer.frame(nc.to_xml(element)))

    def _receive(self, data: bytes) -> None:
        if self.closed:
            return
        try:
            payloads = self._rx_framer.feed(data)
        except FramingError as exc:
            self.transport.sim.telemetry.events.warn(
                "netconf.server", "framing.error", str(exc),
                session=self.session_id)
            self.close()
            return
        for payload in payloads:
            self._handle_message(payload)

    def _maybe_upgrade_framing(self) -> None:
        if (nc.CAP_BASE_11 in self.capabilities
                and self.peer_capabilities is not None
                and nc.CAP_BASE_11 in self.peer_capabilities):
            self._rx_framer = ChunkedFramer()
            self._tx_framer = ChunkedFramer()

    def _handle_message(self, payload: bytes) -> None:
        try:
            kind, root = nc.parse_message(payload)
        except NetconfError as exc:
            self._send(nc.build_rpc_error(None, RpcError(
                error_type="protocol", tag="malformed-message",
                message=str(exc))))
            return
        if kind == "hello":
            self.peer_capabilities = nc.hello_capabilities(root)
            self._maybe_upgrade_framing()
            return
        if kind != "rpc":
            return  # agents ignore stray rpc-replies
        if self.peer_capabilities is None:
            self._send(nc.build_rpc_error(None, RpcError(
                error_type="protocol", tag="operation-failed",
                message="rpc before hello")))
            return
        self._dispatch_rpc(root)

    # -- rpc dispatch ---------------------------------------------------------

    def _dispatch_rpc(self, rpc: ET.Element) -> None:
        self.rpc_count += 1
        try:
            message_id = nc.rpc_message_id(rpc)
        except NetconfError as exc:
            self._send(nc.build_rpc_error(None, RpcError(
                error_type="rpc", tag="missing-attribute",
                message=str(exc))))
            return
        try:
            operation = nc.rpc_operation(rpc)
            body = self._execute(operation)
            self._send(nc.build_rpc_reply(message_id, body))
        except RpcError as error:
            self._send(nc.build_rpc_error(message_id, error))
        except NetconfError as exc:
            self._send(nc.build_rpc_error(message_id, RpcError(
                tag="operation-failed", message=str(exc))))

    def _execute(self, operation: ET.Element) -> Optional[List[ET.Element]]:
        name = nc.local_name(operation.tag)
        if name == "close-session":
            # the dispatcher sends the <ok/> first; close right after
            self.transport.sim.schedule(0.0, self.close)
            return None
        handler = self._rpc_handlers.get(name)
        if handler is None:
            raise RpcError(error_type="protocol",
                           tag="operation-not-supported",
                           message="unknown operation %r" % name)
        return handler(operation)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.transport.close()

    def hang_up(self) -> None:
        """Drop the session and every handler registered on it."""
        self.closed = True
        self.transport.hang_up()
        self._rpc_handlers.clear()

    def __repr__(self) -> str:
        return "NetconfServer(session=%d, %d rpcs, %s)" % (
            self.session_id, self.rpc_count,
            "closed" if self.closed else "open")
