"""NETCONF server (agent side).

Speaks hello + base operations over a transport, dispatches custom RPCs
to registered handlers, and serves get/get-config/edit-config from a
:class:`~repro.netconf.datastore.Datastore`.  After the hello exchange
the session upgrades to chunked framing when both peers advertise
:base:1.1, exactly as RFC 6242 prescribes.
"""

import itertools
import xml.etree.ElementTree as ET
from typing import Callable, Dict, List, Optional

from repro.netconf.datastore import Datastore, DatastoreError
from repro.netconf.errors import NetconfError, RpcError, SessionError
from repro.netconf.framing import ChunkedFramer, EomFramer
from repro.netconf import messages as nc
from repro.netconf.transport import InMemoryTransport

_session_ids = itertools.count(1)

RpcHandler = Callable[[ET.Element], Optional[List[ET.Element]]]


class NetconfServer:
    """One agent endpoint; create per accepted transport."""

    def __init__(self, transport: InMemoryTransport,
                 capabilities: Optional[List[str]] = None,
                 candidate: bool = True):
        self.transport = transport
        self.session_id = next(_session_ids)
        self.capabilities = list(capabilities or []) or [nc.CAP_BASE_10,
                                                         nc.CAP_BASE_11]
        self.datastores = {"running": Datastore("running")}
        if candidate:
            self.datastores["candidate"] = Datastore("candidate")
            if nc.CAP_CANDIDATE not in self.capabilities:
                self.capabilities.append(nc.CAP_CANDIDATE)
        self.locks: Dict[str, int] = {}  # datastore -> session id
        self._rpc_handlers: Dict[str, RpcHandler] = {}
        # run before a <get> of operational state (an agent regenerates
        # the state it serves)
        self.before_get: Optional[Callable[[], None]] = None
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

    def datastore(self, name: str) -> Datastore:
        store = self.datastores.get(name)
        if store is None:
            raise RpcError(tag="invalid-value",
                           message="no datastore %r" % name)
        return store

    # -- plumbing -----------------------------------------------------------

    def _send(self, element: ET.Element) -> None:
        if self.closed:
            return
        self.transport.send(self._tx_framer.frame(nc.to_xml(element)))

    def _receive(self, data: bytes) -> None:
        if self.closed:
            return
        for payload in self._rx_framer.feed(data):
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
        except (NetconfError, DatastoreError) as exc:
            self._send(nc.build_rpc_error(message_id, RpcError(
                tag="operation-failed", message=str(exc))))

    def _execute(self, operation: ET.Element) -> Optional[List[ET.Element]]:
        name = nc.local_name(operation.tag)
        if name == "get":
            return self._op_get(operation, config_only=False)
        if name == "get-config":
            return self._op_get(operation, config_only=True)
        if name == "edit-config":
            return self._op_edit_config(operation)
        if name == "close-session":
            self._send_close_ok_then_close()
            return None
        if name == "commit":
            return self._op_commit()
        if name == "discard-changes":
            return self._op_discard()
        if name == "lock":
            return self._op_lock(operation, acquire=True)
        if name == "unlock":
            return self._op_lock(operation, acquire=False)
        if name == "validate":
            return None  # schema-backed stores validate on edit
        handler = self._rpc_handlers.get(name)
        if handler is None:
            raise RpcError(error_type="protocol",
                           tag="operation-not-supported",
                           message="unknown operation %r" % name)
        return handler(operation)

    def _send_close_ok_then_close(self) -> None:
        # reply is emitted by the dispatcher; close shortly after so the
        # <ok/> still goes out first.
        self.transport.sim.schedule(0.0, self.close)

    def _op_get(self, operation: ET.Element,
                config_only: bool) -> List[ET.Element]:
        if not config_only and self.before_get is not None:
            self.before_get()
        source = "running"
        if config_only:
            source_el = operation.find(nc.qn("source"))
            if source_el is not None and len(source_el):
                source = nc.local_name(list(source_el)[0].tag)
        store = self.datastore(source)
        filter_el = operation.find(nc.qn("filter"))
        subtree = None
        if filter_el is not None and len(filter_el):
            subtree = list(filter_el)[0]
        return [store.get_subtree(subtree)]

    def _op_edit_config(self, operation: ET.Element) -> None:
        target_el = operation.find(nc.qn("target"))
        if target_el is None or not len(target_el):
            raise RpcError(tag="missing-element", message="no target")
        target = nc.local_name(list(target_el)[0].tag)
        holder = self.locks.get(target)
        if holder is not None and holder != self.session_id:
            raise RpcError(tag="lock-denied",
                           message="datastore %r locked by session %d"
                           % (target, holder), info=str(holder))
        default_op = "merge"
        default_el = operation.find(nc.qn("default-operation"))
        if default_el is not None and default_el.text:
            default_op = default_el.text.strip()
        config_el = operation.find(nc.qn("config"))
        if config_el is None:
            raise RpcError(tag="missing-element", message="no config")
        store = self.datastore(target)
        for fragment in config_el:
            store.edit(fragment, default_op)
        return None

    def _op_commit(self) -> None:
        """Copy candidate -> running (RFC 6241 §8.3)."""
        candidate = self.datastores.get("candidate")
        if candidate is None:
            raise RpcError(error_type="protocol",
                           tag="operation-not-supported",
                           message="no candidate datastore")
        self.datastore("running").copy_from(candidate)
        return None

    def _op_discard(self) -> None:
        """Reset candidate to the running configuration."""
        candidate = self.datastores.get("candidate")
        if candidate is None:
            raise RpcError(error_type="protocol",
                           tag="operation-not-supported",
                           message="no candidate datastore")
        candidate.copy_from(self.datastore("running"))
        return None

    def _op_lock(self, operation, acquire: bool) -> None:
        target_el = operation.find(nc.qn("target"))
        if target_el is None or not len(target_el):
            raise RpcError(tag="missing-element", message="no target")
        target = nc.local_name(list(target_el)[0].tag)
        self.datastore(target)  # existence check
        holder = self.locks.get(target)
        if acquire:
            if holder is not None and holder != self.session_id:
                raise RpcError(tag="lock-denied",
                               message="locked by session %d" % holder,
                               info=str(holder))
            self.locks[target] = self.session_id
        else:
            if holder is not None and holder != self.session_id:
                raise RpcError(tag="lock-denied",
                               message="locked by session %d" % holder)
            self.locks.pop(target, None)
        return None

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.transport.close()

    def hang_up(self) -> None:
        """Drop the session and every handler registered on it."""
        self.closed = True
        self.transport.hang_up()
        self._rpc_handlers.clear()
        self.before_get = None

    def __repr__(self) -> str:
        return "NetconfServer(session=%d, %d rpcs, %s)" % (
            self.session_id, self.rpc_count,
            "closed" if self.closed else "open")
