"""NETCONF client (the orchestrator's manager side).

Resilience model (exercised by :mod:`repro.chaos`): every RPC can carry
a per-request deadline — on expiry the pending handle fails exactly
once, deregisters, and any late reply is counted
(``netconf.client.late_replies``) but never resolves it; a frame that
cannot be read is dropped with a ``message.malformed`` warn event;
bytes that break the framing end the session with a ``framing.error``
warn event.  When the session closes, from either end, every pending
RPC fails at once with :class:`SessionError`.
"""

import itertools
import xml.etree.ElementTree as ET
from typing import Callable, Dict, List, Optional

from repro.netconf.errors import (FramingError, NetconfError, RpcTimeout,
                                  SessionError)
from repro.netconf.framing import ChunkedFramer, EomFramer
from repro.netconf import messages as nc
from repro.netconf.transport import InMemoryTransport
from repro.sim import Simulator


class PendingReply:
    """Future-like handle for an in-flight RPC.

    Fills in when the rpc-reply arrives; :meth:`result` pumps the
    simulator until then (usable from top-level driver code *and* from
    inside sim callbacks — the simulator supports nested stepping).
    ``on_done`` callbacks support fully event-driven callers.
    """

    def __init__(self, message_id: int):
        self.message_id = message_id
        self.sent_at: Optional[float] = None
        self.done = False
        self.reply: Optional[ET.Element] = None
        self.error: Optional[NetconfError] = None
        self._callbacks: List[Callable[["PendingReply"], None]] = []
        self._expiry = None  # scheduled expiry Event, if a timeout is set
        self._owner: Optional["NetconfClient"] = None  # for deregistration

    def on_done(self, callback: Callable[["PendingReply"], None]) -> None:
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _settle(self) -> None:
        self.done = True
        if self._expiry is not None:
            self._expiry.cancel()
            self._expiry = None
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def _resolve(self, reply: ET.Element) -> None:
        self.reply = reply
        self.error = nc.parse_rpc_error(reply)
        self._settle()

    def _fail(self, error: NetconfError) -> None:
        """Terminal failure without a reply (timeout, session loss)."""
        self.error = error
        self._settle()

    def result(self, sim: Simulator, timeout: float = 10.0) -> ET.Element:
        """Run the simulation until the reply lands; raises RpcError on
        an error reply, RpcTimeout when the deadline passes, SessionError
        when the session closes first."""
        if not sim.wait(lambda: self.done, timeout):
            if self._owner is not None:
                # deregister too — a late reply must not find us
                self._owner._expire(self.message_id)
            else:
                self._fail(RpcTimeout("rpc %d timed out after %.3fs"
                                      % (self.message_id, timeout)))
        if self.error is not None:
            raise self.error
        return self.reply

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return "PendingReply(id=%d, %s)" % (self.message_id, state)


class NetconfClient:
    """Manager endpoint: hello, rpc issue/track, custom RPCs, close.

    ``default_timeout`` (None = no per-RPC deadline) applies to every
    request that does not pass its own; expired RPCs raise
    :class:`RpcTimeout` once and count ``netconf.client.rpc_timeouts``.
    """

    CAPABILITIES = (nc.CAP_BASE_10, nc.CAP_BASE_11)
    HELLO_TIMEOUT = 5.0  # simulated seconds wait_connected waits

    def __init__(self, transport: InMemoryTransport,
                 default_timeout: Optional[float] = None):
        self.transport = transport
        self.sim = transport.sim
        self.server_capabilities: Optional[List[str]] = None
        self.session_id: Optional[int] = None
        self.default_timeout = default_timeout
        self._rx_framer = EomFramer()
        self._tx_framer = EomFramer()
        self._message_ids = itertools.count(101)
        self._pending: Dict[int, PendingReply] = {}
        self.closed = False
        self.rpcs_sent = 0
        metrics = self.sim.telemetry.metrics
        self._m_rpcs = metrics.counter(
            "netconf.client.rpcs", "RPCs issued by the orchestrator")
        self._m_rpc_errors = metrics.counter(
            "netconf.client.rpc_errors", "rpc-replies carrying rpc-error")
        self._m_rpc_timeouts = metrics.counter(
            "netconf.client.rpc_timeouts",
            "RPCs that expired before their reply arrived")
        self._m_late_replies = metrics.counter(
            "netconf.client.late_replies",
            "replies that arrived after their RPC already timed out")
        self._m_rpc_latency = metrics.histogram(
            "netconf.client.rpc_latency",
            "simulated request-to-reply seconds")
        self._profiler = self.sim.telemetry.profiler
        transport.set_receiver(self._receive)
        transport.on_close = self._session_closed
        self.transport.send(self._tx_framer.frame(
            nc.to_xml(nc.build_hello(self.CAPABILITIES))))

    # -- plumbing -----------------------------------------------------------

    def _receive(self, data: bytes) -> None:
        if self.closed:
            return
        try:
            payloads = self._rx_framer.feed(data)
        except FramingError as exc:
            self.sim.telemetry.events.warn(
                "netconf.client", "framing.error", str(exc),
                session=self.session_id)
            self.transport.close()  # -> _session_closed
            return
        for payload in payloads:
            self._handle_message(payload)

    def _session_closed(self) -> None:
        """The transport closed: no reply can arrive any more."""
        self.closed = True
        pending, self._pending = self._pending, {}
        for handle in pending.values():
            handle._fail(SessionError("rpc %d: session closed"
                                      % handle.message_id))

    def _handle_message(self, payload: bytes) -> None:
        profiler = self._profiler
        try:
            if profiler.enabled:
                with profiler.profile("netconf.rpc.decode"):
                    kind, root = nc.parse_message(payload)
            else:
                kind, root = nc.parse_message(payload)
            if kind == "hello":
                session_id = nc.hello_session_id(root)
                self.server_capabilities = nc.hello_capabilities(root)
                self.session_id = session_id
                if nc.CAP_BASE_11 in self.server_capabilities:
                    self._rx_framer = ChunkedFramer()
                    self._tx_framer = ChunkedFramer()
                return
            if kind != "rpc-reply" or root.get("message-id") is None:
                return  # unsolicited error without id: nothing to match
            message_id = nc.rpc_message_id(root)
        except NetconfError as exc:
            # a frame that cannot be read is dropped; the RPC it may
            # have answered runs into its deadline
            self.sim.telemetry.events.warn(
                "netconf.client", "message.malformed", str(exc),
                session=self.session_id)
            return
        pending = self._pending.pop(message_id, None)
        if pending is None or pending.done:
            # the RPC already expired (or was never ours): the reply is
            # late — count it, never resolve the dead handle
            self._m_late_replies.inc()
            return
        sent_at = getattr(pending, "sent_at", None)
        if sent_at is not None:
            self._m_rpc_latency.observe(self.sim.now - sent_at)
        pending._resolve(root)
        if pending.error is not None:
            self._m_rpc_errors.inc()

    def _expire(self, message_id: int) -> None:
        """Deadline passed: deregister and fail the pending handle."""
        pending = self._pending.pop(message_id, None)
        if pending is None or pending.done:
            return
        self._m_rpc_timeouts.inc()
        self.sim.telemetry.events.warn(
            "netconf.client", "rpc.timeout",
            "rpc %d expired unanswered" % message_id,
            message_id=message_id, session=self.session_id)
        pending._fail(RpcTimeout("rpc %d timed out" % message_id))

    # -- rpc issue ------------------------------------------------------------

    def request(self, operation: ET.Element,
                timeout: Optional[float] = None) -> PendingReply:
        """Send one RPC; returns the pending reply handle.

        ``timeout`` (or the client's ``default_timeout``) arms a
        deadline: on expiry the handle fails with :class:`RpcTimeout`
        and is deregistered, so a late reply cannot resolve it.
        """
        if self.closed:
            raise SessionError("session is closed")
        if self.session_id is None:
            raise SessionError("hello exchange not complete yet "
                               "(run the simulator first)")
        message_id = next(self._message_ids)
        pending = PendingReply(message_id)
        pending.sent_at = self.sim.now
        pending._owner = self
        self._pending[message_id] = pending
        deadline = timeout if timeout is not None else self.default_timeout
        if deadline is not None:
            pending._expiry = self.sim.schedule(deadline, self._expire,
                                                message_id)
        self.rpcs_sent += 1
        self._m_rpcs.inc()
        profiler = self._profiler
        if profiler.enabled:
            with profiler.profile("netconf.rpc.encode"):
                frame = self._tx_framer.frame(
                    nc.to_xml(nc.build_rpc(message_id, operation)))
        else:
            frame = self._tx_framer.frame(
                nc.to_xml(nc.build_rpc(message_id, operation)))
        self.transport.send(frame)
        return pending

    def call(self, operation: ET.Element,
             timeout: float = 10.0) -> ET.Element:
        """request() + result(): the blocking-style convenience."""
        pending = self.request(operation, timeout=timeout)
        try:
            return pending.result(self.sim, timeout)
        finally:
            # whatever ended the wait, never leave the handle registered
            self._pending.pop(pending.message_id, None)

    def wait_connected(self) -> None:
        """Pump the simulator until the hello exchange completes."""
        if not self.sim.wait(lambda: self.session_id is not None,
                             self.HELLO_TIMEOUT):
            raise SessionError("hello exchange timed out")

    # -- operations ---------------------------------------------------------

    def _build_custom(self, name: str, namespace: str,
                      params: Optional[Dict[str, str]]) -> ET.Element:
        operation = ET.Element(nc.qn(name, namespace))
        for key, value in (params or {}).items():
            ET.SubElement(operation, nc.qn(key, namespace)).text = str(value)
        return operation

    def rpc(self, name: str, namespace: str,
            params: Optional[Dict[str, str]] = None) -> PendingReply:
        """Invoke a custom RPC with simple leaf parameters."""
        return self.request(self._build_custom(name, namespace, params))

    def close(self) -> PendingReply:
        pending = self.request(nc.build_close_session())
        pending.on_done(lambda _reply: self._session_closed())
        return pending

    def __repr__(self) -> str:
        return "NetconfClient(session=%s, %d rpcs, %s)" % (
            self.session_id, self.rpcs_sent,
            "closed" if self.closed else "open")
