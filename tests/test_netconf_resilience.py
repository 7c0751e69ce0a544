"""NETCONF client hardening: deadlines, malformed frames, broken framing.

The chaos scenarios lean on these properties: a timed-out RPC raises
exactly once and deregisters (its late reply is counted, never
resolved), a frame that cannot be read is answered or dropped, and
bytes that break the framing end the session — never the simulator.
"""

import xml.etree.ElementTree as ET

import pytest

from repro.netconf import (NetconfClient, NetconfError, NetconfServer,
                           RpcTimeout, SessionError, TransportPair,
                           VNFAgent)
from repro.netconf import messages as nc
from repro.netconf.vnf_yang import VNF_NS
from repro.netem import Network
from repro.sim import Simulator


def element(tag, text=None, ns="urn:test"):
    node = ET.Element(nc.qn(tag, ns))
    if text is not None:
        node.text = text
    return node


def ping(client):
    """Some RPC: the ``ping`` every server in this file answers."""
    return client.request(element("ping"))


def ping_server(transport):
    server = NetconfServer(transport)
    server.register_rpc("ping", lambda _operation: None)
    return server


def connected_pair(sim=None):
    sim = sim or Simulator()
    pair = TransportPair(sim, latency=0.001)
    server = ping_server(pair.server)
    client = NetconfClient(pair.client)
    client.wait_connected()
    sim.run(until=sim.now + 0.1)
    return sim, server, client


def metric_value(sim, name):
    metric = sim.telemetry.metrics.get(name)
    return metric.value if metric is not None else 0


class TestRpcTimeout:
    def test_timeout_raises_and_deregisters(self):
        sim, _server, client = connected_pair()
        client.transport.blackhole = True
        before = metric_value(sim, "netconf.client.rpc_timeouts")
        pending = ping(client)
        with pytest.raises(RpcTimeout):
            pending.result(sim, timeout=0.5)
        assert pending.message_id not in client._pending
        assert metric_value(sim, "netconf.client.rpc_timeouts") == before + 1

    def test_timeout_raises_exactly_once(self):
        sim, _server, client = connected_pair()
        client.transport.blackhole = True
        pending = ping(client)
        with pytest.raises(RpcTimeout):
            pending.result(sim, timeout=0.5)
        # the handle stays failed; a second read raises the same error
        with pytest.raises(RpcTimeout):
            pending.result(sim, timeout=0.5)

    def test_late_reply_counted_not_resolved(self):
        """The reply crawls in after the deadline: it must not resolve
        the dead handle, only bump the late-reply counter."""
        sim, _server, client = connected_pair()
        client.transport.peer.fault_latency = 2.0  # slow server->client
        before = metric_value(sim, "netconf.client.late_replies")
        pending = ping(client)
        with pytest.raises(RpcTimeout):
            pending.result(sim, timeout=0.5)
        sim.run(until=sim.now + 5.0)  # the reply lands now
        assert pending.reply is None
        assert pending.error is not None
        assert metric_value(sim, "netconf.client.late_replies") == before + 1

    def test_reply_due_after_the_deadline_times_out_at_the_deadline(self):
        """``result`` waits through ``Simulator.wait``: the reply is
        queued but due later than the deadline, so the wait gives up
        without running it or moving the clock past the deadline, and
        the handle is failed and deregistered."""
        sim, _server, client = connected_pair()
        client.transport.peer.fault_latency = 2.0  # slow server->client
        start = sim.now
        pending = ping(client)  # no expiry event armed
        with pytest.raises(RpcTimeout):
            pending.result(sim, timeout=0.5)
        assert start < sim.now <= start + 0.5  # the request was delivered
        assert sim.pending == 1                # the reply is still queued
        assert pending.done and pending.reply is None
        assert pending.message_id not in client._pending
        # and from inside a callback, with the run loop underneath
        waited = []

        def blocking_call():
            called_at = sim.now
            with pytest.raises(RpcTimeout):
                client.call(element("ping"), timeout=0.5)
            waited.append(sim.now - called_at)

        sim.schedule(3.0, blocking_call)
        sim.run(until=sim.now + 10.0)
        assert waited == [pytest.approx(0.5)]  # ended by its own expiry
        assert client._pending == {}

    def test_default_timeout_expires_event_driven_rpcs(self):
        sim = Simulator()
        pair = TransportPair(sim, latency=0.001)
        ping_server(pair.server)
        client = NetconfClient(pair.client, default_timeout=0.5)
        client.wait_connected()
        sim.run(until=sim.now + 0.1)
        client.transport.blackhole = True
        pending = ping(client)  # nobody calls result()
        sim.run(until=sim.now + 2.0)
        assert pending.done
        assert isinstance(pending.error, RpcTimeout)
        assert pending.message_id not in client._pending

    def test_fast_rpc_unaffected_by_deadline(self):
        sim, _server, client = connected_pair()
        reply = ping(client).result(sim, timeout=5.0)
        assert reply is not None


def _with_encoding(element, encoding):
    """``element`` serialised with ``encoding`` in its XML declaration
    in place of ``utf-8``."""
    data = nc.to_xml(element)
    assert b"encoding='utf-8'" in data
    return data.replace(b"utf-8", encoding, 1)


class TestMalformedFrames:
    """A frame the XML parser cannot read is a ``NetconfError`` however
    it fails — a syntax error, or a declared encoding that does not
    exist (``utf-9``, a ``LookupError`` inside the parser) — and a
    ``NetconfError`` inside a simulator callback is answered or
    dropped, never raised out of ``sim.run``."""

    def test_every_bit_flip_of_the_encoding_is_a_netconf_error(self):
        clean = _with_encoding(nc.build_rpc(7, element("get")), b"utf-8")
        start = clean.index(b"utf-8")
        unknown = 0
        for bit in range(5 * 8):
            data = bytearray(clean)
            data[start + bit // 8] ^= 1 << (bit % 8)
            try:
                nc.parse_message(bytes(data))
            except NetconfError as exc:
                unknown += "encoding" in str(exc)
        assert unknown >= 18  # utf-9, ttf-8, utf-x, ...
        for encoding in (b"utf-9", b"utf-32"):
            with pytest.raises(NetconfError, match="malformed XML"):
                nc.from_xml(_with_encoding(nc.build_rpc_reply(1),
                                           encoding))

    def test_non_integer_message_id_is_a_netconf_error(self):
        rpc = nc.build_rpc(7, element("get"))
        rpc.set("message-id", "7q")
        with pytest.raises(NetconfError, match="not an integer"):
            nc.rpc_message_id(rpc)

    def test_server_answers_malformed_message_and_keeps_serving(self):
        sim, server, client = connected_pair()
        answered = []
        send = server.transport.send
        server.transport.send = lambda data: (answered.append(data),
                                              send(data))
        bad = _with_encoding(nc.build_rpc(99, element("ping")), b"utf-9")
        client.transport.send(client._tx_framer.frame(bad))
        sim.run(until=sim.now + 0.1)  # raises nothing
        [reply] = answered
        assert b"malformed-message" in reply
        assert b"unknown encoding" in reply
        assert ping(client).result(sim) is not None

    def test_client_drops_a_reply_it_cannot_read(self):
        sim, server, client = connected_pair()
        client.transport.blackhole = True  # the server never sees it
        pending = ping(client)
        for encoding in (b"utf-9", b"utf-8"):
            reply = nc.build_rpc_reply(pending.message_id)
            if encoding == b"utf-8":
                reply.set("message-id", "%dq" % pending.message_id)
            server.transport.send(server._tx_framer.frame(
                _with_encoding(reply, encoding)))
        with pytest.raises(RpcTimeout):
            pending.result(sim, timeout=0.5)
        dropped = sim.telemetry.events.query(source="netconf.client",
                                             name="message.malformed")
        assert [("unknown encoding" in event.message,
                 "not an integer" in event.message)
                for event in dropped] == [(True, False), (False, True)]
        client.transport.blackhole = False
        assert ping(client).result(sim) is not None


class TestBrokenFraming:
    """Bytes that break the chunked framing end the session, from
    whichever end reads them: one ``framing.error`` warn event, the
    transport closed, every pending RPC failed with ``SessionError``
    at once and every later one refused — never a ``FramingError``
    out of the simulator, and never an RPC left to its deadline."""

    @pytest.fixture
    def managed(self):
        net = Network()
        container = net.add_vnf_container("nc1", cpu=2.0, mem=1024.0)
        pair = TransportPair(net.sim, latency=0.001)
        agent = VNFAgent(container, pair.server)
        client = NetconfClient(pair.client)
        client.wait_connected()
        net.run(0.1)
        client.rpc("startVNF", VNF_NS, {
            "id": "v1", "click-config": "Idle -> cnt :: Counter -> Discard;",
            "devices": ""}).result(net.sim)
        return net, agent, client

    @staticmethod
    def read_count(client):
        return client.rpc("getVNFInfo", VNF_NS,
                          {"id": "v1", "handler": "cnt.count"})

    @staticmethod
    def warnings(net):
        return [(event.source, event.name) for event
                in net.sim.telemetry.events.query(min_severity="WARN")]

    def test_zero_length_chunk_to_the_agent(self, managed):
        net, agent, client = managed
        assert self.read_count(client).result(net.sim) is not None
        client.transport.send(b"\n#0\n")
        net.run(0.1)  # raises nothing
        assert self.warnings(net) == [("netconf.server", "framing.error")]
        assert agent.server.closed and client.closed
        with pytest.raises(SessionError):
            self.read_count(client)

    def test_bad_chunk_header_to_the_client(self, managed):
        net, agent, client = managed
        client.transport.blackhole = True  # the agent never sees it
        pending = self.read_count(client)
        agent.server.transport.send(b"\n#zz\n" + b"<rpc-reply/>")
        net.run(0.1)  # raises nothing
        assert self.warnings(net) == [("netconf.client", "framing.error")]
        assert pending.done and isinstance(pending.error, SessionError)
        assert client._pending == {}
        with pytest.raises(SessionError):
            self.read_count(client)
