"""Tests for NETCONF messages and server/client sessions."""

import xml.etree.ElementTree as ET

import pytest

from repro.netconf import (NetconfClient, NetconfServer, RpcError,
                           SessionError, TransportPair)
from repro.netconf import messages as nc
from repro.sim import Simulator


def element(tag, text=None, ns="urn:test", children=()):
    node = ET.Element(nc.qn(tag, ns))
    if text is not None:
        node.text = text
    for child in children:
        node.append(child)
    return node


class TestMessages:
    def test_hello_roundtrip(self):
        hello = nc.build_hello(["cap-a", "cap-b"], session_id=7)
        kind, root = nc.parse_message(nc.to_xml(hello))
        assert kind == "hello"
        assert nc.hello_capabilities(root) == ["cap-a", "cap-b"]
        assert nc.hello_session_id(root) == 7

    def test_rpc_wrapping(self):
        rpc = nc.build_rpc(42, element("my-op"))
        kind, root = nc.parse_message(nc.to_xml(rpc))
        assert kind == "rpc"
        assert nc.rpc_message_id(root) == 42
        assert nc.local_name(nc.rpc_operation(root).tag) == "my-op"

    def test_rpc_reply_ok(self):
        reply = nc.build_rpc_reply(1)
        assert reply.find(nc.qn("ok")) is not None
        assert nc.parse_rpc_error(reply) is None

    def test_rpc_error_roundtrip(self):
        reply = nc.build_rpc_error(3, RpcError(
            error_type="application", tag="invalid-value",
            message="bad leaf"))
        error = nc.parse_rpc_error(reply)
        assert error.tag == "invalid-value"
        assert error.message == "bad leaf"

    def test_malformed_xml_rejected(self):
        from repro.netconf import NetconfError
        with pytest.raises(NetconfError):
            nc.parse_message(b"<unclosed>")

    def test_unknown_root_rejected(self):
        from repro.netconf import NetconfError
        with pytest.raises(NetconfError):
            nc.parse_message(b"<wat/>")

    def test_namespace_helpers(self):
        tag = nc.qn("thing", "urn:example")
        assert tag == "{urn:example}thing"
        assert nc.local_name(tag) == "thing"
        assert nc.local_name("bare") == "bare"

    def test_rpc_requires_one_operation(self):
        from repro.netconf import NetconfError
        rpc = nc.build_rpc(1, element("op"))
        rpc.append(element("op2"))
        with pytest.raises(NetconfError):
            nc.rpc_operation(rpc)


def ping(client):
    """Some RPC: the ``ping`` :func:`serve_ping` registers."""
    return client.rpc("ping", "urn:test")


def serve_ping(server):
    server.register_rpc("ping", lambda _operation: None)
    return server


def connected_pair(sim=None, **server_kwargs):
    sim = sim or Simulator()
    pair = TransportPair(sim, latency=0.001)
    server = serve_ping(NetconfServer(pair.server, **server_kwargs))
    client = NetconfClient(pair.client)
    client.wait_connected()
    # wait_connected returns on the server->client hello; give the
    # client->server hello (still in flight) time to land too.
    sim.run(until=sim.now + 0.1)
    return sim, server, client


class TestSession:
    def test_hello_exchange(self):
        _sim, server, client = connected_pair()
        assert client.session_id == server.session_id
        assert nc.CAP_BASE_10 in client.server_capabilities
        assert server.peer_capabilities is not None

    def test_chunked_upgrade_when_both_support_11(self):
        from repro.netconf.framing import ChunkedFramer
        _sim, server, client = connected_pair()
        assert isinstance(client._tx_framer, ChunkedFramer)
        assert isinstance(server._tx_framer, ChunkedFramer)

    def test_stays_eom_when_server_is_10_only(self):
        from repro.netconf.framing import EomFramer
        sim = Simulator()
        pair = TransportPair(sim)
        serve_ping(NetconfServer(pair.server,
                                 capabilities=[nc.CAP_BASE_10]))
        client = NetconfClient(pair.client)
        client.wait_connected()
        assert isinstance(client._tx_framer, EomFramer)
        # and RPCs still work
        reply = ping(client).result(sim)
        assert reply is not None

    def test_rpc_before_hello_rejected(self):
        sim = Simulator()
        pair = TransportPair(sim)
        NetconfServer(pair.server)
        client = NetconfClient(pair.client)
        with pytest.raises(SessionError):
            ping(client)

    def test_unknown_rpc_returns_error(self):
        sim, _server, client = connected_pair()
        with pytest.raises(RpcError) as exc:
            client.rpc("fly-to-the-moon", "urn:test").result(sim)
        assert exc.value.tag == "operation-not-supported"

    def test_custom_rpc_dispatch(self):
        sim, server, client = connected_pair()

        def add(operation):
            values = [int(child.text) for child in operation]
            result = element("sum", str(sum(values)))
            return [result]

        server.register_rpc("add", add)
        reply = client.rpc("add", "urn:test",
                           {"x": "2", "y": "3"}).result(sim)
        assert reply.find("{urn:test}sum").text == "5"

    def test_handler_exception_becomes_rpc_error(self):
        sim, server, client = connected_pair()

        def boom(_operation):
            raise RpcError(tag="operation-failed", message="kaput")

        server.register_rpc("boom", boom)
        with pytest.raises(RpcError) as exc:
            client.rpc("boom", "urn:test").result(sim)
        assert exc.value.message == "kaput"

    def test_concurrent_rpcs_matched_by_id(self):
        sim, server, client = connected_pair()
        server.register_rpc(
            "echo", lambda op: [element("v", op[0].text)])
        op1 = ET.Element(nc.qn("echo", "urn:test"))
        ET.SubElement(op1, nc.qn("v", "urn:test")).text = "one"
        op2 = ET.Element(nc.qn("echo", "urn:test"))
        ET.SubElement(op2, nc.qn("v", "urn:test")).text = "two"
        pending1 = client.request(op1)
        pending2 = client.request(op2)
        sim.run(until=sim.now + 1.0)
        assert pending1.reply.find("{urn:test}v").text == "one"
        assert pending2.reply.find("{urn:test}v").text == "two"

    def test_close_session(self):
        sim, server, client = connected_pair()
        client.close().result(sim)
        sim.run(until=sim.now + 0.1)
        assert server.closed
        assert client.closed
        with pytest.raises(SessionError):
            ping(client)

    def test_on_done_callback(self):
        sim, _server, client = connected_pair()
        done = []
        ping(client).on_done(lambda pending: done.append(pending))
        sim.run(until=sim.now + 1.0)
        assert len(done) == 1
        assert done[0].done

    def test_result_timeout(self):
        from repro.netconf import NetconfError
        sim = Simulator()
        pair = TransportPair(sim)
        serve_ping(NetconfServer(pair.server))
        client = NetconfClient(pair.client)
        client.wait_connected()
        pair.client.closed = True  # silently break the pipe
        pending = ping(client)
        with pytest.raises(NetconfError):
            pending.result(sim, timeout=1.0)

    def test_rpc_count_tracked(self):
        sim, server, client = connected_pair()
        ping(client).result(sim)
        ping(client).result(sim)
        assert server.rpc_count == 2
        assert client.rpcs_sent == 2
