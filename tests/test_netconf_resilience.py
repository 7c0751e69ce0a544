"""NETCONF client hardening: deadlines, retries, reconnects.

The chaos scenarios lean on these properties: a timed-out RPC raises
exactly once and deregisters (its late reply is counted, never
resolved), retries back off exponentially, and a dead session can be
re-dialed through a transport factory.
"""

import xml.etree.ElementTree as ET

import pytest

from repro.netconf import (NetconfClient, NetconfServer, RpcError,
                           RpcTimeout, SessionError, TransportPair)
from repro.netconf import messages as nc
from repro.sim import Simulator


def element(tag, text=None, ns="urn:test"):
    node = ET.Element(nc.qn(tag, ns))
    if text is not None:
        node.text = text
    return node


def connected_pair(sim=None, **server_kwargs):
    sim = sim or Simulator()
    pair = TransportPair(sim, latency=0.001)
    server = NetconfServer(pair.server, **server_kwargs)
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
        pending = client.get()
        with pytest.raises(RpcTimeout):
            pending.result(sim, timeout=0.5)
        assert pending.message_id not in client._pending
        assert metric_value(sim, "netconf.client.rpc_timeouts") == before + 1

    def test_timeout_raises_exactly_once(self):
        sim, _server, client = connected_pair()
        client.transport.blackhole = True
        pending = client.get()
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
        pending = client.get()
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
        pending = client.request(nc.build_get())  # no expiry event armed
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
                client.call(nc.build_get(), timeout=0.5)
            waited.append(sim.now - called_at)

        sim.schedule(3.0, blocking_call)
        sim.run(until=sim.now + 10.0)
        assert waited == [pytest.approx(0.5)]  # ended by its own expiry
        assert client._pending == {}

    def test_default_timeout_expires_event_driven_rpcs(self):
        sim = Simulator()
        pair = TransportPair(sim, latency=0.001)
        NetconfServer(pair.server)
        client = NetconfClient(pair.client, default_timeout=0.5)
        client.wait_connected()
        sim.run(until=sim.now + 0.1)
        client.transport.blackhole = True
        pending = client.get()  # nobody calls result()
        sim.run(until=sim.now + 2.0)
        assert pending.done
        assert isinstance(pending.error, RpcTimeout)
        assert pending.message_id not in client._pending

    def test_fast_rpc_unaffected_by_deadline(self):
        sim, _server, client = connected_pair()
        reply = client.get().result(sim, timeout=5.0)
        assert reply is not None


class TestRetry:
    def test_retry_succeeds_after_transient_blackhole(self):
        sim, server, client = connected_pair()
        client.transport.blackhole = True
        # heal the pipe while the first attempt is timing out
        sim.schedule(0.7, setattr, client.transport, "blackhole", False)
        reply = client.call_with_retry(nc.build_get(), timeout=0.5,
                                       retries=3, backoff=0.25)
        assert reply is not None
        assert client.rpcs_sent >= 2

    def test_retries_exhausted_raises_last_error(self):
        sim, _server, client = connected_pair()
        client.transport.blackhole = True
        with pytest.raises(RpcTimeout):
            client.call_with_retry(nc.build_get(), timeout=0.2,
                                   retries=2, backoff=0.05)

    def test_rpc_error_is_final_no_retry(self):
        sim, server, client = connected_pair()

        def boom(_operation):
            raise RpcError(message="nope")

        server.register_rpc("boom", boom)
        sent_before = client.rpcs_sent
        with pytest.raises(RpcError):
            client.call_with_retry(element("boom"), timeout=1.0,
                                   retries=3)
        assert client.rpcs_sent == sent_before + 1  # exactly one try

    def test_backoff_is_exponential(self):
        sim, _server, client = connected_pair()
        client.transport.blackhole = True
        sent_before = client.rpcs_sent
        start = sim.now
        with pytest.raises(RpcTimeout):
            client.call_with_retry(nc.build_get(), timeout=0.1,
                                   retries=2, backoff=0.2,
                                   backoff_factor=2.0)
        assert client.rpcs_sent == sent_before + 3  # 1 try + 2 retries
        # blackholed attempts expire without advancing the clock; the
        # elapsed time is the backoff sleeps: 0.2 + 0.4
        assert sim.now - start >= 0.6 - 1e-9


class TestReconnect:
    def _factory_pair(self):
        sim = Simulator()
        holder = {}

        def factory():
            pair = TransportPair(sim, latency=0.001)
            holder["server"] = NetconfServer(pair.server)
            return pair.client

        client = NetconfClient(factory())
        client.set_transport_factory(factory)
        client.wait_connected()
        sim.run(until=sim.now + 0.1)
        return sim, holder, client

    def test_reconnect_establishes_fresh_session(self):
        sim, holder, client = self._factory_pair()
        old_transport = client.transport
        client.reconnect()
        assert client.transport is not old_transport
        assert client.connected
        assert client.reconnects == 1
        assert client.get().result(sim) is not None

    def test_reconnect_fails_inflight_rpcs(self):
        sim, _holder, client = self._factory_pair()
        client.transport.blackhole = True
        pending = client.get()
        client.reconnect()
        assert pending.done
        assert isinstance(pending.error, SessionError)

    def test_reconnect_without_factory_raises(self):
        _sim, _server, client = connected_pair()
        with pytest.raises(SessionError):
            client.reconnect()

    def test_retry_reconnects_dead_session(self):
        sim, holder, client = self._factory_pair()
        client.closed = True  # the session died (e.g. agent restart)
        reply = client.call_with_retry(nc.build_get(), timeout=1.0)
        assert reply is not None
        assert client.reconnects == 1
