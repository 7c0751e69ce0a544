"""Tests for the stock Click element library."""

import pytest

from repro.click import ClickPacket, ConfigError, Router
from repro.packet import (ARP, Ethernet, ICMP, IPv4, TCP, UDP)
from tests.feed import fed_router


def ip_packet(proto_payload=None, srcip="10.0.0.1", dstip="10.0.0.2",
              protocol=17):
    return ClickPacket.from_header(Ethernet(
        src="00:00:00:00:00:01", dst="00:00:00:00:00:02",
        type=Ethernet.IP_TYPE,
        payload=IPv4(srcip=srcip, dstip=dstip, protocol=protocol,
                     payload=proto_payload)))


def run_router(config, count, interval=1e-6, duration=1.0):
    router = fed_router(config, count, interval)
    router.sim.run(until=duration)
    return router


class TestQueues:
    def test_fifo_order(self):
        router = Router.from_config(
            "Idle -> q :: Queue(10); q -> Unqueue -> Discard;")
        queue = router.element("q")
        first = ClickPacket(b"first")
        second = ClickPacket(b"second")
        queue.push(0, first)
        queue.push(0, second)
        assert queue.pull(0) is first
        assert queue.pull(0) is second
        assert queue.pull(0) is None

    def test_tail_drop_at_capacity(self):
        router = Router.from_config(
            "Idle -> q :: Queue(2); q -> Unqueue -> Discard;")
        queue = router.element("q")
        for index in range(5):
            queue.push(0, ClickPacket(b"%d" % index))
        assert queue.read_handler("length") == "2"
        assert queue.read_handler("drops") == "3"
        assert queue.pull(0).data == b"0"  # oldest survived

    def test_highwater_mark(self):
        router = Router.from_config(
            "Idle -> q :: Queue(100); q -> Unqueue -> Discard;")
        queue = router.element("q")
        for _ in range(7):
            queue.push(0, ClickPacket(b"x"))
        for _ in range(7):
            queue.pull(0)
        assert queue.read_handler("highwater") == "7"

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigError):
            Router.from_config("Idle -> Queue(0) -> Unqueue -> Discard;")

    def test_unqueue_burst(self):
        router = run_router(
            "FromDevice(in0) -> q :: Queue(100)"
            " -> u :: Unqueue(BURST 10) -> c :: Counter -> Discard;",
            50, duration=0.5)
        assert router.read_handler("c.count") == "50"


class TestCounters:
    def test_count_and_bytes(self):
        router = Router.from_config(
            "Idle -> c :: Counter -> Discard;")
        router.start()
        counter = router.element("c")
        counter.push(0, ClickPacket(b"12345"))
        counter.push(0, ClickPacket(b"67"))
        assert counter.read_handler("count") == "2"
        assert counter.read_handler("byte_count") == "7"

    def test_rate_over_lifetime(self):
        router = run_router(
            "FromDevice(in0) -> c :: Counter -> Discard;", 100,
            interval=0.01, duration=2.0)
        rate = float(router.read_handler("c.rate"))
        assert 90 <= rate <= 110

    def test_reset(self):
        router = run_router(
            "FromDevice(in0) -> c :: Counter -> Discard;", 3)
        router.write_handler("c.reset", "")
        assert router.read_handler("c.count") == "0"
        assert router.read_handler("c.byte_count") == "0"

    def test_counter_works_on_pull_path(self):
        router = run_router(
            "FromDevice(in0) -> Queue(50)"
            " -> c :: Counter -> Unqueue -> Discard;", 20, duration=0.5)
        assert router.read_handler("c.count") == "20"


class TestIPClassifier:
    def _build(self, *exprs):
        outputs = "".join(
            "cl[%d] -> o%d :: Counter -> Discard;" % (i, i)
            for i in range(len(exprs)))
        router = Router.from_config(
            "cl :: IPClassifier(%s); Idle -> cl; %s"
            % (", ".join(exprs), outputs))
        router.start()
        return router

    def test_proto_keywords(self):
        router = self._build("tcp", "udp", "icmp", "-")
        classifier = router.element("cl")
        classifier.push(0, ip_packet(TCP(dstport=80), protocol=6))
        classifier.push(0, ip_packet(UDP(dstport=53), protocol=17))
        classifier.push(0, ip_packet(ICMP(), protocol=1))
        classifier.push(0, ClickPacket.from_header(
            Ethernet(type=Ethernet.ARP_TYPE, payload=ARP())))
        for index in range(4):
            assert router.read_handler("o%d.count" % index) == "1"

    def test_implicit_and(self):
        router = self._build("tcp dst port 80", "-")
        classifier = router.element("cl")
        classifier.push(0, ip_packet(TCP(dstport=80), protocol=6))
        classifier.push(0, ip_packet(TCP(dstport=22), protocol=6))
        assert router.read_handler("o0.count") == "1"
        assert router.read_handler("o1.count") == "1"

    def test_src_dst_host(self):
        router = self._build("src host 10.0.0.1", "dst host 10.0.0.9", "-")
        classifier = router.element("cl")
        classifier.push(0, ip_packet(srcip="10.0.0.1"))
        classifier.push(0, ip_packet(srcip="10.0.0.5", dstip="10.0.0.9"))
        classifier.push(0, ip_packet(srcip="10.0.0.5"))
        assert router.read_handler("o0.count") == "1"
        assert router.read_handler("o1.count") == "1"
        assert router.read_handler("o2.count") == "1"

    def test_undirected_host(self):
        router = self._build("host 10.0.0.7", "-")
        classifier = router.element("cl")
        classifier.push(0, ip_packet(srcip="10.0.0.7"))
        classifier.push(0, ip_packet(dstip="10.0.0.7"))
        classifier.push(0, ip_packet())
        assert router.read_handler("o0.count") == "2"

    def test_net_cidr(self):
        router = self._build("src net 10.1.0.0/16", "-")
        classifier = router.element("cl")
        classifier.push(0, ip_packet(srcip="10.1.2.3"))
        classifier.push(0, ip_packet(srcip="10.2.2.3"))
        assert router.read_handler("o0.count") == "1"

    def test_or_and_not(self):
        router = self._build("tcp or udp", "-")
        classifier = router.element("cl")
        classifier.push(0, ip_packet(TCP(), protocol=6))
        classifier.push(0, ip_packet(UDP(), protocol=17))
        classifier.push(0, ip_packet(ICMP(), protocol=1))
        assert router.read_handler("o0.count") == "2"
        assert router.read_handler("o1.count") == "1"

    def test_not_expression(self):
        router = self._build("not udp", "-")
        classifier = router.element("cl")
        classifier.push(0, ip_packet(TCP(), protocol=6))
        classifier.push(0, ip_packet(UDP(), protocol=17))
        assert router.read_handler("o0.count") == "1"

    def test_parenthesized(self):
        router = self._build("(tcp or udp) and dst host 10.0.0.2", "-")
        classifier = router.element("cl")
        classifier.push(0, ip_packet(TCP(), protocol=6))           # match
        classifier.push(0, ip_packet(TCP(), protocol=6,
                                     dstip="10.0.0.3"))            # no
        assert router.read_handler("o0.count") == "1"

    def test_icmp_type(self):
        router = self._build("icmp type 8", "-")
        classifier = router.element("cl")
        classifier.push(0, ip_packet(ICMP(type=8), protocol=1))
        classifier.push(0, ip_packet(ICMP(type=0), protocol=1))
        assert router.read_handler("o0.count") == "1"

    def test_ip_proto_number(self):
        router = self._build("ip proto 89", "-")
        classifier = router.element("cl")
        classifier.push(0, ip_packet(protocol=89))
        assert router.read_handler("o0.count") == "1"

    def test_pattern_counters(self):
        router = self._build("tcp", "-")
        router.element("cl").push(0, ip_packet(TCP(), protocol=6))
        assert router.read_handler("cl.pattern0_count") == "1"

    def test_unconnected_output_counts_as_dropped(self):
        router = Router.from_config(
            "cl :: IPClassifier(tcp, udp, -); Idle -> cl;"
            " cl[0] -> Discard;")
        router.start()
        router.element("cl").push(0, ip_packet(UDP(), protocol=17))
        assert router.read_handler("cl.pattern1_count") == "1"
        assert router.read_handler("cl.dropped") == "1"

    def test_bad_expression_rejected(self):
        with pytest.raises(ConfigError):
            self._build("frobnicate 7")

    def test_unmatched_dropped(self):
        router = self._build("tcp")
        router.element("cl").push(0, ip_packet(UDP(), protocol=17))
        assert router.read_handler("cl.dropped") == "1"
