"""CLICK1 — VNF datapath cost: per-packet forwarding rate of each
catalog VNF's Click pipeline, plus element micro-benchmarks."""

import pytest

from repro.click import ClickPacket, Router
from repro.click.elements.device import Device
from repro.core import default_catalog
from repro.packet import Ethernet, IPv4, TCP, UDP
from repro.sim import Simulator

PACKETS = 2000


def sample_packet():
    return ClickPacket.from_header(Ethernet(
        src="00:00:00:00:00:01", dst="00:00:00:00:00:02",
        type=Ethernet.IP_TYPE,
        payload=IPv4(srcip="10.0.0.1", dstip="10.0.0.2",
                     protocol=IPv4.UDP_PROTOCOL,
                     payload=UDP(srcport=1000, dstport=80,
                                 payload=b"x" * 64))))


def vnf_rig(vnf_type, params=None):
    """Build a catalog VNF and return (router, in-device, out-counter)."""
    entry = default_catalog().get(vnf_type)
    router = Router.from_config(entry.render(params), sim=Simulator())
    router.device_map = {dev: Device(dev) for dev in entry.devices}
    router.start()
    return router, router.device_map["in0"]


@pytest.mark.parametrize("vnf_type,params", [
    ("forwarder", None),
    ("firewall", {"rules": "allow udp dst port 80, drop all"}),
    ("dpi", None),
    ("monitor", None),
    ("nat", {"nat_ip": "192.0.2.1"}),
])
def test_catalog_vnf_forwarding_rate(benchmark, vnf_type, params):
    """Packets/second each catalog VNF sustains (push path)."""
    router, in_device = vnf_rig(vnf_type, params)
    wire = sample_packet().data

    def blast():
        for _ in range(PACKETS):
            in_device.deliver(wire)
    benchmark.pedantic(blast, rounds=3, iterations=1)
    assert int(router.read_handler("cnt_in.count")) >= PACKETS
    benchmark.extra_info["packets_per_round"] = PACKETS


@pytest.mark.parametrize("expression", [
    "udp",
    "tcp dst port 80",
    "(tcp or udp) and dst net 10.0.0.0/8 and not src host 9.9.9.9",
])
def test_ipclassifier_expression_cost(benchmark, expression):
    """Per-packet cost of classifier expressions of rising complexity."""
    router = Router.from_config(
        "cl :: IPClassifier(%s, -); Idle -> cl;"
        "cl[0] -> Discard; cl[1] -> Discard;" % expression)
    router.start()
    classifier = router.element("cl")
    packet = sample_packet()

    def classify():
        for _ in range(PACKETS):
            classifier.push(0, packet)
    benchmark.pedantic(classify, rounds=3, iterations=1)


def test_queue_pipeline_throughput(benchmark):
    """The push->Queue->pull boundary under sustained load."""
    sim = Simulator()
    router = Router.from_config(
        "FromDevice(in0) -> Queue(1000)"
        " -> Unqueue(BURST 32) -> cnt :: Counter -> Discard;", sim=sim)
    device = Device("in0")
    router.device_map = {"in0": device}
    router.start()
    for index in range(1, 20001):
        sim.schedule(index * 1e-6, device.deliver, b"x" * 64)

    def drain():
        sim.run(until=sim.now + 10.0)
    benchmark.pedantic(drain, rounds=1, iterations=1)
    assert int(router.read_handler("cnt.count")) == 20000


def test_parser_cost(benchmark):
    """Click-language parse + router build time for a catalog VNF."""
    entry = default_catalog().get("dpi")
    config = entry.render()

    def build():
        router = Router.from_config(config)
        router.device_map = {dev: Device(dev) for dev in entry.devices}
        return router
    benchmark(build)
