"""Tests for interfaces, shaped links and resource budgets."""

import os
import random
import subprocess
import sys
import zlib

import pytest

import repro
from repro.netem import Interface, Link, ResourceBudget, ResourceError
from repro.packet import EthAddr
from repro.sim import Simulator


def make_pair(sim, **link_opts):
    intf1 = Interface("a-eth0", None, EthAddr(1))
    intf2 = Interface("b-eth0", None, EthAddr(2))
    link = Link(sim, intf1, intf2, **link_opts)
    return intf1, intf2, link


class TestLink:
    def test_instant_delivery_without_shaping(self):
        sim = Simulator()
        intf1, intf2, _link = make_pair(sim)
        got = []
        intf2.receive = lambda data: got.append((sim.now, data))
        intf1.send(b"hello")
        sim.run()
        assert got == [(0.0, b"hello")]

    def test_propagation_delay(self):
        sim = Simulator()
        intf1, intf2, _link = make_pair(sim, delay=0.25)
        got = []
        intf2.receive = lambda data: got.append(sim.now)
        intf1.send(b"x")
        sim.run()
        assert got == [pytest.approx(0.25)]

    def test_serialization_delay(self):
        sim = Simulator()
        # 1000-byte frame at 8000 bit/s -> 1 s serialization
        intf1, intf2, _link = make_pair(sim, bandwidth=8000.0)
        got = []
        intf2.receive = lambda data: got.append(sim.now)
        intf1.send(b"\x00" * 1000)
        sim.run()
        assert got == [pytest.approx(1.0)]

    def test_back_to_back_frames_queue(self):
        sim = Simulator()
        intf1, intf2, _link = make_pair(sim, bandwidth=8000.0)
        got = []
        intf2.receive = lambda data: got.append(sim.now)
        intf1.send(b"\x00" * 1000)
        intf1.send(b"\x00" * 1000)
        sim.run()
        assert got == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_directions_are_independent(self):
        sim = Simulator()
        intf1, intf2, _link = make_pair(sim, bandwidth=8000.0)
        got1, got2 = [], []
        intf1.receive = lambda data: got1.append(sim.now)
        intf2.receive = lambda data: got2.append(sim.now)
        intf1.send(b"\x00" * 1000)
        intf2.send(b"\x00" * 1000)
        sim.run()
        assert got1 == [pytest.approx(1.0)]
        assert got2 == [pytest.approx(1.0)]

    def test_queue_limit_drops(self):
        sim = Simulator()
        intf1, intf2, link = make_pair(sim, bandwidth=8000.0, max_queue=2)
        got = []
        intf2.receive = lambda data: got.append(data)
        for _ in range(5):
            intf1.send(b"\x00" * 1000)
        sim.run()
        assert len(got) == 2
        assert link.dropped == 3

    def test_total_loss(self):
        sim = Simulator()
        intf1, intf2, link = make_pair(sim, loss=1.0)
        got = []
        intf2.receive = lambda data: got.append(data)
        for _ in range(10):
            intf1.send(b"x")
        sim.run()
        assert got == []
        assert link.dropped == 10

    def test_partial_loss_is_deterministic(self):
        def run_once():
            sim = Simulator()
            intf1, intf2, link = make_pair(sim, loss=0.3)
            got = []
            intf2.receive = lambda data: got.append(data)
            for _ in range(100):
                intf1.send(b"x")
            sim.run()
            return len(got)
        first, second = run_once(), run_once()
        assert first == second
        assert 50 < first < 95

    def test_loss_free_link_builds_no_rng(self):
        sim = Simulator()
        intf1, intf2, link = make_pair(sim, bandwidth=8000.0, delay=0.01)
        got = []
        intf2.receive = got.append
        for _ in range(5):
            intf1.send(b"x")
        sim.run()
        assert len(got) == 5
        assert "_rng" not in vars(link)

    def test_degraded_link_draws_as_its_name_seeds(self):
        """A link made lossy and jittery in place builds its RNG at the
        first draw, with the seed it always had: drops and delays are
        exactly what a fresh ``Random(crc32(name))`` predicts."""
        sim = Simulator()
        intf1, intf2, link = make_pair(sim, delay=0.001)
        got = {}
        intf2.receive = lambda data: got.setdefault(data, sim.now)
        intf1.send(b"clean")
        sim.run()
        link.set_degradation(loss=0.3, jitter=0.004)
        start = sim.now
        for seq in range(100):
            sim.schedule(seq * 0.001, intf1.send, b"%d" % seq)
        sim.run()
        rng = random.Random(zlib.crc32(link.name.encode()))
        expected = {b"clean": pytest.approx(0.001)}
        for seq in range(100):
            if rng.random() < 0.3:
                continue
            expected[b"%d" % seq] = pytest.approx(
                start + seq * 0.001 + 0.001 + rng.uniform(0.0, 0.004))
        assert got == expected
        assert link.dropped_loss == 100 - (len(expected) - 1) > 0

    def test_down_link_drops(self):
        sim = Simulator()
        intf1, intf2, link = make_pair(sim)
        got = []
        intf2.receive = lambda data: got.append(data)
        link.set_up(False)
        intf1.send(b"x")
        sim.run()
        assert got == []

    def test_flap_is_down_for_its_duration_then_up(self):
        sim = Simulator()
        intf1, intf2, link = make_pair(sim)
        got = []
        intf2.receive = got.append
        link.flap(0.5)
        assert not link.up
        intf1.send(b"lost")
        sim.run(until=0.49)
        assert got == [] and not link.up
        sim.run(until=0.51)
        assert link.up
        intf1.send(b"kept")
        sim.run()
        assert got == [b"kept"]
        assert [event.name for event in sim.telemetry.events.query(
            source="netem.link")] == ["link.down", "link.up"]
        with pytest.raises(ValueError, match="down_for"):
            link.flap(0.0)

    def test_counters(self):
        sim = Simulator()
        intf1, intf2, link = make_pair(sim)
        intf2.receive = lambda data: None
        intf1.send(b"abcd")
        sim.run()
        assert intf1.tx_packets == 1
        assert intf1.tx_bytes == 4
        assert intf2.rx_packets == 1
        assert link.delivered == 1

    def test_other_end(self):
        sim = Simulator()
        intf1, intf2, link = make_pair(sim)
        assert link.other_end(intf1) is intf2
        assert link.other_end(intf2) is intf1
        stranger = Interface("c-eth0", None, EthAddr(3))
        with pytest.raises(ValueError):
            link.other_end(stranger)

    @pytest.mark.parametrize("kwargs", [
        {"loss": -0.1}, {"loss": 1.1}, {"bandwidth": 0},
        {"bandwidth": -5}, {"delay": -1.0},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        sim = Simulator()
        intf1 = Interface("a", None, EthAddr(1))
        intf2 = Interface("b", None, EthAddr(2))
        with pytest.raises(ValueError):
            Link(sim, intf1, intf2, **kwargs)


class TestResourceBudget:
    def test_reserve_and_release(self):
        budget = ResourceBudget(cpu=2.0, mem=1024.0)
        budget.reserve("vnf1", 1.0, 512.0)
        assert budget.cpu_free == pytest.approx(1.0)
        assert budget.mem_free == pytest.approx(512.0)
        budget.release("vnf1")
        assert budget.cpu_free == pytest.approx(2.0)

    def test_overflow_rejected(self):
        budget = ResourceBudget(cpu=1.0, mem=100.0)
        with pytest.raises(ResourceError):
            budget.reserve("big", 2.0, 10.0)
        with pytest.raises(ResourceError):
            budget.reserve("fat", 0.5, 200.0)

    def test_exact_fit_allowed(self):
        budget = ResourceBudget(cpu=1.0, mem=100.0)
        budget.reserve("fits", 1.0, 100.0)
        assert budget.cpu_free == pytest.approx(0.0)

    def test_double_reservation_rejected(self):
        budget = ResourceBudget()
        budget.reserve("x", 0.1, 1.0)
        with pytest.raises(ResourceError):
            budget.reserve("x", 0.1, 1.0)

    def test_release_unknown_is_noop(self):
        ResourceBudget().release("ghost")

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            ResourceBudget().reserve("x", -1.0, 0.0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResourceBudget(cpu=0.0)

    def test_snapshot(self):
        budget = ResourceBudget(cpu=4.0, mem=2048.0)
        budget.reserve("a", 1.0, 256.0)
        budget.reserve("b", 0.5, 128.0)
        snap = budget.snapshot()
        assert snap["cpu_used"] == pytest.approx(1.5)
        assert snap["mem_used"] == pytest.approx(384.0)


# -- determinism across processes ------------------------------------------

_LOSSY_SCENARIO = """
from repro.netem import Interface, Link
from repro.packet import EthAddr
from repro.sim import Simulator

sim = Simulator()
near = Interface("s1-eth1", None, EthAddr(1))
far = Interface("s2-eth1", None, EthAddr(2))
link = Link(sim, near, far, delay=0.001, jitter=0.004, loss=0.2)
far.receive = lambda data: print("rx %.9f %s" % (sim.now, data.decode()))
for seq in range(200):
    sim.schedule(seq * 0.001, near.send, b"%d" % seq)
sim.run()
print("link", link.delivered, link.dropped_loss)
"""


def test_lossy_jittery_run_is_identical_across_hash_seeds():
    """The link's RNG is seeded from its name; ``hash(str)`` is salted
    per process, so the seed must come from a stable digest."""
    src = os.path.dirname(os.path.dirname(repro.__file__))

    def run(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", _LOSSY_SCENARIO], env=env, check=True,
            capture_output=True, text=True).stdout.splitlines()

    first, second = run("1"), run("2")
    assert first == second
    (link_line,) = [line for line in first if line.startswith("link")]
    delivered, lost = map(int, link_line.split()[1:])
    assert delivered + lost == 200 and 10 < lost < 80
    arrivals = [int(line.split()[2]) for line in first
                if line.startswith("rx")]
    assert len(arrivals) == delivered
    assert arrivals != sorted(arrivals)  # jitter reordered some frames
