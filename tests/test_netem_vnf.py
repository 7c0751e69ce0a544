"""Tests for VNF containers: lifecycle, isolation, splicing, reaping."""

import gc
import weakref

import pytest

from repro.click import HandlerError
from repro.netem import Network, ResourceError, VNFContainer
from repro.netem.vnf import FAILED, STOPPED, UP
from repro.sim import Simulator

SIMPLE_VNF = "Idle -> cnt :: Counter -> Discard;"
# frames queued on in0 leave at 100 per second, driven by the VNF's own
# wakeups on the container's clock
SHAPED_VNF = ("FromDevice(in0) -> Queue(1000) -> Shaper(100) -> Unqueue"
              " -> cnt :: Counter -> Discard;")
WIRE_VNF = "FromDevice(in0) -> cnt :: Counter -> ToDevice(out0);"
# push and pull paths, a notifier, a pending rate-limit shot and a pull
# driver
QUEUED_VNF = ("FromDevice(in0) -> cnt_in :: Counter -> Queue(8)"
              " -> Shaper(1) -> ToDevice(out0);")


class TestVNFLifecycle:
    def test_start_and_status(self):
        net = Network()
        container = net.add_vnf_container("nc1")
        process = container.start_vnf("v1", SIMPLE_VNF, [])
        assert process.status == UP
        assert container.status_report()["v1"]["status"] == UP

    def test_vnf_runs_on_shared_clock(self):
        net = Network()
        container = net.add_vnf_container("nc1")
        process = container.start_vnf("v1", SHAPED_VNF, ["in0"])
        for _ in range(1000):
            process.devices["in0"].deliver(b"frame")
        net.run(1.0)
        assert 50 < int(process.read_handler("cnt.count")) <= 101

    def test_stop_releases_budget(self):
        net = Network()
        container = net.add_vnf_container("nc1", cpu=1.0)
        container.start_vnf("v1", SIMPLE_VNF, [], cpu=1.0)
        with pytest.raises(ResourceError):
            container.start_vnf("v2", SIMPLE_VNF, [], cpu=0.5)
        container.stop_vnf("v1")
        container.start_vnf("v2", SIMPLE_VNF, [], cpu=0.5)

    def test_duplicate_id_rejected(self):
        container = Network().add_vnf_container("nc1")
        container.start_vnf("v1", SIMPLE_VNF, [])
        with pytest.raises(ValueError):
            container.start_vnf("v1", SIMPLE_VNF, [])

    def test_stop_unknown_rejected(self):
        with pytest.raises(ValueError):
            Network().add_vnf_container("nc1").stop_vnf("ghost")

    def test_bad_config_releases_reservation(self):
        container = Network().add_vnf_container("nc1", cpu=1.0)
        with pytest.raises(Exception):
            container.start_vnf("broken", "x :: NoSuchElement;", [],
                               cpu=1.0)
        assert container.budget.cpu_free == pytest.approx(1.0)

    def test_isolation_none_skips_accounting(self):
        net = Network()
        container = net.add_vnf_container("nc1", cpu=0.5,
                                          isolation="none")
        # demands exceeding capacity are fine without cgroup isolation
        container.start_vnf("v1", SIMPLE_VNF, [], cpu=5.0)
        assert container.budget.cpu_used == 0.0

    def test_unknown_isolation_rejected(self):
        with pytest.raises(ValueError):
            VNFContainer("x", Simulator(), isolation="vm")

    def test_uptime_grows(self):
        net = Network()
        container = net.add_vnf_container("nc1")
        container.start_vnf("v1", SIMPLE_VNF, [])
        net.run(2.5)
        assert container.status_report()["v1"]["uptime"] \
            == pytest.approx(2.5)

    def test_container_stop_stops_all(self):
        container = Network().add_vnf_container("nc1")
        container.start_vnf("v1", SIMPLE_VNF, [])
        container.start_vnf("v2", SIMPLE_VNF, [])
        container.stop()
        assert container.vnfs == {}


class TestSplicing:
    def _wired_container(self):
        net = Network()
        container = net.add_vnf_container("nc1")
        container.add_interface("00:00:00:00:01:01", name="nc1-eth0")
        container.add_interface("00:00:00:00:01:02", name="nc1-eth1")
        return net, container

    def test_connect_and_traffic(self):
        net, container = self._wired_container()
        process = container.start_vnf("v1", WIRE_VNF, ["in0", "out0"])
        container.connect_vnf("v1", "in0", "nc1-eth0")
        container.connect_vnf("v1", "out0", "nc1-eth1")
        sent = []
        container.interfaces["nc1-eth1"].send = sent.append  # stub link
        # frame arriving on eth0 flows through the VNF and out eth1
        process.devices["in0"].deliver(b"frame")
        assert process.read_handler("cnt.count") == "1"

    def test_connect_unknown_device(self):
        _net, container = self._wired_container()
        container.start_vnf("v1", WIRE_VNF, ["in0", "out0"])
        with pytest.raises(ValueError):
            container.connect_vnf("v1", "bogus", "nc1-eth0")

    def test_connect_unknown_interface(self):
        _net, container = self._wired_container()
        container.start_vnf("v1", WIRE_VNF, ["in0", "out0"])
        with pytest.raises(ValueError):
            container.connect_vnf("v1", "in0", "ghost-eth9")

    def test_interface_cannot_be_double_spliced(self):
        _net, container = self._wired_container()
        container.start_vnf("v1", WIRE_VNF, ["in0", "out0"])
        container.connect_vnf("v1", "in0", "nc1-eth0")
        with pytest.raises(ValueError):
            container.connect_vnf("v1", "out0", "nc1-eth0")

    def test_free_interfaces_tracks_splices(self):
        _net, container = self._wired_container()
        container.start_vnf("v1", WIRE_VNF, ["in0", "out0"])
        assert len(container.free_interfaces()) == 2
        container.connect_vnf("v1", "in0", "nc1-eth0")
        assert container.free_interfaces() == ["nc1-eth1"]

    def test_disconnect_frees_interface(self):
        _net, container = self._wired_container()
        container.start_vnf("v1", WIRE_VNF, ["in0", "out0"])
        container.connect_vnf("v1", "in0", "nc1-eth0")
        container.disconnect_vnf("v1", "in0")
        assert len(container.free_interfaces()) == 2

    def test_stop_vnf_unsplices(self):
        _net, container = self._wired_container()
        container.start_vnf("v1", WIRE_VNF, ["in0", "out0"])
        container.connect_vnf("v1", "in0", "nc1-eth0")
        container.stop_vnf("v1")
        assert len(container.free_interfaces()) == 2

    def test_status_reports_device_bindings(self):
        _net, container = self._wired_container()
        container.start_vnf("v1", WIRE_VNF, ["in0", "out0"])
        container.connect_vnf("v1", "in0", "nc1-eth0")
        devices = container.status_report()["v1"]["devices"]
        assert devices["in0"] == "nc1-eth0"
        assert devices["out0"] is None


class TestReaping:
    """A reaped VNF is freed by reference counting; a zombie is not
    reaped, so it stays readable."""

    def _running(self):
        net = Network()
        container = net.add_vnf_container("nc1")
        container.add_interface("00:00:00:00:01:01", name="nc1-eth0")
        container.add_interface("00:00:00:00:01:02", name="nc1-eth1")
        process = container.start_vnf("v1", QUEUED_VNF, ["in0", "out0"])
        container.connect_vnf("v1", "in0", "nc1-eth0")
        container.connect_vnf("v1", "out0", "nc1-eth1")
        for _ in range(3):
            process.devices["in0"].deliver(b"frame")
        net.run(0.5)
        assert process.read_handler("cnt_in.count") == "3"
        return net, container, process

    @pytest.mark.parametrize("crash_first", [False, True])
    def test_reaped_vnf_leaves_no_cyclic_garbage(self, crash_first):
        net, container, process = self._running()
        elements = weakref.WeakSet(process.router.elements.values())
        gc.collect()
        gc.disable()
        try:
            if crash_first:
                container.crash_vnf("v1")
            container.stop_vnf("v1")
            owners = [getattr(event.callback, "__self__", None)
                      for _when, _seq, event in net.sim._heap
                      if not event.cancelled]
            assert not any(owner in elements
                           or getattr(owner, "element", None) in elements
                           for owner in owners)
            del process
            net.run(1.0)  # the cancelled timers' heap entries surface
            assert len(elements) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_reaped_router_has_no_elements(self):
        _net, container, process = self._running()
        container.stop_vnf("v1")
        assert process.status == STOPPED
        with pytest.raises(HandlerError):
            process.read_handler("cnt_in.count")

    def test_zombie_stays_readable_until_reaped(self):
        net, container, process = self._running()
        container.crash_vnf("v1")
        net.run(0.5)
        assert process.status == FAILED
        assert process.read_handler("cnt_in.count") == "3"
        container.stop_vnf("v1")
        assert process.status == FAILED
        with pytest.raises(HandlerError):
            process.read_handler("cnt_in.count")
