"""VNF containers — ESCAPE's extension of Mininet with managed nodes.

A :class:`VNFContainer` is a node that can host VNF processes (Click
routers) under a configurable isolation model.  The NETCONF agent's
"low-level instrumentation code" drives exactly the four operations the
paper lists: start/stop VNFs and connect/disconnect them to/from the
attached switch — implemented here as :meth:`start_vnf`,
:meth:`stop_vnf`, :meth:`connect_vnf`, :meth:`disconnect_vnf`.
"""

from typing import Dict, List, Optional

from repro.click import Router
from repro.click.elements.device import Device
from repro.netem.interface import Interface
from repro.netem.node import Node
from repro.netem.resources import ResourceBudget, ResourceError
from repro.sim import Simulator

# VNF process states (mirrors the YANG model's status leaf).
INITIALIZING = "INITIALIZING"
UP = "UP"
STOPPED = "STOPPED"
FAILED = "FAILED"

# Isolation models for VNF processes inside a container.
ISOLATION_NONE = "none"        # no accounting (plain processes)
ISOLATION_CGROUP = "cgroup"    # enforce the CPU/memory budget


class VNFProcess:
    """One running VNF: a Click router plus its virtual devices."""

    def __init__(self, vnf_id: str, router: Router,
                 devices: Dict[str, Device], cpu: float, mem: float):
        self.vnf_id = vnf_id
        self.router = router
        self.devices = devices
        self.cpu = cpu
        self.mem = mem
        self.status = INITIALIZING
        self.started_at: Optional[float] = None

    def read_handler(self, path: str) -> str:
        """Clicky-style handler read (``element.handler``)."""
        return self.router.read_handler(path)

    def write_handler(self, path: str, value: str) -> None:
        self.router.write_handler(path, value)

    def handlers(self):
        return self.router.handlers()

    def __repr__(self) -> str:
        return "VNFProcess(%s, %s, %d devices)" % (self.vnf_id, self.status,
                                                   len(self.devices))


class VNFContainer(Node):
    """A managed node hosting VNFs.

    Interfaces fall in two groups: *data* interfaces wired to the
    assigned switch, and one optional *management* interface on the
    dedicated control network (where the NETCONF agent listens).
    """

    def __init__(self, name: str, sim: Simulator, cpu: float = 4.0,
                 mem: float = 4096.0, isolation: str = ISOLATION_CGROUP):
        super().__init__(name, sim)
        if isolation not in (ISOLATION_NONE, ISOLATION_CGROUP):
            raise ValueError("unknown isolation model %r" % isolation)
        self.budget = ResourceBudget(cpu, mem)
        self.isolation = isolation
        self.up = True
        self.vnfs: Dict[str, VNFProcess] = {}
        self.mgmt_interface: Optional[Interface] = None
        # (vnf_id, device-name) -> interface name for active splices
        self._splices: Dict[tuple, str] = {}

    # -- management plane -------------------------------------------------

    def set_mgmt_interface(self, intf: Interface) -> None:
        self.mgmt_interface = intf

    # -- VNF lifecycle ------------------------------------------------------

    def start_vnf(self, vnf_id: str, click_config: str,
                  device_names: List[str], cpu: float = 0.5,
                  mem: float = 256.0) -> VNFProcess:
        """Launch a Click-based VNF inside this container.

        ``device_names`` lists the virtual interfaces the config's
        FromDevice/ToDevice elements reference; they start detached and
        are wired to container interfaces with :meth:`connect_vnf`.
        """
        if not self.up:
            raise ResourceError("%s: container is down" % self.name)
        if vnf_id in self.vnfs:
            raise ValueError("%s: VNF %r already running"
                             % (self.name, vnf_id))
        if self.isolation == ISOLATION_CGROUP:
            self.budget.reserve(vnf_id, cpu, mem)
        devices = {devname: Device(devname) for devname in device_names}
        try:
            router = Router.from_config(click_config, sim=self.sim,
                                        name="%s/%s" % (self.name, vnf_id))
            router.device_map = devices
            process = VNFProcess(vnf_id, router, devices, cpu, mem)
            router.start()
        except Exception:
            if self.isolation == ISOLATION_CGROUP:
                self.budget.release(vnf_id)
            raise
        process.status = UP
        process.started_at = self.sim.now
        self.vnfs[vnf_id] = process
        return process

    def stop_vnf(self, vnf_id: str) -> None:
        process = self.vnfs.pop(vnf_id, None)
        if process is None:
            raise ValueError("%s: no VNF %r" % (self.name, vnf_id))
        for devname in list(process.devices):
            self._unsplice(vnf_id, devname)
        # a reaped VNF is gone for good (a zombie, see crash_vnf, is
        # only stopped and stays readable until it is reaped here)
        process.router.dismantle()
        if process.status != FAILED:
            process.status = STOPPED
        if self.isolation == ISOLATION_CGROUP:
            self.budget.release(vnf_id)

    def crash_vnf(self, vnf_id: str) -> VNFProcess:
        """Kill a VNF process in place: its Click router dies, its
        device splices drop, but the zombie stays registered (holding
        its budget) until reaped with :meth:`stop_vnf` — exactly the
        state a crashed process leaves on a real container.  Emits a
        ``vnf.crashed`` event for the recovery machinery."""
        process = self.get_vnf(vnf_id)
        if process.status == FAILED:
            return process
        for devname in list(process.devices):
            self._unsplice(vnf_id, devname)
        process.router.stop()
        process.status = FAILED
        self.sim.telemetry.events.error(
            "netem.container", "vnf.crashed",
            "%s/%s" % (self.name, vnf_id),
            container=self.name, vnf_id=vnf_id)
        return process

    def set_up(self, up: bool) -> None:
        """Container outage primitive.  Going down crashes every
        running VNF (they do not come back on their own when the
        container returns — that is the recovery layer's job) and
        emits ``container.down`` / ``container.up`` events."""
        if up == self.up:
            return
        events = self.sim.telemetry.events
        if not up:
            self.up = False
            for vnf_id, process in list(self.vnfs.items()):
                if process.status == UP:
                    self.crash_vnf(vnf_id)
            events.error("netem.container", "container.down", self.name,
                         container=self.name)
        else:
            self.up = True
            events.info("netem.container", "container.up", self.name,
                        container=self.name)

    def get_vnf(self, vnf_id: str) -> VNFProcess:
        process = self.vnfs.get(vnf_id)
        if process is None:
            raise ValueError("%s: no VNF %r" % (self.name, vnf_id))
        return process

    # -- splicing VNF devices to container interfaces -------------------------

    def connect_vnf(self, vnf_id: str, device_name: str,
                    intf_name: str) -> None:
        """Wire a VNF virtual device to one of this node's interfaces,
        making the VNF reachable through the attached switch port."""
        process = self.get_vnf(vnf_id)
        device = process.devices.get(device_name)
        if device is None:
            raise ValueError("%s/%s: no device %r"
                             % (self.name, vnf_id, device_name))
        intf = self.interfaces.get(intf_name)
        if intf is None:
            raise ValueError("%s: no interface %r" % (self.name, intf_name))
        for (owner, devname), iname in self._splices.items():
            if iname == intf_name:
                raise ValueError(
                    "%s: interface %r already spliced to %s/%s"
                    % (self.name, intf_name, owner, devname))
        if (vnf_id, device_name) in self._splices:
            raise ValueError("%s: %s/%s is already spliced"
                             % (self.name, vnf_id, device_name))
        device.transmit = intf.send
        intf.receive = device.deliver
        self._splices[(vnf_id, device_name)] = intf_name

    def disconnect_vnf(self, vnf_id: str, device_name: str) -> None:
        process = self.get_vnf(vnf_id)
        if device_name not in process.devices:
            raise ValueError("%s/%s: no device %r"
                             % (self.name, vnf_id, device_name))
        self._unsplice(vnf_id, device_name)

    def _unsplice(self, vnf_id: str, device_name: str) -> None:
        intf_name = self._splices.pop((vnf_id, device_name), None)
        if intf_name is None:
            return
        process = self.vnfs.get(vnf_id)
        if process is not None:
            process.devices[device_name].transmit = None
        intf = self.interfaces.get(intf_name)
        if intf is not None:
            del intf.receive  # a loose end again

    # -- state ----------------------------------------------------------------

    def free_interfaces(self) -> List[str]:
        """Data interfaces not currently spliced to any VNF device."""
        used = set(self._splices.values())
        return [name for name, intf in self.interfaces.items()
                if name not in used and intf is not self.mgmt_interface]

    def status_report(self) -> Dict[str, dict]:
        """Per-VNF status (what the NETCONF agent's <get> returns)."""
        report = {}
        for vnf_id, process in self.vnfs.items():
            report[vnf_id] = {
                "status": process.status,
                "cpu": process.cpu,
                "mem": process.mem,
                "devices": {devname: self._splices.get((vnf_id,
                                                               devname))
                            for devname in process.devices},
                "uptime": (self.sim.now - process.started_at
                           if process.started_at is not None else 0.0),
            }
        return report

    def stop(self) -> None:
        for vnf_id in list(self.vnfs):
            self.stop_vnf(vnf_id)
        super().stop()

    def __repr__(self) -> str:
        return "VNFContainer(%s, %d VNFs, %r)" % (self.name, len(self.vnfs),
                                                  self.budget)
