"""Fault primitives: what the chaos engine can do to a running ESCAPE.

Each :class:`Fault` is one declarative entry of a scenario: *when* it
fires (``at``, seconds after the engine is armed), *what* it targets
(an explicit name, or ``"random"`` for a seeded pick among
:meth:`candidates`), and — for revertible faults — *how long* it lasts
(``duration``; ``None`` leaves it in place).

``inject`` returns an opaque undo-state that ``heal`` consumes, so a
fault can restore exactly what it changed (e.g. the pre-degradation
loss/delay of a link).  Candidate lists are always sorted: with a
seeded RNG the same scenario resolves to the same targets every run.
"""

from typing import Any, Dict, List, Optional

from repro.netem.vnf import UP as VNF_UP


class FaultError(Exception):
    """Bad fault parameters or an unresolvable target."""


class Fault:
    """One scheduled fault of a chaos scenario."""

    kind = "fault"

    def __init__(self, at: float, target: Optional[str] = None,
                 duration: Optional[float] = None):
        if at < 0:
            raise FaultError("fault time must be non-negative, got %r"
                             % at)
        if duration is not None and duration <= 0:
            raise FaultError("fault duration must be positive, got %r"
                             % duration)
        self.at = at
        self.target = target
        self.duration = duration

    def candidates(self, escape) -> List[str]:
        """Sorted names this fault could target right now."""
        raise NotImplementedError

    def inject(self, escape, target: str) -> Any:
        """Apply the fault; returns undo-state for :meth:`heal`."""
        raise NotImplementedError

    def heal(self, escape, target: str, state: Any) -> None:
        """Revert the fault (no-op for one-shot faults like crashes)."""

    def describe(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind, "at": self.at}
        if self.target is not None:
            data["target"] = self.target
        if self.duration is not None:
            data["duration"] = self.duration
        return data

    def __repr__(self) -> str:
        return "%s(at=%.3f, target=%r)" % (type(self).__name__, self.at,
                                           self.target)


def _dataplane_links(escape) -> List[str]:
    """Links whose both endpoints are in the orchestrator's view —
    i.e. the data plane, not the inband management hub."""
    graph = escape.orchestrator.view.graph
    return sorted(link.name for link in escape.net.links
                  if link.intf1.node.name in graph
                  and link.intf2.node.name in graph)


class LinkDownFault(Fault):
    """Take a link down; heals by bringing it back up."""

    kind = "link_down"

    def candidates(self, escape) -> List[str]:
        return [name for name in _dataplane_links(escape)
                if escape.net.find_link(name).up]

    def inject(self, escape, target: str) -> Any:
        escape.net.find_link(target).set_up(False)
        return None

    def heal(self, escape, target: str, state: Any) -> None:
        escape.net.find_link(target).set_up(True)


class LinkFlapFault(Fault):
    """Flap a link: repeated down/up cycles, one per ``period``
    seconds, ``flaps`` times — the pathological carrier bounce that
    reactive recovery chases and proactive protection rides out.

    Each cycle holds the link down for half a period.  Healing cancels
    any cycles still pending and leaves the link up.  All cycles ride
    the simulator clock from one seeded injection, so the flap timeline
    is deterministic per scenario seed.
    """

    kind = "link_flap"

    def __init__(self, at: float, target: Optional[str] = None,
                 duration: Optional[float] = None,
                 period: float = 0.5, flaps: int = 3):
        super().__init__(at, target, duration)
        if period <= 0:
            raise FaultError("flap period must be positive, got %r"
                             % period)
        if flaps < 1:
            raise FaultError("flaps must be at least 1, got %r" % flaps)
        self.period = period
        self.flaps = flaps

    def candidates(self, escape) -> List[str]:
        return [name for name in _dataplane_links(escape)
                if escape.net.find_link(name).up]

    def inject(self, escape, target: str) -> Any:
        link = escape.net.find_link(target)
        pending = []
        for cycle in range(self.flaps):
            down_at = cycle * self.period
            up_at = down_at + self.period / 2.0
            if cycle == 0:
                link.set_up(False)
            else:
                pending.append(escape.sim.schedule(down_at, link.set_up,
                                                   False))
            pending.append(escape.sim.schedule(up_at, link.set_up, True))
        return pending

    def heal(self, escape, target: str, state: Any) -> None:
        for event in state or []:
            event.cancel()
        escape.net.find_link(target).set_up(True)

    def describe(self) -> Dict[str, Any]:
        data = super().describe()
        data["period"] = self.period
        data["flaps"] = self.flaps
        return data


class LinkDegradeFault(Fault):
    """Degrade a link's shaping (loss / delay / jitter) in place."""

    kind = "link_degrade"

    def __init__(self, at: float, target: Optional[str] = None,
                 duration: Optional[float] = None,
                 loss: Optional[float] = None,
                 delay: Optional[float] = None,
                 jitter: Optional[float] = None):
        super().__init__(at, target, duration)
        if loss is None and delay is None and jitter is None:
            raise FaultError("link_degrade needs loss, delay or jitter")
        self.loss = loss
        self.delay = delay
        self.jitter = jitter

    def candidates(self, escape) -> List[str]:
        return _dataplane_links(escape)

    def inject(self, escape, target: str) -> Any:
        link = escape.net.find_link(target)
        state = (link.loss, link.delay, link.jitter)
        link.set_degradation(loss=self.loss, delay=self.delay,
                             jitter=self.jitter)
        return state

    def heal(self, escape, target: str, state: Any) -> None:
        loss, delay, jitter = state
        escape.net.find_link(target).set_degradation(
            loss=loss, delay=delay, jitter=jitter)

    def describe(self) -> Dict[str, Any]:
        data = super().describe()
        for key in ("loss", "delay", "jitter"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        return data


class VnfCrashFault(Fault):
    """Kill one running VNF process (its Click router dies).

    One-shot: healing is the RecoveryManager's job, not the fault's.
    """

    kind = "vnf_crash"

    def candidates(self, escape) -> List[str]:
        return sorted(
            vnf_id
            for container in escape.net.vnf_containers()
            for vnf_id, process in container.vnfs.items()
            if process.status == VNF_UP)

    def inject(self, escape, target: str) -> Any:
        for container in escape.net.vnf_containers():
            if target in container.vnfs:
                container.crash_vnf(target)
                return None
        raise FaultError("no running VNF %r" % target)


class _MgmtFault(Fault):
    """Base for faults acting on a container's management plane."""

    def _transports(self, escape, target: str) -> List[Any]:
        """Both transport endpoints of a container's NETCONF session."""
        transports = []
        client = escape.netconf_clients.get(target)
        if client is not None:
            transports.append(client.transport)
        agent = escape.agents.get(target)
        if agent is not None:
            transports.append(agent.server.transport)
        return transports


class ContainerOutageFault(_MgmtFault):
    """Take a whole VNF container down: every hosted VNF crashes and
    its NETCONF agent goes dark (both transport directions blackholed),
    so in-place restarts cannot work and recovery must fail over."""

    kind = "container_down"

    def candidates(self, escape) -> List[str]:
        return sorted(container.name
                      for container in escape.net.vnf_containers()
                      if container.up)

    def inject(self, escape, target: str) -> Any:
        for transport in self._transports(escape, target):
            transport.blackhole = True
        escape.net.get(target).set_up(False)
        return None

    def heal(self, escape, target: str, state: Any) -> None:
        for transport in self._transports(escape, target):
            transport.blackhole = False
        escape.net.get(target).set_up(True)


class NetconfBlackholeFault(_MgmtFault):
    """Partition the management plane of one container: its NETCONF
    transports silently eat every byte (the container itself and its
    VNFs keep running — a pure control-plane fault)."""

    kind = "netconf_blackhole"

    def candidates(self, escape) -> List[str]:
        return sorted(escape.netconf_clients)

    def inject(self, escape, target: str) -> Any:
        for transport in self._transports(escape, target):
            transport.blackhole = True
        return None

    def heal(self, escape, target: str, state: Any) -> None:
        for transport in self._transports(escape, target):
            transport.blackhole = False


class NetconfSlownessFault(_MgmtFault):
    """Add one-way latency to a container's NETCONF transports
    (degraded management network; RPCs slow down or start timing out).
    """

    kind = "netconf_slow"

    def __init__(self, at: float, target: Optional[str] = None,
                 duration: Optional[float] = None,
                 extra_latency: float = 0.5):
        super().__init__(at, target, duration)
        if extra_latency <= 0:
            raise FaultError("extra_latency must be positive, got %r"
                             % extra_latency)
        self.extra_latency = extra_latency

    def candidates(self, escape) -> List[str]:
        return sorted(escape.netconf_clients)

    def inject(self, escape, target: str) -> Any:
        for transport in self._transports(escape, target):
            transport.fault_latency += self.extra_latency
        return None

    def heal(self, escape, target: str, state: Any) -> None:
        for transport in self._transports(escape, target):
            transport.fault_latency = max(
                0.0, transport.fault_latency - self.extra_latency)

    def describe(self) -> Dict[str, Any]:
        data = super().describe()
        data["extra_latency"] = self.extra_latency
        return data


FAULT_KINDS = {cls.kind: cls for cls in (
    LinkDownFault, LinkFlapFault, LinkDegradeFault, VnfCrashFault,
    ContainerOutageFault, NetconfBlackholeFault, NetconfSlownessFault)}
