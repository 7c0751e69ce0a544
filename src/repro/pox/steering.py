"""ESCAPE's traffic steering module.

The orchestrator hands this component concrete paths — sequences of
(switch, in-port, out-port) hops produced by the mapping algorithm —
and it installs/removes the OpenFlow entries that pin chain traffic to
those paths.  Every change to the dataplane is one
:class:`SteeringChange` given to :meth:`TrafficSteering.apply`, which
checks the whole change before it sends anything; each (switch, match,
priority) entry has one owning path.  Every hop matches the full flow
template plus its in-port and outputs the frame unchanged.
"""

import copy
from contextlib import nullcontext
from itertools import count
from typing import Callable, ContextManager, Dict, Iterator, List, Optional

from repro.openflow import (FlowMod, Group, GroupBucket, GroupMod, Match,
                            Output)
from repro.pox.nexus import OpenFlowNexus

STEERING_PRIORITY = 0x6000  # above l2_learning's 0x1000


class SteeringError(Exception):
    pass


class PathHop:
    """One switch traversal of a steered path."""

    def __init__(self, dpid: int, in_port: int, out_port: int):
        self.dpid = dpid
        self.in_port = in_port
        self.out_port = out_port

    def __repr__(self) -> str:
        return "PathHop(dpid=%d, %d->%d)" % (self.dpid, self.in_port,
                                             self.out_port)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PathHop)
                and (self.dpid, self.in_port, self.out_port)
                == (other.dpid, other.in_port, other.out_port))


def _clone_match(match: Match, **overrides) -> Match:
    clone = copy.copy(match)
    for field, value in overrides.items():
        setattr(clone, field, value)
    return clone


class SteeringChange:
    """Paths to remove and paths to install, which
    :meth:`TrafficSteering.apply` makes as one.  Both methods return
    the change, so calls chain."""

    def __init__(self):
        self.removals: List[str] = []
        self.installs: List[tuple] = []

    def remove(self, *path_ids: str) -> "SteeringChange":
        self.removals.extend(path_ids)
        return self

    def install(self, path_id: str, hops: List[PathHop], match: Match,
                backup_hops: Optional[List[PathHop]] = None,
                within: Optional[Callable[[], ContextManager]] = None
                ) -> "SteeringChange":
        """Steer ``match`` traffic along ``hops``, protected by
        ``backup_hops`` if given (see :meth:`TrafficSteering._flow_mods`).
        ``match`` should not constrain in_port; the module owns it.
        ``within`` returns a context manager entered around sending
        this install (a caller's trace span, say); it is called only
        then."""
        self.installs.append((path_id, list(hops), match,
                              list(backup_hops or ()), within))
        return self


class _InstalledPath:
    def __init__(self, path_id: str, hops: List[PathHop], match: Match,
                 flow_mods: List[tuple], group_mods: List[tuple],
                 backup_hops: List[PathHop]):
        self.path_id = path_id
        self.hops = hops
        self.match = match
        self.flow_mods = flow_mods  # (dpid, FlowMod) pairs, for removal
        self.group_mods = group_mods  # (dpid, GroupMod) pairs
        self.backup_hops = backup_hops


class TrafficSteering:
    """Install and tear down chain paths as flow entries."""

    def __init__(self, nexus: OpenFlowNexus):
        self.nexus = nexus
        self.paths: Dict[str, _InstalledPath] = {}
        # benchmarks assert exact values on these plain ints; the
        # registry counters below mirror them for unified snapshots
        self.flow_mods_sent = 0
        self.group_mods_sent = 0
        # protection bookkeeping: fast-failover groups installed for a
        # path, and the reverse index a flip event resolves through
        self._next_group_id = 1
        self._group_index: Dict[tuple, str] = {}  # (dpid, gid) -> path
        self.telemetry = nexus.core.telemetry
        metrics = self.telemetry.metrics
        self._m_flow_mods = metrics.counter(
            "pox.steering.flow_mods", "flow-mods sent by traffic steering")
        self._m_group_mods = metrics.counter(
            "pox.steering.group_mods",
            "group-mods sent for fast-failover protection")
        self._m_paths = metrics.gauge(
            "pox.steering.paths", "steered paths currently installed")
        paths = self.paths  # not self: the registry outlives a stop
        self._m_paths.set_function(lambda: len(paths))
        from repro.pox.events import PortStatusEvent
        nexus.add_listener(PortStatusEvent, self._handle_port_status)

    def _handle_port_status(self, event) -> None:
        """Deterministic PortStatus intake: correlate the port change
        with the installed paths crossing it and log a structured
        entry naming the affected chains — the trace the operator (and
        the recovery manager) pivots from."""
        desc = event.ofp.desc
        affected = sorted(
            path_id for path_id, installed in self.paths.items()
            if any(hop.dpid == event.dpid
                   and desc.port_no in (hop.in_port, hop.out_port)
                   for hop in installed.hops + installed.backup_hops))
        if not affected:
            return
        note = (self.telemetry.events.warn if desc.link_down
                else self.telemetry.events.info)
        note("pox.steering",
             "steering.port_down" if desc.link_down
             else "steering.port_up",
             "dpid=%d port %d (%s): %d path(s) cross it"
             % (event.dpid, desc.port_no, desc.name, len(affected)),
             dpid=event.dpid, port=desc.port_no,
             paths=",".join(affected),
             chains=",".join(sorted({path_id.split("/", 1)[0]
                                     for path_id in affected})))

    # -- changes -------------------------------------------------------------

    def apply(self, change: SteeringChange) -> None:
        """Make ``change``: check all of it, then send all of it.

        A change that names an unknown or duplicate path, a path with
        no hops, a switch that is not connected or an entry another path
        holds raises SteeringError having sent nothing.  Otherwise every
        removal is sent in the order given, then every install, its
        failover groups before its flows.
        """
        planned = self._check(change)
        for path_id in change.removals:
            self.remove_path(path_id)
        for path, (*_, within) in zip(planned, change.installs):
            with within() if within is not None else nullcontext():
                self.install_path(path)

    def _check(self, change: SteeringChange) -> List[_InstalledPath]:
        """The paths ``change`` installs, built as they will be sent.
        Each (dpid, match, priority) entry has one owner, so an install
        taking over an entry of a kept or earlier path is refused."""
        for path_id in change.removals:
            if path_id not in self.paths:
                raise SteeringError("no path %r installed" % path_id)
        removing = set(change.removals)
        if len(removing) < len(change.removals):
            raise SteeringError("a change removes a path twice")
        gids = count(self._next_group_id)
        taken = set(self.paths) - removing
        owners = {(dpid, mod.priority, mod.match): path_id
                  for path_id in taken
                  for dpid, mod in self.paths[path_id].flow_mods}
        planned = []
        for path_id, hops, match, backup_hops, _within in change.installs:
            if path_id in taken:
                raise SteeringError("path %r already installed" % path_id)
            taken.add(path_id)
            if not hops:
                raise SteeringError("path %r has no hops" % path_id)
            for hop in hops + backup_hops:
                if hop.dpid not in self.nexus.connections:
                    raise SteeringError("switch dpid=%d not connected"
                                        % hop.dpid)
            flow_mods, group_mods = self._flow_mods(hops, match,
                                                    backup_hops, gids)
            for dpid, mod in flow_mods:
                owner = owners.setdefault((dpid, mod.priority, mod.match),
                                          path_id)
                if owner != path_id:
                    raise SteeringError(
                        "path %r would overwrite an entry of path %r at "
                        "dpid=%d" % (path_id, owner, dpid))
            planned.append(_InstalledPath(path_id, hops, match, flow_mods,
                                          group_mods, backup_hops))
        return planned

    def _send(self, dpid: int, message) -> None:
        self.nexus.send(dpid, message)
        if isinstance(message, GroupMod):
            self.group_mods_sent += 1
            self._m_group_mods.inc()
        else:
            self.flow_mods_sent += 1
            self._m_flow_mods.inc()

    # -- the steps of apply (benchmarks/ladder/tracer.py times these) --------

    def install_path(self, path: _InstalledPath) -> None:
        """Send one install :meth:`apply` has checked and built."""
        path_id, hops, backup_hops = path.path_id, path.hops, path.backup_hops
        flow_mods, group_mods = path.flow_mods, path.group_mods
        groups = {"groups": len(group_mods)} if backup_hops else {}
        tracer = self.telemetry.tracer
        with self.telemetry.profiler.profile("pox.steering.install"), \
                tracer.span("steering.install_path", path=path_id,
                            hops=len(hops), **groups):
            # groups first: the flow entries reference them
            for dpid, group_mod in group_mods:
                self._group_index[(dpid, group_mod.group_id)] = path_id
                self._next_group_id = group_mod.group_id + 1
                with tracer.span("openflow.group_mod", dpid=dpid):
                    self._send(dpid, group_mod)
            for dpid, flow_mod in flow_mods:
                with tracer.span("openflow.flow_mod", dpid=dpid):
                    self._send(dpid, flow_mod)
        self.paths[path_id] = path
        # the conformance checker learns the path this match should
        # take; backup dpids are acceptable alternates, so a
        # fast-failover flip is not reported as mis-steering
        self.telemetry.flowtrace.register_path(
            path_id, path_id.split("/", 1)[0], path.match,
            [hop.dpid for hop in hops],
            alt_dpids=[hop.dpid for hop in backup_hops])
        events = self.telemetry.events
        detail = ("%d+%d hops, %d flow-mods, %d failover group(s)"
                  % (len(hops), len(backup_hops), len(flow_mods),
                     len(group_mods)) if backup_hops
                  else "%d hops, %d flow-mods" % (len(hops), len(flow_mods)))
        events.debug("pox.steering", "steering.path_installed",
                     "%s: %s" % (path_id, detail),
                     path=path_id, **groups)
        if backup_hops and not group_mods:
            events.warn("pox.steering", "protection.no_divergence",
                        "%s: primary and backup never diverge on a shared "
                        "switch; path unprotected" % path_id,
                        service=path_id.split("/", 1)[0], path=path_id)

    def remove_path(self, path_id: str) -> None:
        """Send one removal :meth:`apply` has checked: one DELETE_STRICT
        per entry, skipping switches that have disconnected since the
        install."""
        installed = self.paths.pop(path_id)
        for dpid, flow_mod in installed.flow_mods:
            if dpid in self.nexus.connections:
                self._send(dpid, FlowMod(flow_mod.match,
                                         command=FlowMod.DELETE_STRICT,
                                         priority=flow_mod.priority))
        for dpid, group_mod in installed.group_mods:
            self._group_index.pop((dpid, group_mod.group_id), None)
            if dpid in self.nexus.connections:
                self._send(dpid, GroupMod(GroupMod.DELETE,
                                          group_mod.group_id))
        self.telemetry.flowtrace.unregister_path(path_id)
        self.telemetry.events.debug("pox.steering",
                                    "steering.path_removed", path_id,
                                    path=path_id)

    # -- flow-mod builders ---------------------------------------------------

    def _flow_mod(self, dpid: int, match: Match, actions: list,
                  priority: int = STEERING_PRIORITY) -> tuple:
        return dpid, FlowMod(match, actions, priority=priority)

    def _flow_mods(self, hops: List[PathHop], match: Match,
                   backup_hops: List[PathHop],
                   group_ids: Iterator[int]) -> tuple:
        """The (flow mods, group mods) steering along ``hops``.

        Where ``backup_hops`` leave a primary switch through another
        port from the same in-port (the head end, for a link-disjoint
        backup), the primary entry forwards through a FAST_FAILOVER
        group whose first bucket watches the primary out-port and whose
        second points down the backup; the backup's remaining entries
        are pre-installed.  When the watched port dies the very next
        frame rides the alternate, without a controller round trip.  A
        path without backup hops has no groups.
        """
        backup_by_dpid = {hop.dpid: hop for hop in backup_hops}
        flow_mods: List[tuple] = []
        group_mods: List[tuple] = []
        diverging: set = set()  # (dpid, in_port) steered by a group
        for hop in hops:
            backup = backup_by_dpid.get(hop.dpid)
            actions = [Output(hop.out_port)]
            if backup is not None and backup.in_port == hop.in_port \
                    and backup.out_port != hop.out_port:
                group_id = next(group_ids)
                group_mods.append((hop.dpid, GroupMod(
                    GroupMod.ADD, group_id,
                    buckets=[
                        GroupBucket([Output(hop.out_port)],
                                    watch_port=hop.out_port),
                        GroupBucket([Output(backup.out_port)],
                                    watch_port=backup.out_port),
                    ])))
                diverging.add((hop.dpid, hop.in_port))
                actions = [Group(group_id)]
            flow_mods.append(self._flow_mod(
                hop.dpid, _clone_match(match, in_port=hop.in_port), actions))
        primary_inputs = {(hop.dpid, hop.in_port) for hop in hops}
        for hop in backup_hops:
            key = (hop.dpid, hop.in_port)
            if key in diverging:
                continue  # the failover group already steers here
            # a backup hop entering a switch on the same port as the
            # primary (e.g. shared attachment edges on a maximally-
            # disjoint backup) sits one priority below, so the primary
            # entry wins while it exists
            flow_mods.append(self._flow_mod(
                hop.dpid, _clone_match(match, in_port=hop.in_port),
                [Output(hop.out_port)], STEERING_PRIORITY - 1
                if key in primary_inputs else STEERING_PRIORITY))
        return flow_mods, group_mods

    # -- queries -------------------------------------------------------------

    def path_for_group(self, dpid: int, group_id: int) -> Optional[str]:
        """The installed path a failover group belongs to (flip-event
        attribution), or None."""
        return self._group_index.get((dpid, group_id))

    def protected_paths(self) -> List[str]:
        """Path ids with at least one failover group installed."""
        return sorted(set(self._group_index.values()))

    def flow_mod_count(self, path_id: str) -> int:
        installed = self.paths.get(path_id)
        if installed is None:
            raise SteeringError("no path %r installed" % path_id)
        return len(installed.flow_mods)

    def __repr__(self) -> str:
        return "TrafficSteering(%d paths, %d flow-mods)" % (
            len(self.paths), self.flow_mods_sent)
