"""Self-healing orchestration: watch the fault timeline, repair chains.

The :class:`RecoveryManager` closes the loop the paper leaves to the
operator: it subscribes to the unified telemetry event log (where the
infrastructure layer already reports ``vnf.crashed``, ``container.down``
/ ``container.up`` and ``link.down`` / ``link.up``) and drives the
orchestrator's repair primitives:

* a crashed VNF on a healthy container is **restarted in place**
  (:meth:`~repro.core.orchestrator.Orchestrator.restart_vnf`),
* a VNF stranded on a down container **fails over** to another
  container with capacity (``migrate_vnf(..., force=True)``),
* chains mapped over a down substrate link are **re-routed** around it
  (:meth:`~repro.core.orchestrator.Orchestrator.reroute_chains_for_edge`),
* FAILED zombie instances are **reaped** when their container returns,
  freeing the budget they still hold.

Reactions are scheduled ``reaction_delay`` after the fault event (a
recovery action must never run inside the emitting callback) and retry
with exponential backoff up to ``max_attempts``.  Every repair observes
its fault-to-fixed time into the ``core.recovery.mttr`` histogram
(labelled by fault kind) and flips the per-service
``core.recovery.chain_state`` gauge (0 healthy / 1 recovering /
2 failed).  Because reactions ride the simulator clock and candidate
selection is sorted, a seeded chaos run produces an identical recovery
timeline every time.
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.core.orchestrator import Orchestrator, OrchestratorError
from repro.netem import Network
from repro.netem.vnf import FAILED as VNF_FAILED
from repro.telemetry import Event

CHAIN_HEALTHY = 0
CHAIN_RECOVERING = 1
CHAIN_FAILED = 2


class RecoveryManager:
    """Event-log-driven fault repair for deployed chains."""

    reaction_delay = 0.05  # simulated seconds from fault event to repair
    max_attempts = 3
    retry_backoff = 0.5    # first retry delay; doubles per attempt

    def __init__(self, orchestrator: Orchestrator, net: Network,
                 protection: bool = False):
        self.orchestrator = orchestrator
        self.net = net
        self.sim = net.sim
        # protection-aware mode: a fast-failover bucket flip in the
        # dataplane IS the recovery (MTTR = fault to flip); the
        # control-plane reroute that follows re-provisions fresh
        # backups and is recorded without MTTR
        self.protection = protection
        self.telemetry = self.sim.telemetry
        # completed repair attempts, oldest first (the recovery ledger:
        # deterministic for a fixed seed, asserted on by chaos tests)
        self.actions: List[dict] = []
        self._inflight: Set[Tuple[str, str]] = set()
        self.chain_state: Dict[str, int] = {}
        # flip correlation buffers: a flip may land before or after the
        # scheduled link reaction, whichever order traffic dictates
        self._recent_flips: Dict[str, float] = {}
        self._awaiting_flip: Dict[str, float] = {}
        metrics = self.telemetry.metrics
        self._m_repairs = metrics.counter(
            "core.recovery.repairs", "faults repaired")
        self._m_attempts = metrics.counter(
            "core.recovery.attempts", "repair attempts started")
        self._m_failures = metrics.counter(
            "core.recovery.failures",
            "faults abandoned after max_attempts")
        self._m_flips = metrics.counter(
            "core.recovery.protection_flips",
            "outages absorbed by a dataplane fast-failover flip")
        self.telemetry.events.subscribe(self._on_event)

    # -- instruments --------------------------------------------------------

    def _mttr(self, fault_kind: str):
        return self.telemetry.metrics.histogram(
            "core.recovery.mttr",
            "simulated seconds from fault event to completed repair",
            labels={"fault": fault_kind})

    def _set_chain_state(self, service: str, state: int) -> None:
        self.chain_state[service] = state
        self.telemetry.metrics.gauge(
            "core.recovery.chain_state",
            "0 healthy / 1 recovering / 2 failed",
            labels={"service": service}).set(state)

    # -- status -------------------------------------------------------------

    def pending(self) -> List[Tuple[str, str]]:
        """Repairs scheduled or retrying right now."""
        return sorted(self._inflight)

    def unrecovered(self) -> List[str]:
        """Services currently degraded: recovering or given up on."""
        return sorted(name for name, state in self.chain_state.items()
                      if state != CHAIN_HEALTHY)

    # -- event intake -------------------------------------------------------

    def _on_event(self, event: Event) -> None:
        if event.name == "vnf.crashed":
            vnf_id = event.tags.get("vnf_id")
            if vnf_id:
                self._schedule(("vnf", vnf_id), self._recover_vnf,
                               vnf_id, event.time)
        elif event.name == "link.down":
            link_name = event.tags.get("link")
            if link_name:
                self._schedule(("link", link_name), self._recover_link,
                               link_name, event.time)
        elif event.name == "link.up":
            link_name = event.tags.get("link")
            if link_name:
                self.sim.schedule(0.0, self._note_link_up, link_name)
        elif event.name == "container.up":
            container = event.tags.get("container")
            if container:
                self._schedule(("reap", container), self._reap_zombies,
                               container, event.time)
        elif event.name == "of.group.flip":
            self._note_flip(event)

    # -- scheduling & bookkeeping ------------------------------------------

    def _schedule(self, key: Tuple[str, str], func, target,
                  fault_time: float) -> None:
        if key in self._inflight:
            return
        self._inflight.add(key)
        self.telemetry.events.info(
            "core.recovery", "recovery.scheduled",
            "%s %s in %.3fs" % (key[0], key[1], self.reaction_delay),
            kind=key[0], target=str(key[1]))
        self.sim.schedule(self.reaction_delay, func, target, fault_time, 1)

    def _retry_or_fail(self, key: Tuple[str, str],
                       services: List[str], exc: Exception, func,
                       target, fault_time: float, attempt: int) -> None:
        if attempt >= self.max_attempts:
            self._inflight.discard(key)
            self._m_failures.inc()
            for service in services:
                self._set_chain_state(service, CHAIN_FAILED)
            self.actions.append({
                "time": self.sim.now, "kind": key[0],
                "target": key[1], "ok": False, "attempts": attempt,
                "error": str(exc)})
            self.telemetry.events.error(
                "core.recovery", "recovery.gave_up",
                "%s %s after %d attempts: %s" % (key[0], key[1],
                                                 attempt, exc),
                kind=key[0], target=str(key[1]), attempts=attempt)
            return
        delay = self.retry_backoff * (2 ** (attempt - 1))
        self.telemetry.events.warn(
            "core.recovery", "recovery.retry",
            "%s %s attempt %d/%d failed (%s); retrying in %.3fs"
            % (key[0], key[1], attempt, self.max_attempts, exc, delay),
            kind=key[0], target=str(key[1]), attempt=attempt)
        self.sim.schedule(delay, func, target, fault_time, attempt + 1)

    def _repaired(self, key: Tuple[str, str], services: List[str],
                  fault_kind: str, fault_time: float,
                  attempt: int, **extra) -> None:
        self._inflight.discard(key)
        mttr = self.sim.now - fault_time
        self._mttr(fault_kind).observe(mttr)
        self._m_repairs.inc()
        self.actions.append({
            "time": self.sim.now, "kind": key[0], "target": key[1],
            "services": list(services), "ok": True,
            "attempts": attempt, "mttr": mttr, **extra})
        for service in services:
            self._awaiting_flip.pop(service, None)
            self._recent_flips.pop(service, None)
            self._set_chain_state(service, CHAIN_HEALTHY)
        self.telemetry.events.info(
            "core.recovery", "recovery.repaired",
            "%s %s repaired in %.3fs" % (key[0], key[1], mttr),
            kind=key[0], target=str(key[1]), fault=fault_kind,
            mttr=mttr, **extra)

    def _abandon(self, key: Tuple[str, str]) -> None:
        """The fault resolved itself (or its target is gone)."""
        self._inflight.discard(key)

    # -- proactive protection ------------------------------------------------

    def _note_flip(self, event: Event) -> None:
        """A fast-failover group flipped buckets in the dataplane.

        Pure bookkeeping (we run inside the event log's dispatch):
        attribute the flip to its chain via the steering module's group
        index, then either close out a fault we were already tracking
        or buffer the flip for the link reaction that is still on its
        way.
        """
        if not self.protection:
            return
        to_bucket = event.tags.get("to_bucket")
        if to_bucket in (None, "", 0):
            # back on the primary (re-protection) or no live bucket at
            # all — neither is a completed failover
            return
        path_id = self.orchestrator.steering.path_for_group(
            event.tags.get("dpid"), event.tags.get("group"))
        if path_id is None:
            return
        service = path_id.split("/", 1)[0]
        fault_time = self._awaiting_flip.pop(service, None)
        if fault_time is not None:
            self._record_flip(service, event.time, fault_time)
        elif service not in self._recent_flips:
            self._recent_flips[service] = event.time

    def _record_flip(self, service: str, flip_time: float,
                     fault_time: float) -> None:
        mttr = flip_time - fault_time
        self._mttr("protection.flip").observe(mttr)
        self._m_flips.inc()
        self.actions.append({
            "time": flip_time, "kind": "flip", "target": service,
            "services": [service], "ok": True, "attempts": 0,
            "mttr": mttr})
        self._set_chain_state(service, CHAIN_HEALTHY)
        self.telemetry.events.info(
            "core.recovery", "recovery.flipped",
            "%s re-steered in the dataplane in %.6fs" % (service, mttr),
            service=service, mttr=mttr)

    def _reprotected(self, key: Tuple[str, str], services: List[str],
                     attempt: int, **extra) -> None:
        """Re-provisioning finished: the chains were riding their
        backups when the reroute began, so no MTTR is observed — the
        flip actions already carry it.  (The reroute itself swaps the
        steering break-before-make, like every reroute.)"""
        self._inflight.discard(key)
        self._m_repairs.inc()
        for service in services:
            self._awaiting_flip.pop(service, None)
            self._recent_flips.pop(service, None)
            self._set_chain_state(service, CHAIN_HEALTHY)
        self.actions.append({
            "time": self.sim.now, "kind": "reprotect", "target": key[1],
            "services": list(services), "ok": True, "attempts": attempt,
            "mttr": None, **extra})
        self.telemetry.events.info(
            "core.recovery", "recovery.reprotected",
            "%s re-provisioned around %s (traffic stayed on backup)"
            % (", ".join(services) or "-", key[1]),
            kind=key[0], target=str(key[1]))

    # -- repairs ------------------------------------------------------------

    def _find_vnf(self, vnf_id: str):
        for name in sorted(self.orchestrator.deployed):
            chain = self.orchestrator.deployed[name]
            for vnf_name in sorted(chain.vnfs):
                if chain.vnfs[vnf_name].vnf_id == vnf_id:
                    return chain, vnf_name
        return None, None

    def _failover_candidates(self, exclude: str) -> List[str]:
        return [name for name in sorted(self.orchestrator.view.containers())
                if name != exclude
                and getattr(self.net.get(name), "up", True)]

    def _recover_vnf(self, vnf_id: str, fault_time: float,
                     attempt: int) -> None:
        key = ("vnf", vnf_id)
        chain, vnf_name = self._find_vnf(vnf_id)
        if chain is None or not chain.active:
            self._abandon(key)  # undeployed or already replaced
            return
        service = chain.sg.name
        self._set_chain_state(service, CHAIN_RECOVERING)
        deployed = chain.vnfs[vnf_name]
        container = self.net.get(deployed.container)
        self._m_attempts.inc()
        tracer = self.telemetry.tracer
        try:
            if getattr(container, "up", True):
                action = "restart"
                with tracer.span("recovery.restart", service=service,
                                 vnf=vnf_name, attempt=attempt):
                    self.orchestrator.restart_vnf(chain, vnf_name)
            else:
                action = "failover"
                with tracer.span("recovery.failover", service=service,
                                 vnf=vnf_name, attempt=attempt):
                    self._failover(chain, vnf_name, deployed.container)
        except Exception as exc:
            self._retry_or_fail(key, [service], exc, self._recover_vnf,
                                vnf_id, fault_time, attempt)
            return
        self._repaired(key, [service], "vnf.crashed", fault_time,
                       attempt, action=action, vnf=vnf_name,
                       container=chain.vnfs[vnf_name].container)

    def _failover(self, chain, vnf_name: str, dead_container: str) -> None:
        last_error: Optional[Exception] = None
        for target in self._failover_candidates(dead_container):
            try:
                self.orchestrator.migrate_vnf(chain, vnf_name, target,
                                              force=True)
                return
            except Exception as exc:
                last_error = exc
        raise last_error or OrchestratorError(
            "no container can host %s/%s" % (chain.sg.name, vnf_name))

    def _recover_link(self, link_name: str, fault_time: float,
                      attempt: int) -> None:
        key = ("link", link_name)
        try:
            link = self.net.find_link(link_name)
        except Exception:
            self._abandon(key)
            return
        node1 = link.intf1.node.name
        node2 = link.intf2.node.name
        if link.up:
            # the flap healed before we reacted; chains marked
            # recovering by an earlier attempt are served again
            self._clear_stranded_over_edge(node1, node2,
                                           (CHAIN_RECOVERING,))
            self._abandon(key)
            return
        try:
            self.orchestrator.view.set_link_up(node1, node2, False)
        except ValueError:
            self._abandon(key)  # outside the resource graph (mgmt link)
            return
        affected = self.orchestrator.chains_over_edge(node1, node2)
        for service in affected:
            self._set_chain_state(service, CHAIN_RECOVERING)
        protected: List[str] = []
        if self.protection and attempt == 1:
            protected_services = {
                path_id.split("/", 1)[0] for path_id
                in self.orchestrator.steering.protected_paths()}
            for service in affected:
                if service not in protected_services:
                    continue
                protected.append(service)
                flip_time = self._recent_flips.pop(service, None)
                if flip_time is not None and flip_time >= fault_time:
                    # the dataplane already repaired this one; account
                    # the real fault-to-first-backup-packet MTTR
                    self._record_flip(service, flip_time, fault_time)
                else:
                    # no traffic has probed the group yet — the flip
                    # (if one comes) closes out against this fault
                    self._awaiting_flip[service] = fault_time
        self._m_attempts.inc()
        try:
            with self.telemetry.tracer.span("recovery.reroute",
                                            edge="%s--%s" % (node1, node2),
                                            attempt=attempt):
                rerouted = self.orchestrator.reroute_chains_for_edge(
                    node1, node2)
        except Exception as exc:
            self._retry_or_fail(key, affected, exc, self._recover_link,
                                link_name, fault_time, attempt)
            return
        services = sorted(set(rerouted) | set(affected))
        if services and set(services) <= set(protected):
            # every affected chain was riding its backup: this reroute
            # never ended an outage, it renewed the protection
            self._reprotected(key, services, attempt,
                              edge="%s--%s" % (node1, node2),
                              rerouted=len(rerouted))
            return
        self._repaired(key, services,
                       "link.down", fault_time, attempt,
                       edge="%s--%s" % (node1, node2),
                       rerouted=len(rerouted))

    def _note_link_up(self, link_name: str) -> None:
        try:
            link = self.net.find_link(link_name)
        except Exception:
            return
        node1 = link.intf1.node.name
        node2 = link.intf2.node.name
        # parallel trunks collapse into one view edge: only mark it up
        # again when every member link is back
        if any(not other.up
               for other in self.net.links_between(node1, node2)):
            return
        try:
            self.orchestrator.view.set_link_up(node1, node2, True)
        except ValueError:
            return
        # a failed reroute leaves the original steering installed, so
        # chains stranded by this edge carry traffic again the moment
        # it returns — reflect that in their state
        self._clear_stranded_over_edge(node1, node2,
                                       (CHAIN_RECOVERING, CHAIN_FAILED))

    def _clear_stranded_over_edge(self, node1: str, node2: str,
                                  states: Tuple[int, ...]) -> None:
        for service in self.orchestrator.chains_over_edge(node1, node2):
            if self.chain_state.get(service) in states:
                self._set_chain_state(service, CHAIN_HEALTHY)

    def _reap_zombies(self, container_name: str, fault_time: float,
                      attempt: int) -> None:
        key = ("reap", container_name)
        try:
            container = self.net.get(container_name)
        except Exception:
            self._abandon(key)
            return
        if not getattr(container, "up", True):
            self._abandon(key)  # went down again; the next up re-arms
            return
        live_ids = set()
        for chain in self.orchestrator.deployed.values():
            for deployed in chain.vnfs.values():
                live_ids.add(deployed.vnf_id)
        zombies = [vnf_id for vnf_id, process
                   in sorted(container.vnfs.items())
                   if process.status == VNF_FAILED
                   and vnf_id not in live_ids]
        if not zombies:
            self._abandon(key)
            return
        self._m_attempts.inc()
        try:
            from repro.netconf.vnf_yang import VNF_NS
            client = self.orchestrator.netconf_client(container_name)
            for vnf_id in zombies:
                client.rpc("stopVNF", VNF_NS,
                           {"id": vnf_id}).result(self.sim)
        except Exception as exc:
            self._retry_or_fail(key, [], exc, self._reap_zombies,
                                container_name, fault_time, attempt)
            return
        self._repaired(key, [], "container.down", fault_time, attempt,
                       reaped=len(zombies), container=container_name)

    def __repr__(self) -> str:
        return "RecoveryManager(%d repairs, %d pending)" % (
            len([a for a in self.actions if a.get("ok")]),
            len(self._inflight))
