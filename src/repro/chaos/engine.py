"""The chaos engine: runs a scenario against a live ESCAPE instance.

``arm()`` schedules every fault of the scenario on the simulator clock
(offsets are relative to the arming time); injections and heals then
fire as the simulation advances — interleaved with the recovery they
provoke.  Target resolution uses one ``random.Random(seed)`` consumed
in schedule order, so a seeded scenario produces an identical
``injections`` ledger on every run — the property chaos regression
tests assert on.
"""

import random
from typing import Any, Dict, List, Optional

from repro.chaos.faults import Fault, FaultError
from repro.chaos.scenario import ChaosScenario


class ChaosEngine:
    """Binds one scenario to one ESCAPE instance."""

    def __init__(self, escape, scenario: ChaosScenario):
        self.escape = escape
        self.sim = escape.sim
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.armed = False
        # the deterministic ledger: one dict per attempted injection
        self.injections: List[Dict[str, Any]] = []
        self.active: List[Dict[str, Any]] = []  # injected, not healed
        self.telemetry = self.sim.telemetry
        metrics = self.telemetry.metrics
        self._m_injected = metrics.counter(
            "chaos.engine.faults_injected", "faults injected")
        self._m_healed = metrics.counter(
            "chaos.engine.faults_healed", "faults healed (reverted)")
        self._m_skipped = metrics.counter(
            "chaos.engine.faults_skipped",
            "faults with no resolvable target at fire time")

    def arm(self) -> "ChaosEngine":
        """Schedule the whole scenario starting now; returns self."""
        if self.armed:
            raise FaultError("scenario %r is already armed"
                             % self.scenario.name)
        self.armed = True
        for fault in self.scenario.faults:
            self.sim.schedule(fault.at, self._fire, fault)
        self.telemetry.events.info(
            "chaos.engine", "chaos.armed",
            "%s: %d faults, seed %d" % (self.scenario.name,
                                        len(self.scenario.faults),
                                        self.scenario.seed),
            scenario=self.scenario.name, seed=self.scenario.seed,
            faults=len(self.scenario.faults))
        return self

    # -- firing -------------------------------------------------------------

    def _resolve_target(self, fault: Fault) -> Optional[str]:
        if fault.target is not None:
            return fault.target
        candidates = fault.candidates(self.escape)
        if not candidates:
            return None
        return self.rng.choice(candidates)

    def _fire(self, fault: Fault) -> None:
        target = self._resolve_target(fault)
        record = {"time": self.sim.now, "kind": fault.kind,
                  "target": target}
        if target is None:
            record["skipped"] = "no candidates"
            self.injections.append(record)
            self._m_skipped.inc()
            self.telemetry.events.warn(
                "chaos.engine", "chaos.skipped",
                "%s: no target available" % fault.kind, kind=fault.kind)
            return
        try:
            state = fault.inject(self.escape, target)
        except Exception as exc:
            record["skipped"] = str(exc)
            self.injections.append(record)
            self._m_skipped.inc()
            self.telemetry.events.warn(
                "chaos.engine", "chaos.skipped",
                "%s on %s failed: %s" % (fault.kind, target, exc),
                kind=fault.kind, target=target)
            return
        self.injections.append(record)
        self._m_injected.inc()
        entry = {"fault": fault, "target": target, "state": state,
                 "kind": fault.kind, "since": self.sim.now}
        self.active.append(entry)
        self.telemetry.events.warn(
            "chaos.engine", "chaos.inject",
            "%s on %s" % (fault.kind, target),
            kind=fault.kind, target=target,
            duration=fault.duration if fault.duration is not None else "")
        if fault.duration is not None:
            self.sim.schedule(fault.duration, self._heal, entry)

    def _heal(self, entry: Dict[str, Any]) -> None:
        if entry not in self.active:
            return
        self.active.remove(entry)
        fault: Fault = entry["fault"]
        try:
            fault.heal(self.escape, entry["target"], entry["state"])
        except Exception as exc:
            self.telemetry.events.error(
                "chaos.engine", "chaos.heal_failed",
                "%s on %s: %s" % (fault.kind, entry["target"], exc),
                kind=fault.kind, target=entry["target"])
            return
        self._m_healed.inc()
        self.telemetry.events.info(
            "chaos.engine", "chaos.heal",
            "%s on %s reverted" % (fault.kind, entry["target"]),
            kind=fault.kind, target=entry["target"])

    def heal_all(self) -> int:
        """Immediately revert every still-active fault; returns count."""
        count = 0
        for entry in list(self.active):
            self._heal(entry)
            count += 1
        return count

    def signature(self) -> List[tuple]:
        """Hashable injection summary for determinism assertions."""
        return [(round(record["time"], 9), record["kind"],
                 record["target"]) for record in self.injections]

    def __repr__(self) -> str:
        return "ChaosEngine(%s, %d injected, %d active)" % (
            self.scenario.name, len(self.injections), len(self.active))
