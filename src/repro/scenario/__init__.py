"""``repro.scenario`` — declarative scenario engine + topology zoo.

Turns the chaos/SLA/profiler stack from hand-rolled demo scripts into
a reproducible benchmark suite:

* :mod:`repro.scenario.zoo` — parameterised topology generators
  (fat-tree, an Abilene-style WAN) layered on
  :class:`repro.netem.topo.Topo`,
* :mod:`repro.scenario.workload` — seeded subscriber-driven workload
  builders (flow-arrival processes with diurnal rate profiles, chain
  requests drawn from a template catalog),
* :mod:`repro.scenario.spec` — the declarative ``Scenario``
  description (YAML/JSON/dict),
* :mod:`repro.scenario.runner` — the campaign runner executing a
  scenario through :class:`repro.core.ESCAPE`, one JSON result bundle
  per (scenario, seed),
* :mod:`repro.scenario.analyzer` — bundle aggregation into cross-seed
  comparison tables (pps, p50/p99 delay, MTTR, SLA violation ratio).

CLI: ``escape scenario run|list|report`` (see :mod:`repro.cli`).
Only the zoo and the workload builders are re-exported: building a
topology does not load the campaign engine (spec, runner, analyzer).
"""

from repro.scenario.workload import (CHAIN_TEMPLATES, Workload,
                                     WorkloadSchedule, build_workload)
from repro.scenario.zoo import (TOPOLOGY_KINDS, FatTreeTopo, WanTopo,
                                build_topology)

__all__ = ["CHAIN_TEMPLATES", "FatTreeTopo", "TOPOLOGY_KINDS", "WanTopo",
           "Workload", "WorkloadSchedule", "build_topology", "build_workload"]
