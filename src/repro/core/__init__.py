"""ESCAPE's own layers (the paper's contribution).

* :mod:`~repro.core.nffg` — the abstract service graph (SAPs, VNFs,
  SG links, delay/bandwidth requirements) and the substrate resource
  view the orchestrator maps onto,
* :mod:`~repro.core.catalog` — the built-in VNF catalog (Click configs),
* :mod:`~repro.core.mapping` — the extensible Orchestrator's mapping
  algorithms (greedy / shortest-path / backtracking),
* :mod:`~repro.core.orchestrator` — deploys a mapped graph: VNFs over
  NETCONF, steering entries over the POX module,
* :mod:`~repro.core.sla` — SLA checks on a running chain: the
  one-shot :func:`verify_sla` and the always-on :class:`SLAMonitor`,
* :mod:`~repro.core.monitor` — Clicky-analog VNF monitoring,
* :mod:`~repro.core.sgfile` — JSON topology/SG descriptions (the
  MiniEdit GUI replacement),
* :mod:`~repro.core.escape` — the :class:`ESCAPE` facade wiring all
  three UNIFY layers (Fig. 1 of the paper).
"""

from repro.core.catalog import CatalogEntry, VNFCatalog, default_catalog
from repro.core.escape import ESCAPE
from repro.core.mapping import (BacktrackingMapper, CongestionAwareMapper,
                                GreedyMapper, Mapper, Mapping,
                                MappingError, ShortestPathMapper)
from repro.core.monitor import MonitorSample, VNFMonitor
from repro.core.nffg import (Requirement, ResourceView, SAP, ServiceGraph,
                             SGLink, VNFNode)
from repro.core.orchestrator import (DeployedChain, Orchestrator,
                                     OrchestratorError)
from repro.core.recovery import (CHAIN_FAILED, CHAIN_HEALTHY,
                                 CHAIN_RECOVERING, RecoveryManager)
from repro.core.sla import (OK, RequirementReport, SLAError, SLAMonitor,
                            SLAReport, VIOLATED, WARN, verify_sla)
from repro.core.sgfile import (load_service_graph, load_topology,
                               save_service_graph, save_topology)

__all__ = [
    "BacktrackingMapper",
    "CHAIN_FAILED",
    "CHAIN_HEALTHY",
    "CHAIN_RECOVERING",
    "CatalogEntry",
    "CongestionAwareMapper",
    "DeployedChain",
    "ESCAPE",
    "GreedyMapper",
    "Mapper",
    "Mapping",
    "MappingError",
    "MonitorSample",
    "OK",
    "Orchestrator",
    "OrchestratorError",
    "RecoveryManager",
    "Requirement",
    "RequirementReport",
    "ResourceView",
    "SAP",
    "SGLink",
    "SLAError",
    "SLAMonitor",
    "SLAReport",
    "ServiceGraph",
    "ShortestPathMapper",
    "VIOLATED",
    "VNFCatalog",
    "WARN",
    "VNFMonitor",
    "VNFNode",
    "default_catalog",
    "load_service_graph",
    "load_topology",
    "save_service_graph",
    "save_topology",
    "verify_sla",
]
