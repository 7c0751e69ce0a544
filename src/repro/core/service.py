"""The service layer: request handling and SLA verification.

"Service layer is aware of the service logic, handles service requests,
and is responsible for SLAs."  A :class:`ServiceRequest` bundles a
service graph with its SLA; the layer deploys it through the
orchestrator and can verify the SLA afterwards by *measuring* the
running chain (ping RTT for delay, UDP flow delivery for loss).
"""

from typing import Dict, List, Optional

from repro.core.mapping import Mapper
from repro.core.nffg import ServiceGraph
from repro.core.orchestrator import DeployedChain, Orchestrator
from repro.openflow import Match


class ServiceRequest:
    """A service graph plus deployment preferences."""

    def __init__(self, sg: ServiceGraph, match: Optional[Match] = None,
                 return_path: str = "direct"):
        self.sg = sg
        self.match = match
        self.return_path = return_path

    def __repr__(self) -> str:
        return "ServiceRequest(%s)" % self.sg.name


class SLAReport:
    """Outcome of verifying one requirement against measurements."""

    def __init__(self, requirement, measured_delay: Optional[float],
                 loss_percent: Optional[float], satisfied: bool):
        self.requirement = requirement
        self.measured_delay = measured_delay
        self.loss_percent = loss_percent
        self.satisfied = satisfied

    def __repr__(self) -> str:
        return "SLAReport(%r, delay=%s, loss=%s%%, %s)" % (
            self.requirement, self.measured_delay, self.loss_percent,
            "OK" if self.satisfied else "VIOLATED")


class ServiceLayer:
    """Accepts requests, tracks deployed services, verifies SLAs."""

    def __init__(self, orchestrator: Orchestrator, default_mapper: Mapper):
        self.orchestrator = orchestrator
        self.default_mapper = default_mapper
        self.services: Dict[str, DeployedChain] = {}

    def submit(self, request: ServiceRequest,
               mapper: Optional[Mapper] = None) -> DeployedChain:
        """Deploy a service request; raises MappingError/OrchestratorError
        when it cannot be satisfied."""
        chain = self.orchestrator.deploy(
            request.sg, mapper or self.default_mapper,
            match=request.match, return_path=request.return_path)
        self.services[request.sg.name] = chain
        return chain

    def terminate(self, name: str) -> None:
        chain = self.services.pop(name, None)
        if chain is None:
            raise KeyError("no deployed service %r" % name)
        chain.undeploy()

    PROBE_INTERVAL = 0.2  # seconds between the pings of one check

    def verify_sla(self, name: str, probes: int = 5) -> List[SLAReport]:
        """Measure each requirement of a deployed service with pings.

        The one-way chain-delay requirement is compared against half the
        measured round-trip (the return path is the direct route, so the
        RTT upper-bounds chain delay + direct delay; using RTT/2 keeps
        the check conservative for symmetric topologies).
        """
        chain = self.services.get(name)
        if chain is None:
            raise KeyError("no deployed service %r" % name)
        reports: List[SLAReport] = []
        net = self.orchestrator.net
        for requirement in chain.sg.requirements:
            src_host = net.get(requirement.src)
            dst_host = net.get(requirement.dst)
            result = src_host.ping(dst_host.ip, count=probes,
                                   interval=self.PROBE_INTERVAL)
            net.run(probes * self.PROBE_INTERVAL + 2.0)
            measured = (result.avg_rtt / 2.0
                        if result.avg_rtt is not None else None)
            satisfied = True
            if requirement.max_delay is not None:
                satisfied = (measured is not None
                             and measured <= requirement.max_delay)
            if result.loss_percent > 0.0:
                satisfied = False
            reports.append(SLAReport(requirement, measured,
                                     result.loss_percent, satisfied))
        return reports

    def __repr__(self) -> str:
        return "ServiceLayer(%d services)" % len(self.services)
