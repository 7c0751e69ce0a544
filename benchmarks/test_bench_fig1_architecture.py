"""FIG1 — Fig. 1 of the paper: the three UNIFY layers, assembled.

The figure is an architecture diagram, so the reproduction is the full
bring-up: build the infrastructure layer, attach the orchestration
layer (controller + NETCONF sessions + mappers), expose the service
layer, and assert every pictured component is present and functional.
The benchmark measures the cost of that bring-up.
"""

import pytest

from benchmarks.helpers import demo_topology
from repro.core import ESCAPE, verify_sla


def build_and_verify():
    escape = ESCAPE.from_topology(demo_topology(containers=2))
    escape.start()
    # -- infrastructure layer (Mininet-based, per the figure)
    assert len(escape.net.hosts()) == 2
    assert len(escape.net.switches()) == 2          # Open vSwitch analog
    assert len(escape.net.vnf_containers()) == 2    # VNF containers
    # every container has a NETCONF agent with the YANG model loaded
    for name, agent in escape.agents.items():
        assert agent.module.name == "vnf"
    # -- orchestration layer
    assert len(escape.nexus.connections) == 2        # POX nexus
    assert escape.core.has_component("steering")     # traffic steering
    assert escape.core.has_component("discovery")    # topology view
    assert set(escape.mappers) >= {"greedy", "shortest-path",
                                   "backtracking"}   # mapping algorithms
    assert escape.orchestrator.view.containers()     # global resource view
    # -- service layer
    assert escape.catalog.names()                    # VNF catalog
    for api in (escape.deploy_service, escape.terminate_service,
                escape.watch_sla, verify_sla):       # SG / SLA handling
        assert callable(api)
    escape.stop()
    assert escape.orchestrator.deployed == {}        # one registry
    return escape


def test_fig1_full_stack_bringup(benchmark):
    benchmark.pedantic(build_and_verify, rounds=3, iterations=1)
