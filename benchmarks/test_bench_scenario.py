"""SCEN1 — scenario-campaign smoke benchmark.

One seed of a small fat-tree scenario end-to-end: topology build,
ESCAPE bring-up, chain deploys, subscriber workload, bundle assembly.
Timing it pins the campaign runner's fixed overhead; the assertions
re-check the CI gate criteria (all chains deployed, nothing
unrecovered, traffic delivered) so a regression in any layer below
surfaces here too.
"""

from repro.scenario.runner import CampaignRunner

SMOKE = {
    "name": "bench-smoke",
    "duration": 2.0,
    "seeds": [1],
    "topology": {"kind": "fat_tree", "k": 2, "containers_per_pod": 1,
                 "container_ports": 4},
    "chains": {"count": 1, "templates": ["web"]},
    "workload": {"subscribers_per_sap": 50, "flows_per_subscriber": 0.05,
                 "flow_rate_pps": 200, "flow_duration": 0.2,
                 "max_flows": 10},
    "sla": {"max_delay": 0.1},
}


def test_campaign_seed_smoke(benchmark):
    """SCEN1: wall-clock cost of one full (scenario, seed) run."""
    bundles = []

    def run_once():
        runner = CampaignRunner(dict(SMOKE))
        bundles.append(runner.run_seed(1, write=False))
        assert runner.gate() == []
    benchmark.pedantic(run_once, rounds=3, iterations=1)

    bundle = bundles[-1]
    assert bundle["chains"]["failed"] == []
    assert bundle["recovery"]["unrecovered"] == []
    workload = bundle["workload"]
    assert workload["packets_sent"] > 0
    assert workload["packets_received"] == workload["packets_sent"]
    assert bundle["throughput"]["udp_pps_wall"] > 0
    print("\nSCEN1 smoke: %d pkts, p50=%.2fms p99=%.2fms, %.0f pps wall"
          % (workload["packets_received"],
             workload["delay_p50"] * 1e3, workload["delay_p99"] * 1e3,
             bundle["throughput"]["udp_pps_wall"]))
