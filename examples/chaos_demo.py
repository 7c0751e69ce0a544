#!/usr/bin/env python
"""Chaos-testing the self-healing orchestration.

A firewall chain carries a ping train while a seeded chaos scenario
beats on all three layers: the firewall process crashes, the primary
inter-switch trunk goes down and later flaps, a NETCONF management
session blackholes, and the firewall's whole container goes down.  The
recovery manager restarts, re-routes and fails over — the demo checks
that traffic flows again after every fault and prints the recovery
ledger with per-fault MTTR.

Run:  python examples/chaos_demo.py [--seed N] [--protection]
      python examples/chaos_demo.py --compare-protection [--seed N]

With ``--protection`` the orchestrator pre-computes link-disjoint
backup paths and installs FAST_FAILOVER groups, so trunk failures are
repaired by a local dataplane bucket flip instead of a control-plane
reroute.  ``--compare-protection`` runs the *same* seeded scenario in
both modes and gates on the protected p50 link-failover MTTR being at
least 5x lower than the reactive one (the CI chaos-soak criterion).

Exits non-zero when any chain stays unrecovered (the CI chaos soak
gate), traffic is dead after the scenario ends, or — in comparison
mode — protection does not beat reactive recovery by the 5x margin.
"""

import argparse
import sys

from repro.core import ESCAPE
from repro.core.sgfile import load_service_graph, load_topology

TOPOLOGY = {
    "nodes": [
        {"name": "h1", "role": "host"},
        {"name": "h2", "role": "host"},
        {"name": "s1", "role": "switch"},
        {"name": "s2", "role": "switch"},
        {"name": "s3", "role": "switch"},  # the detour path
        {"name": "c1", "role": "vnf_container", "cpu": 4, "mem": 4096},
        {"name": "c2", "role": "vnf_container", "cpu": 4, "mem": 4096},
    ],
    "links": [
        {"from": "h1", "to": "s1", "delay": 0.001},
        {"from": "h2", "to": "s2", "delay": 0.001},
        {"from": "s1", "to": "s2", "delay": 0.002},   # primary trunk
        {"from": "s1", "to": "s3", "delay": 0.003},
        {"from": "s3", "to": "s2", "delay": 0.003},
        {"from": "c1", "to": "s1", "delay": 0.0005},
        {"from": "c1", "to": "s1", "delay": 0.0005},
        {"from": "c2", "to": "s2", "delay": 0.0005},
        {"from": "c2", "to": "s2", "delay": 0.0005},
    ],
}

SERVICE_GRAPH = {
    "name": "chaos-chain",
    "saps": ["h1", "h2"],
    "vnfs": [{"name": "fw", "type": "firewall",
              "params": {"rules": "allow icmp, drop all"}}],
    "chain": ["h1", "fw", "h2"],
}

# kinds in the recovery ledger that repair a *link* failure: these are
# the actions whose MTTR the protection comparison is about
LINK_REPAIR_KINDS = ("link", "edge")


def build_scenario(escape, seed, fw_container):
    """The fault schedule; the trunk link and the firewall's container
    are resolved from the live deployment, the crash and blackhole
    targets from the seeded RNG."""
    trunk = escape.net.links_between("s1", "s2")[0].name
    return {
        "name": "crash-flap-blackhole",
        "seed": seed,
        "faults": [
            {"kind": "vnf_crash", "at": 1.0},
            {"kind": "link_down", "at": 4.0, "duration": 2.0,
             "target": trunk},
            {"kind": "netconf_blackhole", "at": 8.0, "duration": 1.5},
            # the firewall's own container dies: restart-in-place is
            # impossible, recovery must fail over to the other one
            {"kind": "container_down", "at": 11.0, "duration": 3.0,
             "target": fw_container},
            {"kind": "link_degrade", "at": 16.0, "duration": 2.0,
             "loss": 0.2},
            # carrier bounce on the trunk: reactive recovery chases
            # every transition, protection rides it out in-dataplane
            {"kind": "link_flap", "at": 19.0, "target": trunk,
             "period": 0.4, "flaps": 2},
        ],
    }


def probe(escape, h1, h2, label):
    """Ping across the chain; returns True when replies arrive."""
    train = h1.ping(h2.ip, count=5, interval=0.1)
    escape.run(1.5)
    ok = train.received > 0
    print("  [%s] ping %d/%d %s" % (label, train.received, train.sent,
                                    "ok" if ok else "DEAD"))
    return ok


def _percentile(values, q):
    if not values:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       int(round(q * (len(ordered) - 1))))]


def run_once(seed, protection):
    """One full chaos run; returns the gate-relevant summary."""
    mode = "protected" if protection else "reactive"
    print("=== %s run (seed %d) ===" % (mode, seed))
    escape = ESCAPE.from_topology(load_topology(TOPOLOGY),
                                  protection=protection)
    escape.start()
    escape.deploy_service(load_service_graph(SERVICE_GRAPH),
                          mapper="shortest-path")
    h1, h2 = escape.net.get("h1"), escape.net.get("h2")
    placement = escape.orchestrator.deployed["chaos-chain"] \
        .mapping.vnf_placement
    print("chain deployed: %r" % placement)
    if protection:
        print("protected paths: %r" % escape.steering.protected_paths())

    # continuous carrier traffic: protection only matters for packets
    # in flight, so keep frames crossing the chain the whole scenario —
    # a dataplane flip fires the first time a frame hits a dead bucket
    carrier = h1.ping(h2.ip, count=2400, interval=0.01)

    engine = escape.inject_chaos(
        build_scenario(escape, seed, placement["fw"]))
    print("scenario armed: %d faults, seed %d"
          % (len(engine.scenario.faults), seed))

    checks = []
    windows = [
        (3.0, "after VNF crash recovery"),
        (7.5, "after trunk outage"),
        (10.5, "after NETCONF blackhole"),
        (15.5, "after container failover"),
        (18.5, "after degradation healed"),
        (21.5, "after trunk flap"),
    ]
    for until, label in windows:
        if escape.sim.now < until:
            escape.run(until - escape.sim.now)
        checks.append(probe(escape, h1, h2, label))

    engine.heal_all()
    escape.run(2.0)  # let trailing repairs settle

    print("\ninjection ledger (deterministic for seed %d):" % seed)
    for record in engine.injections:
        note = (" (skipped: %s)" % record["skipped"]
                if "skipped" in record else "")
        print("  %7.3f %-18s %s%s" % (record["time"], record["kind"],
                                      record["target"], note))

    print("\nrecovery ledger:")
    for action in escape.recovery.actions:
        if not action.get("ok"):
            print("  %7.3f %-9s %-28s GAVE UP: %s"
                  % (action["time"], action["kind"], action["target"],
                     action["error"]))
        elif action.get("mttr") is None:  # reprotect: no outage to time
            print("  %7.3f %-9s %-28s (re-provisioned)"
                  % (action["time"], action["kind"], action["target"]))
        else:
            print("  %7.3f %-9s %-28s mttr=%6.3fs attempts=%d"
                  % (action["time"], action["kind"], action["target"],
                     action["mttr"], action["attempts"]))

    mttr = escape.telemetry.metrics.get(
        "core.recovery.mttr", labels={"fault": "vnf.crashed"})
    if mttr is not None:
        print("\nvnf.crashed MTTR: n=%d avg=%.3fs"
              % (mttr.count, mttr.sum / max(mttr.count, 1)))

    actions = list(escape.recovery.actions)
    flip_mttrs = [a["mttr"] for a in actions
                  if a["kind"] == "flip" and a.get("mttr") is not None]
    reroute_mttrs = [a["mttr"] for a in actions
                     if a["kind"] in LINK_REPAIR_KINDS and a.get("ok")
                     and a.get("mttr") is not None]
    flips = sum(switch.datapath.group_flip_count
                for switch in escape.net.switches())
    unrecovered = escape.recovery.unrecovered()
    pending = escape.recovery.pending()
    final_ok = checks[-1] if checks else False
    print("\ncarrier traffic:    %d/%d delivered"
          % (carrier.received, carrier.sent))
    print("unrecovered chains: %s" % (unrecovered or "none"))
    print("pending repairs:    %s" % (pending or "none"))
    if flip_mttrs:
        print("dataplane flips:    %d, mttr p50=%.4fs"
              % (flips, _percentile(flip_mttrs, 0.5)))
    if reroute_mttrs:
        print("reactive reroutes:  %d, mttr p50=%.4fs"
              % (len(reroute_mttrs), _percentile(reroute_mttrs, 0.5)))
    escape.stop()
    print("")
    return {
        "mode": mode,
        "ok": bool(final_ok and not unrecovered and not pending),
        "unrecovered": unrecovered,
        "pending": pending,
        "final_ok": final_ok,
        "flips": flips,
        "flip_mttr_p50": _percentile(flip_mttrs, 0.5),
        "reroute_mttr_p50": _percentile(reroute_mttrs, 0.5),
        "reroutes": len(reroute_mttrs),
    }


def compare(seed):
    """The CI gate: same scenario reactive vs protected; protection
    must win the link-failover p50 MTTR by at least 5x."""
    reactive = run_once(seed, protection=False)
    protected = run_once(seed, protection=True)

    problems = []
    for result in (reactive, protected):
        if not result["ok"]:
            problems.append("%s run did not fully self-heal "
                            "(unrecovered=%s pending=%s traffic=%s)"
                            % (result["mode"], result["unrecovered"],
                               result["pending"],
                               "ok" if result["final_ok"] else "DEAD"))
    if protected["flips"] < 1:
        problems.append("protected run performed no dataplane flips")
    # the experiment: how long is protected traffic down when a link
    # dies (a bucket flip) vs how long reactive traffic is down (a
    # control-plane reroute over NETCONF/POX)
    p50_reactive = reactive["reroute_mttr_p50"]
    p50_protected = protected["flip_mttr_p50"]
    if p50_reactive is None or p50_protected is None:
        problems.append("missing link-failover MTTR samples "
                        "(reactive p50=%r, protected flip p50=%r)"
                        % (p50_reactive, p50_protected))
    else:
        ratio = p50_reactive / p50_protected if p50_protected else \
            float("inf")
        print("=== protection comparison (seed %d) ===" % seed)
        print("reactive  link-failover p50 MTTR: %.4fs (%d reroutes)"
              % (p50_reactive, reactive["reroutes"]))
        print("protected link-failover p50 MTTR: %.4fs (%d flips)"
              % (p50_protected, protected["flips"]))
        print("speedup: %.1fx (gate: >= 5x)" % ratio)
        if ratio < 5.0:
            problems.append("protected p50 MTTR %.4fs is not 5x below "
                            "reactive %.4fs (%.1fx)"
                            % (p50_protected, p50_reactive, ratio))

    if problems:
        for problem in problems:
            print("FAIL: %s" % problem)
        return 1
    print("PASS: protection beats reactive recovery, both runs healed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42,
                        help="chaos RNG seed (default 42)")
    parser.add_argument("--protection", action="store_true",
                        help="run with proactive backup paths and "
                        "FAST_FAILOVER groups")
    parser.add_argument("--compare-protection", action="store_true",
                        help="run reactive and protected back to back "
                        "and gate on the p50 MTTR speedup")
    args = parser.parse_args()

    if args.compare_protection:
        return compare(args.seed)

    result = run_once(args.seed, args.protection)
    if not result["ok"]:
        print("FAIL: chain did not fully self-heal")
        return 1
    print("PASS: every fault repaired, traffic flowing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
