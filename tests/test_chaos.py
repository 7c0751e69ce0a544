"""repro.chaos: deterministic fault injection + self-healing recovery.

End-to-end over a topology with a detour path (s1-s3-s2) and two VNF
containers, so every recovery strategy is reachable: restart-in-place,
re-route, failover and zombie reaping.
"""

import json

import pytest

from repro.chaos import (ChaosEngine, ChaosScenario, FAULT_KINDS,
                         FaultError, LinkDownFault)
from repro.core import (CHAIN_FAILED, CHAIN_HEALTHY, ESCAPE,
                        OrchestratorError)
from repro.core.sgfile import load_service_graph, load_topology
from repro.netem.vnf import FAILED as VNF_FAILED
from repro.pox import SteeringError
from tests.audit import audit_tables
from tests.test_stateful_invariants import topology as stateful_topology

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

NO_DETOUR_TOPOLOGY = {
    "nodes": [
        {"name": "h1", "role": "host"},
        {"name": "h2", "role": "host"},
        {"name": "s1", "role": "switch"},
        {"name": "s2", "role": "switch"},
        {"name": "c1", "role": "vnf_container", "cpu": 4, "mem": 2048},
    ],
    "links": [
        {"from": "h1", "to": "s1", "delay": 0.001},
        {"from": "h2", "to": "s2", "delay": 0.001},
        {"from": "s1", "to": "s2", "delay": 0.002},
        {"from": "c1", "to": "s1", "delay": 0.0005},
        {"from": "c1", "to": "s1", "delay": 0.0005},
    ],
}


def simple_sg(name="chaos-chain"):
    return load_service_graph({
        "name": name,
        "saps": ["h1", "h2"],
        "vnfs": [{"name": "fw", "type": "firewall",
                  "params": {"rules": "allow all"}}],
        "chain": ["h1", "fw", "h2"],
    })


def fresh_escape(topology=TOPOLOGY):
    framework = ESCAPE.from_topology(load_topology(topology))
    framework.start()
    return framework


@pytest.fixture
def escape():
    return fresh_escape()


def deploy(escape, name="chaos-chain"):
    return escape.deploy_service(simple_sg(name), mapper="shortest-path")


def ping_ok(escape, count=5):
    h1, h2 = escape.net.get("h1"), escape.net.get("h2")
    train = h1.ping(h2.ip, count=count, interval=0.1)
    escape.run(count * 0.1 + 1.0)
    return train.received


def trunk_link(escape):
    return escape.net.links_between("s1", "s2")[0]


# -- scenario parsing ---------------------------------------------------------

class TestScenarioParsing:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            ChaosScenario.from_dict({
                "faults": [{"kind": "meteor_strike", "at": 1.0}]})

    def test_missing_at_rejected(self):
        with pytest.raises(FaultError):
            ChaosScenario.from_dict({
                "faults": [{"kind": "link_down"}]})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(FaultError):
            ChaosScenario.from_dict({
                "faults": [{"kind": "link_down", "at": 1.0, "bogus": 7}]})

    def test_missing_faults_rejected(self):
        with pytest.raises(FaultError):
            ChaosScenario.from_dict({"name": "empty"})

    def test_negative_time_rejected(self):
        with pytest.raises(FaultError):
            LinkDownFault(at=-1.0)

    def test_degrade_without_knobs_rejected(self):
        with pytest.raises(FaultError):
            ChaosScenario.from_dict({
                "faults": [{"kind": "link_degrade", "at": 1.0}]})

    def test_random_target_resolves_to_none(self):
        scenario = ChaosScenario.from_dict({
            "faults": [{"kind": "vnf_crash", "at": 1.0,
                        "target": "random"}]})
        assert scenario.faults[0].target is None

    def test_faults_sorted_by_time(self):
        scenario = ChaosScenario.from_dict({
            "faults": [{"kind": "vnf_crash", "at": 5.0},
                       {"kind": "link_down", "at": 1.0}]})
        assert [fault.at for fault in scenario.faults] == [1.0, 5.0]

    def test_duration_spans_last_heal(self):
        scenario = ChaosScenario.from_dict({
            "faults": [{"kind": "link_down", "at": 2.0, "duration": 3.0},
                       {"kind": "vnf_crash", "at": 4.0}]})
        assert scenario.duration == 5.0

    def test_load_accepts_dict_json_and_path(self, tmp_path):
        data = {"name": "s", "seed": 7,
                "faults": [{"kind": "link_down", "at": 1.0,
                            "duration": 2.0, "target": "l1"}]}
        from_dict = ChaosScenario.load(data)
        from_json = ChaosScenario.load(json.dumps(data))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        from_file = ChaosScenario.load(str(path))
        for scenario in (from_dict, from_json, from_file):
            assert scenario.seed == 7
            assert scenario.faults[0].kind == "link_down"
            assert scenario.faults[0].target == "l1"

    def test_to_dict_round_trips(self):
        data = {"name": "rt", "seed": 3,
                "faults": [
                    {"kind": "link_degrade", "at": 1.0, "duration": 2.0,
                     "loss": 0.5},
                    {"kind": "netconf_slow", "at": 2.0,
                     "extra_latency": 0.25, "target": "c1"}]}
        restored = ChaosScenario.from_dict(
            ChaosScenario.from_dict(data).to_dict())
        assert restored.to_dict() == ChaosScenario.from_dict(data).to_dict()

    def test_all_kinds_registered(self):
        assert set(FAULT_KINDS) == {
            "link_down", "link_flap", "link_degrade", "vnf_crash",
            "container_down", "netconf_blackhole", "netconf_slow"}


# -- per-cause drop accounting (satellite: dropped counter split) -------------

class TestDropAccounting:
    def test_down_link_counts_dropped_down(self, escape):
        link = escape.net.links_between("h1", "s1")[0]
        link.set_up(False)
        escape.net.get("h1").ping(escape.net.get("h2").ip,
                                  count=3, interval=0.1)
        escape.run(1.0)
        assert link.dropped_down > 0
        assert link.dropped == link.dropped_down
        stats = escape.net.link_stats()
        assert stats["dropped_down"] >= link.dropped_down
        assert stats["dropped"] == (stats["dropped_down"]
                                    + stats["dropped_loss"]
                                    + stats["dropped_queue"])

    def test_lossy_link_counts_dropped_loss(self, escape):
        link = trunk_link(escape)
        link.loss = 1.0
        escape.net.get("h1").ping(escape.net.get("h2").ip,
                                  count=3, interval=0.1)
        escape.run(1.0)
        assert link.dropped_loss > 0
        assert link.dropped_down == 0
        assert escape.net.link_stats()["dropped_loss"] >= link.dropped_loss


# -- engine: injection, healing, determinism ----------------------------------

class TestChaosEngine:
    def test_inject_and_timed_heal(self, escape):
        deploy(escape)
        link = trunk_link(escape)
        engine = escape.inject_chaos({
            "name": "flap", "seed": 1,
            "faults": [{"kind": "link_down", "at": 0.5, "duration": 1.0,
                        "target": link.name}]})
        escape.run(1.0)
        assert not link.up
        assert engine.active
        escape.run(1.0)
        assert link.up
        assert not engine.active
        assert engine.signature() == [(pytest.approx(escape.sim.now - 1.5,
                                                     abs=0.01),
                                       "link_down", link.name)]

    def test_heal_all_reverts_open_ended_faults(self, escape):
        deploy(escape)
        link = trunk_link(escape)
        engine = escape.inject_chaos({
            "faults": [{"kind": "link_down", "at": 0.2,
                        "target": link.name}]})  # no duration
        escape.run(0.5)
        assert not link.up
        assert engine.heal_all() == 1
        assert link.up

    def test_netconf_slowness_injected_and_healed(self, escape):
        chain = deploy(escape)
        container = chain.mapping.vnf_placement["fw"]
        client = escape.netconf_clients[container]
        base = client.transport.fault_latency
        escape.inject_chaos({
            "faults": [{"kind": "netconf_slow", "at": 0.2,
                        "duration": 1.0, "extra_latency": 0.3,
                        "target": container}]})
        escape.run(0.5)
        assert client.transport.fault_latency == pytest.approx(base + 0.3)
        escape.run(1.0)
        assert client.transport.fault_latency == pytest.approx(base)

    def test_unresolvable_target_skips(self, escape):
        # no VNFs deployed: vnf_crash has no candidates
        engine = escape.inject_chaos({
            "faults": [{"kind": "vnf_crash", "at": 0.1}]})
        escape.run(0.5)
        assert engine.injections[0]["skipped"] == "no candidates"
        assert not engine.active

    def test_rearming_raises(self, escape):
        engine = escape.inject_chaos({
            "faults": [{"kind": "link_down", "at": 0.1, "duration": 1.0}]})
        with pytest.raises(FaultError):
            engine.arm()

    def _signature_for(self, seed):
        escape = fresh_escape()
        deploy(escape)
        engine = escape.inject_chaos({
            "name": "det", "seed": seed,
            "faults": [
                {"kind": "vnf_crash", "at": 0.5},
                {"kind": "link_down", "at": 1.5, "duration": 1.0},
                {"kind": "netconf_blackhole", "at": 3.0,
                 "duration": 0.5},
                {"kind": "link_degrade", "at": 4.0, "duration": 0.5,
                 "loss": 0.3},
            ]})
        escape.run(6.0)
        return engine.signature()

    def test_same_seed_identical_schedule(self):
        first = self._signature_for(11)
        second = self._signature_for(11)
        assert first == second
        assert len(first) == 4
        assert all(len(entry) == 3 for entry in first)


# -- end-to-end self-healing --------------------------------------------------

class TestRecovery:
    def test_vnf_crash_restarts_in_place(self, escape):
        chain = deploy(escape)
        name = chain.sg.name
        container_name = chain.mapping.vnf_placement["fw"]
        container = escape.net.get(container_name)
        old_id = chain.vnfs["fw"].vnf_id
        container.crash_vnf(old_id)
        escape.run(1.0)
        # a fresh instance replaced the crashed one, same container
        assert chain.vnfs["fw"].vnf_id != old_id
        assert chain.mapping.vnf_placement["fw"] == container_name
        assert old_id not in container.vnfs  # zombie reaped on restart
        assert escape.recovery.chain_state[name] == CHAIN_HEALTHY
        assert escape.recovery.unrecovered() == []
        assert ping_ok(escape) > 0
        mttr = escape.telemetry.metrics.get(
            "core.recovery.mttr", labels={"fault": "vnf.crashed"})
        assert mttr is not None and mttr.count >= 1

    def test_link_down_reroutes_over_detour(self, escape):
        chain = deploy(escape)
        trunk = trunk_link(escape)
        trunk.set_up(False)
        escape.run(1.0)
        view = escape.orchestrator.view
        assert not view.link_is_up("s1", "s2")
        # traffic flows around the dead trunk while it is still down
        assert ping_ok(escape) > 0
        assert escape.recovery.unrecovered() == []
        action = [a for a in escape.recovery.actions
                  if a["kind"] == "link"][0]
        assert action["ok"] and chain.sg.name in action["services"]
        trunk.set_up(True)
        escape.run(0.5)
        assert view.link_is_up("s1", "s2")

    def test_container_down_fails_over_then_reaps(self, escape):
        chain = deploy(escape)
        old_container = chain.mapping.vnf_placement["fw"]
        # the full outage fault: VNFs crash AND the NETCONF agent goes
        # dark, so the old instance cannot be stopped during failover
        engine = escape.inject_chaos({
            "faults": [{"kind": "container_down", "at": 0.1,
                        "target": old_container}]})
        escape.run(4.0)  # failover waits out the stop-old deadline
        new_container = chain.mapping.vnf_placement["fw"]
        assert new_container != old_container
        assert escape.recovery.chain_state[chain.sg.name] == CHAIN_HEALTHY
        assert ping_ok(escape) > 0
        # the stranded zombie still sits on the dead container...
        zombies = [process for process
                   in escape.net.get(old_container).vnfs.values()
                   if process.status == VNF_FAILED]
        assert zombies
        # ...and is reaped when the container returns
        engine.heal_all()
        escape.run(1.0)
        assert not escape.net.get(old_container).vnfs

    def test_unreachable_repair_gives_up_and_marks_failed(self):
        escape = fresh_escape(NO_DETOUR_TOPOLOGY)
        chain = escape.deploy_service(simple_sg("stuck-chain"))
        trunk = trunk_link(escape)
        trunk.set_up(False)
        escape.run(6.0)  # 3 attempts with exponential backoff
        assert chain.sg.name in escape.recovery.unrecovered()
        assert escape.recovery.chain_state[chain.sg.name] == CHAIN_FAILED
        failed = [a for a in escape.recovery.actions if not a.get("ok")]
        assert failed and failed[-1]["attempts"] == \
            escape.recovery.max_attempts
        assert escape.recovery.pending() == []
        # the original steering was never torn down: when the trunk
        # returns, the chain serves again and its state clears
        trunk.set_up(True)
        escape.run(0.5)
        assert escape.recovery.unrecovered() == []
        assert ping_ok(escape) > 0

    def test_health_reports_recovery_state(self, escape):
        deploy(escape)
        health = escape.health()
        assert health["recovery"]["unrecovered"] == []
        assert health["recovery"]["pending"] == []


# -- migrate_vnf partial-failure rollback (satellite) -------------------------

class TestMigrateRollback:
    def test_partial_failure_restores_old_placement(self, escape):
        chain = deploy(escape)
        old_container = chain.mapping.vnf_placement["fw"]
        old_deployed = chain.vnfs["fw"]
        target = "c2" if old_container == "c1" else "c1"
        # occupy the target's interfaces out-of-band: _start_vnf will
        # boot the replacement but connectVNF must fail mid-migration
        hog_host = escape.net.get(target)
        hog_host.start_vnf(
            "hog", "FromDevice(in0) -> Counter -> ToDevice(out0);",
            ["in0", "out0"], cpu=0.1, mem=16)
        for intf_name, device in zip(list(hog_host.interfaces),
                                     ["in0", "out0"]):
            hog_host.connect_vnf("hog", device, intf_name)

        with pytest.raises(OrchestratorError):
            escape.orchestrator.migrate_vnf(chain, "fw", target)

        # old placement fully intact
        assert chain.mapping.vnf_placement["fw"] == old_container
        assert chain.vnfs["fw"] is old_deployed
        assert chain.active
        # the half-started replacement was cleaned off the target
        assert set(hog_host.vnfs) == {"hog"}
        # reserved resources were released in the view
        snapshot = escape.orchestrator.view.snapshot()[target]
        assert snapshot["cpu_used"] == pytest.approx(0.0)
        # and the chain still carries traffic
        assert ping_ok(escape) > 0


# -- steering answers no echoes ----------------------------------------------

def forwarder_sg(name, src, dst):
    return load_service_graph({
        "name": name,
        "saps": ["h1", "h2"],
        "vnfs": [{"name": "fwd", "type": "forwarder"}],
        "chain": [src, "fwd", dst],
    })


class TestSteeringChanges:
    """Each dataplane change sends one FlowMod per entry it touches and
    leaves every surviving path's entries in the switch tables."""

    @staticmethod
    def _warns(escape):
        return len(escape.telemetry.events.query("WARN",
                                                 source="pox.steering"))

    @pytest.mark.parametrize("first, second", [("a", "b"), ("b", "a")])
    def test_second_deploy_is_refused(self, first, second):
        """``a`` = h1 -> fwd -> h2 and ``b`` = h2 -> fwd -> h1 would
        share entries (one's segment, the other's return path): the
        second deploy is refused and leaves the first as it was."""
        ends = {"a": ("h1", "h2"), "b": ("h2", "h1")}
        escape = ESCAPE.from_topology(stateful_topology())
        escape.start()
        escape.deploy_service(forwarder_sg(first, *ends[first]))
        escape.run(0.5)
        sent = escape.steering.flow_mods_sent
        with pytest.raises(SteeringError, match="path '%s/.*path '%s/"
                           % (second, first)):
            escape.deploy_service(forwarder_sg(second, *ends[second]))
        escape.run(0.5)
        assert escape.steering.flow_mods_sent == sent
        assert list(escape.orchestrator.deployed) == [first]
        assert sum(len(container.vnfs)
                   for container in escape.net.vnf_containers()) == 1
        assert sum(len(installed.flow_mods)
                   for installed in escape.steering.paths.values()) == 5
        assert audit_tables(escape) == []
        src, dst = (escape.net.get(name) for name in ends[first])
        train = src.ping(dst.ip, count=3, interval=0.1)
        escape.run(1.0)
        assert train.received == 3

    def test_migrating_into_a_loop_is_refused(self):
        """``h1 -> a -> b -> h2`` with both forwarders at s1: moving
        ``a`` to s2 would give ``h1->a`` and ``b->h2`` the same entry
        at s2 (in from the trunk, match h1 -> h2), and a datagram
        would circle a and b until its TTL ran out.  The migration is
        refused and the chain keeps its placement and its path."""
        escape = ESCAPE.from_topology(stateful_topology())
        escape.start()
        chain = escape.deploy_service(load_service_graph({
            "name": "ab", "saps": ["h1", "h2"],
            "vnfs": [{"name": "a", "type": "forwarder"},
                     {"name": "b", "type": "forwarder"}],
            "chain": ["h1", "a", "b", "h2"]}), mapper="greedy")
        assert chain.mapping.vnf_placement == {"a": "nc0", "b": "nc0"}
        escape.run(0.5)
        view = escape.orchestrator.view.snapshot()
        with pytest.raises(SteeringError,
                           match="path 'ab/h1->a/.*path 'ab/b->h2/"):
            chain.migrate("a", "nc1")
        assert chain.mapping.vnf_placement == {"a": "nc0", "b": "nc0"}
        assert escape.orchestrator.view.snapshot() == view
        escape.run(0.5)
        assert audit_tables(escape) == []
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        passes = [int(chain.read_handler(vnf, "cnt_in.count"))
                  for vnf in "ab"]
        h1.send_udp(h2.ip, 5001, b"once")
        escape.run(0.5)
        assert [int(chain.read_handler(vnf, "cnt_in.count")) - before
                for vnf, before in zip("ab", passes)] == [1, 1]
        assert h2.udp_rx_count == 1

    def test_restart_resteers_once(self, escape):
        chain = deploy(escape)
        escape.run(0.5)
        sent, warns = escape.steering.flow_mods_sent, self._warns(escape)
        escape.orchestrator.restart_vnf(chain, "fw")
        escape.run(0.5)
        assert escape.steering.flow_mods_sent - sent == 6
        assert self._warns(escape) == warns
        assert audit_tables(escape) == []
        assert ping_ok(escape) > 0
