"""Live chaos tests: faults, scenarios, restarts against real sockets."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.recovery import assert_replica_converged, check_convergence
from repro.errors import ConfigError
from repro.faults import Crash, DelaySend, FaultBehavior
from repro.net import LiveCluster, load_scenario
from repro.net.chaos import ChaosEvent
from repro.net.live import run_live


def run(coro):
    return asyncio.run(coro)


SMOKE = dict(total_rate=2000.0, bundle_size=100)


class TestFaultInjection:
    def test_too_many_faults_rejected(self):
        with pytest.raises(ConfigError, match="at most f="):
            LiveCluster(4, faults={2: Crash(), 3: Crash()}, **SMOKE)

    def test_measure_replica_must_stay_honest(self):
        first = LiveCluster(4, **SMOKE).measure_replica
        cluster = LiveCluster(4, faults={first: Crash()}, **SMOKE)
        assert cluster.measure_replica not in (first, cluster.leader)

    def test_measure_replica_matches_simulator(self):
        """With the first non-leader faulty, the live cluster measures
        the replica the simulator does."""
        from repro.harness.cluster import build_cluster

        faults = {0: Crash()}
        live = LiveCluster(4, faults=faults, **SMOKE)
        sim = build_cluster("leopard", 4, faults=faults)
        assert live.leader == sim.leader == 1
        assert live.measure_replica == sim.measure_replica == 2

    def test_clean_cluster_has_no_faults_section(self):
        assert LiveCluster(4, **SMOKE).faults_summary() is None

    def test_delay_send_fault_live_still_commits(self):
        """Satellite (a): the sim-validated slow-replica fault runs
        unchanged on real sockets."""
        async def scenario():
            report = await run_live(
                n=4, duration=1.5, faults={3: DelaySend(delay=0.02)},
                **SMOKE)
            return report

        report = run(scenario())
        committed = report["executed_requests"].get(
            report["measure_replica"], 0)
        assert committed > 0
        faults = report["faults"]
        assert faults["injected"] == {
            "3": {"kind": "delay_send", "delay": 0.02, "msg_classes": None}}

    def test_honest_nodes_host_bare_cores(self):
        from repro.faults import HONEST, FaultyCore

        async def scenario():
            cluster = LiveCluster(4, faults={3: DelaySend(delay=0.02)},
                                  **SMOKE)
            await cluster.start()
            try:
                cores = cluster.replicas + cluster.clients
                for node_id, node in cluster.nodes.items():
                    if node_id == 3:
                        assert isinstance(node.core, FaultyCore)
                        assert node.core.inner is cores[3]
                        assert node.admits == node.core.admits
                    else:
                        assert node.core is cores[node_id]
                        assert node.admits is None
                # unfault keeps a wrapper only while releases are held
                cluster.set_fault(3, HONEST)
                node = cluster.nodes[3]
                assert node.core is cores[3] or node.core.held
            finally:
                await cluster.stop()

        run(scenario())

    def test_traced_stack_puts_the_fault_innermost(self):
        from repro.faults import FaultyCore
        from repro.obs.tracer import RingTracer, TracedCore

        async def scenario():
            cluster = LiveCluster(4, faults={3: DelaySend(delay=0.02)},
                                  tracer=RingTracer(), **SMOKE)
            await cluster.start()
            try:
                cores = cluster.replicas + cluster.clients
                for node_id, node in cluster.nodes.items():
                    assert isinstance(node.core, TracedCore)
                    inner = node.core.inner
                    if node_id == 3:
                        assert isinstance(inner, FaultyCore)
                        assert inner.inner is cores[3]
                    else:
                        assert inner is cores[node_id]
            finally:
                await cluster.stop()

        run(scenario())

    def test_custom_fault_subclass_reported_not_crashing(self):
        class Weird(FaultBehavior):
            def filter_effects(self, effects, now):
                return []

        cluster = LiveCluster(4, faults={3: Weird()}, **SMOKE)
        summary = cluster.faults_summary()
        assert summary["injected"]["3"]["kind"] == "custom"


class TestScenarioExecution:
    def test_crash_restart_scenario_commits_and_reports(self):
        scenario = load_scenario(
            "at 0.4 crash victim; at 1.0 restart victim")
        report = run(run_live(n=4, duration=1.6, scenario=scenario,
                              **SMOKE))
        faults = report["faults"]
        assert faults["scenario"] == "inline"
        assert [e["op"] for e in faults["events_applied"]] \
            == ["crash", "restart"]
        assert faults["restarts"] == 1
        committed = report["executed_requests"].get(
            report["measure_replica"], 0)
        assert committed > 0

    def test_partition_heal_scenario_recovers(self):
        scenario = load_scenario(
            "at 0.3 partition victim | rest; at 0.8 heal")
        report = run(run_live(n=4, duration=1.4, scenario=scenario,
                              **SMOKE))
        faults = report["faults"]
        assert faults["shaping"]["partitioned"] is False  # healed
        committed = report["executed_requests"].get(
            report["measure_replica"], 0)
        assert committed > 0

    def test_run_extends_to_cover_scenario(self):
        """run_live must outlive the last scheduled event."""
        scenario = load_scenario("at 1.2 heal")
        report = run(run_live(n=4, duration=0.5, scenario=scenario,
                              **SMOKE))
        assert len(report["faults"]["events_applied"]) == 1


class TestCrashRecover:
    """Tentpole: the restarted replica must catch up over the wire and
    re-converge with the quorum's executed prefix — on every protocol."""

    @pytest.mark.parametrize("protocol", ["leopard", "pbft", "hotstuff"])
    def test_victim_catches_up_and_reconverges(self, protocol):
        scenario = load_scenario("crash-recover")
        report = run(run_live(n=4, duration=3.5, protocol=protocol,
                              scenario=scenario, **SMOKE))
        recovery = report["recovery"]
        assert recovery is not None, "crash-recover left no recovery trace"
        victims = {rid: info for rid, info in recovery["replicas"].items()
                   if info.get("rounds", 0) > 0}
        assert victims, "no replica ran a recovery round"
        for rid, info in victims.items():
            assert info["complete"], f"replica {rid} never caught up"
            assert info["segments_fetched"] > 0
            assert_replica_converged(report, int(rid))
        # The cluster as a whole kept committing through the outage.
        committed = report["executed_requests"].get(
            report["measure_replica"], 0)
        assert committed > 0

    def test_convergence_checker_rejects_tampered_tail(self):
        """The assertion helper must actually bite: corrupt the victim's
        reported tail and the same report must fail the check."""
        scenario = load_scenario("crash-recover")
        report = run(run_live(n=4, duration=3.5, scenario=scenario,
                              **SMOKE))
        recovery = report["recovery"]
        rid, info = next((rid, info)
                         for rid, info in recovery["replicas"].items()
                         if info.get("rounds", 0) > 0)
        info["exec_tail"] = [(sn, "ff" * 32) for sn, _ in info["exec_tail"]]
        ok, detail = check_convergence(report, int(rid))
        assert not ok
        assert "divergence" in detail


class TestLiveRestart:
    def test_restart_requires_prior_crash(self):
        async def scenario():
            cluster = LiveCluster(4, **SMOKE)
            await cluster.start()
            try:
                with pytest.raises(ConfigError, match="running"):
                    await cluster.restart_replica(3)
            finally:
                await cluster.stop()

        run(scenario())

    def test_restarted_replica_rejoins_on_same_port(self):
        async def scenario():
            cluster = LiveCluster(4, **SMOKE)
            await cluster.start()
            try:
                address = cluster.address_book[3]
                old_core = cluster.replicas[3]
                await cluster.apply_chaos_event(
                    ChaosEvent(0.0, "crash", {"node": 3}))
                assert cluster.nodes[3].crashed
                await cluster.apply_chaos_event(
                    ChaosEvent(0.5, "restart", {"node": 3}))
                assert cluster.address_book[3] == address
                assert cluster.replicas[3] is not old_core
                assert not cluster.nodes[3].crashed
                assert cluster.restarts == 1
            finally:
                await cluster.stop()

        run(scenario())

    def test_shape_and_unshape_swap_link_policies(self):
        async def scenario():
            cluster = LiveCluster(4, **SMOKE)
            await cluster.start()
            try:
                await cluster.apply_chaos_event(ChaosEvent(
                    0.0, "shape",
                    {"src": 0, "dst": 1, "policy": {"latency": 0.01}}))
                assert cluster.shaper.policy(0, 1) is not None
                await cluster.apply_chaos_event(ChaosEvent(
                    0.1, "unshape", {"src": 0, "dst": 1}))
                assert cluster.shaper.policy(0, 1) is None
                return cluster.chaos_log
            finally:
                await cluster.stop()

        log = run(scenario())
        assert [e["op"] for e in log] == ["shape", "unshape"]
