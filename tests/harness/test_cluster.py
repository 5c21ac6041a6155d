"""Cluster-builder tests."""

from __future__ import annotations

import pytest

from repro.core.config import LeopardConfig
from repro.errors import ConfigError
from repro.harness import (
    build_cluster,
    build_leopard_cluster,
    build_pbft_cluster,
    throttle_all_replicas,
)
from repro.faults import HONEST, Crash, FaultyCore
from repro.protocols import PROTOCOLS


def _behaviour(node):
    """The fault a simulated node's stack holds (``HONEST`` for none)."""
    core = node.core
    return core.behaviour if isinstance(core, FaultyCore) else HONEST


class TestLeopardBuilder:
    def test_config_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            build_leopard_cluster(n=7, config=LeopardConfig(n=4))

    def test_too_many_faults_rejected(self):
        with pytest.raises(ConfigError):
            build_leopard_cluster(
                n=4, faults={0: Crash(), 2: Crash()})

    def test_measure_replica_is_honest_non_leader(self):
        cluster = build_leopard_cluster(n=4, faults={2: Crash()})
        assert cluster.measure_replica not in (cluster.leader, 2)

    def test_auto_warmup_scales_with_n(self):
        small = build_leopard_cluster(n=4)
        large = build_leopard_cluster(
            n=7, config=LeopardConfig(n=7, datablock_size=4000))
        assert large.warmup > small.warmup

    def test_client_ids_above_replica_range(self):
        cluster = build_leopard_cluster(n=4)
        assert all(c.node_id >= 4 for c in cluster.clients)

    def test_throttle_all_replicas(self):
        cluster = build_leopard_cluster(n=4)
        throttle_all_replicas(cluster, 20e6)
        for replica_id in range(4):
            assert cluster.network.nics[replica_id].bandwidth_bps == 20e6
        assert cluster.network.nics[4].bandwidth_bps != 20e6  # client NIC


class TestBaselineBuilders:
    def test_hotstuff_clients_target_leader(self):
        cluster = build_cluster("hotstuff", 4)
        assert all(c.target == cluster.leader for c in cluster.clients)

    def test_pbft_builder_runs(self):
        cluster = build_pbft_cluster(n=4, total_rate=5_000)
        cluster.run(1.0)
        assert cluster.replicas[0].executed_sn >= 0

    def test_default_rate_scales_down_with_n(self):
        small = build_cluster("hotstuff", 4)
        large = build_cluster("hotstuff", 16)
        small_rate = sum(c.rate for c in small.clients)
        large_rate = sum(c.rate for c in large.clients)
        assert small_rate > large_rate


class TestMeasurement:
    def test_throughput_bps_uses_payload(self):
        cluster = build_leopard_cluster(
            n=4, config=LeopardConfig(
                n=4, datablock_size=100, max_batch_delay=0.05),
            warmup=0.2, total_rate=10_000)
        cluster.run(1.5)
        rps = cluster.throughput()
        assert cluster.throughput_bps() == pytest.approx(rps * 128 * 8)

    def test_measurement_window(self):
        cluster = build_leopard_cluster(n=4, warmup=1.0)
        cluster.run(3.0)
        assert cluster.measurement_window() == pytest.approx(2.0)


class TestOneBuilder:
    """Every protocol is built by one builder from one registry."""

    @pytest.mark.parametrize("protocol", ("pbft", "hotstuff"))
    def test_baselines_reject_more_than_f_faults(self, protocol):
        with pytest.raises(ConfigError, match="at most f=1"):
            build_cluster(protocol, 4, faults={1: Crash(), 2: Crash()})

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_sim_and_live_build_the_same_replica_cores(self, protocol):
        from repro.net.live import LiveCluster
        from repro.protocols import default_live_config_for

        config = default_live_config_for(protocol, 4)
        sim = build_cluster(protocol, 4, seed=5, config=config,
                            warmup=0.0)
        live = LiveCluster(4, protocol=protocol, config=config, seed=5)
        for built, hosted in zip(sim.replicas, live.replicas, strict=True):
            assert type(built) is type(hosted)
            assert built.config == hosted.config
        if protocol == "leopard":
            assert sim.context.scheme.public_key \
                == live.context.scheme.public_key
            for built, hosted in zip(sim.replicas, live.replicas):
                assert built.signer.secret == hosted.signer.secret


class TestSimChaos:
    """Scripted chaos on the simulated backend (ISSUE 6 tentpole)."""

    def _cluster(self, protocol="leopard", **kwargs):
        return build_cluster(protocol, 4, total_rate=4000.0, warmup=0.25,
                             **kwargs)

    def test_crash_restart_scenario_still_commits(self):
        from repro.net.chaos import load_scenario, schedule_scenario_sim

        cluster = self._cluster()
        resolved = schedule_scenario_sim(
            cluster, load_scenario("crash-restart"))
        victim = resolved.events[0].args["node"]
        assert victim not in (cluster.leader, cluster.measure_replica)
        cluster.run(4.0)
        assert cluster.restarts == 1
        assert [e["op"] for e in cluster.chaos_log] == ["crash", "restart"]
        committed = cluster.metrics.executed_requests.get(
            cluster.measure_replica, 0)
        assert committed > 0
        faults = cluster.faults_summary()
        assert faults["restarts"] == 1
        assert faults["shaping"] is None  # live-only section

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_crash_recover_scenario_catches_up_on_sim(self, protocol):
        """Tentpole: recovery traffic rides the modelled NICs — the
        restarted simulated replica must re-converge with the quorum."""
        from repro.core.recovery import assert_replica_converged
        from repro.net.chaos import load_scenario, schedule_scenario_sim

        cluster = self._cluster(protocol)
        resolved = schedule_scenario_sim(
            cluster, load_scenario("crash-recover"))
        victim = resolved.events[0].args["node"]
        cluster.run(4.0)
        report = cluster.report()
        recovery = report["recovery"]
        assert recovery is not None
        info = recovery["replicas"][str(victim)]
        assert info["rounds"] > 0
        assert info["complete"], "simulated victim never caught up"
        assert info["segments_fetched"] > 0
        assert_replica_converged(report, victim)

    def test_shape_events_rejected_on_sim(self):
        from repro.net.chaos import load_scenario, schedule_scenario_sim

        with pytest.raises(ConfigError, match="live-only"):
            schedule_scenario_sim(self._cluster(), load_scenario("smoke"))

    def test_partition_wraps_and_heal_unwraps_faults(self):
        from repro.net.chaos import ChaosEvent

        cluster = self._cluster()
        cluster.apply_chaos_event(ChaosEvent(
            0.0, "partition", {"groups": [[3], [0, 1, 2]]}))
        assert not cluster.sim.nodes[3].admits(
            0, _ProbeMsg("datablock"), 0.0)
        assert cluster.sim.nodes[0].admits(1, _ProbeMsg("datablock"), 0.0)
        cluster.apply_chaos_event(ChaosEvent(1.0, "heal", {}))
        for replica_id in range(4):
            node = cluster.sim.nodes[replica_id]
            assert node.core is cluster.replicas[replica_id]
            assert node.admits is None

    def test_partition_combines_with_injected_fault(self):
        from repro.net.chaos import ChaosEvent
        from repro.faults import Mute

        cluster = self._cluster(faults={3: Mute(frozenset({"vote"}))})
        cluster.apply_chaos_event(ChaosEvent(
            0.0, "partition", {"groups": [[3], [0, 1, 2]]}))
        fault = _behaviour(cluster.sim.nodes[3])
        assert fault.drop_incoming(0, _ProbeMsg("datablock"), 0.0)
        assert fault.filter_effects([], 0.0) == []
        cluster.apply_chaos_event(ChaosEvent(1.0, "heal", {}))
        assert isinstance(_behaviour(cluster.sim.nodes[3]), Mute)

    def test_restart_requires_prior_crash(self):
        from repro.net.chaos import ChaosEvent

        cluster = self._cluster()
        with pytest.raises(ConfigError):
            cluster.apply_chaos_event(
                ChaosEvent(0.0, "restart", {"node": 3}))

    def test_unknown_op_not_simulatable(self):
        from repro.net.chaos import ChaosEvent

        cluster = self._cluster()
        with pytest.raises(ConfigError, match="not simulatable"):
            cluster.apply_chaos_event(ChaosEvent(
                0.0, "shape", {"src": 0, "dst": 1, "policy": {}}))

    def test_delay_send_sim_run_commits(self):
        """Satellite (a): the slow-replica fault on the simulator."""
        from repro.faults import DelaySend

        cluster = self._cluster(faults={3: DelaySend(delay=0.02)})
        cluster.run(2.0)
        committed = cluster.metrics.executed_requests.get(
            cluster.measure_replica, 0)
        assert committed > 0

    def test_slow_replica_scenario_swaps_fault_in_and_out(self):
        from repro.net.chaos import load_scenario, schedule_scenario_sim
        from repro.faults import DelaySend

        cluster = self._cluster()
        resolved = schedule_scenario_sim(
            cluster, load_scenario("slow-replica"))
        victim = resolved.events[0].args["node"]
        cluster.run(2.0)  # past the fault, before the unfault
        assert isinstance(_behaviour(cluster.sim.nodes[victim]), DelaySend)
        cluster.run(1.5)
        assert _behaviour(cluster.sim.nodes[victim]) is HONEST

    def test_honest_nodes_host_bare_cores_on_the_fast_path(
            self, monkeypatch):
        from repro.faults import Mute
        from repro.sim.node import SimNode

        general = []
        receive_at = SimNode.receive_at

        def spy(node, sender, msg, delivered):
            general.append(node.node_id)
            receive_at(node, sender, msg, delivered)

        monkeypatch.setattr(SimNode, "receive_at", spy)
        cluster = self._cluster(faults={3: Mute(frozenset({"vote"}))})
        cluster.run(1.0)
        cores = cluster.replicas + cluster.clients
        for node_id, node in cluster.sim.nodes.items():
            if node_id == 3:
                assert isinstance(node.core, FaultyCore)
                assert node.core.inner is cores[3]
            else:
                assert node.core is cores[node_id]
                assert node.admits is None
        # Only the faulty replica's arrivals take the general path.
        assert general and set(general) == {3}

    def test_traced_stack_puts_the_fault_innermost(self):
        from repro.faults import Mute
        from repro.net.chaos import ChaosEvent
        from repro.obs.tracer import RingTracer, TracedCore

        cluster = self._cluster(faults={3: Mute(frozenset({"vote"}))})
        cluster.install_tracer(RingTracer())
        for node_id, node in cluster.sim.nodes.items():
            assert isinstance(node.core, TracedCore)
            inner = node.core.inner
            if node_id == 3:
                assert isinstance(inner, FaultyCore)
                assert inner.inner is cluster.replicas[3]
                assert node.admits == inner.admits
            else:
                assert inner is (cluster.replicas + cluster.clients)[node_id]
        # Hot swaps and restarts keep the order.
        cluster.apply_chaos_event(ChaosEvent(0.0, "crash", {"node": 3}))
        node = cluster.sim.nodes[3]
        assert isinstance(node.core.inner, FaultyCore)
        assert isinstance(node.core.inner.behaviour, Crash)
        cluster.apply_chaos_event(ChaosEvent(0.0, "restart", {"node": 3}))
        assert isinstance(node.core, TracedCore)
        assert node.core.inner is cluster.replicas[3]

    def test_restart_drops_held_releases(self):
        from repro.faults import DelaySend
        from repro.net.chaos import ChaosEvent

        cluster = self._cluster(faults={3: DelaySend(delay=0.5)})
        cluster.run(0.6)
        old = cluster.sim.nodes[3].core
        assert old.held  # sends waiting for their release timers
        cluster.apply_chaos_event(ChaosEvent(0.6, "crash", {"node": 3}))
        cluster.apply_chaos_event(ChaosEvent(0.6, "restart", {"node": 3}))
        held = dict(old.held)
        cluster.run(1.0)
        # The restart cleared the release timers: none of them fired.
        assert old.held == held


class _ProbeMsg:
    def __init__(self, msg_class):
        self.msg_class = msg_class

    def size_bytes(self):
        return 10
