"""Simulation-assembly tests."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.stats import MetricsCollector
from repro.sim.network import Network
from repro.sim.runner import Simulation

from tests.sim.test_node import Ping, RecorderCore
from repro.interfaces import Send


class TestSimulation:
    def make(self, nodes=3, replicas=3):
        network = Network(nodes, bandwidth_bps=1e9, jitter=0.0, seed=0)
        return Simulation(network, replica_count=replicas,
                          metrics=MetricsCollector())

    def test_replica_count_validation(self):
        network = Network(2, seed=0)
        with pytest.raises(SimulationError):
            Simulation(network, replica_count=3)

    def test_run_advances_clock(self):
        sim = self.make()
        sim.run(2.5)
        assert sim.now == pytest.approx(2.5)
        sim.run(1.0)
        assert sim.now == pytest.approx(3.5)

    def test_run_returns_executed_count(self):
        sim = self.make()
        sim.add_node(RecorderCore(0, start_effects=[Send(1, Ping())]))
        sim.add_node(RecorderCore(1))
        executed = sim.run(1.0)
        # Boot events for both nodes plus the transmission's events.
        assert executed >= 3
        assert executed == sim.events_processed
        assert sim.run(1.0) == 0  # idle window: nothing executed

    def test_events_per_sec_tracks_wall_clock(self):
        sim = self.make()
        sim.add_node(RecorderCore(0, start_effects=[Send(1, Ping())]))
        sim.add_node(RecorderCore(1))
        sim.run(1.0)
        assert sim.wall_seconds > 0.0
        assert sim.events_per_sec() == pytest.approx(
            sim.events_processed / sim.wall_seconds)

    def test_cluster_report_surfaces_engine_counters(self):
        from repro.harness.cluster import build_leopard_cluster

        cluster = build_leopard_cluster(4, seed=0, warmup=0.0)
        cluster.run(0.3)
        report = cluster.report()
        assert report["schema"] == 7
        assert report["events_processed"] > 0
        assert report["sim_events_per_sec"] > 0

    def test_node_and_core_lookup(self):
        sim = self.make()
        core = RecorderCore(1)
        node = sim.add_node(core)
        assert sim.node(1) is node
        assert sim.core(1) is core

    def test_delivery_to_unregistered_node_is_dropped(self):
        sim = self.make()
        sender = RecorderCore(0, start_effects=[Send(2, Ping())])
        sim.add_node(sender)
        sim.run(1.0)  # node 2 never added; must not raise

    def test_metrics_shared(self):
        sim = self.make()
        from repro.interfaces import Executed
        sim.add_node(RecorderCore(0, start_effects=[Executed(5)]))
        sim.add_node(RecorderCore(1, start_effects=[Executed(7)]))
        sim.run(0.1)
        assert sim.metrics.executed_requests == {0: 5, 1: 7}
