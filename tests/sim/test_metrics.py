"""Metrics-collector tests."""

from __future__ import annotations

import math

import pytest

from repro.sim.metrics import (
    bandwidth_report,
    node_bandwidth_bps,
    utilization_breakdown,
)
from repro.sim.network import Network
from repro.stats import LatencySample, MetricsCollector


class TestThroughput:
    def test_counts_after_warmup_only(self):
        metrics = MetricsCollector(warmup=1.0)
        metrics.record_execution(0, 100, 0.5)
        metrics.record_execution(0, 100, 1.5)
        assert metrics.executed_requests[0] == 100

    def test_throughput_division(self):
        metrics = MetricsCollector()
        metrics.record_execution(2, 500, 0.1)
        assert metrics.throughput(2, 2.0) == 250.0

    def test_zero_duration(self):
        metrics = MetricsCollector()
        assert metrics.throughput(0, 0.0) == 0.0

    def test_unknown_node(self):
        metrics = MetricsCollector()
        assert metrics.throughput(9, 1.0) == 0.0


class TestLatency:
    def test_mean(self):
        metrics = MetricsCollector()
        metrics.record_ack(0.0, 1.0)
        metrics.record_ack(1.0, 4.0)
        assert metrics.mean_latency() == pytest.approx(2.0)

    def test_empty_is_nan(self):
        metrics = MetricsCollector()
        assert math.isnan(metrics.mean_latency())
        assert math.isnan(metrics.latency_percentile(50))

    def test_percentiles(self):
        metrics = MetricsCollector()
        for i in range(11):
            metrics.record_ack(0.0, float(i))
        assert metrics.latency_percentile(0) == 0.0
        assert metrics.latency_percentile(50) == 5.0
        assert metrics.latency_percentile(100) == 10.0

    def test_warmup_filters_acks(self):
        metrics = MetricsCollector(warmup=2.0)
        metrics.record_ack(0.0, 1.0)
        metrics.record_ack(0.0, 3.0)
        assert len(metrics.latencies) == 1

    def test_sample_latency(self):
        assert LatencySample(1.0, 3.5).latency == 2.5


class TestPhases:
    def test_breakdown_normalizes(self):
        metrics = MetricsCollector()
        metrics.record_phase("a", 1.0, 1.0)
        metrics.record_phase("b", 3.0, 1.0)
        shares = metrics.phase_breakdown()
        assert shares["a"] == pytest.approx(0.25)
        assert shares["b"] == pytest.approx(0.75)

    def test_empty_breakdown(self):
        assert MetricsCollector().phase_breakdown() == {}


class TestBandwidthReports:
    def _loaded_network(self):
        from tests.sim.test_network import FakeMsg, unicast
        network = Network(2, bandwidth_bps=1e9, jitter=0.0, seed=0)
        unicast(network, 0, 1, FakeMsg(1000, "datablock"))
        unicast(network, 0, 1, FakeMsg(10, "vote"))
        return network

    def test_bandwidth_report(self):
        network = self._loaded_network()
        report = bandwidth_report(network, 0, duration=2.0)
        assert report["send"]["datablock"] == pytest.approx(4000.0)
        assert report["send"]["vote"] == pytest.approx(40.0)

    def test_utilization_breakdown_sums_to_one(self):
        network = self._loaded_network()
        breakdown = utilization_breakdown(network, 1)
        total = sum(breakdown["send"].values()) + \
            sum(breakdown["recv"].values())
        assert total == pytest.approx(1.0)

    def test_utilization_empty_node(self):
        network = Network(2, seed=0)
        assert utilization_breakdown(network, 0) == {"send": {}, "recv": {}}

    def test_node_bandwidth(self):
        network = self._loaded_network()
        assert node_bandwidth_bps(network, 0, 1.0) == pytest.approx(8080.0)
        assert node_bandwidth_bps(network, 0, 0.0) == 0.0


class TestPerfWiring:
    """MetricsCollector carries data-plane perf counters (ROADMAP item)."""

    def test_collector_has_perf_counters(self):
        collector = MetricsCollector()
        collector.perf.incr("coding/encoded_datablocks")
        with collector.perf.timed("coding/encode"):
            pass
        snapshot = collector.perf.snapshot()
        assert snapshot["counts"]["coding/encoded_datablocks"] == 1
        assert "coding/encode" in snapshot["seconds"]

    def test_retrieval_records_into_attached_counters(self):
        from repro.core.datablock_pool import DatablockPool
        from repro.core.retrieval import RetrievalManager
        from repro.messages.leopard import Datablock, Query
        from repro.perf import PerfCounters

        perf = PerfCounters()
        responder = RetrievalManager(4, 1, replica_id=0)
        responder.perf = perf
        datablock = Datablock(2, 1, 10, 128)
        pool = DatablockPool()
        pool.add(datablock)
        responses = responder.make_responses(
            3, Query((datablock.digest(),)), pool)
        assert len(responses) == 1
        snapshot = perf.snapshot()
        assert snapshot["counts"]["coding/encoded_datablocks"] == 1
        assert snapshot["seconds"]["coding/encode"] > 0
        assert snapshot["seconds"]["hashing/merkle"] > 0

        # Decode side: feed chunks to a querier wired to the same sink.
        querier = RetrievalManager(4, 1, replica_id=3)
        querier.perf = perf
        querier.note_missing(datablock.digest())
        recovered = None
        for index in range(4):
            other = RetrievalManager(4, 1, replica_id=index)
            response = other.make_responses(
                3, Query((datablock.digest(),)), pool)[0]
            recovered = querier.on_response(response) or recovered
        assert recovered == datablock
        assert perf.snapshot()["counts"]["coding/decoded_datablocks"] >= 1
        assert perf.snapshot()["seconds"]["coding/decode"] > 0

    def test_cluster_report_includes_perf_breakdown(self):
        from repro.harness.cluster import build_leopard_cluster

        cluster = build_leopard_cluster(4, seed=0, warmup=0.1)
        cluster.run(0.5)
        report = cluster.report()
        assert report["backend"] == "sim"
        assert set(report["perf"]) == {"counts", "seconds"}
        # Every replica shares the collector's counters object.
        for replica in cluster.replicas:
            assert replica.retrieval.perf is cluster.metrics.perf
