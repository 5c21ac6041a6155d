"""End-to-end Leopard runs on the full simulator (bandwidth + CPU models)."""

from __future__ import annotations

import pytest

from repro.core.config import LeopardConfig
from repro.harness import build_leopard_cluster


@pytest.fixture(scope="module")
def small_cluster():
    config = LeopardConfig(
        n=4, datablock_size=200, bftblock_max_links=10,
        proposal_interval=0.01, max_batch_delay=0.05,
        checkpoint_period=10, progress_timeout=2.0)
    cluster = build_leopard_cluster(
        n=4, seed=3, config=config, warmup=0.5, total_rate=40_000)
    cluster.run(3.0)
    return cluster


class TestHappyPath:
    def test_throughput_positive(self, small_cluster):
        assert small_cluster.throughput() > 10_000

    def test_all_honest_replicas_execute_equally(self, small_cluster):
        # Allow a small tail difference for blocks still in flight at the
        # end of the run; the executed *prefix* must be identical.
        logs = [replica.ledger.log for replica in small_cluster.replicas]
        shortest = min(len(log) for log in logs)
        assert shortest > 0
        for position in range(shortest):
            digests = {log[position].digest for log in logs}
            assert len(digests) == 1

    def test_no_view_change_under_honest_leader(self, small_cluster):
        assert all(r.view == 1 for r in small_cluster.replicas)

    def test_clients_get_acks(self, small_cluster):
        acked = sum(c.acked_requests for c in small_cluster.clients)
        assert acked > 0

    def test_latency_is_finite_and_positive(self, small_cluster):
        latency = small_cluster.mean_latency()
        assert 0 < latency < 5.0

    def test_checkpoints_advance_watermark(self, small_cluster):
        stable = [r.checkpoints.stable_sn for r in small_cluster.replicas]
        assert max(stable) > 0

    def test_garbage_collection_bounds_pool(self, small_cluster):
        # Pools must not retain every datablock ever created.
        replica = small_cluster.replicas[small_cluster.measure_replica]
        created_total = sum(
            r.datablock_counter - 1 for r in small_cluster.replicas)
        assert len(replica.pool) < created_total

    def test_no_retrieval_in_fault_free_run(self, small_cluster):
        for replica in small_cluster.replicas:
            assert replica.retrieval.recovered_count == 0

    def test_leader_bandwidth_modest(self, small_cluster):
        # The headline claim: the Leopard leader is not a bandwidth
        # hotspot (Fig. 11: < 0.5 Gbps at all scales).
        assert small_cluster.leader_bandwidth_bps() < 0.5e9


class TestDeterminism:
    def _digest_of_run(self, seed):
        config = LeopardConfig(
            n=4, datablock_size=100, bftblock_max_links=5,
            max_batch_delay=0.05)
        cluster = build_leopard_cluster(
            n=4, seed=seed, config=config, warmup=0.2, total_rate=20_000)
        cluster.run(1.0)
        replica = cluster.replicas[cluster.measure_replica]
        return [entry.digest for entry in replica.ledger.log]

    def test_same_seed_same_log(self):
        assert self._digest_of_run(11) == self._digest_of_run(11)

    def test_different_seed_differs(self):
        # Jitter and key material differ; the log contents should too.
        assert self._digest_of_run(11) != self._digest_of_run(12)


class TestScalingSmoke:
    def test_throughput_holds_at_n7(self):
        config = LeopardConfig(
            n=7, datablock_size=200, bftblock_max_links=10,
            max_batch_delay=0.05)
        cluster = build_leopard_cluster(
            n=7, seed=3, config=config, warmup=0.5, total_rate=40_000)
        cluster.run(3.0)
        assert cluster.throughput() > 10_000
        assert all(r.view == 1 for r in cluster.replicas)
