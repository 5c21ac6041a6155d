"""View-change integration: crashed/silent leaders are replaced and the
protocol resumes confirming requests (paper Appendix A, §VI-D2)."""

from __future__ import annotations

from repro.core.config import LeopardConfig
from repro.harness import build_leopard_cluster
from repro.faults import Crash, Mute


def vc_config(n=4, progress_timeout=0.4):
    return LeopardConfig(
        n=n, datablock_size=100, bftblock_max_links=5,
        max_batch_delay=0.05, retrieval_timeout=0.2,
        progress_timeout=progress_timeout, checkpoint_period=10)


class TestLeaderCrash:
    def _run_crash(self, n=4, crash_at=0.6, run_for=6.0):
        leader = 1 % n
        cluster = build_leopard_cluster(
            n=n, seed=9, config=vc_config(n), warmup=0.2,
            total_rate=15_000, faults={leader: Crash(at=crash_at)})
        cluster.run(run_for)
        return cluster, leader

    def test_view_advances(self):
        cluster, leader = self._run_crash()
        honest = [r for r in cluster.replicas if r.node_id != leader]
        assert all(r.view >= 2 for r in honest)
        new_leader = cluster.replicas[2]
        assert new_leader.is_leader

    def test_confirmation_resumes_after_viewchange(self):
        cluster, leader = self._run_crash()
        measure = cluster.replicas[cluster.measure_replica]
        executed_at_vc = None
        assert measure.vc_entered_at is not None
        # Work confirmed after the new view started:
        pre_crash = measure.total_executed
        cluster.run(3.0)
        assert measure.total_executed > pre_crash > 0

    def test_logs_stay_consistent_across_views(self):
        cluster, leader = self._run_crash()
        cluster.run(2.0)
        honest = [r for r in cluster.replicas if r.node_id != leader]
        logs = [[e.digest for e in r.ledger.log] for r in honest]
        shortest = min(len(log) for log in logs)
        for position in range(shortest):
            assert len({log[position] for log in logs}) == 1

    def test_viewchange_timing_recorded(self):
        cluster, leader = self._run_crash()
        measure = cluster.replicas[cluster.measure_replica]
        assert measure.vc_triggered_at is not None
        assert measure.vc_entered_at is not None
        assert measure.vc_entered_at >= measure.vc_triggered_at


class TestSilentLeader:
    def test_mute_leader_triggers_viewchange(self):
        n = 4
        leader = 1
        # The leader receives everything but never proposes or aggregates.
        mute = Mute(frozenset({"bftblock", "proof", "checkpoint"}))
        cluster = build_leopard_cluster(
            n=n, seed=10, config=vc_config(n), warmup=0.2,
            total_rate=15_000, faults={leader: mute})
        cluster.run(6.0)
        honest = [r for r in cluster.replicas if r.node_id != leader]
        assert all(r.view >= 2 for r in honest)
        assert any(r.total_executed > 0 for r in honest)


class TestSuccessiveFaultyLeaders:
    def test_escalates_past_two_dead_leaders(self):
        n = 7
        cluster = build_leopard_cluster(
            n=n, seed=11, config=vc_config(n, progress_timeout=0.3),
            warmup=0.2, total_rate=15_000,
            faults={1: Crash(at=0.5), 2: Crash(at=0.0)})
        cluster.run(10.0)
        honest = [r for r in cluster.replicas
                  if r.node_id not in (1, 2)]
        # View must reach at least 3 (leader 3) and keep executing.
        assert all(r.view >= 3 for r in honest)
        assert any(r.total_executed > 0 for r in honest)
