"""The §IV-A2 selective attack: faulty creators starve some replicas of
their datablocks; the ready round + erasure-coded retrieval must restore
liveness without re-centralising load on the leader."""

from __future__ import annotations

from repro.core.config import LeopardConfig
from repro.harness import build_leopard_cluster
from repro.faults import SelectiveDisseminator


def attack_cluster(n=4, seed=5, victim=2):
    """One faulty creator sends datablocks only to a ready-quorum subset
    that excludes ``victim``."""
    config = LeopardConfig(
        n=n, datablock_size=100, bftblock_max_links=5,
        max_batch_delay=0.05, retrieval_timeout=0.1,
        progress_timeout=10.0)
    leader = 1 % n
    faulty = next(r for r in range(n) if r not in (leader, victim))
    others = [r for r in range(n)
              if r not in (leader, victim, faulty)][: 2 * config.f - 1]
    targets = frozenset([leader] + others)
    cluster = build_leopard_cluster(
        n=n, seed=seed, config=config, warmup=0.5, total_rate=20_000,
        faults={faulty: SelectiveDisseminator(targets)})
    return cluster, faulty, victim


class TestRetrievalRestoresLiveness:
    def test_victim_recovers_and_executes(self):
        cluster, faulty, victim = attack_cluster()
        cluster.run(4.0)
        victim_replica = cluster.replicas[victim]
        assert victim_replica.retrieval.recovered_count > 0
        assert victim_replica.total_executed > 0
        # The victim's log must match an unaffected replica's prefix.
        reference = cluster.replicas[
            next(r for r in range(4) if r not in (victim, faulty, 1))]
        victim_log = [e.block_digest for e in victim_replica.ledger.log]
        reference_log = [e.block_digest for e in reference.ledger.log]
        shortest = min(len(victim_log), len(reference_log))
        assert shortest > 0
        assert victim_log[:shortest] == reference_log[:shortest]

    def test_no_view_change_needed(self):
        cluster, _, _ = attack_cluster()
        cluster.run(4.0)
        assert all(r.view == 1 for r in cluster.replicas)

    def test_responders_split_the_cost(self):
        # §V-B case (b): each response is ~alpha/(f+1) + O(log n), so the
        # per-responder cost must be well below re-sending whole blocks.
        cluster, faulty, victim = attack_cluster()
        cluster.run(4.0)
        datablock_bytes = 100 * 128
        for node in range(4):
            if node == victim:
                continue
            sent = cluster.network.stats(node).sent_bytes.get("resp", 0)
            responded = cluster.replicas[node].retrieval.responses_sent
            if responded:
                per_response = sent / responded
                assert per_response < datablock_bytes

    def test_victim_recovery_traffic_is_bounded(self):
        cluster, faulty, victim = attack_cluster()
        cluster.run(4.0)
        victim_replica = cluster.replicas[victim]
        recovered = victim_replica.retrieval.recovered_count
        resp_bytes = cluster.network.stats(victim).recv_bytes.get("resp", 0)
        datablock_bytes = 100 * 128
        assert recovered > 0
        # f+1 chunks of alpha/(f+1) each ~= alpha, plus proofs/meta.
        assert resp_bytes / recovered < 3 * datablock_bytes


class TestSevenReplicas:
    def test_two_victims_both_recover(self):
        n = 7
        config = LeopardConfig(
            n=n, datablock_size=100, bftblock_max_links=5,
            max_batch_delay=0.05, retrieval_timeout=0.1,
            progress_timeout=10.0)
        leader = 1
        faulty = 3
        victims = (2, 5)
        targets = frozenset(
            r for r in range(n) if r not in victims and r != faulty)
        cluster = build_leopard_cluster(
            n=n, seed=6, config=config, warmup=0.5, total_rate=20_000,
            faults={faulty: SelectiveDisseminator(targets)})
        cluster.run(5.0)
        for victim in victims:
            assert cluster.replicas[victim].retrieval.recovered_count > 0
            assert cluster.replicas[victim].total_executed > 0
