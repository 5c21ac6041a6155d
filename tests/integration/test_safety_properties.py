"""Safety property tests (paper Theorem 1, Lemmas 1-2).

The invariant checked everywhere: for any two honest replicas, the executed
logs agree position-by-position on their common prefix — under fault mixes,
equivocating leaders, and pre-GST asynchrony.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import LeopardConfig
from repro.core.replica import LeopardReplica
from repro.harness import build_leopard_cluster
from repro.messages.leopard import BFTblock, Vote
from repro.faults import (
    Combined,
    Crash,
    DropIncoming,
    Mute,
    SelectiveDisseminator,
)


def assert_prefix_consistent(replicas, min_length=0):
    logs = [[entry.digest for entry in r.ledger.log]
            for r in replicas]
    shortest = min(len(log) for log in logs)
    assert shortest >= min_length
    for position in range(shortest):
        assert len({log[position] for log in logs}) == 1, \
            f"logs diverge at position {position}"


BEHAVIOUR_POOL = [
    lambda n, leader: Crash(at=0.8),
    lambda n, leader: Mute(frozenset({"vote"})),
    lambda n, leader: Mute(frozenset({"ready"})),
    lambda n, leader: DropIncoming(frozenset({"datablock"})),
    lambda n, leader: SelectiveDisseminator(frozenset({leader})),
    lambda n, leader: Combined((
        Mute(frozenset({"vote", "ready"})),
        DropIncoming(frozenset({"proof"})),
    )),
]


class TestRandomizedFaultMixes:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_prefix_consistency_under_random_faults(self, seed):
        rng = random.Random(seed)
        n = 7
        config = LeopardConfig(
            n=n, datablock_size=100, bftblock_max_links=5,
            max_batch_delay=0.05, retrieval_timeout=0.15,
            progress_timeout=1.0)
        leader = 1
        candidates = [r for r in range(n) if r != leader]
        faulty = rng.sample(candidates, config.f)
        faults = {r: rng.choice(BEHAVIOUR_POOL)(n, leader) for r in faulty}
        cluster = build_leopard_cluster(
            n=n, seed=seed, config=config, warmup=0.2,
            total_rate=15_000, faults=faults)
        cluster.run(5.0)
        honest = [r for r in cluster.replicas
                  if r.node_id not in faults]
        assert_prefix_consistent(honest)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_faulty_leader_mix(self, seed):
        rng = random.Random(seed)
        n = 7
        config = LeopardConfig(
            n=n, datablock_size=100, bftblock_max_links=5,
            max_batch_delay=0.05, retrieval_timeout=0.15,
            progress_timeout=0.5)
        faults = {1: Crash(at=rng.uniform(0.3, 1.0))}
        cluster = build_leopard_cluster(
            n=n, seed=seed, config=config, warmup=0.2,
            total_rate=15_000, faults=faults)
        cluster.run(7.0)
        honest = [r for r in cluster.replicas if r.node_id != 1]
        assert_prefix_consistent(honest)
        assert any(r.total_executed > 0 for r in honest)


class TestEquivocatingLeader:
    def test_conflicting_proposals_cannot_both_confirm(self, registry4,
                                                       config4):
        """Lemma 1: an equivocating leader sends different BFTblocks with
        the same serial number to different replicas; at most one can
        gather a notarization quorum."""
        replicas = {i: LeopardReplica(i, config4, registry4)
                    for i in (0, 2, 3)}
        leader_signer = registry4.signer(1)

        def proposal(links):
            unsigned = BFTblock(1, 1, links)
            from dataclasses import replace
            return replace(unsigned,
                           leader_share=leader_signer.sign(unsigned.digest()))

        block_a = proposal(())
        block_b = proposal((b"x" * 32,))
        votes = []
        votes += replicas[0].on_message(1, block_a, 0.0)
        votes += replicas[2].on_message(1, block_a, 0.0)
        votes += replicas[3].on_message(1, block_b, 0.0)
        from repro.interfaces import Send
        cast = [e.msg for e in votes if isinstance(e, Send)
                and isinstance(e.msg, Vote)]
        for_a = [v for v in cast if v.block_digest == block_a.digest()]
        for_b = [v for v in cast if v.block_digest == block_b.digest()]
        # block_b links an unknown datablock, so replica 3 won't vote yet;
        # and no replica votes for both.
        assert len(for_a) == 2
        assert len(for_b) == 0
        # The equivocating leader can combine its own share + 2 votes for
        # block_a only: block_b can never reach 2f+1 = 3 because every
        # honest replica is vote-locked on (view 1, sn 1).
        effects = replicas[0].on_message(1, block_b, 0.1)
        assert not any(isinstance(e, Send) and isinstance(e.msg, Vote)
                       for e in effects)

    def test_vote_lock_survives_datablock_arrival(self, registry4, config4):
        """A replica that voted for block A must not vote for block B at
        the same (view, sn) even after B's missing datablock shows up."""
        from dataclasses import replace
        from repro.messages.leopard import Datablock
        replica = LeopardReplica(0, config4, registry4)
        replica.start(0.0)
        leader_signer = registry4.signer(1)
        block_a = BFTblock(1, 1, ())
        block_a = replace(block_a,
                          leader_share=leader_signer.sign(block_a.digest()))
        replica.on_message(1, block_a, 0.0)
        missing = Datablock(3, 1, 10, 128, ())
        block_b = BFTblock(1, 1, (missing.digest(),))
        block_b = replace(block_b,
                          leader_share=leader_signer.sign(block_b.digest()))
        replica.on_message(1, block_b, 0.1)
        effects = replica.on_message(3, missing, 0.2)
        from repro.interfaces import Send
        votes = [e.msg for e in effects if isinstance(e, Send)
                 and isinstance(e.msg, Vote)]
        assert all(v.block_digest != block_b.digest() for v in votes)


class TestPartialSynchrony:
    def test_consistency_through_pre_gst_chaos(self):
        """Before GST messages suffer adversarial delays; safety must hold
        throughout and liveness resumes after GST (Theorem 2)."""
        n = 4
        config = LeopardConfig(
            n=n, datablock_size=100, bftblock_max_links=5,
            max_batch_delay=0.05, retrieval_timeout=0.3,
            progress_timeout=3.0)
        cluster = build_leopard_cluster(
            n=n, seed=13, config=config, warmup=0.2,
            total_rate=15_000, gst=1.5)
        cluster.run(6.0)
        assert_prefix_consistent(cluster.replicas, min_length=1)
        assert all(r.total_executed > 0 for r in cluster.replicas)
