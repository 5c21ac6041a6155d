"""Chained-HotStuff baseline tests."""

from __future__ import annotations

import pytest

from repro.baselines.hotstuff import replica as replica_module
from repro.baselines.hotstuff.config import HotStuffConfig
from repro.baselines.hotstuff.replica import GENESIS_DIGEST, HotStuffReplica
from repro.errors import ConfigError
from repro.messages.client import RequestBundle
from repro.messages.hotstuff import HSBlock, HSVote, QuorumCert
from tests.support import InstantLoop


@pytest.fixture
def hs_config():
    return HotStuffConfig(n=4, batch_size=50, idle_repropose_delay=0.001,
                          progress_timeout=5.0)


def make_cluster(config):
    replicas = {i: HotStuffReplica(i, config) for i in range(4)}
    return replicas, InstantLoop(replicas, replica_ids=list(range(4)))


def submit(loop, leader=1, count=50, client=100, bundle_id=1):
    loop.deliver_external(
        client, leader,
        RequestBundle(client, bundle_id, count, 128, loop.now))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            HotStuffConfig(n=3)
        with pytest.raises(ConfigError):
            HotStuffConfig(n=4, batch_size=0)

    def test_quorum(self):
        assert HotStuffConfig(n=4).quorum == 3


class TestChain:
    def test_three_chain_commit(self, hs_config):
        replicas, loop = make_cluster(hs_config)
        loop.start_all()
        # Four batches: heights 1-4 proposed; 3-chain commits height 1+.
        for bundle_id in range(1, 5):
            submit(loop, bundle_id=bundle_id)
            loop.run(0.05)
        loop.run(0.5)
        assert replicas[2].committed_height >= 1
        assert replicas[2].total_executed >= 50

    def test_all_replicas_agree_on_committed_prefix(self, hs_config):
        replicas, loop = make_cluster(hs_config)
        loop.start_all()
        for bundle_id in range(1, 8):
            submit(loop, bundle_id=bundle_id)
            loop.run(0.05)
        loop.run(0.5)
        height = min(r.committed_height for r in replicas.values())
        assert height >= 3
        digests = [
            [r.blocks[h].digest() for h in range(1, height + 1)]
            for r in replicas.values()]
        assert all(d == digests[0] for d in digests)

    def test_leader_waits_for_qc_before_next_proposal(self, hs_config):
        leader = HotStuffReplica(1, hs_config)
        leader.start(0.0)
        leader.on_message(
            100, RequestBundle(100, 1, 200, 128, 0.0), 0.0)
        assert leader._proposed_height == 1  # only one outstanding

    def test_vote_quorum_forms_qc(self, hs_config):
        leader = HotStuffReplica(1, hs_config)
        leader.start(0.0)
        leader.on_message(100, RequestBundle(100, 1, 50, 128, 0.0), 0.0)
        block = leader.blocks[1]
        leader.on_message(0, HSVote(1, block.digest(), 0), 0.0)
        assert 1 not in leader.qcs
        leader.on_message(2, HSVote(1, block.digest(), 2), 0.0)
        assert 1 in leader.qcs  # leader's own vote + two others

    def test_wrong_digest_vote_ignored(self, hs_config):
        leader = HotStuffReplica(1, hs_config)
        leader.start(0.0)
        leader.on_message(100, RequestBundle(100, 1, 50, 128, 0.0), 0.0)
        leader.on_message(0, HSVote(1, b"junk" * 8, 0), 0.0)
        leader.on_message(2, HSVote(1, b"junk" * 8, 2), 0.0)
        assert 1 not in leader.qcs


class TestBlockValidation:
    def test_rejects_block_from_non_leader(self, hs_config):
        replica = HotStuffReplica(0, hs_config)
        replica.start(0.0)
        block = HSBlock(1, GENESIS_DIGEST, None, 10, 128)
        assert replica.on_message(3, block, 0.0) == []
        assert 1 not in replica.blocks

    def test_rejects_wrong_parent(self, hs_config):
        replica = HotStuffReplica(0, hs_config)
        replica.start(0.0)
        good = HSBlock(1, GENESIS_DIGEST, None, 10, 128)
        replica.on_message(1, good, 0.0)
        orphan = HSBlock(2, b"wrong" * 6 + b"xx", None, 10, 128)
        replica.on_message(1, orphan, 0.0)
        assert 2 not in replica.blocks

    def test_rejects_undersized_qc(self, hs_config):
        replica = HotStuffReplica(0, hs_config)
        replica.start(0.0)
        good = HSBlock(1, GENESIS_DIGEST, None, 10, 128)
        replica.on_message(1, good, 0.0)
        weak_qc = QuorumCert(good.digest(), 1, 2)  # quorum is 3
        block = HSBlock(2, good.digest(), weak_qc, 10, 128)
        replica.on_message(1, block, 0.0)
        assert 2 not in replica.blocks


def feed_all(loop, first_id, count, client=100):
    """One bundle per 10 ms to every live replica, so a new leader holds
    pending requests too."""
    for bundle_id in range(first_id, first_id + count):
        for dest in list(loop.cores):
            loop.deliver_external(client, dest, RequestBundle(
                client, bundle_id, 50, 128, loop.now))
        loop.run(0.01)
    return first_id + count


class TestPruning:
    def test_tables_stay_a_window_behind_execution(self, hs_config):
        replicas, loop = make_cluster(hs_config)
        loop.start_all()
        feed_all(loop, 1, 60)
        keep = replica_module.KEEP_BELOW_EXECUTED
        for replica in replicas.values():
            floor = replica.executed_height - keep
            assert floor > 20
            for table in (replica.blocks, replica.qcs, replica._votes):
                assert all(height == 0 or height > floor for height in table)
            assert 0 in replica.qcs  # genesis
            assert len(replica.blocks) <= keep + 4

    def test_pruned_heights_answer_from_the_execution_log(self, hs_config):
        replicas, loop = make_cluster(hs_config)
        loop.start_all()
        feed_all(loop, 1, 8)
        follower = replicas[2]
        early = {h: follower.blocks[h].digest() for h in (1, 2, 3)}
        feed_all(loop, 9, 40)
        assert 1 not in follower.blocks
        assert {h: follower._digest_at(h) for h in early} == early

    def test_late_vote_and_block_for_a_pruned_height(self, hs_config):
        replicas, loop = make_cluster(hs_config)
        loop.start_all()
        feed_all(loop, 1, 5)
        leader = replicas[1]
        old_block = leader.blocks[2]
        feed_all(loop, 6, 40)
        assert 2 not in leader.blocks
        sizes = (len(leader.blocks), len(leader.qcs), len(leader._votes))
        vote = HSVote(2, old_block.digest(), 3)
        assert leader.on_message(3, vote, loop.now) == []
        follower = replicas[0]
        assert follower.on_message(1, old_block, loop.now) == []
        assert (len(leader.blocks), len(leader.qcs),
                len(leader._votes)) == sizes
        assert 2 not in follower.blocks


class TestPacemaker:
    def test_new_leader_extends_the_chain_after_pruning(
            self, hs_config, monkeypatch):
        # Prune as hard as possible: nothing is kept below execution.
        monkeypatch.setattr(replica_module, "KEEP_BELOW_EXECUTED", 0)
        from dataclasses import replace
        config = replace(hs_config, progress_timeout=0.2)
        replicas, loop = make_cluster(config)
        loop.start_all()
        next_id = feed_all(loop, 1, 40)
        crashed_at = {i: r.executed_height for i, r in replicas.items()}
        assert min(crashed_at.values()) > 20
        assert all(min(r.blocks) > 1 for r in replicas.values())
        del replicas[1], loop.cores[1]  # the view-1 leader crashes
        next_id = feed_all(loop, next_id, 5)
        loop.run(1.0)
        feed_all(loop, next_id, 40)
        live = list(replicas.values())
        assert all(r.view >= 2 for r in live)
        assert all(r.executed_height >= max(crashed_at.values()) + 20
                   for r in live)
        height = min(r.executed_height for r in live)
        digests = {tuple(r.exec_log.digest_of(h)
                         for h in range(height - 30, height + 1))
                   for r in live}
        assert len(digests) == 1

    def test_view_rotation_on_stall(self, hs_config):
        from dataclasses import replace
        config = replace(hs_config, progress_timeout=0.2)
        replicas, loop = make_cluster(config)
        # Remove the leader so nothing commits.
        dead = replicas.pop(1)
        loop.cores.pop(1)
        loop.start_all()
        submit(loop, leader=0)  # requests at a non-leader: pending work
        loop.run(1.0)
        assert all(r.view >= 2 for r in replicas.values())
