"""PBFT baseline tests."""

from __future__ import annotations

import pytest

from repro.baselines.pbft.config import PbftConfig
from repro.baselines.pbft.replica import PbftReplica
from repro.errors import ConfigError
from repro.messages.client import RequestBundle
from repro.messages.pbft import Commit, Prepare, PrePrepare
from tests.support import InstantLoop


@pytest.fixture
def pbft_config():
    return PbftConfig(n=4, batch_size=50, proposal_interval=0.005)


def make_cluster(config):
    replicas = {i: PbftReplica(i, config) for i in range(4)}
    return replicas, InstantLoop(replicas, replica_ids=list(range(4)))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PbftConfig(n=2)
        with pytest.raises(ConfigError):
            PbftConfig(n=4, window=0)


class TestThreePhase:
    def test_commit_flow(self, pbft_config):
        replicas, loop = make_cluster(pbft_config)
        loop.start_all()
        loop.deliver_external(
            100, 1, RequestBundle(100, 1, 50, 128, 0.0))
        loop.run(0.5)
        assert all(r.executed_sn == 1 for r in replicas.values())
        assert all(r.total_executed == 50 for r in replicas.values())

    def test_parallel_instances(self, pbft_config):
        replicas, loop = make_cluster(pbft_config)
        loop.start_all()
        loop.deliver_external(
            100, 1, RequestBundle(100, 1, 500, 128, 0.0))
        loop.run(0.5)
        # 500 requests / batch 50 = 10 instances, all executed in order.
        assert all(r.executed_sn == 10 for r in replicas.values())

    def test_execution_is_in_order(self, pbft_config):
        replicas, loop = make_cluster(pbft_config)
        loop.start_all()
        for bundle_id in range(1, 4):
            loop.deliver_external(
                100, 1, RequestBundle(100, bundle_id, 50, 128, loop.now))
            loop.run(0.1)
        logs = [r.executed_sn for r in replicas.values()]
        assert all(sn == logs[0] for sn in logs)


class TestValidation:
    def test_preprepare_from_backup_ignored(self, pbft_config):
        replica = PbftReplica(0, pbft_config)
        replica.start(0.0)
        block = PrePrepare(1, 1, 50, 128)
        assert replica.on_message(2, block, 0.0) == []
        assert replica.instances == {}

    def test_vote_for_unknown_instance_ignored(self, pbft_config):
        replica = PbftReplica(0, pbft_config)
        replica.start(0.0)
        assert replica.on_message(
            2, Prepare(1, 9, b"d" * 32, 2), 0.0) == []

    def test_digest_mismatch_ignored(self, pbft_config):
        replica = PbftReplica(0, pbft_config)
        replica.start(0.0)
        block = PrePrepare(1, 1, 50, 128)
        replica.on_message(1, block, 0.0)
        replica.on_message(2, Prepare(1, 1, b"x" * 32, 2), 0.0)
        replica.on_message(3, Prepare(1, 1, b"x" * 32, 3), 0.0)
        assert not replica.instances[1].prepared or \
            len(replica.instances[1].prepares) == 1

    def test_duplicate_votes_not_double_counted(self, pbft_config):
        replica = PbftReplica(0, pbft_config)
        replica.start(0.0)
        block = PrePrepare(1, 1, 50, 128)
        replica.on_message(1, block, 0.0)
        for _ in range(5):
            replica.on_message(2, Prepare(1, 1, block.digest(), 2), 0.0)
        # self + leader-implied + replica 2 = we count distinct senders.
        assert len(replica.instances[1].prepares) <= 3

    def test_window_bounds_parallelism(self):
        config = PbftConfig(n=4, batch_size=10, window=2)
        leader = PbftReplica(1, config)
        leader.start(0.0)
        leader.on_message(
            100, RequestBundle(100, 1, 1000, 128, 0.0), 0.0)
        leader.on_timer("propose", 0.01)
        assert leader.next_sn <= 3  # at most `window` instances open

    def test_stalled_diagnostic(self, pbft_config):
        replica = PbftReplica(0, pbft_config)
        replica.start(0.0)
        assert not replica.stalled()
        replica.on_message(
            100, RequestBundle(100, 1, 50, 128, 0.0), 0.0)
        assert replica.stalled()


class TestQuorumPath:
    def test_quorum_is_stored(self, pbft_config):
        assert pbft_config.quorum == 3
        assert vars(pbft_config)["quorum"] == 3

    def test_progress_checked_only_when_a_count_reaches_quorum(
            self, pbft_config, monkeypatch):
        calls = []
        check = PbftReplica._check_progress

        def counting(self, instance, now):
            calls.append(instance.block.sn)
            return check(self, instance, now)

        monkeypatch.setattr(PbftReplica, "_check_progress", counting)
        replicas, loop = make_cluster(pbft_config)
        loop.start_all()
        loop.deliver_external(100, 1, RequestBundle(100, 1, 50, 128, 0.0))
        loop.run(0.5)
        assert all(r.executed_sn == 1 for r in replicas.values())
        # Per replica: once on the 3rd prepare, once on the 3rd commit.
        assert len(calls) == 2 * len(replicas)

    def test_early_votes_replay_in_one_pass(self, pbft_config):
        replica = PbftReplica(0, pbft_config)
        replica.start(0.0)
        block = PrePrepare(1, 1, 50, 128)
        for sender in (2, 3):
            replica.on_message(
                sender, Prepare(1, 1, block.digest(), sender), 0.0)
        for sender in (1, 2, 3):
            replica.on_message(
                sender, Commit(1, 1, block.digest(), sender), 0.0)
        replica.on_message(2, Prepare(2, 1, block.digest(), 2), 0.0)
        effects = replica.on_message(1, block, 0.0)
        kinds = [type(e).__name__ for e in effects]
        # Its own prepare, then (on the replayed 3rd prepare) its commit,
        # and the 3rd commit executes; the other-view vote was dropped.
        assert kinds == ["Broadcast", "Broadcast", "Executed"]
        assert replica.executed_sn == 1
        assert replica._early_votes == {}

    def test_late_vote_for_an_executed_instance_leaves_nothing(
            self, pbft_config):
        replicas, loop = make_cluster(pbft_config)
        loop.start_all()
        loop.deliver_external(100, 1, RequestBundle(100, 1, 50, 128, 0.0))
        loop.run(0.5)
        replica = replicas[0]
        assert replica.executed_sn == 1 and replica.instances == {}
        for late in (Prepare(1, 1, b"x" * 32, 3), Commit(1, 1, b"x" * 32, 3)):
            assert replica.on_message(3, late, loop.now) == []
        assert replica.instances == {} and replica._early_votes == {}
