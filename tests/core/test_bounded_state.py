"""Bounded retained state: each pruned table, and a straggler for a
position it pruned.

Every table a core prunes once execution or a stable checkpoint covers a
position must answer a late message for that position exactly as the
unpruned table did (same decision, here always "no effect") and must not
grow from it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checkpoint import CheckpointManager
from repro.core.config import LeopardConfig
from repro.core.datablock_pool import DatablockPool, ReadyTracker
from repro.core.mempool import Mempool
from repro.core.recovery import HISTORY_WINDOW, ExecutionLog, _tail_digest
from repro.core.watermark import SeenIds
from repro.harness.cluster import build_leopard_cluster
from repro.messages.client import RequestBundle
from repro.messages.leopard import (
    ROUND_COMMIT,
    ROUND_PREPARE,
    Datablock,
    Ready,
    Vote,
)
from repro.messages.recovery import SegmentEntry

#: Random id streams: ids from a small range so repeats are common,
#: shuffled so arrivals are out of order.
ID_STREAMS = st.lists(st.integers(min_value=-2, max_value=40), max_size=120)


class TestSeenIds:
    @settings(max_examples=200, deadline=None)
    @given(ID_STREAMS)
    def test_matches_a_plain_set(self, stream):
        seen, oracle = SeenIds(), set()
        for seen_id in stream:
            assert (seen_id in seen) == (seen_id in oracle)
            assert seen.add(seen_id) == (seen_id not in oracle)
            oracle.add(seen_id)
        for probe in range(-3, 45):
            assert (probe in seen) == (probe in oracle)

    def test_contiguous_ids_keep_no_set(self):
        seen = SeenIds()
        for seen_id in [2, 3, 1, 5, 4, 6]:
            seen.add(seen_id)
        assert (seen.low, seen.above) == (6, set())


class TestDedupTables:
    """The two per-source tables agree with the plain sets they replace."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 30)),
                    max_size=150))
    def test_mempool_matches_a_plain_set(self, stream):
        mempool, oracle = Mempool(), set()
        for client, bundle_id in stream:
            accepted = mempool.add_bundle(
                RequestBundle(client, bundle_id, 1, 128, 0.0))
            assert accepted == ((client, bundle_id) not in oracle)
            oracle.add((client, bundle_id))
        assert mempool.duplicates_rejected == len(stream) - len(oracle)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 30),
                              st.integers(1, 3)), max_size=150))
    def test_pool_matches_a_plain_set(self, stream):
        pool, oracle = DatablockPool(), set()
        for creator, counter, count in stream:
            accepted = pool.add(Datablock(creator, counter, count, 128, ()))
            assert accepted == ((creator, counter) not in oracle)
            oracle.add((creator, counter))

    def test_duplicate_bundle_leaves_nothing(self):
        mempool = Mempool()
        for bundle_id in range(1, 200):
            mempool.add_bundle(RequestBundle(7, bundle_id, 1, 128, 0.0))
        assert not mempool.add_bundle(RequestBundle(7, 3, 1, 128, 0.0))
        seen = mempool._seen_bundles[7]
        assert (seen.low, seen.above) == (199, set())

    def test_replayed_counter_leaves_nothing(self):
        pool = DatablockPool()
        for counter in range(1, 200):
            pool.add(Datablock(1, counter, 1, 128, ()))
        assert not pool.add(Datablock(1, 5, 99, 128, ()))  # equivocation
        seen = pool._seen_counters[1]
        assert (seen.low, seen.above) == (199, set())


def _list_log_oracle(entries: list[SegmentEntry], limit: int
                     ) -> list[SegmentEntry]:
    """What the log retained when it trimmed by re-slicing a list."""
    kept: list[SegmentEntry] = []
    for entry in entries:
        kept.append(entry)
        if len(kept) > limit:
            kept = kept[-limit:]
    return kept


class TestExecutionLog:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 70), st.integers(0, 300))
    def test_retains_what_the_list_trim_retained(self, limit, count):
        log = ExecutionLog()
        log.TAIL_LIMIT = limit
        entries = [SegmentEntry(sn, sn.to_bytes(32, "big"), sn % 7)
                   for sn in range(1, count + 1)]
        for entry in entries:
            log.append(entry.sn, entry.digest, entry.request_count)
        kept = _list_log_oracle(entries, limit)
        assert list(log.entries) == kept
        assert log.entries_between(count // 3, count) == [
            e for e in kept if count // 3 < e.sn <= count]
        assert log.tail() == [(e.sn, e.digest.hex()) for e in kept[-32:]]
        assert log.state_digest() == _tail_digest(
            kept[-HISTORY_WINDOW:], count)
        for entry in entries:
            expected = entry.digest if entry in kept else None
            assert log.digest_of(entry.sn) == expected

    def test_append_cost_does_not_depend_on_the_limit(self):
        # The tail is a deque: appending at the limit evicts one entry.
        log = ExecutionLog()
        log.TAIL_LIMIT = 4
        for sn in range(1, 10):
            log.append(sn, b"d" * 32, 1)
        assert [e.sn for e in log.entries] == [6, 7, 8, 9]
        assert sorted(log._digests) == [6, 7, 8, 9]


class TestReadyTracker:
    def _linked(self, quorum=3):
        tracker = ReadyTracker(quorum)
        digest = b"d" * 32
        tracker.mark_held(digest)
        for replica in range(quorum):
            tracker.record_ready(digest, replica)
        assert tracker.take_links(1) == (digest,)
        return tracker, digest

    def test_promotion_drops_the_counts(self):
        tracker, digest = self._linked()
        assert tracker._ready_from == {} and tracker._held == set()
        assert not tracker.record_ready(digest, 3)  # late, still counted out
        assert tracker._ready_from == {}

    def test_late_ready_after_the_checkpoint_is_a_no_op(self):
        tracker, digest = self._linked()
        tracker.forget([digest])
        assert tracker._consumed == set()
        assert not tracker.record_ready(digest, 3)
        assert not tracker.mark_held(digest)
        assert tracker._ready_from == {} and tracker._held == set()
        assert tracker.ready_count == 0

    def test_next_checkpoint_releases_the_retired(self):
        tracker, digest = self._linked()
        tracker.forget([digest])
        tracker.forget([])
        assert tracker._retired == set()

    def test_unpromoted_readies_are_dropped_at_the_checkpoint(self):
        tracker = ReadyTracker(3)
        digest = b"e" * 32
        tracker.record_ready(digest, 1)
        tracker.mark_held(digest)
        tracker.forget([digest])
        assert tracker._ready_from == {} and tracker._held == set()


class TestCheckpointManager:
    def test_straggler_share_leaves_nothing(self, registry4):
        managers = [CheckpointManager(4, registry4.scheme) for _ in range(4)]
        leader = managers[0]
        state = b"s" * 32
        proof = None
        for replica in range(3):
            share = managers[replica].make_share(
                replica, registry4.signer(replica), 4, state)
            proof = leader.on_share(replica, share) or proof
        assert leader._issued
        assert leader.on_proof(proof)
        assert leader._issued == set()
        late = managers[3].make_share(3, registry4.signer(3), 4, state)
        assert leader.on_share(3, late) is None
        assert leader._issued == set() and leader._shares == {}


# ---------------------------------------------------------------------------
# A Leopard replica after several stable checkpoints
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def checkpointed_cluster():
    config = LeopardConfig(
        n=4, datablock_size=200, bftblock_max_links=10,
        proposal_interval=0.01, max_batch_delay=0.05,
        checkpoint_period=5, progress_timeout=2.0)
    cluster = build_leopard_cluster(
        n=4, seed=3, config=config, warmup=0.5, total_rate=40_000)
    cluster.run(2.0)
    leader = cluster.replicas[cluster.leader]
    assert leader.checkpoints.stable_sn >= 15
    return cluster


def _aggregator_size(aggregator) -> int:
    return (len(aggregator._shares) + len(aggregator._payloads)
            + len(aggregator._elements) + len(aggregator._combined)
            + len(aggregator._sns))


class TestLeopardStragglers:
    def test_late_votes_for_pruned_blocks(self, checkpointed_cluster):
        cluster = checkpointed_cluster
        leader = cluster.replicas[cluster.leader]
        stable = leader.checkpoints.stable_sn
        pruned = [entry for entry in leader.ledger.log if entry.sn <= stable]
        assert pruned
        registry = cluster.context
        before = _aggregator_size(leader.aggregator)
        now = cluster.sim.queue.now
        for entry in pruned[-3:]:
            for round_, payload in ((ROUND_PREPARE, entry.digest),
                                    (ROUND_COMMIT, b"c" * 32)):
                for voter in range(cluster.n):
                    share = registry.signer(voter).sign(payload)
                    vote = Vote(round_, entry.digest, payload, share)
                    assert leader.on_message(voter, vote, now) == []
        assert _aggregator_size(leader.aggregator) == before
        assert all(sn > stable
                   for sn in leader.aggregator._sns.values())

    def test_late_ready_for_collected_datablocks(self, checkpointed_cluster):
        cluster = checkpointed_cluster
        leader = cluster.replicas[cluster.leader]
        retired = sorted(leader.ready._retired)
        assert retired
        before = (len(leader.ready._ready_from), len(leader.ready._held))
        now = cluster.sim.queue.now
        for digest in retired:
            for sender in range(cluster.n):
                assert leader.on_message(sender, Ready(digest), now) == []
        assert (len(leader.ready._ready_from),
                len(leader.ready._held)) == before

    def test_replayed_datablock_counter(self, checkpointed_cluster):
        cluster = checkpointed_cluster
        replica = cluster.replicas[cluster.measure_replica]
        creator = next(c for c in range(cluster.n)
                       if c not in (replica.node_id, cluster.leader))
        seen = replica.pool._seen_counters[creator]
        assert seen.low > 1
        before = (seen.low, set(seen.above), len(replica.pool))
        replay = Datablock(creator, 1, 5, 128, ())
        assert replica.on_message(creator, replay,
                                  cluster.sim.queue.now) == []
        assert (seen.low, seen.above, len(replica.pool)) == before
