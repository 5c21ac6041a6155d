"""Ledger tests: ordering, consecutive-prefix execution, GC."""

from __future__ import annotations

from repro.core.datablock_pool import DatablockPool
from repro.core.ledger import Ledger
from repro.messages.leopard import BFTblock, BundleSpan, Datablock


def setup_ledger(replica_id=2):
    pool = DatablockPool()
    return pool, Ledger(pool, replica_id)


def datablock(creator, counter, count=10, spans=()):
    return Datablock(creator, counter, count, 128, tuple(spans))


def bft(sn, links, view=1):
    return BFTblock(view, sn, tuple(links))


class TestConfirmation:
    def test_confirm_once(self):
        _, ledger = setup_ledger()
        block = bft(1, ())
        assert ledger.confirm(block)
        assert not ledger.confirm(block)
        assert ledger.is_confirmed(1)
        assert not ledger.is_confirmed(2)

    def test_pending_count(self):
        _, ledger = setup_ledger()
        ledger.confirm(bft(2, ()))
        assert ledger.pending_confirmed() == 1


class TestExecution:
    def test_executes_consecutive_prefix(self):
        pool, ledger = setup_ledger()
        db1 = datablock(1, 1)
        db3 = datablock(3, 1)
        pool.add(db1)
        pool.add(db3)
        ledger.confirm(bft(1, [db1.digest()]))
        ledger.confirm(bft(3, [db3.digest()]))
        result = ledger.execute_ready()
        assert [b.sn for b in result.blocks] == [1]
        assert result.executed_requests == 10
        ledger.confirm(bft(2, ()))
        result = ledger.execute_ready()
        assert [b.sn for b in result.blocks] == [2, 3]
        assert ledger.last_executed == 3

    def test_blocks_on_missing_datablock(self):
        pool, ledger = setup_ledger()
        db1 = datablock(1, 1)
        ledger.confirm(bft(1, [db1.digest()]))
        assert ledger.execute_ready().blocks == []
        assert ledger.missing_for_execution() == [db1.digest()]
        pool.add(db1)
        assert [b.sn for b in ledger.execute_ready().blocks] == [1]
        assert ledger.missing_for_execution() == []

    def test_dummy_block_executes_empty(self):
        _, ledger = setup_ledger()
        ledger.confirm(bft(1, ()))
        result = ledger.execute_ready()
        assert result.executed_requests == 0
        assert len(ledger.log) == 1

    def test_ack_spans_only_for_own_datablocks(self):
        pool, ledger = setup_ledger(replica_id=2)
        own = datablock(2, 1, spans=[BundleSpan(9, 1, 10, 0.0)])
        other = datablock(3, 1, spans=[BundleSpan(8, 1, 10, 0.0)])
        pool.add(own)
        pool.add(other)
        ledger.confirm(bft(1, [own.digest(), other.digest()]))
        result = ledger.execute_ready()
        assert [s.client_id for s in result.acked_spans] == [9]

    def test_log_positions_are_stable(self):
        pool, ledger = setup_ledger()
        blocks = []
        for sn in range(1, 4):
            db = datablock(sn, 1)
            pool.add(db)
            block = bft(sn, [db.digest()])
            blocks.append(block)
            ledger.confirm(block)
        ledger.execute_ready()
        assert [e.digest for e in ledger.log] == \
            [b.digest() for b in blocks]


class TestGarbageCollection:
    def test_collects_executed_links(self):
        pool, ledger = setup_ledger()
        db1 = datablock(1, 1)
        db2 = datablock(1, 2)
        pool.add(db1)
        pool.add(db2)
        ledger.confirm(bft(1, [db1.digest()]))
        ledger.confirm(bft(2, [db2.digest()]))
        ledger.execute_ready()
        removed = ledger.collect_garbage(1)
        assert removed == [db1.digest()]
        assert db1.digest() not in pool
        assert db2.digest() in pool

    def test_gc_idempotent(self):
        pool, ledger = setup_ledger()
        db1 = datablock(1, 1)
        pool.add(db1)
        ledger.confirm(bft(1, [db1.digest()]))
        ledger.execute_ready()
        assert len(ledger.collect_garbage(1)) == 1
        assert ledger.collect_garbage(1) == []

    def test_state_digest_changes_with_log(self):
        pool, ledger = setup_ledger()
        empty = ledger.history.state_digest()
        db1 = datablock(1, 1)
        pool.add(db1)
        ledger.confirm(bft(1, [db1.digest()]))
        ledger.execute_ready()
        assert ledger.history.state_digest() != empty
