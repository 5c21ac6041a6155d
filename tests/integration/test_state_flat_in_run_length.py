"""Retained state is flat in run length, for every protocol core.

Each protocol runs on the simulator for T and then 2T simulated seconds —
long enough for several stable checkpoints (Leopard) and several
execution-log limits (the limit is patched small).  Every table a core
prunes must be no larger at 2T than at T plus a stated window slack,
while execution kept advancing.
"""

from __future__ import annotations

import pytest

from repro.core.config import LeopardConfig
from repro.core.recovery import ExecutionLog
from repro.harness.cluster import build_cluster

T = 4.0
TAIL_LIMIT = 64
CHECKPOINT_PERIOD = 5
LINKS = 10


def _sparse(table: dict) -> int:
    """Ids a per-source dedup table holds outside its watermarks."""
    return sum(len(seen.above) for seen in table.values())


def leopard_sizes(core) -> dict[str, int]:
    aggregator, ready = core.aggregator, core.ready
    return {
        "ledger.log": len(core.ledger.log),
        "aggregator": len(aggregator._sns) + len(aggregator._combined),
        "ready": len(ready._ready_from) + len(ready._held),
        "ready.consumed": len(ready._consumed) + len(ready._retired),
        "checkpoints.issued": len(core.checkpoints._issued),
        "pool.seen": _sparse(core.pool._seen_counters),
        "mempool.seen": _sparse(core.mempool._seen_bundles),
    }


def hotstuff_sizes(core) -> dict[str, int]:
    return {
        "blocks": len(core.blocks),
        "qcs": len(core.qcs),
        "votes": len(core._votes),
        "exec_log": len(core.exec_log.entries),
        "mempool.seen": _sparse(core.mempool._seen_bundles),
    }


def pbft_sizes(core) -> dict[str, int]:
    return {
        "instances": len(core.instances),
        "early_votes": len(core._early_votes),
        "exec_log": len(core.exec_log.entries),
        "mempool.seen": _sparse(core.mempool._seen_bundles),
    }


#: How much a table may legitimately differ between two instants of one
#: steady state: where in its checkpoint (or block) cycle it was sampled.
SLACK = {
    "ready": 4 * CHECKPOINT_PERIOD * LINKS,
    "ready.consumed": 4 * CHECKPOINT_PERIOD * LINKS,
    "aggregator": 4 * CHECKPOINT_PERIOD,
    "checkpoints.issued": 1,
    "pool.seen": 4,
    "blocks": 4,
    "qcs": 4,
    "votes": 4,
    "instances": 4,
    "early_votes": 4,
}

CASES = {
    "leopard": (leopard_sizes, lambda core: core.ledger.last_executed),
    "hotstuff": (hotstuff_sizes, lambda core: core.executed_height),
    "pbft": (pbft_sizes, lambda core: core.executed_sn),
}


@pytest.mark.parametrize("protocol", sorted(CASES))
def test_retained_state_is_flat_in_run_length(protocol, monkeypatch):
    monkeypatch.setattr(ExecutionLog, "TAIL_LIMIT", TAIL_LIMIT)
    sizes_of, executed = CASES[protocol]
    config = None
    if protocol == "leopard":
        config = LeopardConfig(
            n=4, datablock_size=200, bftblock_max_links=LINKS,
            proposal_interval=0.01, max_batch_delay=0.05,
            checkpoint_period=CHECKPOINT_PERIOD, progress_timeout=2.0)
    cluster = build_cluster(protocol, 4, seed=5, config=config,
                            total_rate=40_000 if config else None)
    cluster.run(T)
    first = [sizes_of(core) for core in cluster.replicas]
    progress = [executed(core) for core in cluster.replicas]
    cluster.run(T)
    second = [sizes_of(core) for core in cluster.replicas]
    for core, before, at_t, at_2t in zip(
            cluster.replicas, progress, first, second):
        advanced = executed(core) - before
        assert advanced >= 3 * CHECKPOINT_PERIOD
        assert advanced > TAIL_LIMIT  # the log wrapped in between
        for table, size in at_2t.items():
            assert size <= at_t[table] + SLACK.get(table, 0), (
                f"{protocol} replica {core.node_id}: {table} grew "
                f"{at_t[table]} -> {size} over {advanced} positions")
