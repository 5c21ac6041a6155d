"""The replicated log: ordering, execution, acknowledgements (paper §IV-A2).

Confirmed BFTblocks are stored by serial number; execution applies the
longest consecutive prefix whose datablocks are all locally present (a
confirmed block can be waiting on a retrieval).  Requests within a block
execute in the paper's canonical order (links in block order, requests in
datablock order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.datablock_pool import DatablockPool
from repro.core.recovery import ExecutionLog
from repro.messages.leopard import BFTblock, BundleSpan


@dataclass(frozen=True)
class ExecutedBlock:
    """One position an execution sweep applied, with the links the
    replica still needs (acks, garbage collection)."""

    sn: int
    block_digest: bytes
    links: tuple[bytes, ...]
    request_count: int


@dataclass
class ExecutionResult:
    """Output of one execution sweep."""

    blocks: list[ExecutedBlock] = field(default_factory=list)
    executed_requests: int = 0
    acked_spans: list[BundleSpan] = field(default_factory=list)


class Ledger:
    """Confirmed-block storage plus the execution cursor.

    The executed prefix is ``history``, an
    :class:`~repro.core.recovery.ExecutionLog` — the bounded tail the
    baselines keep too — which serves recovery and the checkpoint state
    digest ``H(st)``.
    """

    def __init__(self, pool: DatablockPool, replica_id: int) -> None:
        self._pool = pool
        self._replica_id = replica_id
        self._confirmed: dict[int, BFTblock] = {}
        self.history = ExecutionLog()
        #: sn -> links, retained for checkpoint-time garbage collection.
        self._executed_links: dict[int, tuple[bytes, ...]] = {}

    @property
    def last_executed(self) -> int:
        """The executed-prefix tip."""
        return self.history.last_executed

    @property
    def log(self):
        """The retained executed positions (``SegmentEntry``), oldest
        first, at most :data:`ExecutionLog.TAIL_LIMIT` of them."""
        return self.history.entries

    def confirm(self, block: BFTblock) -> bool:
        """Record a confirmed BFTblock; idempotent per serial number."""
        if block.sn in self._confirmed or block.sn <= self.last_executed:
            return False
        self._confirmed[block.sn] = block
        return True

    def is_confirmed(self, sn: int) -> bool:
        """Whether ``sn`` is confirmed (or already executed)."""
        return sn in self._confirmed or sn <= self.last_executed

    def pending_confirmed(self) -> int:
        """Confirmed blocks not yet executed (waiting on order/datablocks)."""
        return len(self._confirmed)

    def missing_for_execution(self) -> list[bytes]:
        """Datablock digests blocking the next executable position."""
        block = self._confirmed.get(self.last_executed + 1)
        if block is None:
            return []
        return [link for link in block.links if link not in self._pool]

    def execute_ready(self) -> ExecutionResult:
        """Execute the longest ready consecutive prefix.

        Returns executed blocks, the total requests applied, and the spans
        this replica must acknowledge (spans of datablocks it created).
        """
        result = ExecutionResult()
        while True:
            next_sn = self.last_executed + 1
            block = self._confirmed.get(next_sn)
            if block is None:
                break
            datablocks = []
            missing = False
            for link in block.links:
                datablock = self._pool.get(link)
                if datablock is None:
                    missing = True
                    break
                datablocks.append(datablock)
            if missing:
                break
            request_count = sum(db.request_count for db in datablocks)
            entry = ExecutedBlock(
                next_sn, block.digest(), block.links, request_count)
            self.history.append(next_sn, entry.block_digest, request_count)
            self._executed_links[next_sn] = block.links
            result.blocks.append(entry)
            result.executed_requests += request_count
            for datablock in datablocks:
                if datablock.creator == self._replica_id:
                    result.acked_spans.extend(datablock.spans)
            del self._confirmed[next_sn]
        return result

    def install_entries(self, entries) -> int:
        """Install a verified transferred prefix (recovery catch-up).

        Installed positions carry no datablock links — the payload below
        the catch-up target is summarized by the checkpoint, not
        replayed — so they never gate execution or garbage collection.
        Confirmed blocks at or below the new tip are dropped (already
        covered by the transfer).  Returns positions installed.
        """
        installed = self.history.install(entries)
        for sn in [sn for sn in self._confirmed
                   if sn <= self.last_executed]:
            del self._confirmed[sn]
        return installed

    def collect_garbage(self, checkpoint_sn: int) -> list[bytes]:
        """Drop datablocks linked by executed blocks ≤ ``checkpoint_sn``.

        Returns the digests removed (Appendix A, garbage collection after
        a stable checkpoint).
        """
        removed: list[bytes] = []
        stale = [sn for sn in self._executed_links if sn <= checkpoint_sn]
        for sn in stale:
            for link in self._executed_links.pop(sn):
                self._pool.remove(link)
                removed.append(link)
        return removed
