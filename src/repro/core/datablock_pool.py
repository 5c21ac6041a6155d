"""Datablock storage: the datablockPool and the leader's readyblockPool.

Algorithm 1 (verification): a datablock from replica ``i`` is accepted only
if no datablock with the same counter has been seen from ``i`` — the
counter-based dedup that doubles as the paper's flooding rate-limit
(footnote 6).

Algorithm 3 (ready): the leader tracks per-datablock Ready quorums and
promotes datablocks with 2f+1 readies to the readyblockPool, the only pool
BFTblocks may link from.
"""

from __future__ import annotations

from collections import defaultdict, deque

from repro.core.watermark import SeenIds
from repro.messages.leopard import Datablock


class DatablockPool:
    """A replica's datablockPool with per-creator counter dedup."""

    def __init__(self) -> None:
        self._by_digest: dict[bytes, Datablock] = {}
        #: creator -> the counters seen from that creator.
        self._seen_counters: defaultdict[int, SeenIds] = defaultdict(SeenIds)
        self.rejected_duplicates = 0

    def __len__(self) -> int:
        return len(self._by_digest)

    def __contains__(self, block_digest: bytes) -> bool:
        return block_digest in self._by_digest

    def get(self, block_digest: bytes) -> Datablock | None:
        """Fetch a stored datablock by digest."""
        return self._by_digest.get(block_digest)

    def add(self, datablock: Datablock) -> bool:
        """Store ``datablock`` if its (creator, counter) is fresh.

        Returns:
            True when accepted; False for counter replays (Algorithm 1,
            line 14) or exact duplicates.
        """
        if not self._seen_counters[datablock.creator].add(datablock.counter):
            # Any counter replay — equivocation or exact-duplicate flood —
            # counts as a rejection (Algorithm 1, line 14).
            self.rejected_duplicates += 1
            return False
        self._by_digest[datablock.digest()] = datablock
        return True

    def add_recovered(self, datablock: Datablock) -> bool:
        """Store a datablock reconstructed via retrieval.

        Recovered blocks bypass counter dedup: the counter was already
        consumed by the (possibly faulty) creator, but the digest proves
        this is the linked block.
        """
        block_digest = datablock.digest()
        if block_digest in self._by_digest:
            return False
        self._by_digest[block_digest] = datablock
        self._seen_counters[datablock.creator].add(datablock.counter)
        return True

    def remove(self, block_digest: bytes) -> None:
        """Garbage-collect one datablock (checkpointing, Appendix A)."""
        self._by_digest.pop(block_digest, None)

    def digests(self) -> list[bytes]:
        """All stored digests (test helper)."""
        return list(self._by_digest)


class ReadyTracker:
    """Leader-side Ready-quorum bookkeeping (Algorithm 3, "Ready").

    A datablock moves to the readyblockPool (the linkable queue) only when
    (a) 2f+1 distinct replicas sent Ready for it and (b) the leader itself
    holds it — the paper's "move m to Lv's readyblockPool" presumes m is in
    the leader's datablockPool.
    """

    def __init__(self, quorum: int) -> None:
        self.quorum = quorum
        #: Readies and holdings of datablocks not yet promoted: a block is
        #: promoted at most once, so both are dropped when it is.
        self._ready_from: dict[bytes, set[int]] = {}
        self._held: set[bytes] = set()
        self._queue: deque[bytes] = deque()
        self._queued: set[bytes] = set()
        self._consumed: set[bytes] = set()
        #: Linked here and dropped at the last stable checkpoint: a Ready
        #: still in flight for one of these is ignored, not recounted.
        self._retired: set[bytes] = set()

    def _promoted(self, block_digest: bytes) -> bool:
        return (block_digest in self._queued
                or block_digest in self._consumed
                or block_digest in self._retired)

    def _maybe_promote(self, block_digest: bytes) -> bool:
        if block_digest not in self._held:
            return False
        if len(self._ready_from.get(block_digest, ())) < self.quorum:
            return False
        self._queue.append(block_digest)
        self._queued.add(block_digest)
        del self._ready_from[block_digest]
        self._held.remove(block_digest)
        return True

    def record_ready(self, block_digest: bytes, replica: int) -> bool:
        """Count one Ready; returns True when the block becomes linkable."""
        if self._promoted(block_digest):
            return False
        self._ready_from.setdefault(block_digest, set()).add(replica)
        return self._maybe_promote(block_digest)

    def mark_held(self, block_digest: bytes) -> bool:
        """Note that the leader's own pool holds this datablock."""
        if self._promoted(block_digest):
            return False
        self._held.add(block_digest)
        return self._maybe_promote(block_digest)

    def forget(self, block_digests) -> None:
        """Drop datablocks a stable checkpoint covers (``block_digests``:
        the links :meth:`repro.core.ledger.Ledger.collect_garbage`
        removed).  Those linked here stay retired until the next call."""
        retired: set[bytes] = set()
        for block_digest in block_digests:
            self._ready_from.pop(block_digest, None)
            self._held.discard(block_digest)
            if block_digest in self._consumed:
                self._consumed.remove(block_digest)
                retired.add(block_digest)
        self._retired = retired

    @property
    def ready_count(self) -> int:
        """Datablocks ready to be linked but not yet consumed."""
        return len(self._queue)

    def take_links(self, max_links: int) -> tuple[bytes, ...]:
        """Pop up to ``max_links`` ready digests for a new BFTblock."""
        links: list[bytes] = []
        while self._queue and len(links) < max_links:
            block_digest = self._queue.popleft()
            self._queued.discard(block_digest)
            self._consumed.add(block_digest)
            links.append(block_digest)
        return tuple(links)

    def requeue(self, links: tuple[bytes, ...]) -> None:
        """Return links to the front of the queue (failed proposal paths)."""
        for block_digest in reversed(links):
            if block_digest in self._consumed:
                self._consumed.discard(block_digest)
                self._queue.appendleft(block_digest)
                self._queued.add(block_digest)

    def ready_replicas(self, block_digest: bytes) -> set[int]:
        """Which replicas acked a datablock not yet promoted
        (test/diagnostic helper)."""
        return set(self._ready_from.get(block_digest, set()))
