"""Per-replica mempool of pending client requests (paper §IV-A1).

Requests arrive as :class:`repro.messages.client.RequestBundle` spans and
are drained in FIFO order into datablocks.  The mempool tracks request
*counts* per span rather than materialising request objects, which keeps
simulation cost proportional to messages (DESIGN.md §5).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

from repro.core.watermark import SeenIds
from repro.messages.client import RequestBundle
from repro.messages.leopard import BundleSpan


@dataclass
class _PendingSpan:
    client_id: int
    bundle_id: int
    remaining: int
    submitted_at: float


class Mempool:
    """FIFO buffer of pending request spans."""

    def __init__(self) -> None:
        self._spans: deque[_PendingSpan] = deque()
        self._total = 0
        #: client id -> the bundle ids seen from that client.
        self._seen_bundles: defaultdict[int, SeenIds] = defaultdict(SeenIds)
        self.duplicates_rejected = 0

    @property
    def total_requests(self) -> int:
        """Number of pending requests across all spans."""
        return self._total

    def oldest_submission(self) -> float | None:
        """Submission time of the oldest pending span (None when empty)."""
        return self._spans[0].submitted_at if self._spans else None

    def add_bundle(self, bundle: RequestBundle) -> bool:
        """Buffer a client bundle; rejects exact re-submissions.

        Returns:
            True if accepted, False if it was a duplicate (same client and
            bundle id already buffered or packed by this replica).
        """
        if not self._seen_bundles[bundle.client_id].add(bundle.bundle_id):
            self.duplicates_rejected += 1
            return False
        self._spans.append(_PendingSpan(
            bundle.client_id, bundle.bundle_id, bundle.count,
            bundle.submitted_at))
        self._total += bundle.count
        return True

    def take(self, max_requests: int) -> tuple[BundleSpan, ...]:
        """Extract up to ``max_requests`` requests (Algorithm 1, line 5).

        Spans are split when a datablock boundary lands inside a bundle.
        """
        taken: list[BundleSpan] = []
        budget = max_requests
        while budget > 0 and self._spans:
            span = self._spans[0]
            used = span.remaining if span.remaining <= budget else budget
            taken.append(BundleSpan(
                span.client_id, span.bundle_id, used, span.submitted_at))
            span.remaining -= used
            self._total -= used
            budget -= used
            if span.remaining == 0:
                self._spans.popleft()
        return tuple(taken)
