"""Duplicate detection over per-source sequence numbers.

Clients number their bundles 1, 2, 3, … and replicas number their
datablocks the same way, so the ids a replica has seen from one source
are almost always a contiguous run from 1 plus a few that arrived out of
order.  :class:`SeenIds` stores exactly that — a watermark and the sparse
set above it — and answers membership the way the plain set of every id
ever seen would, in memory that does not grow with run length.
"""

from __future__ import annotations


class SeenIds:
    """The ids seen from one source: all of ``1..low`` plus ``above``."""

    __slots__ = ("low", "above")

    def __init__(self) -> None:
        self.low = 0
        #: Seen ids outside ``1..low`` (out-of-order arrivals, and any id
        #: below 1, which the watermark never covers).
        self.above: set[int] = set()

    def __contains__(self, seen_id: int) -> bool:
        return 0 < seen_id <= self.low or seen_id in self.above

    def add(self, seen_id: int) -> bool:
        """Record ``seen_id``; False if it was already seen."""
        low, above = self.low, self.above
        if seen_id == low + 1:
            # The usual case.  ``low + 1`` is never in ``above``: it would
            # have been absorbed into the run when it was added.
            low = seen_id
            while above and low + 1 in above:
                low += 1
                above.remove(low)
            self.low = low
            return True
        if 0 < seen_id <= low or seen_id in above:
            return False
        above.add(seen_id)
        return True
