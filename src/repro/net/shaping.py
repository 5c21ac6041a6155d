"""In-transport WAN link shaping: per-link rate/latency/loss/partition.

The simulator models the paper's WAN as per-node NICs with a shared
effective bandwidth; the live runtime's localhost sockets are effectively
infinite and flat.  This module closes that gap *inside the transport* —
the "tc/netem or an in-transport token-bucket shaper" the ROADMAP calls
for — without requiring root or kernel qdiscs:

* a :class:`LinkPolicy` describes one directed link's impairments:
  token-bucket rate limit, added base latency plus uniform jitter, and
  probabilistic frame loss;
* a :class:`LinkShaper` holds the mutable policy table keyed
  ``(src, dst)`` plus the current partition.  Every frame of an
  impaired link goes through its
  :class:`repro.net.transport.PeerConnection` drain loop, which consults
  the shaper **per frame** (frames it passes share one socket write; a
  delayed frame is written alone once its delay has passed); an
  unimpaired link's frames skip it.  Policies are hot-swappable at
  runtime, which is what lets chaos scenarios degrade and heal links
  mid-run.

Semantics versus the simulator's NIC model (documented in README):
shaping here is per *directed link* and applied at the sender's drain
loop, so a rate limit delays frames already queued (the sim charges
serialization at the NIC for the same effect); added latency is
pipelined (frames are stamped at enqueue time, so concurrent frames each
wait ~latency rather than accumulating); loss and partition drops happen
after the frame was accounted as sent by the router.  The shaper draws
loss and jitter from one seeded RNG, so a single-threaded replay of the
same scenario is reproducible frame-for-frame.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Seconds between partition re-checks while a link is cut.
PARTITION_POLL = 0.02


@dataclass(frozen=True)
class LinkPolicy:
    """Impairments for one directed link.

    Attributes:
        rate_bps: token-bucket rate limit in bits/second (``None`` =
            unlimited).
        burst_bytes: token-bucket depth — how many bytes may leave
            back-to-back before the rate limit bites.
        latency: base one-way delay added to every frame, seconds.
        jitter: extra uniform-random delay in ``[0, jitter)`` seconds.
        loss: probability in ``[0, 1]`` that a frame is silently dropped.
    """

    rate_bps: float | None = None
    burst_bytes: int = 64 * 1024
    latency: float = 0.0
    jitter: float = 0.0
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_bps is not None and self.rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError("loss must be a probability in [0, 1]")
        if self.latency < 0 or self.jitter < 0:
            raise ValueError("latency/jitter must be non-negative")

    def describe(self) -> dict:
        """Plain-JSON description (scenario shipping, reports)."""
        return {"rate_bps": self.rate_bps, "burst_bytes": self.burst_bytes,
                "latency": self.latency, "jitter": self.jitter,
                "loss": self.loss}


class _TokenBucket:
    """Byte-granular token bucket for one shaped link."""

    __slots__ = ("rate_bytes", "burst", "tokens", "last_refill")

    def __init__(self, rate_bps: float, burst_bytes: int) -> None:
        self.rate_bytes = rate_bps / 8.0
        self.burst = float(burst_bytes)
        self.tokens = float(burst_bytes)
        # Baseline set on first reserve: the bucket adopts whatever
        # monotonic clock its caller passes rather than assuming one.
        self.last_refill: float | None = None

    def reserve(self, nbytes: int, now: float) -> float:
        """Consume ``nbytes`` tokens; return seconds to wait first.

        The bucket may go negative (one oversized frame still leaves,
        late) — the standard token-bucket treatment of frames larger
        than the burst.
        """
        if self.last_refill is not None:
            elapsed = max(0.0, now - self.last_refill)
            self.tokens = min(self.burst,
                              self.tokens + elapsed * self.rate_bytes)
        self.last_refill = now
        self.tokens -= nbytes
        if self.tokens >= 0:
            return 0.0
        return -self.tokens / self.rate_bytes


class LinkShaper:
    """Mutable per-link policy table shared by one deployment's routers.

    One instance serves a whole cluster: every
    :class:`~repro.net.transport.PeerConnection` consults it per frame,
    so a policy swap or partition change takes effect on the very next
    frame of every link.  All methods are event-loop-safe (plain
    attribute mutation, no awaits in the mutators).
    """

    def __init__(self, seed: int = 0) -> None:
        self._policies: dict[tuple[int, int], LinkPolicy] = {}
        self._buckets: dict[tuple[int, int], _TokenBucket] = {}
        self._groups: tuple[frozenset[int], ...] = ()
        self._rng = random.Random(seed)
        # Counters for the report's ``faults.shaping`` section.
        self.frames_shaped = 0
        self.frames_delayed = 0
        self.frames_lost = 0
        self.delay_seconds = 0.0

    # -- policy table --------------------------------------------------

    def set_policy(self, src: int, dst: int, policy: LinkPolicy) -> None:
        """Install (or replace) the policy for the directed link."""
        self._policies[(src, dst)] = policy
        self._buckets.pop((src, dst), None)

    def clear_policy(self, src: int, dst: int) -> None:
        """Remove the directed link's policy (back to unimpaired)."""
        self._policies.pop((src, dst), None)
        self._buckets.pop((src, dst), None)

    def policy(self, src: int, dst: int) -> LinkPolicy | None:
        """The policy currently shaping the directed link, if any."""
        return self._policies.get((src, dst))

    def policies(self) -> dict[tuple[int, int], LinkPolicy]:
        """Snapshot of the installed policies (for reports/tests)."""
        return dict(self._policies)

    # -- partitions ----------------------------------------------------

    def set_partition(self, groups: list[frozenset[int]]) -> None:
        """Cut every link between nodes of different groups.

        Nodes absent from every group are unaffected.  Replaces any
        previous partition.
        """
        self._groups = tuple(frozenset(group) for group in groups)

    def heal(self) -> None:
        """Remove the partition; blocked links resume on the next frame."""
        self._groups = ()

    @property
    def partitioned(self) -> bool:
        """Whether any partition is currently active."""
        return bool(self._groups)

    def blocked(self, src: int, dst: int) -> bool:
        """True when the partition cuts the ``src -> dst`` link."""
        groups = self._groups
        if not groups:
            return False
        src_group = next((g for g in groups if src in g), None)
        if src_group is None:
            return False
        dst_group = next((g for g in groups if dst in g), None)
        return dst_group is not None and dst_group is not src_group

    def impairs(self, src: int, dst: int) -> bool:
        """Whether a policy or the partition applies to the ``src -> dst``
        link; an unimpaired link's frames need no drain loop."""
        return (src, dst) in self._policies or self.blocked(src, dst)

    # -- the per-frame hot path ---------------------------------------

    def frame_delay(self, src: int, dst: int, nbytes: int,
                    enqueued_at: float, now: float) -> float | None:
        """Seconds the drain loop must wait before writing this frame.

        Returns ``None`` when the frame is lost (probabilistic drop):
        the caller discards it without writing.  A return of 0.0 means
        the frame flows unimpaired.  Latency is measured from the
        frame's *enqueue* time, so queue dwell counts toward it
        (pipelined delay, not per-frame serialization); the token bucket
        then adds whatever the rate limit requires on top.
        """
        policy = self._policies.get((src, dst))
        if policy is None:
            return 0.0
        self.frames_shaped += 1
        if policy.loss and self._rng.random() < policy.loss:
            self.frames_lost += 1
            return None
        delay = 0.0
        if policy.latency or policy.jitter:
            release = enqueued_at + policy.latency
            if policy.jitter:
                release += self._rng.random() * policy.jitter
            if release > now:
                delay = release - now
        if policy.rate_bps is not None:
            key = (src, dst)
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = _TokenBucket(
                    policy.rate_bps, policy.burst_bytes)
            wait = bucket.reserve(nbytes, now)
            if wait > delay:
                delay = wait
        if delay > 0:
            self.frames_delayed += 1
            self.delay_seconds += delay
        return delay

    # -- reporting -----------------------------------------------------

    def snapshot(self) -> dict:
        """Counters + current table for the report's ``faults`` section."""
        return {
            "frames_shaped": self.frames_shaped,
            "frames_delayed": self.frames_delayed,
            "frames_lost": self.frames_lost,
            "delay_seconds": self.delay_seconds,
            "active_policies": len(self._policies),
            "partitioned": self.partitioned,
        }
