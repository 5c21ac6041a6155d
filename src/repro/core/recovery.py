"""Crash-recovery: checkpoint-anchored state transfer and catch-up.

A rebooted replica must rejoin live agreement instead of silently
shrinking the cluster to n-1 (the restart-amnesia gap: a respawned core
built from ``(protocol, n, node_id, seed)`` starts with an empty ledger
and, for chained protocols, can never re-enter the block chain).  The
:class:`RecoveryManager` is the backend-neutral, sans-io state machine
that closes it:

1. **Solicit.**  Broadcast an empty-range ``StateRequest``; peers answer
   with a ``StateSnapshot`` (their executed tip and, for Leopard, their
   latest threshold-signed ``CheckpointProof`` — paper Algorithm 4).
   Solicitation retries with jittered exponential backoff and a hard
   attempt cap, so an unresponsive cluster degrades instead of spinning.
2. **Anchor.**  With f+1 snapshots, pick the catch-up target: the
   f+1-th largest reported tip (at least one honest replica has executed
   it), raised to the highest *verified* checkpoint certificate when one
   is present — a single valid certificate is unforgeable, so Leopard
   recovery anchors on it directly.
3. **Fetch.**  The executed-prefix window below the target (the
   serve-from-checkpoint cap, :data:`HISTORY_WINDOW` entries — exactly
   the window the ledger state digest covers) splits into ranges fanned
   out across responsive peers; every range must arrive identically from
   f+1 distinct peers before it is trusted (one of them is honest), and
   when the certificate's window is fully covered the reconstructed
   state digest is checked against it.  Unresponsive peers trigger
   per-range retries with backoff, rotating to fresh peers, capped.
4. **Install + replay.**  Verified entries install into the host's
   ledger *without* emitting ``Executed`` (state transfer is not
   execution), and the host replays forward into live agreement —
   buffered blocks, confirmed-but-blocked instances.  Progress gaps
   opened while catching up (the cluster keeps committing) re-solicit
   through the rate-limited :meth:`RecoveryManager.note_gap`.

Every delay draws from a seeded per-replica RNG, so simulated recovery
is deterministic; all traffic flows as ordinary effects, so the
simulator charges recovery bytes to its modelled NICs and the live
transport moves real frames.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import islice
from typing import Callable, Hashable

from repro.interfaces import Broadcast, CancelTimer, Effect, Send, SetTimer
from repro.messages.leopard import CheckpointProof
from repro.messages.recovery import (
    LedgerSegment,
    SegmentEntry,
    StateRequest,
    StateSnapshot,
)

#: Executed-prefix entries a recovering replica installs below its
#: target — the same window :meth:`repro.core.ledger.Ledger.state_digest`
#: hashes, so an installed prefix checkpoints identically to a replayed
#: one.  Doubles as the serve-from-checkpoint cap: older history is
#: never transferred.
HISTORY_WINDOW = 64

#: Entries per fetched ``LedgerSegment`` range.
SEGMENT_SPAN = 32


def _tail_digest(entries: list[SegmentEntry], tip: int) -> bytes:
    """The ledger state-digest convention over transferred entries."""
    from repro.crypto.hashing import combine

    window = entries[-HISTORY_WINDOW:]
    return combine(*[entry.digest for entry in window],
                   tip.to_bytes(8, "big"))


class ExecutionLog:
    """Uniform executed-prefix record, shared by all three cores.

    Recovery needs the per-position digests safety compares across
    replicas; Leopard's :class:`~repro.core.ledger.Ledger` and the
    baselines' scalar cursors both keep them here.  The log retains a
    bounded tail (:data:`TAIL_LIMIT` entries) — enough to serve any
    :data:`HISTORY_WINDOW` catch-up — evicting the oldest entry as each
    new one lands, and supports installing a transferred prefix.
    """

    TAIL_LIMIT = 4096

    def __init__(self) -> None:
        self.last_executed = 0
        self.entries: deque[SegmentEntry] = deque()
        self._digests: dict[int, bytes] = {}

    def append(self, sn: int, digest: bytes, request_count: int) -> None:
        """Record one executed position (called from the execute loop)."""
        self.entries.append(SegmentEntry(sn, digest, request_count))
        self._digests[sn] = digest
        self.last_executed = sn
        while len(self.entries) > self.TAIL_LIMIT:
            del self._digests[self.entries.popleft().sn]

    def install(self, entries: list[SegmentEntry]) -> int:
        """Install a transferred prefix ending above the current tip;
        returns how many positions were new."""
        installed = 0
        for entry in entries:
            if entry.sn > self.last_executed:
                self.append(entry.sn, entry.digest, entry.request_count)
                installed += 1
        return installed

    def digest_of(self, sn: int) -> bytes | None:
        """The recorded digest at ``sn`` (``None`` outside the tail)."""
        return self._digests.get(sn)

    def entries_between(self, start: int, end: int) -> list[SegmentEntry]:
        """Retained entries with ``start < sn <= end``."""
        return [entry for entry in self.entries if start < entry.sn <= end]

    def _last(self, count: int) -> list[SegmentEntry]:
        return list(islice(reversed(self.entries), count))[::-1]

    def tail(self, count: int = 32) -> list[tuple[int, str]]:
        """The last ``count`` positions as ``(sn, digest_hex)`` pairs."""
        return [(entry.sn, entry.digest.hex()) for entry in self._last(count)]

    def state_digest(self) -> bytes:
        """Digest over the retained window (snapshot advertisement and
        Leopard's checkpoint ``H(st)``)."""
        return _tail_digest(self._last(HISTORY_WINDOW), self.last_executed)


class RecoveryManager:
    """One replica's catch-up state machine (and segment server).

    The manager is sans-io: it consumes recovery messages and timer
    firings and returns effects; the host replica supplies ledger access
    through callables (its :class:`ExecutionLog` and its own install).

    Args:
        replica_id: this replica.
        n: cluster size; ``f``: fault bound (quorums are derived).
        local_tip: ``() -> int`` — the host's executed-prefix tip.
        make_snapshot: ``() -> StateSnapshot`` — what this replica
            advertises when solicited.
        entries_between: ``(start, end) -> list[SegmentEntry]`` — serve
            side of segment fetches (may truncate to the retained
            window).
        install: ``(list[SegmentEntry]) -> None`` — install a verified
            transferred prefix into the host ledger.
        verify_proof: optional ``(CheckpointProof) -> bool`` — Leopard's
            threshold-certificate check; ``None`` for the baselines.
        seed: determinism seed for retry jitter.
    """

    def __init__(self, replica_id: int, n: int, f: int, *,
                 local_tip: Callable[[], int],
                 make_snapshot: Callable[[], StateSnapshot],
                 entries_between: Callable[[int, int], list[SegmentEntry]],
                 install: Callable[[list[SegmentEntry]], None],
                 verify_proof: Callable[[CheckpointProof], bool]
                 | None = None,
                 seed: int = 0,
                 history_window: int = HISTORY_WINDOW,
                 segment_span: int = SEGMENT_SPAN,
                 base_timeout: float = 0.25,
                 backoff: float = 1.6,
                 max_solicits: int = 8,
                 max_segment_retries: int = 8,
                 max_failed_rounds: int = 6,
                 gap_interval: float = 1.0) -> None:
        self.replica_id = replica_id
        self.n = n
        self.f = f
        self.local_tip = local_tip
        self.make_snapshot = make_snapshot
        self.entries_between = entries_between
        self.install = install
        self.verify_proof = verify_proof
        self.history_window = history_window
        self.segment_span = segment_span
        self.base_timeout = base_timeout
        self.backoff = backoff
        self.max_solicits = max_solicits
        self.max_segment_retries = max_segment_retries
        self.max_failed_rounds = max_failed_rounds
        self.gap_interval = gap_interval
        self._rng = random.Random(((replica_id + 1) * 0x9E3779B1) ^ seed)

        # -- lifecycle -------------------------------------------------
        self.recovering = False
        self.complete = False
        self.started_at: float | None = None
        self.completed_at: float | None = None
        self.anchor: CheckpointProof | None = None

        # -- cumulative counters (the report's recovery section) -------
        self.rounds = 0
        self.solicits = 0
        self.snapshots_received = 0
        self.segments_fetched = 0
        self.segment_retries = 0
        self.installed_entries = 0
        self.skipped_entries = 0
        self.digest_failures = 0
        self.requests_served = 0
        self.segments_served = 0

        # -- per-round state -------------------------------------------
        self._snapshots: dict[int, StateSnapshot] = {}
        self._target: int | None = None
        self._start: int = 0
        self._solicit_attempt = 0
        self._failed_rounds = 0
        self._pending: dict[tuple[int, int], dict[int, tuple]] = {}
        self._attempts: dict[tuple[int, int], int] = {}
        self._agreed: dict[tuple[int, int], tuple] = {}
        self._by_start: dict[int, tuple[int, int]] = {}
        self._last_gap_at: float | None = None

    # ------------------------------------------------------------------
    # Serve side (always on — peers answer even while healthy)
    # ------------------------------------------------------------------

    def on_request(self, sender: int, msg: StateRequest, now: float
                   ) -> list[Effect]:
        """Answer a peer's solicitation or segment fetch."""
        if msg.start_sn == 0 and msg.end_sn == 0:
            self.requests_served += 1
            return [Send(sender, self.make_snapshot())]
        self.segments_served += 1
        entries = self.entries_between(msg.start_sn, msg.end_sn)
        return [Send(sender, LedgerSegment(msg.start_sn, tuple(entries)))]

    # ------------------------------------------------------------------
    # Recovering side
    # ------------------------------------------------------------------

    def begin(self, now: float) -> list[Effect]:
        """Start (or restart) a catch-up round."""
        if self._failed_rounds >= self.max_failed_rounds:
            self.recovering = False
            return []
        self.recovering = True
        if self.started_at is None:
            self.started_at = now
        self.rounds += 1
        self._snapshots.clear()
        self._pending.clear()
        self._attempts.clear()
        self._agreed.clear()
        self._by_start.clear()
        self._target = None
        self._solicit_attempt = 0
        return self._solicit(now)

    def note_gap(self, now: float) -> list[Effect]:
        """Rate-limited re-solicit when the quorum ran ahead of us."""
        if self.recovering:
            return []
        if self._last_gap_at is not None \
                and now - self._last_gap_at < self.gap_interval:
            return []
        self._last_gap_at = now
        self.complete = False
        return self.begin(now)

    def on_timer(self, key: Hashable, now: float) -> list[Effect]:
        """Retry/backoff timers (keys are ``("rcv", ...)`` tuples)."""
        if not self.recovering:
            return []
        if key == ("rcv", "solicit"):
            if self._target is not None:
                return []
            if self._solicit_attempt >= self.max_solicits:
                return self._fail_round()
            return self._solicit(now)
        if isinstance(key, tuple) and len(key) == 3 and key[0] == "rcv":
            span = (key[1], key[2])
            if span not in self._pending:
                return []
            self._attempts[span] = self._attempts.get(span, 0) + 1
            self.segment_retries += 1
            if self._attempts[span] > self.max_segment_retries:
                return self._fail_round()
            return self._fetch_range(span, self._attempts[span])
        return []

    def on_snapshot(self, sender: int, msg: StateSnapshot, now: float
                    ) -> list[Effect]:
        """Collect a peer snapshot; choose the target at f+1."""
        if not self.recovering or sender == self.replica_id:
            return []
        if sender not in self._snapshots:
            self.snapshots_received += 1
        self._snapshots[sender] = msg
        if self.verify_proof is not None and msg.checkpoint is not None:
            proof = msg.checkpoint
            if (self.anchor is None or proof.sn > self.anchor.sn) \
                    and self.verify_proof(proof):
                self.anchor = proof
        if self._target is not None or len(self._snapshots) < self.f + 1:
            return []
        return self._choose_target(now)

    def on_segment(self, sender: int, msg: LedgerSegment, now: float
                   ) -> list[Effect]:
        """Collect one segment copy; a range needs f+1 identical copies."""
        if not self.recovering or self._target is None:
            return []
        span = self._by_start.get(msg.start_sn)
        if span is None or span not in self._pending:
            return []
        lo, hi = span
        expected = tuple(range(lo + 1, hi + 1))
        if tuple(entry.sn for entry in msg.entries) != expected:
            return []  # truncated or malformed copy: wait for retries
        copies = self._pending[span]
        copies[sender] = msg.entries
        self.segments_fetched += 1
        need = self._copies_needed()
        values: dict[tuple, int] = {}
        for value in copies.values():
            values[value] = values.get(value, 0) + 1
        agreed = next((value for value, count in values.items()
                       if count >= need), None)
        if agreed is None:
            return []
        self._agreed[span] = agreed
        del self._pending[span]
        effects: list[Effect] = [CancelTimer(("rcv", lo, hi))]
        if not self._pending:
            effects.extend(self._install(now))
        return effects

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _copies_needed(self) -> int:
        return min(self.f + 1, max(1, len(self._snapshots)))

    def _delay(self, attempt: int) -> float:
        scale = self.backoff ** max(0, attempt - 1)
        return self.base_timeout * scale * (0.75 + 0.5 * self._rng.random())

    def _solicit(self, now: float) -> list[Effect]:
        self.solicits += 1
        self._solicit_attempt += 1
        return [
            Broadcast(StateRequest(0, 0)),
            SetTimer(("rcv", "solicit"), self._delay(self._solicit_attempt)),
        ]

    def _fail_round(self) -> list[Effect]:
        self._failed_rounds += 1
        self.recovering = False
        self._target = None
        self._pending.clear()
        return []

    def _choose_target(self, now: float) -> list[Effect]:
        tips = sorted((snap.last_executed
                       for snap in self._snapshots.values()), reverse=True)
        target = tips[min(self.f, len(tips) - 1)]
        if self.anchor is not None:
            target = max(target, self.anchor.sn)
        local = self.local_tip()
        effects: list[Effect] = [CancelTimer(("rcv", "solicit"))]
        if target <= local:
            effects.extend(self._finish(now))
            return effects
        self._target = target
        self._start = max(local, target - self.history_window)
        self.skipped_entries += self._start - local
        lo = self._start
        index = 0
        while lo < target:
            hi = min(lo + self.segment_span, target)
            span = (lo, hi)
            self._pending[span] = {}
            self._attempts[span] = 0
            self._by_start[lo] = span
            effects.extend(self._fetch_range(span, 0, salt=index))
            lo = hi
            index += 1
        return effects

    def _fetch_range(self, span: tuple[int, int], attempt: int,
                     salt: int = 0) -> list[Effect]:
        lo, hi = span
        candidates = sorted(sender for sender, snap in self._snapshots.items()
                            if snap.last_executed >= hi)
        if not candidates:
            candidates = sorted(self._snapshots)
        if not candidates:
            return self._fail_round()
        need = self._copies_needed()
        count = min(need + attempt, len(candidates))
        offset = (salt + attempt) % len(candidates)
        chosen = [candidates[(offset + i) % len(candidates)]
                  for i in range(count)]
        effects: list[Effect] = [Send(peer, StateRequest(lo, hi))
                                 for peer in chosen]
        effects.append(SetTimer(("rcv", lo, hi), self._delay(attempt + 1)))
        return effects

    def _install(self, now: float) -> list[Effect]:
        entries = [entry for span in sorted(self._agreed)
                   for entry in self._agreed[span]]
        if self.anchor is not None \
                and not self._anchor_digest_ok(entries):
            self.digest_failures += 1
            return self.begin(now)  # poisoned round: refetch from scratch
        self.install(entries)
        self.installed_entries += len(entries)
        return self._finish(now)

    def _anchor_digest_ok(self, entries: list[SegmentEntry]) -> bool:
        """Cross-check the reconstructed state digest at the anchor.

        Only decidable when the fetched window fully covers the digest
        window at the certificate's serial number; otherwise the
        threshold-verified certificate alone anchors safety.
        """
        anchor = self.anchor
        window = [entry for entry in entries if entry.sn <= anchor.sn]
        if not window or window[-1].sn != anchor.sn:
            return True  # anchor below the transferred window
        if len(window) < self.history_window and window[0].sn != 1:
            return True  # window truncated by the serve cap: undecidable
        return _tail_digest(window, anchor.sn) == anchor.state_digest

    def _finish(self, now: float) -> list[Effect]:
        self.recovering = False
        self.complete = True
        self.completed_at = now
        self._failed_rounds = 0
        self._target = None
        return []

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """Counters for the report's ``recovery`` section."""
        catchup = None
        if self.started_at is not None and self.completed_at is not None:
            catchup = self.completed_at - self.started_at
        return {
            "recovering": self.recovering,
            "complete": self.complete,
            "rounds": self.rounds,
            "solicits": self.solicits,
            "snapshots_received": self.snapshots_received,
            "segments_fetched": self.segments_fetched,
            "segment_retries": self.segment_retries,
            "installed_entries": self.installed_entries,
            "skipped_entries": self.skipped_entries,
            "digest_failures": self.digest_failures,
            "catchup_s": catchup,
        }


#: The messages :meth:`RecoveryHost._on_recovery_msg` handles.  A core
#: tests for them last in its ``on_message`` chain, so the hot path pays
#: nothing for recovery.
RECOVERY_MESSAGES = (StateRequest, StateSnapshot, LedgerSegment)


class RecoveryHost:
    """The crash-recovery glue every replica core shares (a mixin).

    A core calls :meth:`_init_recovery` with its executed-prefix
    :class:`ExecutionLog` (anything with ``last_executed``,
    ``entries_between`` and ``tail``) — sends :data:`RECOVERY_MESSAGES`
    to :meth:`_on_recovery_msg` and ``("rcv", ...)`` timers to
    ``self.recovery``, and ends ``start()`` with
    :meth:`_catch_up_on_start`.  It supplies only what differs:

    * ``_make_snapshot()`` — the ``StateSnapshot`` it advertises;
    * ``_install_recovered(entries)`` — install a verified prefix;
    * ``_on_caught_up(now)`` — what it replays once catch-up completes.
    """

    _recover_on_start = False

    def _init_recovery(self, log, verify_proof=None) -> None:
        self._recovery_log = log
        self.recovery = RecoveryManager(
            self.node_id, self.config.n, self.config.f,
            local_tip=lambda: log.last_executed,
            make_snapshot=self._make_snapshot,
            entries_between=log.entries_between,
            install=self._install_recovered,
            verify_proof=verify_proof)

    def begin_recovery(self) -> None:
        """Arm catch-up: the next ``start()`` solicits state from peers."""
        self._recover_on_start = True

    def _catch_up_on_start(self, now: float) -> list[Effect]:
        if not self._recover_on_start:
            return []
        self._recover_on_start = False
        return self.recovery.begin(now)

    def _on_recovery_msg(self, sender: int, msg, now: float
                         ) -> list[Effect]:
        if isinstance(msg, StateRequest):
            return self.recovery.on_request(sender, msg, now)
        was_complete = self.recovery.complete
        if isinstance(msg, StateSnapshot):
            effects = self.recovery.on_snapshot(sender, msg, now)
        else:
            effects = self.recovery.on_segment(sender, msg, now)
        if self.recovery.complete and not was_complete:
            effects.extend(self._on_caught_up(now))
        return effects

    def restore_entries(self, entries) -> int:
        """Reload a durable snapshot tail (process respawn, pre-boot);
        returns how far the executed tip advanced."""
        before = self._recovery_log.last_executed
        self._install_recovered(entries)
        return self._recovery_log.last_executed - before

    def recovery_summary(self) -> dict:
        """Catch-up counters plus the executed tail (report section)."""
        info = self.recovery.summary()
        info["last_executed"] = self._recovery_log.last_executed
        info["exec_tail"] = self._recovery_log.tail()
        return info


# ---------------------------------------------------------------------------
# Report assembly and convergence checking
# ---------------------------------------------------------------------------


def recovery_section(summaries: dict[int, dict], *,
                     snapshots_persisted: int = 0,
                     restored_from_disk: list[int] | tuple[int, ...] = ()
                     ) -> dict | None:
    """Build the schema-7 ``recovery`` report section.

    ``summaries`` maps replica ids to their cores'
    :meth:`RecoveryHost.recovery_summary` dicts, taken in-process or
    sent home by replica child processes.  ``None`` when no replica ever entered
    recovery and no durable snapshot activity happened — clean runs keep
    a clean report.
    """
    any_recovery = any(info.get("rounds") for info in summaries.values())
    if not (any_recovery or snapshots_persisted or restored_from_disk):
        return None
    return {
        "replicas": {str(replica_id): info
                     for replica_id, info in sorted(summaries.items())},
        "snapshots_persisted": snapshots_persisted,
        "restored_from_disk": sorted(restored_from_disk),
    }


def check_convergence(report: dict, replica_id: int
                      ) -> tuple[bool, str]:
    """Whether ``replica_id``'s executed ledger prefix matches the quorum.

    Reads the report's ``recovery`` section: the replica's ``exec_tail``
    (trailing ``(sn, digest_hex)`` pairs) must agree with the digest a
    majority of the *other* replicas report at every overlapping serial
    number, with at least one overlapping position.  Returns
    ``(ok, detail)``.
    """
    section = report.get("recovery")
    if not section:
        return False, "report has no recovery section"
    replicas = section.get("replicas") or {}
    mine = replicas.get(str(replica_id))
    if mine is None:
        return False, f"replica {replica_id} missing from recovery section"
    tail = mine.get("exec_tail") or []
    if not tail:
        return False, f"replica {replica_id} has an empty executed tail"
    peer_digests: dict[int, dict[str, int]] = {}
    for node, info in replicas.items():
        if node == str(replica_id):
            continue
        for sn, digest in info.get("exec_tail") or []:
            bucket = peer_digests.setdefault(int(sn), {})
            bucket[digest] = bucket.get(digest, 0) + 1
    overlap = 0
    for sn, digest in tail:
        bucket = peer_digests.get(int(sn))
        if not bucket:
            continue
        overlap += 1
        majority = max(bucket, key=bucket.get)
        if digest != majority:
            return False, (f"divergence at sn {sn}: replica {replica_id} "
                           f"has {digest[:12]}, quorum has {majority[:12]}")
    if overlap == 0:
        return False, (f"replica {replica_id}'s tail shares no serial "
                       f"number with any peer tail")
    return True, f"{overlap} overlapping positions agree"


def assert_replica_converged(report: dict, replica_id: int) -> None:
    """Raise ``AssertionError`` unless the replica's prefix converged."""
    ok, detail = check_convergence(report, replica_id)
    if not ok:
        raise AssertionError(
            f"replica {replica_id} did not converge: {detail}")
