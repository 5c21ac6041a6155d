"""Recovery-subsystem unit tests: ExecutionLog, RecoveryManager, checks.

Drives the sans-io catch-up state machine directly — solicit backoff and
caps, f+1 matching-copy segment verification against a lying peer,
checkpoint-anchored digest cross-checks, gap-triggered re-solicitation —
plus the report-level convergence checker both smoke gates rely on.
"""

from __future__ import annotations

import pytest

from repro.core.recovery import (
    ExecutionLog,
    RecoveryManager,
    _tail_digest,
    check_convergence,
    recovery_section,
)
from repro.crypto.threshold import ThresholdSignature
from repro.interfaces import Broadcast, CancelTimer, Send, SetTimer
from repro.messages.leopard import CheckpointProof
from repro.messages.recovery import (
    LedgerSegment,
    SegmentEntry,
    StateRequest,
    StateSnapshot,
)
from repro.perf.counters import PerfCounters
from repro.protocols import PROTOCOLS, get_protocol


def entry(sn: int) -> SegmentEntry:
    return SegmentEntry(sn, sn.to_bytes(32, "big"), 10)


def segment(lo: int, hi: int) -> LedgerSegment:
    return LedgerSegment(lo, tuple(entry(sn) for sn in range(lo + 1, hi + 1)))


def snapshot(tip: int, checkpoint: CheckpointProof | None = None
             ) -> StateSnapshot:
    return StateSnapshot(tip, bytes(32), checkpoint)


def make_manager(**kwargs) -> tuple[RecoveryManager, ExecutionLog]:
    log = ExecutionLog()
    manager = RecoveryManager(
        0, 4, 1,
        local_tip=lambda: log.last_executed,
        make_snapshot=lambda: StateSnapshot(log.last_executed,
                                            log.state_digest()),
        entries_between=log.entries_between,
        install=log.install,
        **kwargs)
    return manager, log


class TestExecutionLog:
    def test_append_advances_tip_and_digests(self):
        log = ExecutionLog()
        for sn in range(1, 4):
            log.append(sn, entry(sn).digest, 10)
        assert log.last_executed == 3
        assert log.digest_of(2) == entry(2).digest
        assert log.digest_of(99) is None

    def test_install_skips_already_executed(self):
        log = ExecutionLog()
        log.append(1, entry(1).digest, 10)
        log.install([entry(1), entry(2), entry(3)])
        assert log.last_executed == 3
        assert [e.sn for e in log.entries] == [1, 2, 3]

    def test_entries_between_is_half_open(self):
        log = ExecutionLog()
        log.install([entry(sn) for sn in range(1, 11)])
        assert [e.sn for e in log.entries_between(3, 7)] == [4, 5, 6, 7]

    def test_tail_is_sn_hexdigest_pairs(self):
        log = ExecutionLog()
        log.install([entry(1), entry(2)])
        assert log.tail() == [(1, entry(1).digest.hex()),
                              (2, entry(2).digest.hex())]

    def test_trim_bounds_retention(self):
        log = ExecutionLog()
        log.TAIL_LIMIT = 8
        log.install([entry(sn) for sn in range(1, 21)])
        assert len(log.entries) == 8
        assert log.digest_of(12) is None  # trimmed
        assert log.digest_of(13) is not None
        assert log.last_executed == 20

    def test_state_digest_tracks_content(self):
        log_a = ExecutionLog()
        log_b = ExecutionLog()
        log_a.install([entry(1), entry(2)])
        log_b.install([entry(1)])
        assert log_a.state_digest() != log_b.state_digest()
        log_b.install([entry(2)])
        assert log_a.state_digest() == log_b.state_digest()


class TestSolicitation:
    def test_begin_broadcasts_solicitation_with_timer(self):
        manager, _ = make_manager()
        effects = manager.begin(0.0)
        broadcasts = [e for e in effects if isinstance(e, Broadcast)]
        assert broadcasts and broadcasts[0].msg == StateRequest(0, 0)
        assert any(isinstance(e, SetTimer) and e.key == ("rcv", "solicit")
                   for e in effects)
        assert manager.recovering

    def test_solicit_retries_then_fails_round_at_cap(self):
        manager, _ = make_manager(max_solicits=2)
        manager.begin(0.0)
        retry = manager.on_timer(("rcv", "solicit"), 0.5)
        assert any(isinstance(e, Broadcast) for e in retry)
        assert manager.on_timer(("rcv", "solicit"), 1.0) == []
        assert not manager.recovering  # round abandoned at the cap
        assert manager.solicits == 2

    def test_failed_rounds_cap_stops_recovery(self):
        manager, _ = make_manager(max_solicits=1, max_failed_rounds=1)
        manager.begin(0.0)
        manager.on_timer(("rcv", "solicit"), 0.5)  # round 1 fails
        assert manager.begin(1.0) == []
        assert not manager.recovering

    def test_retry_delays_are_jittered_backoff(self):
        manager, _ = make_manager(base_timeout=0.25, backoff=2.0)
        first = manager._delay(1)
        fourth = manager._delay(4)
        assert 0.25 * 0.75 <= first <= 0.25 * 1.25
        assert 0.25 * 8 * 0.75 <= fourth <= 0.25 * 8 * 1.25

    def test_serve_side_answers_even_while_healthy(self):
        manager, log = make_manager()
        log.install([entry(sn) for sn in range(1, 6)])
        reply = manager.on_request(2, StateRequest(0, 0), 1.0)
        assert isinstance(reply[0].msg, StateSnapshot)
        assert reply[0].msg.last_executed == 5
        reply = manager.on_request(2, StateRequest(1, 4), 1.0)
        assert [e.sn for e in reply[0].msg.entries] == [2, 3, 4]


class TestTargetAndFetch:
    def test_target_is_f_plus_1_th_largest_tip(self):
        manager, _ = make_manager()
        manager.begin(0.0)
        assert manager.on_snapshot(1, snapshot(100), 0.1) == []
        effects = manager.on_snapshot(2, snapshot(40), 0.1)
        # f+1-th largest of [100, 40] with f=1 -> 40: at least one
        # honest replica really executed it.
        assert manager._target == 40
        requests = [e.msg for e in effects if isinstance(e, Send)]
        assert all(isinstance(m, StateRequest) for m in requests)
        spans = {(e.key[1], e.key[2]) for e in effects
                 if isinstance(e, SetTimer)}
        assert spans == {(0, 32), (32, 40)}

    def test_snapshot_at_or_below_local_tip_finishes_immediately(self):
        manager, log = make_manager()
        log.install([entry(sn) for sn in range(1, 6)])
        manager.begin(0.0)
        manager.on_snapshot(1, snapshot(5), 0.1)
        manager.on_snapshot(2, snapshot(4), 0.1)
        assert manager.complete
        assert not manager.recovering
        assert manager.installed_entries == 0

    def test_own_snapshot_ignored(self):
        manager, _ = make_manager()
        manager.begin(0.0)
        assert manager.on_snapshot(0, snapshot(50), 0.1) == []
        assert manager.snapshots_received == 0

    def test_window_cap_skips_ancient_history(self):
        manager, _ = make_manager(history_window=16)
        manager.begin(0.0)
        manager.on_snapshot(1, snapshot(1000), 0.1)
        manager.on_snapshot(2, snapshot(1000), 0.1)
        assert manager._start == 1000 - 16
        assert manager.skipped_entries == 1000 - 16


class TestSegmentVerification:
    def fetch_to_target(self, manager, tip=8):
        manager.begin(0.0)
        manager.on_snapshot(1, snapshot(tip), 0.1)
        manager.on_snapshot(2, snapshot(tip), 0.1)

    def test_f_plus_1_matching_copies_install(self):
        manager, log = make_manager(segment_span=8)
        self.fetch_to_target(manager)
        assert manager.on_segment(1, segment(0, 8), 0.2) == []
        effects = manager.on_segment(2, segment(0, 8), 0.3)
        assert any(isinstance(e, CancelTimer) for e in effects)
        assert log.last_executed == 8
        assert manager.complete
        assert manager.installed_entries == 8

    def test_lying_peer_cannot_poison_a_range(self):
        manager, log = make_manager(segment_span=8)
        self.fetch_to_target(manager)
        forged = LedgerSegment(0, tuple(
            SegmentEntry(sn, b"\xee" * 32, 10) for sn in range(1, 9)))
        manager.on_segment(1, forged, 0.2)
        manager.on_segment(2, segment(0, 8), 0.3)
        assert log.last_executed == 0  # one copy each: no f+1 agreement
        manager.on_segment(3, segment(0, 8), 0.4)
        assert log.last_executed == 8  # two honest copies agree
        assert log.digest_of(3) == entry(3).digest  # honest content won

    def test_malformed_segment_discarded(self):
        manager, log = make_manager(segment_span=8)
        self.fetch_to_target(manager)
        truncated = LedgerSegment(0, (entry(1), entry(2)))
        assert manager.on_segment(1, truncated, 0.2) == []
        wrong_range = LedgerSegment(3, tuple(
            entry(sn) for sn in range(4, 12)))
        assert manager.on_segment(1, wrong_range, 0.2) == []
        assert log.last_executed == 0

    def test_segment_retry_rotates_then_fails_at_cap(self):
        manager, _ = make_manager(segment_span=8, max_segment_retries=1)
        self.fetch_to_target(manager)
        retry = manager.on_timer(("rcv", 0, 8), 0.5)
        assert any(isinstance(e, Send) for e in retry)
        assert manager.segment_retries == 1
        assert manager.on_timer(("rcv", 0, 8), 1.0) == []
        assert not manager.recovering


class TestCheckpointAnchor:
    def anchored_manager(self, state_digest: bytes):
        proof = CheckpointProof(8, state_digest, ThresholdSignature(1))
        manager, log = make_manager(
            verify_proof=lambda p: True, history_window=8, segment_span=8)
        manager.begin(0.0)
        manager.on_snapshot(1, snapshot(8, proof), 0.1)
        manager.on_snapshot(2, snapshot(8, proof), 0.1)
        return manager, log

    def test_matching_anchor_digest_installs(self):
        good = _tail_digest([entry(sn) for sn in range(1, 9)], 8)
        manager, log = self.anchored_manager(good)
        manager.on_segment(1, segment(0, 8), 0.2)
        manager.on_segment(2, segment(0, 8), 0.3)
        assert log.last_executed == 8
        assert manager.complete
        assert manager.digest_failures == 0

    def test_anchor_digest_mismatch_restarts_round(self):
        manager, log = self.anchored_manager(b"\xaa" * 32)
        manager.on_segment(1, segment(0, 8), 0.2)
        effects = manager.on_segment(2, segment(0, 8), 0.3)
        assert log.last_executed == 0  # nothing installed
        assert manager.digest_failures == 1
        assert manager.rounds == 2  # refetching from scratch
        assert any(isinstance(e, Broadcast) for e in effects)

    def test_unverifiable_proof_never_anchors(self):
        proof = CheckpointProof(500, b"\xbb" * 32, ThresholdSignature(1))
        manager, _ = make_manager(verify_proof=lambda p: False)
        manager.begin(0.0)
        manager.on_snapshot(1, snapshot(8, proof), 0.1)
        manager.on_snapshot(2, snapshot(8, proof), 0.1)
        assert manager.anchor is None
        assert manager._target == 8  # tips alone, not the forged cert


class TestGapTrigger:
    def test_note_gap_rate_limited(self):
        manager, _ = make_manager(gap_interval=1.0)
        assert manager.note_gap(0.0)  # starts a round
        # Finish it instantly: everyone reports our own tip.
        manager.on_snapshot(1, snapshot(0), 0.1)
        manager.on_snapshot(2, snapshot(0), 0.1)
        assert manager.complete
        assert manager.note_gap(0.5) == []  # inside the rate window
        assert manager.note_gap(2.0)  # past it: re-solicits
        assert manager.rounds == 2

    def test_note_gap_noop_while_recovering(self):
        manager, _ = make_manager()
        manager.begin(0.0)
        assert manager.note_gap(5.0) == []
        assert manager.rounds == 1


class TestReporting:
    @staticmethod
    def summary(rounds):
        return {"rounds": rounds, "complete": bool(rounds),
                "exec_tail": [(1, "aa")], "last_executed": 1}

    def test_clean_run_has_no_recovery_section(self):
        summaries = {i: self.summary(0) for i in range(4)}
        assert recovery_section(summaries) is None

    def test_any_catchup_round_populates_section(self):
        section = recovery_section({0: self.summary(0), 1: self.summary(2)})
        assert section["replicas"]["1"]["rounds"] == 2
        assert set(section["replicas"]) == {"0", "1"}

    def test_durable_activity_alone_populates_section(self):
        section = recovery_section({0: self.summary(0)},
                                   snapshots_persisted=3,
                                   restored_from_disk=[0])
        assert section["snapshots_persisted"] == 3
        assert section["restored_from_disk"] == [0]

    def test_summary_has_all_gate_counters(self):
        manager, _ = make_manager()
        summary = manager.summary()
        for key in ("recovering", "complete", "rounds", "solicits",
                    "segments_fetched", "segment_retries",
                    "installed_entries", "digest_failures", "catchup_s"):
            assert key in summary


def convergence_report(tails: dict[int, list]) -> dict:
    return {"recovery": {"replicas": {
        str(rid): {"rounds": 1, "exec_tail": tail}
        for rid, tail in tails.items()}}}


class TestConvergence:
    def test_matching_tails_converge(self):
        tail = [(sn, entry(sn).digest.hex()) for sn in range(1, 5)]
        report = convergence_report({0: tail, 1: tail, 2: tail, 3: tail})
        ok, detail = check_convergence(report, 3)
        assert ok and "4 overlapping" in detail

    def test_divergent_digest_detected(self):
        tail = [(sn, entry(sn).digest.hex()) for sn in range(1, 5)]
        forked = tail[:-1] + [(4, "ff" * 32)]
        report = convergence_report({0: tail, 1: tail, 2: tail, 3: forked})
        ok, detail = check_convergence(report, 3)
        assert not ok and "divergence at sn 4" in detail

    def test_majority_wins_over_one_bad_peer(self):
        tail = [(sn, entry(sn).digest.hex()) for sn in range(1, 5)]
        forked = [(sn, "ee" * 32) for sn in range(1, 5)]
        report = convergence_report({0: tail, 1: tail, 2: forked, 3: tail})
        ok, _ = check_convergence(report, 3)
        assert ok

    def test_no_overlap_is_a_failure(self):
        mine = [(1, "aa" * 32)]
        theirs = [(50, "bb" * 32)]
        report = convergence_report({0: theirs, 1: theirs, 3: mine})
        ok, detail = check_convergence(report, 3)
        assert not ok and "shares no serial number" in detail

    def test_missing_section_and_replica_fail(self):
        ok, detail = check_convergence({}, 3)
        assert not ok and "no recovery section" in detail
        report = convergence_report({0: [(1, "aa")]})
        ok, detail = check_convergence(report, 3)
        assert not ok and "missing" in detail

    def test_assert_helper_raises_with_detail(self):
        from repro.core.recovery import assert_replica_converged

        with pytest.raises(AssertionError, match="no recovery section"):
            assert_replica_converged({}, 3)


class TestRecoveryHost:
    """The glue every replica core shares, driven through the registry."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_restore_then_summarize(self, protocol):
        spec = get_protocol(protocol)
        config = spec.live_config(4)
        core = spec.make_replica(0, config, spec.make_context(config, 0),
                                 PerfCounters())
        assert core.restore_entries([entry(sn) for sn in range(1, 9)]) == 8
        summary = core.recovery_summary()
        assert summary["last_executed"] == 8
        assert summary["exec_tail"][-1] == (8, entry(8).digest.hex())
        assert summary["rounds"] == 0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_begin_recovery_solicits_on_the_next_start_only(self,
                                                            protocol):
        spec = get_protocol(protocol)
        config = spec.live_config(4)
        core = spec.make_replica(1, config, spec.make_context(config, 0),
                                 PerfCounters())
        core.begin_recovery()
        solicits = [e for e in core.start(0.0) if isinstance(e, Broadcast)
                    and e.msg == StateRequest(0, 0)]
        assert len(solicits) == 1
        assert not any(isinstance(e, Broadcast)
                       and isinstance(e.msg, StateRequest)
                       for e in core.start(1.0))
