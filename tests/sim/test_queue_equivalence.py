"""Heap/calendar backend equivalence: identical event sequences.

The determinism contract (DESIGN.md §5) says execution order is the
global ``(time, sequence)`` order.  Both scheduler backends must realise
it bit-for-bit: same callbacks, same timestamps, same tiebreaks, on any
workload.  These tests drive randomized scheduling programs and a full
Leopard deployment through both backends and require exact equality.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import ConfigError
from repro.sim.events import (
    CalendarEventQueue,
    EventQueue,
    HeapEventQueue,
    set_default_backend,
)

BACKENDS = ("heap", "calendar")


class TestFactory:
    def test_backend_selection(self):
        assert isinstance(EventQueue(backend="heap"), HeapEventQueue)
        assert isinstance(EventQueue(backend="calendar"),
                          CalendarEventQueue)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            EventQueue(backend="wheel")

    def test_default_backend_switch(self):
        assert isinstance(EventQueue(), CalendarEventQueue)
        set_default_backend("heap")
        try:
            assert isinstance(EventQueue(), HeapEventQueue)
        finally:
            set_default_backend("calendar")
        with pytest.raises(ConfigError):
            set_default_backend("wheel")

    def test_direct_subclass_construction(self):
        queue = CalendarEventQueue(bucket_width=1e-3, bucket_count=64)
        assert queue.occupancy()["bucket_count"] == 64
        with pytest.raises(ConfigError):
            CalendarEventQueue(bucket_width=0.0)
        with pytest.raises(ConfigError):
            CalendarEventQueue(bucket_count=1)


def _run_program(backend: str, seed: int) -> tuple[list, dict]:
    """One pseudo-random scheduling program, traced.

    The rng is consumed both while scheduling and *inside callbacks*
    (cascades), so any divergence in execution order immediately
    derails the whole trace — a strict equivalence probe.
    """
    queue = EventQueue(backend=backend, bucket_width=0.25,
                       bucket_count=16)
    rng = random.Random(seed)
    trace: list[tuple[float, object]] = []
    counter = iter(range(1_000_000))

    def record(tag):
        trace.append((queue.now, tag))
        roll = rng.random()
        if roll < 0.2:
            # Cascade: reschedule from within a callback, sometimes at
            # the exact current timestamp (tie with pending events).
            delay = 0.0 if roll < 0.05 else rng.random() * 7.0
            queue.push(queue.now + delay, record, next(counter))
        elif roll < 0.25:
            queue.schedule_fanout(
                [queue.now + rng.random() * 9.0 for _ in range(6)],
                record, [next(counter) for _ in range(6)])

    for _ in range(120):
        op = rng.random()
        now = queue.now
        if op < 0.35:
            queue.push(now + rng.random() * 10.0, record, next(counter))
        elif op < 0.5:
            count = rng.randrange(4, 24)
            base = now + rng.random() * 5.0
            # Ramp plus jitter, with deliberate exact ties.
            times = [base + (i // 3) * 0.05 + rng.choice([0.0, 0.013])
                     for i in range(count)]
            queue.schedule_fanout(times, record,
                                  [next(counter) for _ in range(count)])
        elif op < 0.6:
            queue.schedule_many(
                [(now + rng.random() * 3.0, (lambda t=next(counter):
                                             record(t)))
                 for _ in range(rng.randrange(1, 8))])
        elif op < 0.7:
            tag = next(counter)
            queue.schedule(now + rng.random() * 40.0,
                           lambda t=tag: record(t))
        elif op < 0.9:
            queue.run_until(now + rng.random() * 6.0)
        else:
            queue.run_until(now + rng.random() * 2.0,
                            max_events=rng.randrange(1, 20))
    queue.run_until_idle()
    state = {"processed": queue.processed, "pending": queue.pending,
             "now": queue.now, "late_clamped": queue.late_clamped}
    return trace, state


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_identical_traces(self, seed):
        heap_trace, heap_state = _run_program("heap", seed)
        cal_trace, cal_state = _run_program("calendar", seed)
        assert len(heap_trace) > 100
        assert heap_trace == cal_trace
        assert heap_state == cal_state

    def test_narrow_and_wide_buckets_agree(self):
        # Bucket geometry must never change execution order.
        def run(width, count):
            queue = CalendarEventQueue(bucket_width=width,
                                       bucket_count=count)
            seen = []
            rng = random.Random(99)
            for _ in range(300):
                queue.push(queue.now + rng.random() * 3.0, seen.append,
                           len(seen))
                if rng.random() < 0.3:
                    queue.run_until(queue.now + rng.random())
            queue.run_until_idle()
            return seen

        assert run(1e-3, 4096) == run(0.5, 8) == run(10.0, 2)


class TestLeopardSimEquivalence:
    """A full n=64 Leopard run must produce byte-identical reports."""

    #: Report keys that depend on wall-clock, not simulated behaviour.
    WALL_CLOCK_KEYS = ("sim_events_per_sec", "event_queue", "perf")

    @staticmethod
    def _report(backend: str) -> dict:
        from repro.harness.cluster import build_leopard_cluster
        from repro.harness.experiments import _leopard_config

        cluster = build_leopard_cluster(
            n=64, seed=11, config=_leopard_config(64), warmup=0.0,
            queue_backend=backend)
        # Long enough to fill the pipeline and execute: an event-driven
        # Leopard idles through the first second of the n=64 ramp.
        cluster.run(1.5)
        report = cluster.report()
        occupancy = report["event_queue"]
        for key in TestLeopardSimEquivalence.WALL_CLOCK_KEYS:
            report.pop(key)
        return report, occupancy

    def test_byte_identical_reports(self):
        heap_report, heap_occ = self._report("heap")
        cal_report, cal_occ = self._report("calendar")
        assert json.dumps(heap_report, sort_keys=True) \
            == json.dumps(cal_report, sort_keys=True)
        # The engines really did run on different backends…
        assert heap_occ["backend"] == "heap"
        assert cal_occ["backend"] == "calendar"
        # …through a real workload.
        assert heap_report["events_processed"] > 10_000
        assert heap_report["throughput_rps"] > 0
        assert heap_report["throughput_rps"] == cal_report["throughput_rps"]


class TestWaveEquivalence:
    """Wave aggregation must not change *anything* but the event count.

    The wave tier collapses each broadcast wave into one processed
    event, but every arrival still fires at its exact ``(time, seq)``
    with the clock stepped — so a waves-on run of the full n=64 Leopard
    deployment must render a byte-identical report, modulo the engine
    counters that deliberately differ (``events_processed`` shrinks;
    ``event_queue`` gains non-zero wave counters).
    """

    ENGINE_KEYS = TestLeopardSimEquivalence.WALL_CLOCK_KEYS \
        + ("events_processed",)

    @staticmethod
    def _report(waves: bool) -> tuple[dict, dict, int]:
        from repro.harness.cluster import build_leopard_cluster
        from repro.harness.experiments import _leopard_config

        cluster = build_leopard_cluster(
            n=64, seed=11, config=_leopard_config(64), warmup=0.0,
            queue_backend="calendar", waves=waves)
        cluster.run(0.3)
        report = cluster.report()
        occupancy = report["event_queue"]
        processed = report["events_processed"]
        for key in TestWaveEquivalence.ENGINE_KEYS:
            report.pop(key)
        return report, occupancy, processed

    def test_byte_identical_reports_waves_on_vs_off(self):
        scalar_report, scalar_occ, scalar_events = self._report(False)
        wave_report, wave_occ, wave_events = self._report(True)
        assert json.dumps(scalar_report, sort_keys=True) \
            == json.dumps(wave_report, sort_keys=True)
        # The wave run really aggregated…
        assert not scalar_occ["waves"]
        assert wave_occ["waves"]
        assert wave_occ["wave_events"] > 0
        assert wave_occ["wave_receivers"] > wave_occ["wave_events"]
        assert wave_occ["wave_slabs"] > 0
        # …and each drained run counted as one processed event.
        assert wave_events < scalar_events
        assert scalar_events - wave_events \
            == wave_occ["wave_receivers"] - wave_occ["wave_events"]
