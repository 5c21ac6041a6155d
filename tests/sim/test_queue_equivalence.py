"""Engine-vs-oracle equivalence: identical event sequences.

The determinism contract (DESIGN.md §5) says execution order is the
global ``(time, sequence)`` order.  The calendar queue must realise it
bit-for-bit — same callbacks, same timestamps, same tiebreaks — on any
workload.  These tests drive randomized scheduling programs and full
Leopard deployments (fault-free, under randomized fault and bandwidth
mixes, and through a mid-run crash and restart) through both the engine
and the minimal binary-heap oracle in ``heap_oracle.py`` and require
exact equality.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.faults import Crash, DelaySend, DropIncoming, Mute
from repro.sim.events import EventQueue

from tests.sim.heap_oracle import HeapQueue


def test_bucket_geometry_validated():
    queue = EventQueue(bucket_width=1e-3, bucket_count=64)
    assert queue.occupancy()["bucket_count"] == 64
    with pytest.raises(ConfigError):
        EventQueue(bucket_width=0.0)
    with pytest.raises(ConfigError):
        EventQueue(bucket_count=1)


def _run_program(queue_class, seed: int) -> tuple[list, dict]:
    """One pseudo-random scheduling program, traced.

    The rng is consumed both while scheduling and *inside callbacks*
    (cascades), so any divergence in execution order immediately
    derails the whole trace — a strict equivalence probe.
    """
    queue = queue_class(bucket_width=0.25, bucket_count=16)
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
            for _ in range(rng.randrange(1, 8)):
                queue.schedule_call(now + rng.random() * 3.0, record,
                                    next(counter))
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
        heap_trace, heap_state = _run_program(HeapQueue, seed)
        cal_trace, cal_state = _run_program(EventQueue, seed)
        assert len(heap_trace) > 100
        assert heap_trace == cal_trace
        assert heap_state == cal_state

    def test_narrow_and_wide_buckets_agree(self):
        # Bucket geometry must never change execution order.
        def run(queue):
            seen = []
            rng = random.Random(99)
            for _ in range(300):
                queue.push(queue.now + rng.random() * 3.0, seen.append,
                           len(seen))
                if rng.random() < 0.3:
                    queue.run_until(queue.now + rng.random())
            queue.run_until_idle()
            return seen

        assert run(HeapQueue()) \
            == run(EventQueue(bucket_width=1e-3, bucket_count=4096)) \
            == run(EventQueue(bucket_width=0.5, bucket_count=8)) \
            == run(EventQueue(bucket_width=10.0, bucket_count=2))


#: Report keys that time the host or describe the queue's internals.
ENGINE_KEYS = ("sim_events_per_sec", "event_queue", "perf")


def _build_on(queue_class, build, **kwargs):
    """``build(**kwargs)`` with the simulation scheduling on
    ``queue_class`` (the queue is constructed at build time)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.sim.runner.EventQueue", queue_class)
        cluster = build(**kwargs)
    assert type(cluster.sim.queue) is queue_class
    return cluster


def _modelled(cluster) -> str:
    """The run report minus :data:`ENGINE_KEYS`, as canonical JSON."""
    report = cluster.report()
    for key in ENGINE_KEYS:
        report.pop(key)
    return json.dumps(report, sort_keys=True)


class TestLeopardSimEquivalence:
    """Whole Leopard deployments must produce byte-identical reports."""

    @staticmethod
    def _cluster(queue_class):
        from repro.harness.cluster import build_leopard_cluster
        from repro.harness.experiments import _leopard_config

        cluster = _build_on(
            queue_class, build_leopard_cluster, n=64, seed=11,
            config=_leopard_config(64), warmup=0.0)
        # Long enough to fill the pipeline and execute: an event-driven
        # Leopard idles through the first second of the n=64 ramp.
        cluster.run(1.5)
        return cluster

    def test_byte_identical_reports(self):
        oracle = self._cluster(HeapQueue)
        engine = self._cluster(EventQueue)
        assert _modelled(oracle) == _modelled(engine)
        # …through a real workload.
        report = engine.report()
        assert report["events_processed"] > 10_000
        assert report["throughput_rps"] > 0
        assert report["event_queue"]["fanout_slabs"] > 0

    @staticmethod
    def _chaos_cluster(queue_class):
        from repro.harness.cluster import build_leopard_cluster
        from repro.net.chaos import load_scenario, schedule_scenario_sim

        cluster = _build_on(queue_class, build_leopard_cluster, n=64,
                            seed=7, warmup=0.0)
        schedule_scenario_sim(cluster, load_scenario(
            "at 0.15 crash victim; at 0.3 restart victim"))
        cluster.run(0.5)
        return cluster

    def test_crash_restart_matches_oracle(self):
        # Arrivals already queued for the victim when the fault lands
        # must be dropped, and its fresh core fed, at the same instants.
        oracle = self._chaos_cluster(HeapQueue)
        engine = self._chaos_cluster(EventQueue)
        assert engine.restarts == 1
        assert _modelled(oracle) == _modelled(engine)


def _quorum_snapshot(cluster) -> list:
    """Per-replica ReadyTracker state, JSON-comparable."""
    snapshot = []
    for replica_id, core in enumerate(cluster.replicas):
        ready = getattr(core, "ready", None)
        if ready is None:
            continue
        snapshot.append([
            replica_id,
            ready.ready_count,
            sorted((digest.hex(), sorted(replicas))
                   for digest, replicas in ready._ready_from.items()),
        ])
    return snapshot


FAULT_KINDS = (None, Crash(at=0.05),
               Mute(msg_classes=frozenset({"ready"})),
               DropIncoming(msg_classes=None),
               DelaySend(delay=0.02))


class TestFaultMixProperty:
    """Hypothesis: engine ≡ oracle under fault and bandwidth mixes."""

    @staticmethod
    def _run(queue_class, seed, faults, bandwidth):
        from repro.harness.cluster import (
            build_leopard_cluster,
            throttle_all_replicas,
        )

        cluster = _build_on(queue_class, build_leopard_cluster, n=8,
                            seed=seed, warmup=0.0, faults=dict(faults))
        if bandwidth is not None:
            throttle_all_replicas(cluster, bandwidth)
        cluster.run(0.25)
        return _modelled(cluster), _quorum_snapshot(cluster)

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**16),
           fault_picks=st.lists(
               st.integers(min_value=0, max_value=len(FAULT_KINDS) - 1),
               min_size=2, max_size=2),
           throttled=st.booleans())
    def test_engine_matches_oracle(self, seed, fault_picks, throttled):
        # Fault replicas 2 and 5: never the leader (0) and never the
        # measurement replica, with n=8 tolerating f=2.
        faults = {replica_id: FAULT_KINDS[pick]
                  for replica_id, pick in zip((2, 5), fault_picks)
                  if FAULT_KINDS[pick] is not None}
        bandwidth = 200e6 if throttled else None
        assert self._run(HeapQueue, seed, faults, bandwidth) \
            == self._run(EventQueue, seed, faults, bandwidth)
