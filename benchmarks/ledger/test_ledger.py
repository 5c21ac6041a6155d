"""Self-tests of the benchmark's own machinery (collected by tier-1).

The load generator, the span arithmetic and the comparison rules decide
what every later performance claim is measured with, so they are tested
here rather than trusted; the two miniature runs check that the command
prints exactly the metrics ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.interfaces import Send, SetTimer
from repro.messages.client import Ack

from . import run, workloads
from .client import BenchClient, poisson_schedule
from .compare import compare, verdict
from .spans import Tracer, installed

DECLARATION = run.load_declaration()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def ack(bundle, count, at=0.0):
    return Ack(bundle.client_id, bundle.bundle_id, count,
               bundle.submitted_at, at)


def bundles(effects):
    return [e.msg for e in effects if isinstance(e, Send)]


# -- BenchClient ------------------------------------------------------------


def test_closed_loop_keeps_the_window_full_and_no_fuller():
    client = BenchClient(20, target=3, bundle_size=100, payload_size=128,
                         window=3, stop_at=10.0)
    boot = client.start(0.0)
    assert all(isinstance(e, Send) and e.dest == 3 for e in boot)
    outstanding = bundles(boot)
    assert [b.bundle_id for b in outstanding] == [1, 2, 3]
    now = 0.0
    for _ in range(50):  # the scripted replica acks the oldest bundle
        now += 0.01
        oldest = outstanding.pop(0)
        refill = bundles(client.on_message(3, ack(oldest, 100, now), now))
        assert len(refill) == 1 and client.outstanding == 3
        outstanding += refill
    assert client.acked_requests == 5000


def test_closed_loop_waits_for_the_last_span_of_a_bundle():
    client = BenchClient(20, 3, 100, 128, window=1, stop_at=10.0)
    (bundle,) = bundles(client.start(0.0))
    # A batch boundary split the bundle: 60 requests acked, 40 pending.
    assert client.on_message(3, ack(bundle, 60), 0.1) == []
    assert client.outstanding == 1 and client.acked_at == [None]
    (refill,) = bundles(client.on_message(3, ack(bundle, 40), 0.2))
    assert client.acked_at[0] == 0.2 and refill.bundle_id == 2
    # A duplicate ack of the finished bundle neither refills nor breaks.
    assert client.on_message(3, ack(bundle, 40), 0.3) == []
    assert client.outstanding == 1


def test_closed_loop_stops_submitting_at_stop_at():
    client = BenchClient(20, 3, 100, 128, window=2, stop_at=1.0)
    one, two = bundles(client.start(0.0))
    assert len(client.on_message(3, ack(one, 100), 0.5)) == 1
    assert client.on_message(3, ack(two, 100), 1.0) == []


def test_poisson_schedule_is_a_function_of_the_seed():
    again = poisson_schedule(7, 200.0, 0.05, 5.0)
    assert poisson_schedule(7, 200.0, 0.05, 5.0) == again
    assert poisson_schedule(8, 200.0, 0.05, 5.0) != again
    assert list(again) == sorted(again)
    assert 0.05 < again[0] and again[-1] < 5.0
    assert 0.8 * 990 < len(again) < 1.2 * 990  # 200/s for 4.95 s


def test_paced_latency_is_stamped_from_the_due_time():
    client = BenchClient(20, 3, 100, 128, schedule=(0.10, 0.20, 0.30, 0.9))
    (timer,) = client.start(0.0)
    assert isinstance(timer, SetTimer) and timer.delay == pytest.approx(0.1)
    # The loop stalled: the timer fires at 0.33, three bundles overdue.
    effects = client.on_timer("due", 0.33)
    sent = bundles(effects)
    assert [b.submitted_at for b in sent] == [0.10, 0.20, 0.30]
    assert client.due_at == [0.10, 0.20, 0.30]
    assert client.sent_at == [0.33, 0.33, 0.33]
    # Re-armed against the schedule, not relative to the late firing.
    (rearm,) = [e for e in effects if isinstance(e, SetTimer)]
    assert rearm.delay == pytest.approx(0.9 - 0.33)
    client.on_message(3, ack(sent[0], 100), 0.40)
    assert client.acked_at[0] - client.due_at[0] == pytest.approx(0.30)
    # The schedule's end is the end: no timer after the last bundle.
    assert [type(e) for e in client.on_timer("due", 0.95)] == [Send]


def test_a_client_is_closed_or_paced_not_both_or_neither():
    with pytest.raises(ValueError):
        BenchClient(20, 3, 100, 128)
    with pytest.raises(ValueError):
        BenchClient(20, 3, 100, 128, window=2, schedule=(0.1,))


# -- spans --------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(cost):
        clock.now += cost

    leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.now += 1.0
        leaf(2.0)
        leaf(3.0)

    middle = tracer.wrap("middle", middle, tag=lambda args: ("timer", 7))

    def outer():
        clock.now += 10.0
        middle()
        leaf(5.0)

    tracer.wrap("outer", outer)()
    got = tracer.snapshot()
    assert got["calls"] == {"leaf": 3, "middle": 1, "outer": 1}
    assert got["busy"] == {"leaf": 10.0, "middle": 6.0, "outer": 21.0}
    assert got["self"] == {"leaf": 10.0, "middle": 1.0, "outer": 10.0}
    # Self times tile the root's duration exactly.
    assert sum(got["self"].values()) == got["busy"]["outer"]
    # Spans under the tagged entry point inherit its cause and bundle;
    # the sibling leaf under the untagged root does not.
    causes = [(name, cause, bundle)
              for _, _, name, _, _, cause, bundle in tracer.ring]
    assert causes == [("leaf", "timer", 7), ("leaf", "timer", 7),
                      ("middle", "timer", 7), ("leaf", None, None),
                      ("outer", None, None)]
    # Each record names the span that enclosed it (0 for a root).
    ids = {name: span_id for span_id, _, name, *_ in tracer.ring}
    parents = [(name, parent) for _, parent, name, *_ in tracer.ring]
    assert parents[2:] == [("middle", ids["outer"]),
                           ("leaf", ids["outer"]), ("outer", 0)]
    assert parents[0] == parents[1] == ("leaf", ids["middle"])


def test_a_raising_span_still_closes():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise RuntimeError

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    assert tracer.snapshot()["busy"] == {"boom": 1.0}
    assert tracer._stack == []


def test_installed_patches_are_undone():
    class Layer:
        def entry(self):
            return "real"

    with installed([(Layer, "entry", lambda self: "timed")]):
        assert Layer().entry() == "timed"
    assert Layer().entry() == "real"


# -- the declaration ------------------------------------------------------


def test_every_declared_name_is_well_formed_and_unique():
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in DECLARATION[section]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in DECLARATION["workloads"]] \
        == list(workloads.WORKLOADS)
    assert DECLARATION["paths"] == ["benchmarks/ledger"]


def declared(section):
    return {metric["name"] for metric in DECLARATION[section]}


def finished(result, trace):
    """What ``run.py`` prints for a child's ``result``."""
    metrics = dict(result["metrics"])
    if trace:  # the parent's own numbers
        metrics.update({"host.spin_before_ms": 1.0,
                        "host.spin_after_ms": 1.0})
    return run.finish(DECLARATION, metrics, trace)


@pytest.mark.parametrize("trace", [False, True])
def test_a_live_miniature_prints_exactly_the_declared_metrics(trace):
    mini = dataclasses.replace(
        workloads.WORKLOADS["live-leopard-paced"], n=4, rate=4000.0,
        warmup_s=0.3, drain_s=0.5)
    result = workloads.drive(mini, 3, 1.0, trace, spawned_at=0.0)
    assert result["checks"] == [] and result["failed"] == 0
    assert result["attempted"] > 10
    metrics = finished(result, trace)
    assert set(metrics) == declared(
        "per_layer" if trace else "end_to_end")
    if trace:
        assert metrics["wire.encode.calls"]["value"] > 0
        assert metrics["net.deliver.calls"]["value"] > 0
        assert metrics["sim.events"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("trace", [False, True])
def test_a_sim_miniature_prints_exactly_the_declared_metrics(trace):
    mini = dataclasses.replace(
        workloads.WORKLOADS["sim-leopard-faults"], n=7, rate=6000.0)
    result = workloads.drive(mini, 3, 1.0, trace, spawned_at=0.0)
    assert result["checks"] == [] and result["failed"] == 0
    metrics = finished(result, trace)
    assert set(metrics) == declared(
        "per_layer" if trace else "end_to_end")
    if trace:
        assert metrics["core.view_changes"]["value"] >= 1
        assert metrics["sim.outage_s"]["value"] > 1.0
        assert metrics["sim.catchup_s"]["value"] > 0
        assert metrics["wire.encode.calls"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in metrics.values())


def test_a_declared_metric_that_is_not_printed_is_an_error():
    with pytest.raises(SystemExit):
        run.finish(DECLARATION, {"goodput_rps": 1.0}, False)


def test_a_layer_whose_hook_did_not_attach_fails_the_run():
    tracer = Tracer()
    tracer.wrap("core.on_message", lambda: None)()
    (missing,) = workloads.unattached(
        tracer.snapshot(), ("core.on_message", "wire.encode"))
    assert "wire.encode" in missing


# -- compare ----------------------------------------------------------------


def test_verdict_applies_bound_floor_and_spread():
    assert verdict([100.0], [109.0], "lower", 0.10)[0] == "ok"
    assert verdict([100.0], [111.0], "lower", 0.10)[0] == "worse"
    assert verdict([100.0], [89.0], "higher", 0.10)[0] == "worse"
    assert verdict([100.0], [150.0], "higher", 0.10)[0] == "ok"
    # 0.30 s -> 0.45 s is +50 %, but inside the 0.2 s absolute floor.
    assert verdict([0.30], [0.45], "lower", 0.10, floor=0.2)[0] == "ok"
    assert verdict([0.30], [0.55], "lower", 0.10, floor=0.2)[0] == "worse"
    # Medians agree, but one set's own runs differ by more than the
    # bound: that is "cannot tell", not "unchanged".
    noisy = [80.0, 100.0, 100.0, 125.0]
    assert verdict(noisy, [100.0] * 4, "lower", 0.10)[0] == "unresolved"


def _set(workload, seed, values, failed=0, trace=0):
    return {"workload": workload, "seed": seed, "trace": trace,
            "attempted": 1000, "failed": failed,
            "metrics": {name: {"value": value, "unit": ""}
                        for name, value in values.items()}}


def test_compare_flags_regressions_failures_and_inexact_sim_numbers():
    base = {m["name"]: 100.0 for m in DECLARATION["end_to_end"]}
    a = {"runs": [_set("live-leopard-paced", 1, base),
                  _set("sim-pbft-n64", 1, base)]}
    same = compare(DECLARATION, a, a)
    assert {row[4] for row in same} == {"ok"}
    # 6 end-to-end rows + failed_share each, + 3 exact rows on the sim.
    assert len(same) == 7 + 7 + 3

    slower = dict(base, latency_p50_ms=100.0 + 1e-9)
    b = {"runs": [_set("live-leopard-paced", 1, slower, failed=2),
                  _set("sim-pbft-n64", 1, slower)]}
    worse = {(row[0], row[1]) for row in compare(DECLARATION, a, b)
             if row[4] == "worse"}
    assert worse == {
        ("live-leopard-paced", "failed_share"),
        ("sim-pbft-n64", "latency_p50_ms (seed 1, exact)")}
