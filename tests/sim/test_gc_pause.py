"""The engine loop runs with the cyclic garbage collector paused.

Each test runs under both ``run_until`` and ``run_until_idle``: the
pause lives in the one loop behind them, and the caller's collector
state comes back however the loop ends.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.sim.events import EventQueue

RUNS = {
    "run_until": lambda queue: queue.run_until(10.0),
    "run_until_idle": lambda queue: queue.run_until_idle(),
}


@pytest.fixture(params=list(RUNS))
def run(request):
    return RUNS[request.param]


def set_collector(enabled: bool) -> None:
    (gc.enable if enabled else gc.disable)()


@pytest.fixture
def collector():
    """Restore the test process's collector state after the test."""
    enabled = gc.isenabled()
    yield
    set_collector(enabled)


class Node:
    """A weak-referenceable object to build a cycle from."""


def test_callback_runs_with_collector_paused(run, collector):
    gc.enable()
    seen = []
    queue = EventQueue()
    queue.schedule(1.0, lambda: seen.append(gc.isenabled()))
    run(queue)
    assert seen == [False]


@pytest.mark.parametrize("enabled", [True, False])
def test_caller_state_restored_on_return(run, collector, enabled):
    set_collector(enabled)
    queue = EventQueue()
    queue.schedule(1.0, lambda: None)
    assert run(queue) == 1
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_caller_state_restored_when_callback_raises(run, collector,
                                                    enabled):
    set_collector(enabled)

    def fail():
        raise RuntimeError("callback failed")

    queue = EventQueue()
    queue.schedule(1.0, fail)
    with pytest.raises(RuntimeError, match="callback failed"):
        run(queue)
    assert gc.isenabled() is enabled


def test_cycle_outlives_churn_in_run_and_is_collected_after(run,
                                                            collector):
    gc.enable()
    refs, alive = [], []

    def build():
        node = Node()
        node.self = node
        refs.append(weakref.ref(node))

    def churn():
        # Ten young-generation thresholds' worth of live containers:
        # a running collector would have found the cycle by now.
        junk = [[] for _ in range(10 * gc.get_threshold()[0])]
        alive.append(refs[0]() is not None and len(junk) > 0)

    queue = EventQueue()
    queue.schedule(1.0, build)
    queue.schedule(2.0, churn)
    run(queue)
    assert alive == [True]
    gc.collect()
    assert refs[0]() is None
