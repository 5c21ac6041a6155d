"""Modelled numbers pinned: simulator reports against committed files.

Each ``<protocol>-<scenario>.json`` beside this module is the canonical
report of one simulated run at n = 16: 1 s measured after 0.25 s of
warm-up, 2000 req/s in bundles of 100, seed 0, fault-free or under one
of the ``crash-recover``, ``slow-replica`` (``DelaySend``) and
``partition-heal`` (``DropIncoming``) scenarios.  Only
``sim_events_per_sec`` (a wall-clock rate) is stripped.  A change that
moves any modelled number fails here with the changed keys listed.

Integers, strings and the key set must match exactly; floats match to
a relative 1e-9.  The slack is for the interpreter, not the model:
from Python 3.12 ``sum()`` adds floats with compensated summation, so a
mean such as ``latency_s.mean`` can differ in its last bits from the
3.11 recording.  Any change to the modelled run moves values far more.

Rewrite the files with ``make golden`` (runs this module as a
script), and name each rewritten file and the reason in the change
description.
"""

from __future__ import annotations

import gc
import json
import math
import sys
from pathlib import Path

import pytest

from repro.harness.cluster import Cluster
from repro.harness.spec import RunSpec, execute

GOLDEN = Path(__file__).resolve().parent
PROTOCOLS = ("leopard", "pbft", "hotstuff")
SCENARIOS = ("fault-free", "crash-recover", "slow-replica",
             "partition-heal")
#: Wall-clock fields, the only ones that may differ between runs.
UNPINNED = ("sim_events_per_sec",)


def golden_spec(protocol: str, scenario: str) -> RunSpec:
    return RunSpec(protocol=protocol, backend="sim", n=16, rate=2000.0,
                   bundle_size=100, duration=1.0, warmup=0.25, seed=0,
                   scenario=None if scenario == "fault-free" else scenario)


def canonical_report(protocol: str, scenario: str) -> str:
    """The run's report as the committed files hold it."""
    report = execute(golden_spec(protocol, scenario))
    for key in UNPINNED:
        report.pop(key)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


#: Relative tolerance for float leaves (see the module docstring).
REL_TOL = 1e-9


def _leaves(value, path=""):
    """``path -> value`` for every leaf of a decoded report."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def _same(want, got) -> bool:
    if type(want) is not type(got):
        return False
    if isinstance(want, float):
        return (math.isclose(want, got, rel_tol=REL_TOL)
                or (math.isnan(want) and math.isnan(got)))
    return want == got


def changed_keys(expected: str, actual: str) -> list[str]:
    want = dict(_leaves(json.loads(expected)))
    got = dict(_leaves(json.loads(actual)))
    return sorted(key for key in want.keys() | got.keys()
                  if key not in want or key not in got
                  or not _same(want[key], got[key]))


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_report_matches_golden(protocol, scenario):
    expected = (GOLDEN / f"{protocol}-{scenario}.json").read_text()
    actual = canonical_report(protocol, scenario)
    changed = changed_keys(expected, actual)
    assert not changed, (
        f"{protocol}-{scenario}: {len(changed)} modelled values moved: "
        + ", ".join(changed[:40]))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fault_free_run_leaves_no_cyclic_garbage(protocol, monkeypatch):
    """The simulator's run loop pauses the cyclic collector
    (``repro.sim.events``) on the premise that running a cluster makes
    no cyclic garbage.  A cycle put on a hot path fails here instead of
    growing memory during paused runs.  The cluster itself is cyclic, so
    the check runs while it is still alive."""
    found = []
    real_run = Cluster.run

    def checked_run(cluster, duration):
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            events = real_run(cluster, duration)
            found.append(gc.collect())
        finally:
            if enabled:
                gc.enable()
        return events

    monkeypatch.setattr(Cluster, "run", checked_run)
    execute(golden_spec(protocol, "fault-free"))
    assert found == [0]


def test_changed_keys_names_the_leaf():
    before = json.dumps({"a": {"b": [1, 2]}, "c": 1})
    after = json.dumps({"a": {"b": [1, 3]}, "d": 1})
    assert changed_keys(before, after) == ["a.b[1]", "c", "d"]


def test_changed_keys_forgives_only_last_bits_of_floats():
    before = json.dumps({"mean": 0.1 + 0.2, "n": 1, "x": 1.0})
    after = json.dumps({"mean": 0.3, "n": 1.0, "x": 1.000001})
    assert changed_keys(before, after) == ["n", "x"]


def rewrite() -> None:
    """Re-record every golden file from the current code."""
    for protocol in PROTOCOLS:
        for scenario in SCENARIOS:
            path = GOLDEN / f"{protocol}-{scenario}.json"
            path.write_text(canonical_report(protocol, scenario))
            print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    rewrite()
