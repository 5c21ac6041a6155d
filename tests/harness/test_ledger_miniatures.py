"""Miniatures of the frozen benchmark's workloads, driven through its own
``workloads.drive``.

``benchmarks/ledger/`` reaches into ``src/`` by name (builders, their
keyword arguments, the live cluster's attributes).  Its own tests drive
two of the six workloads; these drive the other four at n = 4–7, so a
rename or signature change that would break the benchmark fails
``pytest`` instead of a benchmark run.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from benchmarks.ledger import workloads

MINIATURES = {
    "sim-pbft-n64": {"n": 4},
    "sim-leopard-n128": {"n": 7},
    "live-leopard-closed": {"n": 4, "warmup_s": 0.3, "drain_s": 0.5},
    "live-hotstuff-closed": {"n": 4, "warmup_s": 0.3, "drain_s": 0.5},
}


@pytest.mark.parametrize("name", sorted(MINIATURES))
def test_a_miniature_of_each_workload_runs_clean(name):
    mini = dataclasses.replace(workloads.WORKLOADS[name], **MINIATURES[name])
    result = workloads.drive(mini, 3, 1.0, False, spawned_at=time.time())
    assert result["checks"] == []
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert result["metrics"]["goodput_rps"] > 0
