"""Micro-benchmark: coding/hashing data-plane throughput (see run_micro).

Unlike the figure/table benchmarks (which reproduce the *paper*), this one
tracks the *implementation*: seed-style scalar loops vs the vectorized
kernels across a (k, n, block-size) grid, for encode / decode / datablock
digest / merkle build.  Set ``REPRO_FULL=1`` to include the paper-scale
configuration (k=101, n=301, ~500 KB datablocks), against which the
acceptance bar is >=5x encode and decode throughput; the smoke grid
asserts a softer floor since tiny codes amortize less.  (n is capped at
256 — the most shards a GF(256) code supports, same as klauspost's
library — so "paper scale" here is k=101, n=256.)

Emits ``benchmarks/BENCH_micro_coding.json`` (the regression baseline for
``make bench-micro``) when run with ``REPRO_WRITE_BASELINE=1``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import run_micro  # noqa: E402


def _mode() -> str:
    return "full" if os.environ.get("REPRO_FULL") else "smoke"


def test_micro_coding(benchmark, capsys):
    mode = _mode()
    grid = run_micro.FULL_GRID if mode == "full" else run_micro.SMOKE_GRID
    rows = benchmark.pedantic(
        lambda: run_micro.run_grid(grid), rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(run_micro.render_rows(rows))
    assert rows, "benchmark produced no rows"

    if os.environ.get("REPRO_WRITE_BASELINE"):
        from repro.perf import write_report
        write_report(run_micro.DEFAULT_BASELINE, name="micro_coding",
                     mode=mode, results=rows)

    by_op = {}
    for row in rows:
        by_op.setdefault(row["op"], []).append(row)
    # The digest cache should win big everywhere; merkle must not regress.
    assert all(r["speedup"] >= run_micro.DIGEST_SPEEDUP_FLOOR
               for r in by_op["digest"])
    assert all(r["speedup"] >= 0.5 for r in by_op["merkle"])
    if mode == "full":
        # Acceptance bar at paper scale: >=5x encode and decode.
        paper = [r for r in rows
                 if (r["k"], r["n"]) == run_micro.PAPER_SCALE[:2]]
        assert paper, "full grid must include the paper-scale config"
        for row in paper:
            if row["op"] in ("encode", "decode"):
                assert row["speedup"] >= 5.0, row
    else:
        # Smoke floor: the vectorized path must never be slower overall.
        for op in ("encode", "decode"):
            speedups = [r["speedup"] for r in by_op[op]]
            assert max(speedups) >= 1.5, (op, speedups)
            assert min(speedups) >= 0.8, (op, speedups)
