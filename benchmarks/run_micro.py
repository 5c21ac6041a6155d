#!/usr/bin/env python
"""Micro-benchmarks for the coding/hashing data plane, with a regression gate.

Measures encode / decode / digest / merkle throughput across a
(k, n, block-size) grid, comparing the **seed implementation** (row-by-row
scalar loops, pure-Python Gauss--Jordan, uncached digests — reconstructed
here from the still-present scalar APIs) against the **vectorized** path
(fused gather kernels, decode-plan LRU, digest memoization).

Usage::

    PYTHONPATH=src python benchmarks/run_micro.py                # smoke grid
    PYTHONPATH=src python benchmarks/run_micro.py --mode full    # + paper scale
    PYTHONPATH=src python benchmarks/run_micro.py --check        # regression gate
    PYTHONPATH=src python benchmarks/run_micro.py --mode full \
        --output benchmarks/BENCH_micro_coding.json              # new baseline

``--check`` compares the current run against the committed baseline JSON
and exits non-zero if any matching row's vectorized throughput regressed
more than the tolerance (default 20 %); the ``digest`` rows gate on
:data:`DIGEST_SPEEDUP_FLOOR` instead.  Absolute MB/s is machine-dependent;
the committed baseline doubles as the before/after record for this repo's
perf trajectory (the ``speedup`` column is machine-independent-ish).

Gate policy: on the baseline's own host an absolute dip must be
*confirmed* by the speedup column before failing (shared-runner load can
swing absolute MB/s well past 20 % run-to-run; speedup measures both
implementations in one process, so load cancels).  Deliberate tradeoff:
a change that slows the seed-reference and vectorized paths *equally*
(shared helper, numpy config) is waived by this gate — it still prints
the dips with a ``~`` marker, so it is visible, not silent.  On any
other host the gate uses speedup alone.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.crypto import gf256
from repro.crypto.merkle import MerkleTree, _leaf_hash, _node_hash
from repro.crypto.reed_solomon import Chunk, ReedSolomonCode
from repro.messages.leopard import Datablock
from repro.perf import (
    Timer,
    build_report,
    find_regressions,
    load_report,
    select_gate_metric,
    throughput_mbps,
    write_report,
)

DEFAULT_BASELINE = Path(__file__).parent / "BENCH_micro_coding.json"

#: The ``digest`` rows compare a sub-microsecond memoised attribute read
#: against SHA-256: both the MB/s and the ~24x ratio swing past any
#: relative tolerance run to run, so those rows gate on this floor.
DIGEST_SPEEDUP_FLOOR = 2.0

#: (k, n, message_size) grids.  The full grid ends with the paper-scale
#: configuration: f = 100 -> k = f+1 = 101 and ~500 KB datablocks, with n
#: capped at 256 because a GF(256) code has at most 256 distinct shards
#: (``klauspost/reedsolomon`` enforces the identical limit; the paper's
#: n = 301 deployment would need a wider field for one-chunk-per-replica).
SMOKE_GRID = [(3, 10, 64_000), (11, 31, 128_000)]
PAPER_SCALE = (101, 256, 500_000)
FULL_GRID = SMOKE_GRID + [(34, 100, 256_000), PAPER_SCALE]


# ---------------------------------------------------------------------------
# Seed-implementation references (the pre-vectorization hot loops).
# ---------------------------------------------------------------------------


def reference_encode(code: ReedSolomonCode, matrix_rows: list[list[int]],
                     message: bytes) -> list[Chunk]:
    """The seed encoder: one scalar addmul_vector call per matrix cell."""
    framed = len(message).to_bytes(4, "big") + message
    size = code.shard_size(len(framed))
    padded = framed + b"\x00" * (size * code.data_shards - len(framed))
    data = np.frombuffer(padded, dtype=np.uint8).reshape(
        code.data_shards, size)
    chunks = [Chunk(i, data[i].tobytes()) for i in range(code.data_shards)]
    for row_index in range(code.data_shards, code.total_shards):
        row = matrix_rows[row_index]
        acc = np.zeros(size, dtype=np.uint8)
        for col, coeff in enumerate(row):
            gf256.addmul_vector(acc, coeff, data[col])
        chunks.append(Chunk(row_index, acc.tobytes()))
    return chunks


def reference_decode(code: ReedSolomonCode, matrix_rows: list[list[int]],
                     chunks: list[Chunk]) -> bytes:
    """The seed decoder: pure-Python inversion plus scalar row loops."""
    unique: dict[int, Chunk] = {}
    for chunk in chunks:
        unique.setdefault(chunk.index, chunk)
    selected = sorted(unique.values(), key=lambda c: c.index)[
        : code.data_shards]
    size = len(selected[0].data)
    submatrix = [matrix_rows[c.index] for c in selected]
    inverse = gf256.matrix_invert(submatrix)
    rows = [np.frombuffer(c.data, dtype=np.uint8) for c in selected]
    out = np.empty(code.data_shards * size, dtype=np.uint8)
    for i in range(code.data_shards):
        acc = np.zeros(size, dtype=np.uint8)
        for j, coeff in enumerate(inverse[i]):
            gf256.addmul_vector(acc, coeff, rows[j])
        out[i * size: (i + 1) * size] = acc
    framed = out.tobytes()
    length = int.from_bytes(framed[:4], "big")
    return framed[4: 4 + length]


def reference_merkle(leaves: list[bytes]) -> bytes:
    """The seed tree build: per-node helper calls in a Python loop."""
    level = [_leaf_hash(x) for x in leaves]
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(_node_hash(level[i], level[i + 1]))
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        level = nxt
    return level[0]


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------


def _measure(fn, min_seconds: float = 0.2, max_iters: int = 50) -> float:
    """Per-call seconds: repeat ``fn`` until ``min_seconds`` of runtime."""
    iters = 0
    total = 0.0
    while total < min_seconds and iters < max_iters:
        with Timer() as t:
            fn()
        total += t.seconds
        iters += 1
    return total / iters


def _survivors(chunks: list[Chunk], k: int) -> list[Chunk]:
    """A worst-case survivor set: the *last* k chunks (max parity rows)."""
    return chunks[-k:]


def run_grid(grid: list[tuple[int, int, int]],
             min_seconds: float = 0.2) -> list[dict]:
    """Measure all four ops over ``grid``; returns report rows."""
    rng = np.random.default_rng(12345)
    results: list[dict] = []
    for k, n, size in grid:
        message = rng.bytes(size)
        code = ReedSolomonCode(k, n)
        matrix_rows = code._matrix.tolist()
        chunks = code.encode(message)
        survivors = _survivors(chunks, k)
        shard = len(chunks[0].data)

        # -- encode ---------------------------------------------------
        base_s = _measure(
            lambda: reference_encode(code, matrix_rows, message),
            min_seconds)
        vec_s = _measure(lambda: code.encode(message), min_seconds)
        results.append(_row("encode", k, n, size, size, base_s, vec_s))

        # -- decode (repeated survivor set, as retrieval sees it) -----
        base_s = _measure(
            lambda: reference_decode(code, matrix_rows, survivors),
            min_seconds)
        code.decode(survivors)  # warm the decode-plan cache
        vec_s = _measure(lambda: code.decode(survivors), min_seconds)
        results.append(_row("decode", k, n, size, size, base_s, vec_s))

        # -- datablock digest (uncached vs memoized) ------------------
        # One digest() call is sub-microsecond once memoized, so each
        # timing sample covers a 1000-call inner loop to swamp timer
        # overhead.
        block = Datablock(creator=1, counter=1,
                          request_count=size // 128, payload_size=128)
        canonical = len(block.canonical_bytes())
        from repro.crypto.hashing import digest as sha_digest
        inner = 1000

        def digest_uncached():
            for _ in range(inner):
                sha_digest(block.canonical_bytes())

        def digest_memoized():
            for _ in range(inner):
                block.digest()

        base_s = _measure(digest_uncached, min_seconds / 2)
        vec_s = _measure(digest_memoized, min_seconds / 2)
        results.append(
            _row("digest", k, n, size, canonical * inner, base_s, vec_s))

        # -- merkle tree over the chunk set ---------------------------
        leaf_data = [c.data for c in chunks]
        tree_bytes = shard * n
        base_s = _measure(lambda: reference_merkle(leaf_data), min_seconds)
        vec_s = _measure(lambda: MerkleTree(leaf_data).root, min_seconds)
        results.append(
            _row("merkle", k, n, size, tree_bytes, base_s, vec_s))
    return results


def _row(op: str, k: int, n: int, size: int, processed_bytes: int,
         baseline_seconds: float, vectorized_seconds: float) -> dict:
    baseline = throughput_mbps(processed_bytes, baseline_seconds)
    vectorized = throughput_mbps(processed_bytes, vectorized_seconds)
    return {
        "op": op, "k": k, "n": n, "size": size,
        "baseline_mbps": round(baseline, 2),
        "vectorized_mbps": round(vectorized, 2),
        "speedup": round(vectorized / baseline, 2) if baseline else None,
    }


def render_rows(rows: list[dict]) -> str:
    header = (f"{'op':<8} {'k':>4} {'n':>4} {'size':>8} "
              f"{'seed MB/s':>11} {'vector MB/s':>12} {'speedup':>8}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['op']:<8} {row['k']:>4} {row['n']:>4} {row['size']:>8} "
            f"{row['baseline_mbps']:>11.1f} {row['vectorized_mbps']:>12.1f} "
            f"{row['speedup']:>7.1f}x")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=("smoke", "full"), default="smoke")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the report JSON here")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--check", action="store_true",
                        help="fail on >tolerance regression vs the baseline")
    parser.add_argument("--tolerance", type=float, default=0.20)
    parser.add_argument("--min-seconds", type=float, default=0.2,
                        help="minimum sampling time per measurement")
    parser.add_argument("--store", type=Path, default=None,
                        help="also append this run's rows to the "
                             "longitudinal JSONL results store")
    parser.add_argument("--run-label", default=None,
                        help="store-key suffix marking this run as a "
                             "fresh observation (CI passes the workflow "
                             "run id); without it re-runs dedupe")
    args = parser.parse_args(argv)

    grid = FULL_GRID if args.mode == "full" else SMOKE_GRID
    rows = run_grid(grid, min_seconds=args.min_seconds)
    print(render_rows(rows))

    if args.output:
        write_report(args.output, name="micro_coding", mode=args.mode,
                     results=rows)
        print(f"\nwrote {args.output}")

    if args.store:
        from repro.expt.store import ResultsStore

        payload = build_report("micro_coding", args.mode, rows)
        appended = ResultsStore(args.store).ingest_bench_report(
            payload, run_label=args.run_label)
        print(f"\nappended {appended} rows to store {args.store}")

    if args.check:
        if not args.baseline.exists():
            print(f"\nno baseline at {args.baseline}; nothing to check "
                  "(run with --mode full --output to create one)")
            return 1
        baseline = load_report(args.baseline)
        current = {"results": [row for row in rows
                               if row["op"] != "digest"]}
        # Absolute MB/s only compares on the host that recorded the
        # baseline; elsewhere gate on the machine-independent speedup.
        metric, reason = select_gate_metric(baseline)
        regressed = find_regressions(
            baseline, current, metric=metric, tolerance=args.tolerance)
        if regressed and metric == "vectorized_mbps":
            # Same host, but absolute MB/s dips under transient load (CI
            # noise).  Speedup measures both implementations in the same
            # process, so load cancels: a row fails only if *both* its
            # absolute throughput and its speedup regressed.
            by_speedup = find_regressions(
                baseline, current, metric="speedup",
                tolerance=args.tolerance)
            noise = {key: line for key, line in regressed.items()
                     if key not in by_speedup}
            if noise:
                print("\nabsolute-throughput dips NOT confirmed by the "
                      "speedup column (machine noise, not a code "
                      "regression):")
                for line in noise.values():
                    print(f"  ~ {line}")
            regressed = {key: f"{line}  [speedup: {by_speedup[key]}]"
                         for key, line in regressed.items()
                         if key in by_speedup}
        for row in rows:
            if row["op"] == "digest" \
                    and row["speedup"] < DIGEST_SPEEDUP_FLOOR:
                regressed[row["op"], row["k"], row["n"], row["size"]] = (
                    f"digest (k={row['k']}, n={row['n']}, "
                    f"size={row['size']}): speedup {row['speedup']:.1f}x "
                    f"< floor {DIGEST_SPEEDUP_FLOOR:.1f}x")
        if regressed:
            print(f"\nPERF REGRESSIONS (vs committed baseline, "
                  f"metric {metric}; {reason}):")
            for line in regressed.values():
                print(f"  - {line}")
            return 1
        print(f"\nperf gate OK (metric {metric}: {reason}; "
              f"tolerance {args.tolerance:.0%}, "
              f"baseline {args.baseline.name})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
