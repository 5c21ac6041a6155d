"""``run.py --compare A.json B.json``: is set B worse than set A?

Each file is what ``run.py --out`` wrote.  Every end-to-end metric of
every workload gets one row: the two medians, the change, and a verdict
under the metric's bound from ``BENCHMARK.json``:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — it is not, but the runs of one set spread wider than
  the bound, so "unchanged" cannot be claimed either;
* ``ok`` — within the bound, and the spread (where known) is too.

Three rules the declaration's schema has no room for live here: absolute
floors under the relative bounds of the small metrics, the failed-share
limit, and the exact-match rule for what the simulated clock fixes.
"""

from __future__ import annotations

import json
import statistics

#: A metric may move by this much whatever its relative bound says
#: (10 % of a 0.3 s set-up is below what a process start jitters by).
ABSOLUTE_FLOOR = {"setup_s": 0.2, "peak_rss_mb": 8.0}
#: ``failed / attempted`` may rise by this much, absolute.
FAILED_SHARE_LIMIT = 0.001
#: On ``sim-*`` workloads these are functions of the seed alone: a
#: change that only makes the simulator faster must not move them, so
#: two runs of one seed must agree to the last digit.
EXACT_ON_SIM = ("goodput_rps", "latency_p50_ms", "latency_p99_ms",
                "sim.outage_s", "sim.catchup_s", "sim.deliveries",
                "sim.modelled_bytes_per_req")


def _spread(values: list[float]) -> float | None:
    """Inter-quartile distance (range below four values); None if one."""
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return quartiles[2] - quartiles[0]
    if len(values) >= 2:
        return max(values) - min(values)
    return None


def verdict(before: list[float], after: list[float], better: str,
            bound: float, floor: float = 0.0) -> tuple[str, float, float]:
    """``(status, median before, median after)`` for one metric."""
    a, b = statistics.median(before), statistics.median(after)
    worse_by = b - a if better == "lower" else a - b
    allowed = max(bound * abs(a), floor)
    if worse_by > allowed:
        return "worse", a, b
    spreads = [s for s in (_spread(before), _spread(after))
               if s is not None]
    if spreads and max(spreads) > allowed:
        return "unresolved", a, b
    return "ok", a, b


def _group(runs: list[dict]) -> dict[tuple[str, int], list[dict]]:
    grouped: dict[tuple[str, int], list[dict]] = {}
    for run in runs:
        grouped.setdefault((run["workload"], run["trace"]), []).append(run)
    return grouped


def compare(declaration: dict, set_a: dict, set_b: dict) -> list[tuple]:
    """Rows ``(workload, metric, a, b, status)`` for two sets of runs."""
    rows = []
    runs_a, runs_b = _group(set_a["runs"]), _group(set_b["runs"])
    for workload in (w["name"] for w in declaration["workloads"]):
        before = runs_a.get((workload, 0), [])
        after = runs_b.get((workload, 0), [])
        if before and after:
            for metric in declaration["end_to_end"]:
                name = metric["name"]
                status, a, b = verdict(
                    [r["metrics"][name]["value"] for r in before],
                    [r["metrics"][name]["value"] for r in after],
                    metric["better"], metric["bound"],
                    ABSOLUTE_FLOOR.get(name, 0.0))
                rows.append((workload, name, a, b, status))
            shares = [statistics.median(r["failed"] / r["attempted"]
                                        for r in runs)
                      for runs in (before, after)]
            rows.append((workload, "failed_share", *shares,
                         "worse" if shares[1] - shares[0]
                         > FAILED_SHARE_LIMIT else "ok"))
        if not workload.startswith("sim-"):
            continue
        for trace in (0, 1):
            by_seed = {r["seed"]: r for r in runs_b.get((workload, trace),
                                                        [])}
            for run in runs_a.get((workload, trace), []):
                other = by_seed.get(run["seed"])
                if other is None:
                    continue
                for name in EXACT_ON_SIM:
                    if name not in run["metrics"]:
                        continue
                    a = run["metrics"][name]["value"]
                    b = other["metrics"][name]["value"]
                    rows.append((workload, f"{name} (seed {run['seed']}, "
                                 "exact)", a, b,
                                 "ok" if a == b else "worse"))
    return rows


def compare_files(declaration: dict, path_a: str, path_b: str) -> int:
    """Print the comparison; 1 if any row is ``worse``, else 0."""
    sets = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            sets.append(json.load(handle))
    rows = compare(declaration, *sets)
    for workload, metric, a, b, status in rows:
        change = (b - a) / a * 100.0 if a else 0.0
        print(f"{workload:22s} {metric:44s} {a:16.6f} {b:16.6f} "
              f"{change:+8.2f}%  {status}")
    tally = {status: sum(1 for row in rows if row[4] == status)
             for status in ("ok", "unresolved", "worse")}
    print(f"{tally['ok']} ok, {tally['unresolved']} unresolved, "
          f"{tally['worse']} worse")
    return 1 if tally["worse"] else 0
