"""The repo's benchmark: one command, six workloads, every metric by name.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S \
        --trace 0|1

runs workload ``W`` once in a fresh child process, prints each metric
with its unit and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json`` from an untraced
run; ``--trace 1`` reports the per-layer metrics from a traced one.
Leaving out ``--workload`` runs all six, leaving out ``--trace`` runs
both passes; ``--out FILE`` keeps the set for ``--compare A B``, which
applies each metric's bound and exits non-zero on any regression.  The
exit code is also non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if __package__ in (None, ""):
    # Run as a script: make ``repro`` and this package importable
    # without relying on PYTHONPATH (the driver sets none).
    sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

#: Fresh set-ups timed per untraced run; ``setup_s`` is their median
#: (one process start jitters by more than a change to set-up would).
SETUP_SAMPLES = 3
#: Iterations of the host-noise spin, about 0.5 s on the reference host.
SPIN_ITERATIONS = 1_100_000
#: The children of one measurement share this many seconds; one that
#: overruns is killed (the contract's cap is 180 s for the command).
CHILDREN_TIMEOUT = 160.0


def load_declaration() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def spin_ms() -> float:
    """A fixed amount of pure-Python heap work, timed.

    It runs before and after each traced workload: the work never
    changes, so a change in its time is the host's doing, not the
    repo's.
    """
    started = time.perf_counter()
    heap: list[int] = []
    value = 1
    for index in range(SPIN_ITERATIONS):
        value = (value * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, value)
        if index & 1:
            heapq.heappop(heap)
    return (time.perf_counter() - started) * 1e3


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              deadline: float, *extra: str) -> dict:
    """One fresh interpreter running ``workload``; its JSON result."""
    command = [sys.executable, str(HERE / "run.py"), "--child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(int(trace)),
               "--spawned-at", repr(time.time()), *extra]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()),
                          check=False)
    if done.returncode != 0:
        raise SystemExit(
            f"child for {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def child_main(args: argparse.Namespace) -> int:
    from ledger import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        result = {"setup_s": workloads.time_setup(
            workload, args.seed, args.seconds, args.spawned_at)}
    else:
        result = workloads.drive(workload, args.seed, args.seconds,
                                 bool(args.trace), args.spawned_at,
                                 args.spans)
        result["metrics"] = {name: float(value)
                             for name, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0


def finish(declaration: dict, metrics: dict[str, float], trace: bool
           ) -> dict[str, dict]:
    """``metrics`` as ``name -> {value, unit}`` in declared order.

    Printing a metric the declaration lacks, or lacking one it has,
    is an error: the declaration is the contract later changes are
    held to.
    """
    declared = declaration["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(metrics) != set(units):
        raise SystemExit("metrics printed and metrics declared differ: "
                         f"{sorted(set(metrics) ^ set(units))}")
    unmeasured = [name for name, value in metrics.items()
                  if not math.isfinite(value)]
    if unmeasured:
        raise SystemExit(f"no finite value for {unmeasured}")
    return {name: {"value": metrics[name], "unit": units[name]}
            for name in units}


def measure(declaration: dict, workload: str, seed: int, seconds: float,
            trace: bool, spans: str | None) -> dict:
    """Run the workload in a child and add the parent's own numbers:
    the host-noise spins around a traced run, the median over extra
    fresh set-ups on an untraced one."""
    deadline = time.monotonic() + CHILDREN_TIMEOUT
    if trace:
        before = spin_ms()
        result = run_child(workload, seed, seconds, True, deadline,
                           *(("--spans", spans) if spans else ()))
        result["metrics"].update({"host.spin_before_ms": before,
                                  "host.spin_after_ms": spin_ms()})
    else:
        setups = [run_child(workload, seed, seconds, False, deadline,
                            "--setup-only")["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        result = run_child(workload, seed, seconds, False, deadline)
        result["metrics"]["setup_s"] = statistics.median(
            [result["metrics"]["setup_s"], *setups])
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "correct": not result["checks"], "checks": result["checks"],
        "attempted": result["attempted"], "failed": result["failed"],
        "info": result["info"],
        "metrics": finish(declaration, result["metrics"], trace),
    }


def show(run: dict) -> None:
    print(f"# {run['workload']}  seed={run['seed']} "
          f"seconds={run['seconds']:g} trace={run['trace']}")
    for key, value in run["info"].items():
        print(f"#   {key} = {value}")
    for name, metric in run["metrics"].items():
        print(f"{name:34s} {metric['value']:18.6f} {metric['unit']}")
    for check in run["checks"]:
        print(f"CHECK FAILED: {check}")
    print(f"attempted={run['attempted']} failed={run['failed']} "
          f"correct={run['correct']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="write the set of runs here")
    parser.add_argument("--spans", help="traced pass: dump span records")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args)
    declaration = load_declaration()
    if args.compare:
        from ledger.compare import compare_files

        return compare_files(declaration, *args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print("the program under test (src/repro) is not in this "
              "checkout", file=sys.stderr)
        return 2
    names = [w["name"] for w in declaration["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload; choose from {', '.join(names)}")
    seconds = args.seconds or float(declaration["run_seconds"])
    runs = []
    for name in ([args.workload] if args.workload else names):
        for trace in ((0, 1) if args.trace is None else (args.trace,)):
            run = measure(declaration, name, args.seed, seconds,
                          bool(trace), args.spans)
            show(run)
            runs.append(run)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"runs": runs}, handle, indent=1)
    last = runs[-1]
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": last["metrics"],
    }))
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
