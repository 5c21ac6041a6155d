"""Trial runner: parallel local execution with resume and retry.

Executes the concrete trials of an expanded
:class:`repro.expt.config.ExperimentConfig`, one
:func:`repro.stats.standard_report` per trial, writing each result to
``<results_dir>/<trial_id>.json`` atomically (temp file + rename, so a
trial killed mid-write never leaves a file that validates).

Semantics the tests pin down:

* **resume** — a trial whose result file already exists *and validates*
  (well-formed JSON, matching trial id and seed) is skipped; deleting
  one file re-runs exactly that trial.  A partial file from a killed
  run, or a corrupt one, fails validation and is re-executed.
* **retry** — a trial that raises is an infrastructure failure
  (localhost port flake, transient OOM): it is retried up to
  ``retries`` more times *with the same seed* (the seed is a function
  of the trial identity, never of the attempt), then reported failed.
* **parallelism** — trials run on a ``ProcessPoolExecutor``
  (``jobs`` workers; ``jobs=0`` runs inline and serial, the
  deterministic path tests and debuggers use).
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path
from typing import Any, Callable

from repro.expt.config import ExperimentConfig, Trial

#: Schema of the per-trial result document (wraps a standard_report).
TRIAL_RESULT_SCHEMA = 1


# ---------------------------------------------------------------------------
# Single-trial execution (runs inside pool workers; must stay picklable)
# ---------------------------------------------------------------------------


def _run_trial(trial: dict[str, Any], scenario) -> dict:
    """One trial in the live topology, on its backend.  Live runs bind
    ephemeral ports, so trials can overlap."""
    from repro.harness.cluster import run_sim
    from repro.net.live import run_live_sync
    from repro.protocols import get_protocol

    spec = get_protocol(trial["protocol"])
    n = trial["n"]
    point = dict(
        protocol=spec.name, n=n,
        duration=trial["warmup"] + trial["duration"],
        config=spec.live_config(n, trial["payload"],
                                trial["datablock_size"]),
        client_count=spec.live_clients(n), total_rate=trial["rate"],
        bundle_size=trial["bundle_size"], seed=trial["seed"],
        warmup=trial["warmup"], scenario=scenario)
    if trial["backend"] == "sim":
        return run_sim(prime=False, **point)
    if trial["backend"] == "live":
        return run_live_sync(**point)
    raise ValueError(f"unknown backend {trial['backend']!r}")


def execute_trial(trial: dict[str, Any]) -> dict[str, Any]:
    """Run one trial and return its result document (not yet on disk)."""
    from repro.perf import host_fingerprint

    scenario = None
    if trial.get("scenario"):
        from repro.net.chaos import load_scenario

        scenario = load_scenario(trial["scenario"])
    started = time.time()
    report = _run_trial(trial, scenario)
    return {
        "schema": TRIAL_RESULT_SCHEMA,
        "kind": "trial_result",
        "experiment": trial["experiment"],
        "trial": dict(trial),
        "host": host_fingerprint(),
        "recorded_at": started,
        "elapsed_s": time.time() - started,
        "report": report,
    }


# ---------------------------------------------------------------------------
# Result files: naming, validation, atomic writes
# ---------------------------------------------------------------------------


def result_path(results_dir: str | Path, trial_id: str) -> Path:
    return Path(results_dir) / f"{trial_id}.json"


def validate_result(path: str | Path, trial: Trial | dict | None = None
                    ) -> dict | None:
    """The result document at ``path`` if it is valid, else ``None``.

    Valid means: parseable JSON, the trial-result envelope, and a report
    carrying the fields the store ingests.  With ``trial`` given, the
    document must also match that trial's id and seed — a config edit
    that reseeds a trial invalidates its stale result instead of
    silently resuming past it.
    """
    target = Path(path)
    try:
        doc = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("kind") != "trial_result" \
            or doc.get("schema") != TRIAL_RESULT_SCHEMA:
        return None
    spec = doc.get("trial")
    report = doc.get("report")
    if not isinstance(spec, dict) or not isinstance(report, dict):
        return None
    if not isinstance(report.get("throughput_rps"), (int, float)) \
            or not isinstance(report.get("schema"), int):
        return None
    if trial is not None:
        expected = trial.to_dict() if isinstance(trial, Trial) else trial
        if spec.get("trial_id") != expected["trial_id"] \
                or spec.get("seed") != expected["seed"]:
            return None
    return doc


def write_result(results_dir: str | Path, doc: dict[str, Any]) -> Path:
    """Atomically persist one result document (temp file + rename)."""
    target = result_path(results_dir, doc["trial"]["trial_id"])
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, target)
    return target


# ---------------------------------------------------------------------------
# The experiment run loop
# ---------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig, results_dir: str | Path,
                   jobs: int | None = None, retries: int = 2,
                   resume: bool = True,
                   execute: Callable[[dict], dict] = execute_trial,
                   progress: Callable[[str], None] | None = None
                   ) -> dict[str, Any]:
    """Execute every trial of ``config``, writing results under
    ``results_dir``; returns a summary dict.

    ``jobs=None`` picks ``min(len(trials), cpu_count)``; ``jobs=0``
    runs inline (serial, no subprocesses — also the path taken when a
    custom ``execute`` is supplied, which cannot cross a process
    boundary).  ``retries`` bounds re-execution of raising trials; the
    retry always reuses the trial's own seed.
    """
    say = progress or (lambda _msg: None)
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()

    pending: list[Trial] = []
    skipped: list[str] = []
    for trial in config.trials:
        if resume and validate_result(
                result_path(results_dir, trial.trial_id), trial):
            skipped.append(trial.trial_id)
        else:
            pending.append(trial)
    if skipped:
        say(f"resume: {len(skipped)}/{len(config.trials)} trials already "
            "have valid results")

    if jobs is None:
        jobs = min(len(pending), os.cpu_count() or 1) if pending else 0
    inline = jobs <= 0 or execute is not execute_trial

    attempts: dict[str, int] = {t.trial_id: 0 for t in pending}
    failed: dict[str, str] = {}
    executed: list[str] = []

    def record(trial: Trial, doc: dict[str, Any]) -> None:
        write_result(results_dir, doc)
        executed.append(trial.trial_id)
        say(f"done {trial.trial_id} "
            f"({doc['report']['throughput_rps']:.0f} req/s, "
            f"attempt {attempts[trial.trial_id]})")

    if inline:
        for trial in pending:
            spec = trial.to_dict()
            for _attempt in range(retries + 1):
                attempts[trial.trial_id] += 1
                try:
                    record(trial, execute(spec))
                    break
                except Exception as exc:  # noqa: BLE001 - infra failures
                    failed[trial.trial_id] = f"{type(exc).__name__}: {exc}"
                    say(f"retry {trial.trial_id}: {exc}")
            else:
                continue
            failed.pop(trial.trial_id, None)
    elif pending:
        by_future: dict[Any, Trial] = {}
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for trial in pending:
                attempts[trial.trial_id] += 1
                by_future[pool.submit(execute_trial, trial.to_dict())] = trial
            while by_future:
                done, _ = wait(by_future, return_when=FIRST_COMPLETED)
                for future in done:
                    trial = by_future.pop(future)
                    try:
                        record(trial, future.result())
                        failed.pop(trial.trial_id, None)
                    except Exception as exc:  # noqa: BLE001
                        failed[trial.trial_id] = \
                            f"{type(exc).__name__}: {exc}"
                        if attempts[trial.trial_id] <= retries:
                            say(f"retry {trial.trial_id} (same seed "
                                f"{trial.seed}): {exc}")
                            attempts[trial.trial_id] += 1
                            by_future[pool.submit(
                                execute_trial, trial.to_dict())] = trial

    return {
        "experiment": config.name,
        "results_dir": str(results_dir),
        "total": len(config.trials),
        "executed": sorted(executed),
        "skipped": sorted(skipped),
        "failed": dict(sorted(failed.items())),
        "attempts": dict(sorted(attempts.items())),
        "elapsed_s": time.time() - started,
    }
