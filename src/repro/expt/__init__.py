"""FuzzBench-style experiment service: declarative trial matrices,
a resumable parallel runner, and a longitudinal results store.

The bench scripts emit one-off, host-fingerprinted JSONs; this package
is the substrate that turns them into a queryable perf trajectory:

* :mod:`repro.expt.config` — declarative experiment configs (YAML/JSON)
  naming a (protocol, n, rate, payload, scenario, backend) trial
  matrix, expanded into concrete trials with deterministic per-trial
  seeds;
* :mod:`repro.expt.runner` — executes trials locally in parallel (one
  :func:`repro.stats.standard_report` per trial), resuming past valid
  results and retrying infrastructure failures with the same seed;
* :mod:`repro.expt.store` — an append-only JSONL store accumulating
  trial reports *and* the committed ``BENCH_micro_coding.json`` /
  ``BENCH_sim_eventloop.json`` / ``CALIBRATION_presets.json``
  artifacts, host fingerprints preserved so cross-host rows are never
  compared on absolute throughput;
* :mod:`repro.expt.stats` — lazily computed statistics over store rows:
  speedups vs named baselines, bootstrap confidence intervals, and
  pairwise rank tests across protocols;
* :mod:`repro.expt.report` — markdown/HTML summary tables and
  throughput/latency-vs-n curves rendered from the store.

Entry points: ``python -m repro.harness.cli expt run|report|ingest``.
"""

from repro.expt.config import (  # noqa: F401
    ExperimentConfig,
    Trial,
    load_config,
    trial_seed,
)
from repro.expt.runner import (  # noqa: F401
    execute_trial,
    run_experiment,
    validate_result,
)
from repro.expt.store import ResultsStore  # noqa: F401
