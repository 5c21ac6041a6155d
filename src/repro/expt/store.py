"""The longitudinal results store: append-only JSONL, deduplicated.

One store file accumulates every measurement this repo produces —
experiment-service trial reports *and* the committed benchmark /
calibration artifacts — as flat rows that stats and report renderers
consume without re-parsing the source documents:

* ``kind="trial"`` — one row per executed trial (the runner's
  ``trial_result`` envelope, flattened to the metrics the analysis
  layer uses; the full report stays in the per-trial result file the
  row's ``source`` names);
* ``kind="bench_row"`` — one row per result row of a
  ``repro.perf.write_report`` artifact (``BENCH_micro_coding.json``,
  ``BENCH_sim_eventloop.json``), the *complete* original row preserved
  under ``row`` so ingestion is lossless;
* ``kind="calibration_preset"`` — one row per (host, protocol) entry
  of ``CALIBRATION_presets.json``.

Every row records the **host fingerprint** of the measuring machine
(when the source carries one); consumers group by host and compare
absolute throughput only within a host — cross-host rows meet only on
machine-independent columns (speedup, ratios).

Rows carry a deterministic ``key``; appending a row whose key is
already present is a no-op, so re-ingesting the same artifact (or
re-running ``expt run`` over an existing results dir) never duplicates.
Longitudinal accumulation comes from the keys of *measurements* being
time-stamped (trial rows key on their execution timestamp; bench
ingestion takes a ``run_label`` — CI passes the workflow run id — so
each weekly run lands as fresh rows next to last week's).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Iterable

STORE_SCHEMA = 1

#: Row kinds the store understands.
KINDS = ("trial", "bench_row", "calibration_preset")


def _trial_metrics(report: dict[str, Any]) -> dict[str, Any]:
    """The analysis-facing scalars of one standard_report."""
    latency = report.get("latency_s") or {}
    executed = report.get("executed_requests") or {}
    committed = executed.get(str(report.get("measure_replica")),
                             executed.get(report.get("measure_replica"), 0))
    return {
        "throughput_rps": report.get("throughput_rps"),
        "latency_mean_s": latency.get("mean"),
        "latency_p50_s": latency.get("p50"),
        "latency_p99_s": latency.get("p99"),
        "acked_bundles": report.get("acked_bundles"),
        "committed_requests": committed,
        "events_processed": report.get("events_processed"),
        "sim_events_per_sec": report.get("sim_events_per_sec"),
        "duration_s": report.get("duration_s"),
    }


class ResultsStore:
    """Append-only JSONL store with key-based deduplication."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    # -- raw row access ----------------------------------------------

    def rows(self, kind: str | None = None, **filters: Any
             ) -> list[dict[str, Any]]:
        """All rows, optionally filtered by kind and exact field values."""
        if not self.path.exists():
            return []
        out: list[dict[str, Any]] = []
        with self.path.open(encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except ValueError:
                    continue      # a torn tail write never poisons reads
                if kind is not None and row.get("kind") != kind:
                    continue
                if any(row.get(field) != wanted
                       for field, wanted in filters.items()):
                    continue
                out.append(row)
        return out

    def keys(self) -> set[str]:
        return {row["key"] for row in self.rows() if "key" in row}

    def hosts(self) -> list[str]:
        """Distinct host fingerprints present in the store."""
        return sorted({row.get("host") for row in self.rows()
                       if row.get("host")})

    def append(self, row: dict[str, Any]) -> bool:
        """Append one row unless its key is already present."""
        return self.append_many([row]) == 1

    def append_many(self, rows: Iterable[dict[str, Any]]) -> int:
        """Append rows, skipping duplicate keys; returns appended count."""
        existing = self.keys()
        appended = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # A run killed mid-write can leave a torn tail line with no
        # newline; writing straight after it would weld the next row
        # onto the torn one and lose both.  Terminate it first.
        needs_newline = False
        if self.path.exists() and self.path.stat().st_size:
            with self.path.open("rb") as tail:
                tail.seek(-1, 2)
                needs_newline = tail.read(1) != b"\n"
        with self.path.open("a", encoding="utf-8") as handle:
            if needs_newline:
                handle.write("\n")
            for row in rows:
                if row.get("kind") not in KINDS:
                    raise ValueError(
                        f"store row needs a kind from {list(KINDS)}, "
                        f"got {row.get('kind')!r}")
                if not row.get("key"):
                    raise ValueError("store row needs a non-empty key")
                if row["key"] in existing:
                    continue
                existing.add(row["key"])
                row.setdefault("store_schema", STORE_SCHEMA)
                handle.write(json.dumps(row, sort_keys=True) + "\n")
                appended += 1
        return appended

    # -- trial results ------------------------------------------------

    def ingest_trial_result(self, doc: dict[str, Any],
                            source: str | None = None) -> bool:
        """Flatten one runner ``trial_result`` document into a row."""
        if doc.get("kind") != "trial_result":
            raise ValueError("not a trial_result document")
        trial = doc["trial"]
        report = doc["report"]
        recorded = doc.get("recorded_at") or time.time()
        host = doc.get("host")
        key = (f"trial:{trial['experiment']}:{trial['trial_id']}"
               f":{host}:{recorded}")
        row = {
            "kind": "trial",
            "key": key,
            "source": source,
            "host": host,
            "recorded_at": recorded,
            "experiment": trial["experiment"],
            "trial_id": trial["trial_id"],
            "protocol": trial["protocol"],
            "backend": trial["backend"],
            "n": trial["n"],
            "rate": trial["rate"],
            "payload": trial["payload"],
            "scenario": trial.get("scenario"),
            "seed": trial["seed"],
            "repeat": trial.get("repeat", 0),
            "report_schema": report.get("schema"),
            "elapsed_s": doc.get("elapsed_s"),
            "metrics": _trial_metrics(report),
        }
        # A result recorded while the simulator had selectable engines
        # names the one it ran on; keep that so the report labels it.
        row.update({field: trial[field]
                    for field in ("queue_backend", "waves")
                    if trial.get(field)})
        return self.append(row)

    def ingest_results_dir(self, results_dir: str | Path) -> int:
        """Ingest every valid trial-result file under ``results_dir``."""
        from repro.expt.runner import validate_result

        count = 0
        for path in sorted(Path(results_dir).glob("*.json")):
            doc = validate_result(path)
            if doc is not None and self.ingest_trial_result(
                    doc, source=str(path)):
                count += 1
        return count

    # -- legacy benchmark / calibration artifacts ---------------------

    def ingest_bench_report(self, source: str | Path | dict[str, Any],
                            run_label: str | None = None) -> int:
        """Ingest a ``repro.perf`` benchmark report losslessly.

        One store row per result row; the original row dict is kept
        verbatim under ``row`` and the artifact's host fingerprint,
        python version and mode ride along.  Without a ``run_label``
        the key is stable per (name, host, mode, row-identity) — the
        committed baselines re-ingest as no-ops; a weekly CI run passes
        its run id as the label to land as fresh longitudinal rows.
        """
        doc, origin = self._load(source)
        name = doc.get("name")
        results = doc.get("results")
        if not name or not isinstance(results, list):
            raise ValueError(
                f"{origin}: not a benchmark report (no name/results)")
        host = doc.get("host")
        label = f":{run_label}" if run_label else ""
        rows = []
        for index, row in enumerate(results):
            identity = ":".join(str(row.get(field))
                                for field in ("op", "k", "n", "size"))
            rows.append({
                "kind": "bench_row",
                "key": f"bench:{name}:{host}:{doc.get('mode')}"
                       f":{identity}:{index}{label}",
                "source": origin,
                "run_label": run_label,
                "host": host,
                "bench": name,
                "mode": doc.get("mode"),
                "python": doc.get("python"),
                "artifact_schema": doc.get("schema"),
                "op": row.get("op"),
                "n": row.get("n"),
                "speedup": row.get("speedup"),
                "row": dict(row),
            })
        return self.append_many(rows)

    def ingest_calibration_presets(self,
                                   source: str | Path | dict[str, Any],
                                   run_label: str | None = None) -> int:
        """Ingest ``CALIBRATION_presets.json`` (host -> protocol -> preset)."""
        doc, origin = self._load(source)
        label = f":{run_label}" if run_label else ""
        rows = []
        for host, protocols in doc.items():
            if not isinstance(protocols, dict):
                raise ValueError(
                    f"{origin}: not a calibration-preset document")
            for protocol, preset in protocols.items():
                rows.append({
                    "kind": "calibration_preset",
                    "key": f"preset:{host}:{protocol}{label}",
                    "source": origin,
                    "run_label": run_label,
                    "host": host,
                    "protocol": protocol,
                    "scale": preset.get("scale"),
                    "points": preset.get("points"),
                    "grid": preset.get("grid"),
                    "preset": dict(preset),
                })
        return self.append_many(rows)

    def ingest_artifact(self, path: str | Path,
                        run_label: str | None = None) -> int:
        """Sniff an artifact's type and ingest it.

        Handles the three committed artifact families: trial-result
        files, ``repro.perf`` benchmark reports, and calibration
        presets.  Raises ``ValueError`` for anything else.
        """
        doc, origin = self._load(path)
        if doc.get("kind") == "trial_result":
            return 1 if self.ingest_trial_result(doc, source=origin) else 0
        if isinstance(doc.get("results"), list) and doc.get("name"):
            return self._ingest_bench(doc, origin, run_label)
        if doc and all(isinstance(v, dict)
                       and all(isinstance(p, dict) and "scale" in p
                               for p in v.values())
                       for v in doc.values()):
            return self._ingest_presets(doc, origin, run_label)
        raise ValueError(f"{origin}: unrecognized artifact type")

    # -- helpers -------------------------------------------------------

    def _ingest_bench(self, doc: dict, origin: str | None,
                      run_label: str | None) -> int:
        loaded = dict(doc)
        loaded["_origin"] = origin
        return self.ingest_bench_report(loaded, run_label=run_label)

    def _ingest_presets(self, doc: dict, origin: str | None,
                        run_label: str | None) -> int:
        loaded = dict(doc)
        loaded["_origin"] = origin
        return self.ingest_calibration_presets(loaded, run_label=run_label)

    @staticmethod
    def _load(source: str | Path | dict[str, Any]
              ) -> tuple[dict[str, Any], str | None]:
        if isinstance(source, dict):
            source = dict(source)
            origin = source.pop("_origin", None)
            return source, origin
        path = Path(source)
        return json.loads(path.read_text(encoding="utf-8")), str(path)
