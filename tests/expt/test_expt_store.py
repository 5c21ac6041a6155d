"""Results-store tests: dedupe, trial ingestion, legacy back-compat.

The back-compat class ingests the *committed* benchmark and calibration
artifacts and checks nothing is lost — every original row must be
recoverable verbatim from the store, with host fingerprints preserved
so cross-host rows are never compared on absolute throughput.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.expt.runner import write_result
from repro.expt.store import ResultsStore

BENCH_MICRO = Path("benchmarks/BENCH_micro_coding.json")
BENCH_SIM = Path("benchmarks/BENCH_sim_eventloop.json")
PRESETS = Path("benchmarks/CALIBRATION_presets.json")


def trial_doc(trial_id: str = "t1", host: str = "hostA/x",
              recorded_at: float = 100.0, throughput: float = 500.0) -> dict:
    return {
        "schema": 1,
        "kind": "trial_result",
        "experiment": "unit",
        "trial": {"experiment": "unit", "trial_id": trial_id,
                  "protocol": "leopard", "backend": "sim", "n": 4,
                  "rate": 2000.0, "payload": 128, "duration": 0.5,
                  "warmup": 0.1, "bundle_size": 10, "datablock_size": 10,
                  "scenario": None, "repeat": 0, "seed": 7},
        "host": host,
        "recorded_at": recorded_at,
        "elapsed_s": 0.1,
        "report": {"schema": 6, "throughput_rps": throughput,
                   "latency_s": {"mean": 0.01, "p50": 0.008, "p99": 0.03},
                   "acked_bundles": 5},
    }


class TestAppendDedupe:
    def test_append_and_read_back(self, tmp_path):
        store = ResultsStore(tmp_path / "s.jsonl")
        assert store.append({"kind": "trial", "key": "k1", "x": 1})
        rows = store.rows()
        assert len(rows) == 1
        assert rows[0]["x"] == 1

    def test_duplicate_key_is_noop(self, tmp_path):
        store = ResultsStore(tmp_path / "s.jsonl")
        assert store.append({"kind": "trial", "key": "k1"})
        assert not store.append({"kind": "trial", "key": "k1", "x": 2})
        assert len(store.rows()) == 1

    def test_rejects_missing_kind_or_key(self, tmp_path):
        store = ResultsStore(tmp_path / "s.jsonl")
        with pytest.raises(ValueError, match="kind"):
            store.append({"key": "k"})
        with pytest.raises(ValueError, match="key"):
            store.append({"kind": "trial"})

    def test_torn_tail_line_never_poisons_reads(self, tmp_path):
        store = ResultsStore(tmp_path / "s.jsonl")
        store.append({"kind": "trial", "key": "k1"})
        with store.path.open("a") as handle:
            handle.write('{"kind": "trial", "key": "k2", "trunc')
        assert [r["key"] for r in store.rows()] == ["k1"]
        # And appending after the torn line still works.
        assert store.append({"kind": "trial", "key": "k3"})
        assert {r["key"] for r in store.rows()} == {"k1", "k3"}

    def test_filters(self, tmp_path):
        store = ResultsStore(tmp_path / "s.jsonl")
        store.append_many([
            {"kind": "trial", "key": "a", "protocol": "leopard"},
            {"kind": "trial", "key": "b", "protocol": "pbft"},
            {"kind": "bench_row", "key": "c"},
        ])
        assert len(store.rows(kind="trial")) == 2
        assert [r["key"] for r in store.rows(kind="trial",
                                             protocol="pbft")] == ["b"]


class TestTrialIngestion:
    def test_flattens_metrics(self, tmp_path):
        store = ResultsStore(tmp_path / "s.jsonl")
        assert store.ingest_trial_result(trial_doc())
        row = store.rows(kind="trial")[0]
        assert row["protocol"] == "leopard"
        assert row["host"] == "hostA/x"
        assert row["metrics"]["throughput_rps"] == 500.0
        assert row["metrics"]["latency_p50_s"] == 0.008
        assert row["seed"] == 7

    def test_same_execution_deduplicates(self, tmp_path):
        store = ResultsStore(tmp_path / "s.jsonl")
        doc = trial_doc()
        assert store.ingest_trial_result(doc)
        assert not store.ingest_trial_result(doc)
        assert len(store.rows()) == 1

    def test_rerun_at_new_timestamp_accumulates(self, tmp_path):
        # Longitudinal: the same trial re-executed later is a new row.
        store = ResultsStore(tmp_path / "s.jsonl")
        assert store.ingest_trial_result(trial_doc(recorded_at=100.0))
        assert store.ingest_trial_result(trial_doc(recorded_at=200.0))
        assert len(store.rows(kind="trial")) == 2

    def test_ingest_results_dir_skips_invalid(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        write_result(results, trial_doc("good"))
        (results / "bad.json").write_text("{corrupt")
        store = ResultsStore(tmp_path / "s.jsonl")
        assert store.ingest_results_dir(results) == 1
        row = store.rows(kind="trial")[0]
        assert row["trial_id"] == "good"
        assert row["source"].endswith("good.json")


class TestReportSchemaCompat:
    """Satellite: schema-6 rows (pre-recovery) and schema-7 rows
    (recovery + retransmissions sections) must coexist in one store."""

    def schema7_doc(self, trial_id: str = "t7",
                    recorded_at: float = 300.0) -> dict:
        doc = trial_doc(trial_id, recorded_at=recorded_at,
                        throughput=750.0)
        doc["report"]["schema"] = 7
        doc["report"]["retransmissions"] = 3
        doc["report"]["recovery"] = {
            "replicas": {"3": {"rounds": 1, "complete": True,
                               "segments_fetched": 2,
                               "installed_entries": 40}},
            "snapshots_persisted": 12,
            "restored_from_disk": [3],
        }
        return doc

    def test_schema7_report_ingests(self, tmp_path):
        store = ResultsStore(tmp_path / "s.jsonl")
        assert store.ingest_trial_result(self.schema7_doc())
        row = store.rows(kind="trial")[0]
        assert row["report_schema"] == 7
        assert row["metrics"]["throughput_rps"] == 750.0

    def test_mixed_schemas_coexist_with_provenance(self, tmp_path):
        store = ResultsStore(tmp_path / "s.jsonl")
        assert store.ingest_trial_result(trial_doc("t6"))
        assert store.ingest_trial_result(self.schema7_doc("t7"))
        by_schema = {row["report_schema"]: row
                     for row in store.rows(kind="trial")}
        assert set(by_schema) == {6, 7}
        # The longitudinal report layer compares these rows on the same
        # flattened metrics regardless of which schema produced them.
        assert set(by_schema[6]["metrics"]) == set(by_schema[7]["metrics"])

    def test_new_sections_do_not_leak_into_metrics(self, tmp_path):
        store = ResultsStore(tmp_path / "s.jsonl")
        store.ingest_trial_result(self.schema7_doc())
        metrics = store.rows(kind="trial")[0]["metrics"]
        assert "recovery" not in metrics
        assert "retransmissions" not in metrics

    def test_schema6_doc_without_recovery_keys_still_ingests(
            self, tmp_path):
        doc = trial_doc("legacy")
        assert "recovery" not in doc["report"]
        store = ResultsStore(tmp_path / "s.jsonl")
        assert store.ingest_trial_result(doc)
        assert store.rows(kind="trial")[0]["report_schema"] == 6


class TestLegacyBackCompat:
    """The committed artifacts must ingest losslessly."""

    @pytest.mark.parametrize("artifact", [BENCH_MICRO, BENCH_SIM],
                             ids=lambda p: p.stem)
    def test_bench_reports_ingest_losslessly(self, tmp_path, artifact):
        original = json.loads(artifact.read_text())
        store = ResultsStore(tmp_path / "s.jsonl")
        appended = store.ingest_bench_report(artifact)
        rows = store.rows(kind="bench_row", bench=original["name"])
        assert appended == len(rows) == len(original["results"])
        # Every original result row is preserved verbatim under "row".
        assert [r["row"] for r in rows] == original["results"]
        # The artifact's provenance rides along on every row.
        for row in rows:
            assert row["host"] == original["host"]
            assert row["mode"] == original["mode"]
            assert row["python"] == original["python"]
            assert row["source"] == str(artifact)

    def test_presets_ingest_with_host_keys(self, tmp_path):
        original = json.loads(PRESETS.read_text())
        store = ResultsStore(tmp_path / "s.jsonl")
        appended = store.ingest_calibration_presets(PRESETS)
        rows = store.rows(kind="calibration_preset")
        assert appended == len(rows) == sum(
            len(protocols) for protocols in original.values())
        for row in rows:
            assert row["preset"] == original[row["host"]][row["protocol"]]

    def test_reingest_is_idempotent(self, tmp_path):
        store = ResultsStore(tmp_path / "s.jsonl")
        first = store.ingest_bench_report(BENCH_MICRO)
        assert first > 0
        assert store.ingest_bench_report(BENCH_MICRO) == 0
        assert store.ingest_calibration_presets(PRESETS) > 0
        assert store.ingest_calibration_presets(PRESETS) == 0

    def test_run_label_lands_fresh_longitudinal_rows(self, tmp_path):
        # CI passes its run id: the same artifact content appends again
        # as this week's observation instead of deduping away.
        store = ResultsStore(tmp_path / "s.jsonl")
        baseline = store.ingest_bench_report(BENCH_MICRO)
        weekly = store.ingest_bench_report(BENCH_MICRO, run_label="run-42")
        assert weekly == baseline
        assert len(store.rows(kind="bench_row")) == 2 * baseline
        assert len(store.rows(kind="bench_row",
                              run_label="run-42")) == weekly

    def test_hosts_never_merge(self, tmp_path):
        # Rows from different fingerprints stay distinguishable: the
        # report layer groups on "host" and only compares within one.
        store = ResultsStore(tmp_path / "s.jsonl")
        store.ingest_bench_report(BENCH_MICRO)
        store.ingest_trial_result(trial_doc(host="hostB/y"))
        hosts = store.hosts()
        assert len(hosts) >= 2
        assert "hostB/y" in hosts
        for host in hosts:
            for row in store.rows(host=host):
                assert row["host"] == host

    def test_ingest_artifact_sniffs_all_three_families(self, tmp_path):
        store = ResultsStore(tmp_path / "s.jsonl")
        assert store.ingest_artifact(BENCH_MICRO) > 0
        assert store.ingest_artifact(PRESETS) > 0
        results = tmp_path / "results"
        results.mkdir()
        path = write_result(results, trial_doc())
        assert store.ingest_artifact(path) == 1
        kinds = {r["kind"] for r in store.rows()}
        assert kinds == {"bench_row", "calibration_preset", "trial"}

    def test_ingest_artifact_rejects_unknown(self, tmp_path):
        path = tmp_path / "mystery.json"
        path.write_text(json.dumps({"hello": "world"}))
        store = ResultsStore(tmp_path / "s.jsonl")
        with pytest.raises(ValueError, match="unrecognized artifact"):
            store.ingest_artifact(path)
