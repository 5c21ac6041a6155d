"""Report-layer tests: cross-protocol tables, curves, renderers.

Synthetic store rows exercise the aggregation rules (per-host grouping,
baseline speedups, rank tests); one end-to-end test renders a report
from a store holding both trial rows and the ingested committed
artifacts — the acceptance path `expt report` takes.
"""

from __future__ import annotations

import math

from repro.expt.report import (
    bench_summary,
    cross_protocol_tables,
    render_html,
    render_markdown,
    scaling_curves,
    summarize,
)
from repro.expt.store import ResultsStore


def trial_row(protocol: str, throughput: float, host: str = "hostA",
              n: int = 64, backend: str = "sim", repeat: int = 0,
              recorded_at: float = 1.0) -> dict:
    return {
        "kind": "trial",
        "key": f"trial:unit:{protocol}_{backend}_n{n}_rep{repeat}"
               f":{host}:{recorded_at}",
        "host": host,
        "recorded_at": recorded_at,
        "experiment": "unit",
        "trial_id": f"{protocol}_{backend}_n{n}_rep{repeat}",
        "protocol": protocol,
        "backend": backend,
        "n": n,
        "rate": 2000.0,
        "payload": 128,
        "scenario": None,
        "seed": 1,
        "repeat": repeat,
        "metrics": {"throughput_rps": throughput, "latency_mean_s": 0.01,
                    "latency_p50_s": 0.008, "latency_p99_s": 0.03,
                    "acked_bundles": 5, "committed_requests": 100,
                    "events_processed": 1000, "sim_events_per_sec": 1e5,
                    "duration_s": 1.0},
    }


def samples(protocol: str, values: list[float], **kw) -> list[dict]:
    return [trial_row(protocol, v, repeat=i, **kw)
            for i, v in enumerate(values)]


class TestCrossProtocolTables:
    def test_speedup_and_rank_vs_baseline(self):
        rows = samples("leopard", [200.0, 210.0, 190.0]) \
            + samples("pbft", [100.0, 105.0, 95.0])
        (table,) = cross_protocol_tables(rows, baseline="pbft")
        leopard = table["protocols"]["leopard"]
        assert abs(leopard["speedup"] - 2.0) < 0.01
        assert leopard["rank_p"] < 0.2
        assert leopard["count"] == 3
        lo, hi = leopard["ci_rps"]
        assert lo <= leopard["mean_rps"] <= hi
        # The baseline never gets a speedup against itself.
        assert table["protocols"]["pbft"]["speedup"] is None

    def test_cross_host_rows_never_compared(self):
        # Same shape measured on two hosts: two separate tables, and
        # the speedup never mixes hosts (hostB has no pbft baseline).
        rows = samples("leopard", [200.0], host="hostB") \
            + samples("pbft", [100.0], host="hostA")
        tables = cross_protocol_tables(rows, baseline="pbft")
        assert len(tables) == 2
        by_host = {t["host"]: t for t in tables}
        assert by_host["hostB"]["protocols"]["leopard"]["speedup"] is None
        assert by_host["hostB"]["protocols"]["leopard"]["rank_p"] is None

    def test_distinct_shapes_make_distinct_tables(self):
        rows = samples("leopard", [200.0], n=64) \
            + samples("leopard", [150.0], n=150)
        tables = cross_protocol_tables(rows)
        assert len(tables) == 2
        assert {t["shape"]["n"] for t in tables} == {64, 150}


    def test_pre_collapse_rows_group_and_label(self, tmp_path):
        # A weekly store keeps rows written while the simulator had
        # selectable engines: default rows carry explicit null/false
        # engine fields, wave-tier rows name their engine.  Rows written
        # since carry neither field and join the old default shape.
        store = ResultsStore(tmp_path / "s.jsonl")
        old_default, new = samples("leopard", [200.0, 210.0], n=300)
        old_default.update(queue_backend=None, waves=False)
        store.append_many([old_default, new])
        # An old wave-tier result file ingested today keeps its label.
        store.ingest_trial_result({
            "kind": "trial_result", "host": "hostA", "recorded_at": 2.0,
            "trial": {"experiment": "unit", "trial_id": "waves-row",
                      "protocol": "leopard", "backend": "sim", "n": 300,
                      "rate": 2000.0, "payload": 128, "scenario": None,
                      "queue_backend": "calendar", "waves": True,
                      "repeat": 0, "seed": 1},
            "report": {"schema": 6, "throughput_rps": 205.0,
                       "latency_s": {"p50": 0.008}}})
        default, waves = cross_protocol_tables(store.rows(kind="trial"))
        assert default["protocols"]["leopard"]["count"] == 2
        assert default["label"] == "sim n=300 rate=2000 payload=128B"
        assert waves["protocols"]["leopard"]["count"] == 1
        assert waves["label"].endswith("queue=calendar waves")


class TestScalingCurves:
    def test_points_sorted_by_n_and_averaged(self):
        rows = samples("leopard", [200.0, 220.0], n=64) \
            + samples("leopard", [150.0], n=150) \
            + samples("leopard", [90.0], n=300)
        (curve,) = scaling_curves(rows)
        assert [p["n"] for p in curve["points"]] == [64, 150, 300]
        assert curve["points"][0]["mean_rps"] == 210.0
        assert curve["points"][0]["count"] == 2

    def test_hosts_get_separate_curves(self):
        rows = samples("leopard", [200.0], n=64, host="hostA") \
            + samples("leopard", [150.0], n=64, host="hostB")
        assert len(scaling_curves(rows)) == 2


class TestBenchSummary:
    def test_geomean_on_speedup_column(self):
        rows = [{"kind": "bench_row", "key": f"b{i}", "bench": "micro",
                 "host": "hostA", "mode": "smoke", "op": "encode",
                 "speedup": s, "row": {}}
                for i, s in enumerate([2.0, 8.0])]
        (entry,) = bench_summary(rows)
        assert entry["speedup_geomean"] == 4.0
        assert entry["speedup_max"] == 8.0
        assert entry["rows"] == 2


class TestRenderers:
    def build_store(self, tmp_path) -> ResultsStore:
        store = ResultsStore(tmp_path / "s.jsonl")
        store.append_many(
            samples("leopard", [200.0, 210.0, 190.0])
            + samples("pbft", [100.0, 105.0, 95.0])
            + samples("hotstuff", [120.0, 118.0, 121.0])
            + samples("leopard", [150.0, 155.0, 148.0], n=150)
            + samples("leopard", [90.0, 92.0, 88.0], n=300))
        # The acceptance criterion: the same store also holds ingested
        # legacy rows, and the report renders them alongside.
        store.ingest_bench_report("benchmarks/BENCH_micro_coding.json")
        store.ingest_calibration_presets(
            "benchmarks/CALIBRATION_presets.json")
        return store

    def test_markdown_end_to_end(self, tmp_path):
        text = render_markdown(self.build_store(tmp_path), baseline="pbft")
        assert "# Experiment report" in text
        assert "## Cross-protocol comparison" in text
        assert "| leopard |" in text and "| hotstuff |" in text
        assert "2.00x" in text                     # leopard vs pbft
        assert "## Throughput vs n" in text
        assert "| 300 |" in text
        assert "## Ingested benchmark artifacts" in text
        assert "micro_coding" in text
        assert "## Calibration presets" in text

    def test_html_end_to_end(self, tmp_path):
        page = render_html(self.build_store(tmp_path), baseline="pbft")
        assert page.startswith("<!doctype html>")
        assert "<table>" in page and "</table>" in page
        assert page.count("<table>") == page.count("</table>")
        assert "<svg" in page                      # the scaling curve
        assert "polyline" in page

    def test_summarize_structure(self, tmp_path):
        summary = summarize(self.build_store(tmp_path), baseline="pbft")
        assert summary["trials"] == 15
        assert summary["baseline"] == "pbft"
        assert len(summary["hosts"]) >= 2          # hostA + the bench host
        assert summary["experiments"] == ["unit"]
        assert summary["bench"]
        assert summary["presets"]

    def test_empty_store_renders(self, tmp_path):
        store = ResultsStore(tmp_path / "empty.jsonl")
        text = render_markdown(store)
        assert "trials: **0**" in text
        page = render_html(store)
        assert "<svg" not in page

    def test_single_repeat_degenerates_gracefully(self, tmp_path):
        store = ResultsStore(tmp_path / "s.jsonl")
        store.append_many(samples("leopard", [200.0])
                          + samples("pbft", [100.0]))
        text = render_markdown(store)
        # One sample per side: the CI collapses to the point and the
        # rank test reports no significance (p=0.317 at n=1 vs 1).
        assert "[200, 200]" in text
        assert "0.317" in text
        assert not math.isnan(
            cross_protocol_tables(store.rows(kind="trial"))[0]
            ["protocols"]["leopard"]["speedup"])
