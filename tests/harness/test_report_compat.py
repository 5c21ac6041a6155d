"""Schema back-compat: consumers must still read schema-4 artifacts.

The schema-5 bump added ``timeseries``/``trace`` report sections and a
``timeline`` bracket to faulted calibrations.  ``tests/harness/data/``
holds committed schema-4 artifacts in the exact pre-bump shape (a chaos
run report and a faulted calibration), and the renderers — the
consumers most likely to trip on a missing key — are driven against
them here.  When regenerated artifacts are present in ``artifacts/``
they are rendered too, whatever schema they carry.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness.cli import (
    _render_faulted_calibration,
    _render_live_report,
)

DATA = Path(__file__).resolve().parent / "data"
ARTIFACTS = Path(__file__).resolve().parents[2] / "artifacts"


def test_schema4_chaos_report_still_renders():
    report = json.loads(
        (DATA / "chaos_leopard_schema4.json").read_text())
    assert report["schema"] == 4  # the committed pre-timeseries shape
    assert "timeseries" not in report
    text = _render_live_report(report)
    assert f"live run: n={report['n']} {report['protocol']}" in text
    assert "timeseries:" not in text  # absent section renders as absent


def test_schema4_faulted_calibration_still_renders():
    report = json.loads(
        (DATA / "calibration_faulted_schema4.json").read_text())
    assert "timeline" not in report["degradation"]
    assert report["faulted"]["live"]["schema"] == 4
    text = _render_faulted_calibration(report)
    assert "degradation" in text
    assert "dip (req/s)" not in text  # no bracket without a timeseries


def test_schema5_report_renders_timeseries_line():
    # The schema-4 fixture upgraded with the schema-5 section must grow
    # exactly the new output line.
    report = json.loads(
        (DATA / "chaos_leopard_schema4.json").read_text())
    report["schema"] = 5
    report["timeseries"] = {
        "interval_s": 0.25,
        "intervals": [
            {"t": 0.0, "committed": 225, "committed_all": 900,
             "throughput_rps": 900.0, "acks": 2,
             "latency_p50_s": 0.01, "latency_p99_s": 0.02,
             "backlog_s": 0.0, "queue_depth": 0, "shaper_drops": 0},
        ],
        "annotations": [{"t": 0.1, "op": "crash",
                         "label": "crash node=2"}],
    }
    text = _render_live_report(report)
    assert "timeseries: 1 x 0.25s intervals" in text
    assert "1 annotations" in text


def test_schema5_event_queue_without_wave_counters_still_renders():
    # A schema-5 artifact carries an ``event_queue`` section from before
    # the schema-6 wave counters.  The renderer must not require them.
    report = json.loads(
        (DATA / "chaos_leopard_schema4.json").read_text())
    report["schema"] = 5
    report["event_queue"] = {
        "backend": "calendar", "pending": 0, "max_pending": 512,
        "late_clamped": 0, "bucket_width": 0.00025,
        "bucket_count": 32000, "bucket_loads": 3, "bucket_events": 900,
        "fanout_slabs": 12, "active_slabs": 0, "slab_pending": 0,
        "overflow_migrated": 0,
    }
    text = _render_live_report(report)
    assert "event queue: backend=calendar max_pending=512" in text
    assert "wave_events" not in text  # pre-wave artifact: no wave line


def test_schema6_event_queue_renders_wave_counters():
    report = json.loads(
        (DATA / "chaos_leopard_schema4.json").read_text())
    report["schema"] = 6
    report["event_queue"] = {
        "backend": "calendar", "max_pending": 512,
        "waves": True, "wave_events": 40, "wave_receivers": 1200,
        "wave_slabs": 18, "wave_pending": 0, "scalar_fallbacks": 3,
    }
    text = _render_live_report(report)
    assert "wave_events=40" in text
    assert "wave_receivers=1200" in text
    assert "scalar_fallbacks=3" in text


def test_pre_schema7_report_renders_without_recovery_line():
    report = json.loads(
        (DATA / "chaos_leopard_schema4.json").read_text())
    assert "recovery" not in report
    text = _render_live_report(report)
    assert "recovery:" not in text  # absent section renders as absent


def test_schema7_report_renders_recovery_line():
    # The schema-4 fixture upgraded with the schema-7 section must grow
    # exactly the new catch-up summary line.
    report = json.loads(
        (DATA / "chaos_leopard_schema4.json").read_text())
    report["schema"] = 7
    report["recovery"] = {
        "replicas": {
            "2": {"rounds": 0, "complete": False,
                  "installed_entries": 0, "segments_fetched": 0},
            "3": {"rounds": 1, "complete": True,
                  "installed_entries": 30, "segments_fetched": 2},
        },
        "snapshots_persisted": 27,
        "restored_from_disk": [3],
    }
    text = _render_live_report(report)
    assert "recovery: catch-ups=[3:done(+30 entries, 2 segments)]" in text
    assert "snapshots_persisted=27" in text
    assert "restored_from_disk=[3]" in text
    assert "2:" not in text.split("recovery:")[1].splitlines()[0]


def test_schema7_incomplete_recovery_renders_loudly():
    report = json.loads(
        (DATA / "chaos_leopard_schema4.json").read_text())
    report["schema"] = 7
    report["recovery"] = {
        "replicas": {"1": {"rounds": 3, "complete": False,
                           "installed_entries": 5,
                           "segments_fetched": 1}},
        "snapshots_persisted": 0,
        "restored_from_disk": [],
    }
    text = _render_live_report(report)
    assert "1:INCOMPLETE(+5 entries, 1 segments)" in text


def test_peak_rss_renders_for_both_deployment_modes():
    report = json.loads(
        (DATA / "chaos_leopard_schema4.json").read_text())
    assert "peak RSS" not in _render_live_report(report)  # older report
    report["deployment"]["peak_rss_mb"] = 71.25
    assert "  peak RSS: 71.2 MB" in _render_live_report(report).splitlines()
    report["deployment"].update(
        mode="processes", peak_rss_mb=40.0,
        replica_peak_rss_mb={"0": 55.0, "1": 61.5, "2": None})
    assert ("peak RSS: 40.0 MB (this process); replica processes "
            "55.0-61.5 MB") in _render_live_report(report)


def test_minor_faults_render_beside_peak_rss_for_both_modes():
    report = json.loads(
        (DATA / "chaos_leopard_schema4.json").read_text())
    report["deployment"]["peak_rss_mb"] = 71.25
    # A report from before minor faults were recorded renders without.
    assert "minor faults" not in _render_live_report(report)
    report["deployment"]["minor_faults"] = 1523
    assert ("  peak RSS: 71.2 MB; minor faults: 1523"
            in _render_live_report(report).splitlines())
    report["deployment"].update(
        mode="processes", peak_rss_mb=40.0,
        replica_peak_rss_mb={"0": 55.0, "1": 61.5, "2": None},
        minor_faults=900,
        replica_minor_faults={"0": 4100, "1": 3900, "2": None})
    assert ("peak RSS: 40.0 MB (this process); replica processes "
            "55.0-61.5 MB; minor faults: 900 (this process); replica "
            "processes 3900-4100") in _render_live_report(report)


GENERATED = sorted(ARTIFACTS.glob("chaos_*.json")) \
    if ARTIFACTS.is_dir() else []


@pytest.mark.skipif(not GENERATED,
                    reason="no locally generated chaos artifacts")
@pytest.mark.parametrize("path", GENERATED, ids=lambda p: p.stem)
def test_generated_chaos_artifacts_render(path):
    report = json.loads(path.read_text())
    text = _render_live_report(report)
    assert f"live run: n={report['n']}" in text
