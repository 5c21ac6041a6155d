"""Calibration grid sweep and per-host CostModel presets."""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis import calibration
from repro.analysis.calibration import (
    DEFAULT_COSTS,
    RELEVANT_COSTS,
    host_cost_preset,
    save_host_preset,
    scaled_costs,
    sweep_live_sim,
)
from repro.harness.spec import RunSpec
from repro.perf import host_fingerprint


class TestScaledCosts:
    def test_scales_protocol_constants(self):
        scaled = scaled_costs(2.0, "leopard")
        for name in RELEVANT_COSTS["leopard"]:
            assert getattr(scaled, name) == pytest.approx(
                2.0 * getattr(DEFAULT_COSTS, name))
        # Shared dispatch costs scale too…
        assert scaled.per_message == pytest.approx(
            2.0 * DEFAULT_COSTS.per_message)
        # …but other protocols' constants do not.
        assert scaled.mac_verify == DEFAULT_COSTS.mac_verify

    def test_rejects_nonsense_scales(self):
        with pytest.raises(ValueError):
            scaled_costs(0.0)
        with pytest.raises(ValueError):
            scaled_costs(float("nan"))


def _fake_point(scale: float, n: int = 4) -> dict:
    return {"n": n, "suggested_cost_scale": scale,
            "live": {"executed_requests": {1: 100}, "measure_replica": 1},
            "sim": {"executed_requests": {1: 100}, "measure_replica": 1}}


class TestSweep:
    def test_combines_scales_geometrically(self, monkeypatch):
        scales = iter([2.0, 0.5, 4.0])

        seen = []

        def fake_compare(spec, costs):
            seen.append(spec)
            return _fake_point(next(scales), spec.n)

        monkeypatch.setattr(calibration, "compare_live_sim", fake_compare)
        report = sweep_live_sim(RunSpec(bundle_size=50),
                                grid=((4, 1000.0, 128), (4, 2000.0, 128),
                                      (7, 2000.0, 128)))
        # Each point is the given spec at that grid shape.
        assert seen == [RunSpec(bundle_size=50, n=n, rate=rate,
                                payload=payload)
                        for n, rate, payload in report["grid"]]
        assert report["kind"] == "calibration_sweep"
        assert len(report["points"]) == 3
        expected = math.exp((math.log(2.0) + math.log(0.5)
                             + math.log(4.0)) / 3.0)
        assert report["combined_cost_scale"] == pytest.approx(expected)
        assert report["host"] == host_fingerprint()

    def test_handles_unusable_scales(self, monkeypatch):
        monkeypatch.setattr(calibration, "compare_live_sim",
                            lambda spec, costs: _fake_point(None, spec.n))
        report = sweep_live_sim(RunSpec(), grid=((4, 1000.0, 128),))
        assert report["combined_cost_scale"] is None


class TestPresets:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "presets.json"
        report = {"kind": "calibration_sweep", "protocol": "leopard",
                  "host": host_fingerprint(),
                  "grid": [[4, 1000.0, 128]],
                  "points": [_fake_point(1.5)],
                  "combined_cost_scale": 1.5}
        presets = save_host_preset(report, path)
        assert presets[host_fingerprint()]["leopard"]["scale"] == 1.5
        stored = json.loads(path.read_text())
        assert stored == presets

        costs = host_cost_preset("leopard", path)
        assert costs.leopard_verify_exec_per_request == pytest.approx(
            1.5 * DEFAULT_COSTS.leopard_verify_exec_per_request)

    def test_missing_file_and_host_fall_back(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert host_cost_preset("leopard", missing) is DEFAULT_COSTS
        other = tmp_path / "other.json"
        other.write_text(json.dumps(
            {"someone-else": {"leopard": {"scale": 3.0}}}))
        assert host_cost_preset("leopard", other) is DEFAULT_COSTS

    def test_no_scale_rejected(self, tmp_path):
        report = {"kind": "calibration_sweep", "protocol": "leopard",
                  "host": "h", "grid": [], "points": [],
                  "combined_cost_scale": None}
        with pytest.raises(ValueError):
            save_host_preset(report, tmp_path / "p.json")
