"""Live-vs-sim reconciliation tests (`compare_live_sim`, ISSUE 4)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.calibration import (
    RELEVANT_COSTS,
    compare_faulted_live_sim,
    compare_live_sim,
)
from repro.harness.spec import RunSpec


class TestCompareLiveSim:
    @pytest.fixture(scope="class")
    def leopard_report(self):
        return compare_live_sim(RunSpec(protocol="leopard", n=4,
                                        rate=1500.0, duration=1.0,
                                        bundle_size=100, warmup=0.1,
                                        seed=3))

    def test_embeds_both_standard_reports(self, leopard_report):
        assert leopard_report["kind"] == "live_vs_sim_calibration"
        assert leopard_report["live"]["backend"] == "live"
        assert leopard_report["sim"]["backend"] == "sim"
        assert leopard_report["live"]["protocol"] == "leopard"
        assert leopard_report["sim"]["protocol"] == "leopard"
        # Both backends actually committed at this point.
        for backend in ("live", "sim"):
            sub = leopard_report[backend]
            assert sub["executed_requests"].get(
                sub["measure_replica"], 0) > 0

    def test_deltas_reconcile_throughput_and_latency(self, leopard_report):
        deltas = leopard_report["deltas"]
        for key in ("throughput_rps", "latency_mean_s", "latency_p50_s",
                    "latency_p99_s"):
            entry = deltas[key]
            assert set(entry) == {"live", "sim", "abs_delta",
                                  "ratio_live_over_sim"}
        tput = deltas["throughput_rps"]
        assert tput["live"] > 0 and tput["sim"] > 0
        assert math.isclose(tput["abs_delta"],
                            tput["live"] - tput["sim"], rel_tol=1e-9)
        assert leopard_report["suggested_cost_scale"] > 0

    def test_constants_listed_for_protocol(self, leopard_report):
        constants = leopard_report["calibration_constants"]
        for name in RELEVANT_COSTS["leopard"]:
            assert name in constants
        assert "per_send_byte" in constants

    @pytest.mark.parametrize("protocol", ("pbft", "hotstuff"))
    def test_baseline_points_reconcile(self, protocol):
        report = compare_live_sim(RunSpec(protocol=protocol, n=4,
                                          rate=1500.0, duration=1.0,
                                          bundle_size=100, warmup=0.1))
        assert report["protocol"] == protocol
        assert report["live"]["throughput_rps"] > 0
        assert report["sim"]["throughput_rps"] > 0
        for name in RELEVANT_COSTS[protocol]:
            assert name in report["calibration_constants"]

    def test_unknown_protocol_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            compare_live_sim(RunSpec(protocol="tendermint", duration=0.1))


class TestCompareFaultedLiveSim:
    """The faulted gate of ISSUE 6: both backends run the same chaos
    scenario and their *degradation ratios* must reconcile."""

    @pytest.fixture(scope="class")
    def faulted_report(self):
        return compare_faulted_live_sim(
            RunSpec(protocol="leopard", n=4, rate=1500.0, duration=1.2,
                    bundle_size=100, warmup=0.1, seed=3,
                    scenario="at 0.4 crash victim; at 1.0 restart victim"),
            max_degradation_gap=10.0)

    def test_embeds_clean_and_faulted_comparisons(self, faulted_report):
        assert faulted_report["kind"] == "faulted_live_vs_sim_calibration"
        assert faulted_report["clean"]["scenario"] is None
        assert faulted_report["faulted"]["scenario"] == "inline"
        # All four runs committed requests.
        for which in ("clean", "faulted"):
            for backend in ("live", "sim"):
                sub = faulted_report[which][backend]
                assert sub["executed_requests"].get(
                    sub["measure_replica"], 0) > 0

    def test_scenario_ran_on_both_backends(self, faulted_report):
        for backend in ("live", "sim"):
            faults = faulted_report["faulted"][backend]["faults"]
            assert faults["restarts"] == 1
            assert [e["op"] for e in faults["events_applied"]] \
                == ["crash", "restart"]

    def test_degradation_ratios_positive_and_gapped(self, faulted_report):
        deg = faulted_report["degradation"]
        assert 0 < deg["live"] <= 1.5  # a crash should not speed things up
        assert 0 < deg["sim"] <= 1.5
        gap = deg["gap_ratio_live_over_sim"]
        assert math.isclose(gap, deg["live"] / deg["sim"], rel_tol=1e-9)
        assert deg["max_degradation_gap"] == 10.0
        assert deg["within_bound"] is True

    def test_default_scenario_is_parsed_builtin(self, monkeypatch):
        """A spec without a scenario is reconciled under the
        crash-restart builtin, next to a clean twin of the same point."""
        import repro.analysis.calibration as calibration_mod

        seen = []

        def stub_compare(spec, costs):
            seen.append(spec)
            return {"live": {"throughput_rps": 1000.0},
                    "sim": {"throughput_rps": 1000.0},
                    "scenario": spec.scenario}

        monkeypatch.setattr(calibration_mod, "compare_live_sim",
                            stub_compare)
        report = compare_faulted_live_sim(RunSpec(rate=1500.0))
        assert seen == [RunSpec(rate=1500.0),
                        RunSpec(rate=1500.0, scenario="crash-restart")]
        assert report["scenario"] == "crash-restart"
        assert report["degradation"]["within_bound"] is True
