"""End-to-end telemetry on the simulated backend.

Covers the tentpole acceptance path without sockets: a traced smoke-scale
Leopard run must yield committed lifecycles with all four phases, a
schema-5 report carrying the timeseries section, and — with the builtin
``crash-restart`` scenario — a throughput dip that visibly brackets the
fault window with annotations at the injection timestamps.
"""

from __future__ import annotations

import json

from repro.harness.cluster import build_leopard_cluster
from repro.net.chaos import load_scenario, schedule_scenario_sim
from repro.protocols import default_live_config_for
from repro.obs import (
    RingTracer,
    TracedCore,
    bracket_throughput,
    build_lifecycles,
    summarize_lifecycles,
)


def _smoke_cluster(rate: float = 1000.0):
    config = default_live_config_for("leopard", 4)
    return build_leopard_cluster(
        4, seed=3, config=config, total_rate=rate, bundle_size=100,
        warmup=0.0, prime=False)


class TestTracedSimRun:
    def test_traced_run_reconstructs_lifecycles(self):
        cluster = _smoke_cluster()
        tracer = RingTracer()
        cluster.install_tracer(tracer)
        cluster.run(1.5)
        report = cluster.report()

        assert report["schema"] == 7
        assert report["trace"]["events"]
        json.dumps(report)  # the whole report must stay serializable

        lifecycles = build_lifecycles(
            report["trace"]["events"],
            measure_replica=report["measure_replica"])
        complete = [lc for lc in lifecycles if lc["complete"]]
        assert complete, "no committed request lifecycle traced"
        summary = summarize_lifecycles(complete)
        assert set(summary) == {"batching", "dispersal",
                                "agreement", "response"}
        # stamps must be causally ordered on every committed request
        for lifecycle in complete:
            assert (lifecycle["submitted"] <= lifecycle["batched"]
                    <= lifecycle["proposed"] <= lifecycle["committed"])

    def test_traced_run_has_interval_curve(self):
        cluster = _smoke_cluster()
        cluster.install_tracer(RingTracer())
        cluster.run(1.5)
        series = cluster.report()["timeseries"]
        assert series["interval_s"] == 0.25
        # 6 buckets cover the 1.5s run; a final host sample landing
        # exactly on the boundary may open one more.
        assert 6 <= len(series["intervals"]) <= 7
        assert sum(e["committed"] for e in series["intervals"]) > 0

    def test_untraced_run_stays_unwrapped(self):
        cluster = _smoke_cluster()
        cluster.run(0.5)
        report = cluster.report()
        assert "trace" not in report
        assert report["schema"] == 7
        assert "timeseries" in report  # curve ships even without tracing
        for node in cluster.sim.nodes.values():
            assert not isinstance(node.core, TracedCore)

    def test_install_tracer_is_idempotent(self):
        cluster = _smoke_cluster()
        tracer = RingTracer()
        cluster.install_tracer(tracer)
        cluster.install_tracer(tracer)
        for node in cluster.sim.nodes.values():
            assert isinstance(node.core, TracedCore)
            assert not isinstance(node.core.inner, TracedCore)


class TestChaosTimeseriesAlignment:
    def test_crash_restart_dip_brackets_the_fault(self):
        cluster = _smoke_cluster()
        scenario = load_scenario("crash-restart")
        schedule_scenario_sim(cluster, scenario)
        cluster.run(scenario.duration() + 1.0)
        report = cluster.report()

        section = report["timeseries"]
        fault_at = scenario.events[0].at
        recover_at = scenario.events[-1].at
        assert (fault_at, recover_at) == (1.0, 3.0)

        # the fault annotations land at the exact injection timestamps
        ops = {a["op"]: a for a in section["annotations"]}
        assert ops["crash"]["t"] == fault_at
        assert ops["restart"]["t"] == recover_at
        assert "node=" in ops["crash"]["label"]

        # the dip is visible in the expected interval window
        timeline = bracket_throughput(section, fault_at, recover_at)
        assert timeline["pre_rps"] is not None
        assert timeline["during_rps"] is not None
        assert timeline["during_rps"] < 0.8 * timeline["pre_rps"]
        assert timeline["post_rps"] is not None
