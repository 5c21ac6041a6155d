"""Command-line entry point: experiments and the live-cluster runtime.

Usage::

    python -m repro.harness.cli              # list available experiments
    python -m repro.harness.cli fig9 table3  # run selected experiments
    python -m repro.harness.cli all          # run everything (slow)

    # Boot a real localhost cluster (asyncio TCP replicas + load client):
    python -m repro.harness.cli run-live --replicas 4 --clients 1 \
        --duration 5

    # Any of the paper's three protocols, in-process or one OS process
    # per replica:
    python -m repro.harness.cli run-live --protocol pbft --processes

    # Run the same point under the simulator and the live runtime and
    # reconcile the deltas:
    python -m repro.harness.cli calibrate --protocol hotstuff \
        --duration 2 --output calibration_hotstuff.json

    # Execute a declarative trial matrix (resumable, parallel) and
    # render a cross-protocol report from the longitudinal store:
    python -m repro.harness.cli expt run \
        --config benchmarks/experiments/smoke.yaml \
        --store artifacts/expt-smoke/store.jsonl
    python -m repro.harness.cli expt report \
        --store artifacts/expt-smoke/store.jsonl

Set ``REPRO_FULL=1`` for the paper-scale grids.  ``run-live`` prints the
same metrics schema the simulated experiments use, so a live localhost
run is directly comparable with a simulated one.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time


def _render_live_report(report: dict) -> str:
    """Human-readable summary of a live run's standard report."""
    latency = report["latency_s"]

    def fmt_ms(value: float) -> str:
        return "n/a" if math.isnan(value) else f"{value * 1e3:.1f} ms"

    mode = report.get("deployment", {}).get("mode", "in-process")
    lines = [
        f"live run: n={report['n']} {report['protocol']} over TCP "
        f"[{mode}] ({report['duration_s']:.1f}s measured at replica "
        f"{report['measure_replica']})",
        f"  throughput: {report['throughput_rps']:.0f} req/s",
        f"  latency:    mean {fmt_ms(latency['mean'])}, "
        f"p50 {fmt_ms(latency['p50'])}, p99 {fmt_ms(latency['p99'])}",
        f"  acked bundles: {report['acked_bundles']}",
        f"  transport: dropped={report['transport']['dropped_frames']} "
        f"unroutable={report['transport']['unroutable_frames']} "
        f"decode_errors={report['transport']['decode_errors']} "
        f"handler_errors={report['transport']['handler_errors']}",
    ]
    measure_bytes = report["bytes_by_class"].get(
        report["measure_replica"], {"sent": {}, "recv": {}})
    sent = ", ".join(f"{cls}={count}" for cls, count
                     in sorted(measure_bytes["sent"].items()))
    recv = ", ".join(f"{cls}={count}" for cls, count
                     in sorted(measure_bytes["recv"].items()))
    lines.append(f"  bytes sent by class: {sent or '-'}")
    lines.append(f"  bytes recv by class: {recv or '-'}")
    faults = report.get("faults")
    if faults:
        injected = ", ".join(
            f"{node}:{spec.get('kind', '?')}"
            for node, spec in sorted(faults.get("injected", {}).items()))
        lines.append(
            f"  faults: scenario={faults.get('scenario') or '-'} "
            f"events_applied={len(faults.get('events_applied') or [])} "
            f"restarts={faults.get('restarts', 0)} "
            f"injected=[{injected or '-'}]")
        shaping = faults.get("shaping")
        if shaping:
            lines.append(
                f"  shaping: links={len(shaping.get('links', {}))} "
                f"shaped={shaping.get('frames_shaped', 0)} "
                f"delayed={shaping.get('frames_delayed', 0)} "
                f"lost={shaping.get('frames_lost', 0)}")
    # Schema-tolerant: sim-backed reports carry scheduler occupancy;
    # live runs (and committed schema-4 artifacts) have none; only
    # schema-6/7 artifacts written while the wave tier existed carry
    # its counters.
    queue = report.get("event_queue")
    if queue:
        line = (f"  event queue: backend={queue.get('backend', '?')} "
                f"max_pending={queue.get('max_pending', 0)}")
        if queue.get("waves"):
            line += (f" wave_events={queue.get('wave_events', 0)} "
                     f"wave_receivers={queue.get('wave_receivers', 0)} "
                     f"scalar_fallbacks="
                     f"{queue.get('scalar_fallbacks', 0)}")
        lines.append(line)
    # Schema-tolerant: pre-schema-7 artifacts carry no recovery section.
    recovery = report.get("recovery")
    if recovery:
        recovering = {rid: info for rid, info
                      in sorted(recovery.get("replicas", {}).items())
                      if info.get("rounds", 0)}
        per_replica = ", ".join(
            f"{rid}:{'done' if info.get('complete') else 'INCOMPLETE'}"
            f"(+{info.get('installed_entries', 0)} entries, "
            f"{info.get('segments_fetched', 0)} segments)"
            for rid, info in recovering.items())
        lines.append(
            f"  recovery: catch-ups=[{per_replica or '-'}] "
            f"snapshots_persisted="
            f"{recovery.get('snapshots_persisted', 0)} "
            f"restored_from_disk="
            f"{recovery.get('restored_from_disk') or []}")
    # Schema-tolerant: committed schema-4 artifacts have no timeseries.
    series = report.get("timeseries")
    if series and series.get("intervals"):
        rates = [entry["throughput_rps"] for entry in series["intervals"]]
        lines.append(
            f"  timeseries: {len(rates)} x {series['interval_s']:.2f}s "
            f"intervals, throughput min {min(rates):.0f} / "
            f"max {max(rates):.0f} req/s, "
            f"{len(series.get('annotations') or [])} annotations")
    return "\n".join(lines)


def _write_report(report: dict, output: str | None) -> None:
    if output:
        with open(output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {output}")


def run_live_command(argv: list[str]) -> int:
    """The ``run-live`` subcommand: boot a localhost TCP cluster."""
    from repro.net.protocols import LIVE_PROTOCOLS

    parser = argparse.ArgumentParser(
        prog="repro-experiments run-live",
        description="Run a live localhost BFT cluster over real TCP "
                    "sockets (any of the paper's three protocols, "
                    "in-process or one OS process per replica).")
    parser.add_argument("--protocol", choices=LIVE_PROTOCOLS,
                        default="leopard",
                        help="which protocol to boot (default leopard)")
    parser.add_argument("--processes", action="store_true",
                        help="launch one OS process per replica instead "
                             "of hosting every core on one event loop")
    parser.add_argument("--replicas", type=int, default=4,
                        help="replica count n (3f+1; default 4)")
    parser.add_argument("--clients", type=int, default=1,
                        help="load-generating clients (default 1)")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="seconds of real time to serve (default 5)")
    parser.add_argument("--rate", type=float, default=4000.0,
                        help="offered load, requests/second total")
    parser.add_argument("--bundle-size", type=int, default=200,
                        help="requests per client submission")
    parser.add_argument("--payload", type=int, default=128,
                        help="bytes per request payload")
    parser.add_argument("--datablock-size", type=int, default=100,
                        help="requests per batch (the paper's alpha for "
                             "Leopard, the block batch for baselines)")
    parser.add_argument("--seed", type=int, default=0,
                        help="determinism seed for key dealing")
    parser.add_argument("--warmup", type=float, default=0.0,
                        help="seconds of metrics warmup")
    parser.add_argument("--min-committed", type=int, default=None,
                        help="exit non-zero unless at least this many "
                             "requests committed (smoke gating)")
    parser.add_argument("--require-recovery", action="store_true",
                        help="exit non-zero unless at least one replica "
                             "completed a verified catch-up (non-zero "
                             "segments fetched) AND its executed ledger "
                             "prefix re-converged with the quorum "
                             "(crash-recovery smoke gating)")
    parser.add_argument("--scenario", default=None, metavar="SPEC",
                        help="chaos scenario to run against the cluster: "
                             "a builtin name (smoke, partition-heal, "
                             "crash-restart, crash-recover, "
                             "slow-replica), a scenario "
                             "file path, or inline 'at T op args' text")
    parser.add_argument("--json", action="store_true",
                        help="print the full report as JSON")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="also write the full report JSON to FILE "
                             "(CI artifact path)")
    args = parser.parse_args(argv)

    scenario = None
    if args.scenario is not None:
        from repro.errors import ConfigError
        from repro.net.chaos import load_scenario

        try:
            scenario = load_scenario(args.scenario)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.processes:
        if args.warmup:
            parser.error("--warmup is not supported with --processes "
                         "(replica children cannot gate it on the "
                         "measurement epoch); use in-process mode")
        from repro.harness.procs import run_live_processes

        report = run_live_processes(
            n=args.replicas, client_count=args.clients,
            duration=args.duration, protocol=args.protocol,
            total_rate=args.rate, bundle_size=args.bundle_size,
            payload_size=args.payload,
            datablock_size=args.datablock_size, seed=args.seed,
            warmup=args.warmup, scenario=scenario)
    else:
        from repro.net.live import run_live_sync
        from repro.net.protocols import default_live_config_for

        config = default_live_config_for(
            args.protocol, args.replicas, payload_size=args.payload,
            datablock_size=args.datablock_size)
        report = run_live_sync(
            n=args.replicas, client_count=args.clients,
            duration=args.duration, protocol=args.protocol,
            config=config, total_rate=args.rate,
            bundle_size=args.bundle_size, seed=args.seed,
            warmup=args.warmup, scenario=scenario)

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_render_live_report(report))
    _write_report(report, args.output)

    if args.min_committed is not None:
        committed = report["executed_requests"].get(
            report["measure_replica"], 0)
        if committed < args.min_committed:
            print(f"FAIL: {committed} requests committed "
                  f"< required {args.min_committed}", file=sys.stderr)
            return 1
        print(f"live smoke OK: {committed} requests committed "
              f">= {args.min_committed}")

    if args.require_recovery:
        from repro.core.recovery import check_convergence

        recovery = report.get("recovery") or {}
        recovering = {rid: info for rid, info
                      in recovery.get("replicas", {}).items()
                      if info.get("rounds", 0)}
        if not recovering:
            print("FAIL: no replica performed a catch-up round "
                  "(recovery section empty)", file=sys.stderr)
            return 1
        for rid, info in sorted(recovering.items()):
            if not info.get("complete"):
                print(f"FAIL: replica {rid} catch-up incomplete "
                      f"({info.get('rounds', 0)} rounds, "
                      f"{info.get('solicits', 0)} solicits)",
                      file=sys.stderr)
                return 1
            if not info.get("segments_fetched", 0):
                print(f"FAIL: replica {rid} completed without fetching "
                      "any ledger segments", file=sys.stderr)
                return 1
            converged, detail = check_convergence(report, int(rid))
            if not converged:
                print(f"FAIL: replica {rid} did not re-converge: "
                      f"{detail}", file=sys.stderr)
                return 1
        if args.processes and not recovery.get("restored_from_disk"):
            print("FAIL: respawned replica did not restore from its "
                  "durable snapshot", file=sys.stderr)
            return 1
        recovered = ", ".join(sorted(recovering))
        print(f"recovery smoke OK: replica(s) {recovered} caught up "
              f"and re-converged"
              + (f" (restored from disk: "
                 f"{recovery.get('restored_from_disk')})"
                 if args.processes else ""))
    return 0


def _render_calibration(report: dict) -> str:
    """Human-readable summary of a live-vs-sim reconciliation."""
    def fmt(value: float) -> str:
        return "n/a" if value is None or math.isnan(value) \
            else f"{value:.3g}"

    ratio = report["deltas"]["throughput_rps"]["ratio_live_over_sim"]
    lines = [
        f"calibration: {report['protocol']} n={report['n']} "
        f"rate={report['total_rate']:.0f} req/s "
        f"payload={report['payload_size']}B "
        f"({report['duration_s']:.1f}s per backend)",
        f"  throughput: live {report['live']['throughput_rps']:.0f} "
        f"vs sim {report['sim']['throughput_rps']:.0f} req/s "
        f"(ratio {fmt(ratio)})",
        f"  latency p50: live "
        f"{fmt(report['deltas']['latency_p50_s']['live'])}s "
        f"vs sim {fmt(report['deltas']['latency_p50_s']['sim'])}s",
        f"  suggested cost scale: "
        f"{fmt(report['suggested_cost_scale'])}",
    ]
    return "\n".join(lines)


def _render_faulted_calibration(report: dict) -> str:
    """Human-readable summary of a faulted live-vs-sim reconciliation."""
    def fmt(value: float) -> str:
        return "n/a" if value is None or math.isnan(value) \
            else f"{value:.3g}"

    deg = report["degradation"]
    verdict = "within" if deg["within_bound"] else "OUTSIDE"
    lines = [
        f"faulted calibration: {report['protocol']} n={report['n']} "
        f"scenario={report['scenario']}",
        "  clean point:",
        "    " + _render_calibration(report["clean"]).replace(
            "\n", "\n    "),
        "  faulted point:",
        "    " + _render_calibration(report["faulted"]).replace(
            "\n", "\n    "),
        f"  degradation (faulted/clean tput): "
        f"live {fmt(deg['live'])} vs sim {fmt(deg['sim'])}",
        f"  degradation gap (live/sim): "
        f"{fmt(deg['gap_ratio_live_over_sim'])} — {verdict} bound "
        f"{deg['max_degradation_gap']:.3g}x",
    ]
    # Schema-tolerant: pre-schema-5 artifacts carry no timeline bracket.
    for backend, bracket in sorted((deg.get("timeline") or {}).items()):
        lines.append(
            f"  {backend} dip (req/s): pre {fmt(bracket['pre_rps'])} "
            f"-> during {fmt(bracket['during_rps'])} "
            f"-> post {fmt(bracket['post_rps'])} "
            f"(fault window {bracket['fault_at']:.2f}s"
            f"-{bracket['recover_at']:.2f}s)")
    return "\n".join(lines)


def calibrate_command(argv: list[str]) -> int:
    """The ``calibrate`` subcommand: one point under both backends."""
    from repro.net.protocols import LIVE_PROTOCOLS

    parser = argparse.ArgumentParser(
        prog="repro-experiments calibrate",
        description="Run one (protocol, n, rate, payload) point under "
                    "both the simulator and the live runtime, and emit "
                    "a reconciliation report of the deltas against the "
                    "calibration constants.")
    parser.add_argument("--protocol", choices=LIVE_PROTOCOLS,
                        default="leopard")
    parser.add_argument("--replicas", type=int, default=4,
                        help="replica count n (default 4)")
    parser.add_argument("--rate", type=float, default=2000.0,
                        help="offered load, requests/second total")
    parser.add_argument("--payload", type=int, default=128,
                        help="bytes per request payload")
    parser.add_argument("--duration", type=float, default=2.0,
                        help="measured seconds per backend (default 2)")
    parser.add_argument("--bundle-size", type=int, default=100)
    parser.add_argument("--datablock-size", type=int, default=100)
    parser.add_argument("--warmup", type=float, default=0.25,
                        help="seconds of metrics warmup per backend")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-committed", type=int, default=None,
                        help="exit non-zero unless both backends "
                             "committed at least this many requests")
    parser.add_argument("--use-host-preset", action="store_true",
                        help="run with the committed per-host CostModel "
                             "preset applied to the simulated side "
                             "(a calibrated host should then reconcile "
                             "at a ratio near 1)")
    parser.add_argument("--scenario", default=None, metavar="SPEC",
                        help="reconcile a *faulted* point: run the chaos "
                             "scenario (a sim-compatible builtin like "
                             "crash-restart, a file, or inline text) on "
                             "both backends next to a clean twin and "
                             "gate on the degradation gap")
    parser.add_argument("--max-degradation-gap", type=float, default=2.0,
                        metavar="RATIO",
                        help="with --scenario: fail unless the live/sim "
                             "degradation-ratio gap lies within "
                             "[1/RATIO, RATIO] (default 2.0)")
    parser.add_argument("--sweep", action="store_true",
                        help="reconcile the default (n, rate, payload) "
                             "grid instead of a single point")
    parser.add_argument("--apply-presets", default=None, metavar="FILE",
                        nargs="?", const="",
                        help="fold the sweep's combined cost scale into "
                             "the per-host preset file (default: the "
                             "committed benchmarks/CALIBRATION_presets"
                             ".json); implies --sweep")
    parser.add_argument("--json", action="store_true",
                        help="print the full report as JSON")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="also write the report JSON to FILE "
                             "(CI artifact path)")
    args = parser.parse_args(argv)

    from repro.analysis.calibration import (
        DEFAULT_COSTS,
        DEFAULT_PRESETS_PATH,
        compare_live_sim,
        host_cost_preset,
        save_host_preset,
        sweep_live_sim,
    )

    costs = DEFAULT_COSTS
    if args.use_host_preset:
        costs = host_cost_preset(args.protocol)
        if costs is DEFAULT_COSTS:
            print("note: no committed preset for this host/protocol; "
                  "running with default costs")

    if args.scenario is not None:
        if args.sweep or args.apply_presets is not None:
            parser.error("--scenario cannot be combined with --sweep/"
                         "--apply-presets (the degradation gate is a "
                         "single-point comparison)")
        from repro.analysis.calibration import compare_faulted_live_sim
        from repro.errors import ConfigError
        from repro.net.chaos import load_scenario

        try:
            scenario = load_scenario(args.scenario)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = compare_faulted_live_sim(
            protocol=args.protocol, scenario=scenario, n=args.replicas,
            total_rate=args.rate, payload_size=args.payload,
            duration=args.duration, bundle_size=args.bundle_size,
            datablock_size=args.datablock_size, seed=args.seed,
            warmup=args.warmup, costs=costs,
            max_degradation_gap=args.max_degradation_gap)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(_render_faulted_calibration(report))
        _write_report(report, args.output)
        if args.min_committed is not None:
            for label, point in (("clean", report["clean"]),
                                 ("faulted", report["faulted"])):
                for backend in ("live", "sim"):
                    sub = point[backend]
                    committed = sub["executed_requests"].get(
                        sub["measure_replica"], 0)
                    if committed < args.min_committed:
                        print(f"FAIL: {backend} backend committed "
                              f"{committed} < required "
                              f"{args.min_committed} ({label} point)",
                              file=sys.stderr)
                        return 1
        deg = report["degradation"]
        if not deg["within_bound"]:
            print(f"FAIL: live/sim degradation gap "
                  f"{deg['gap_ratio_live_over_sim']:.3g} outside "
                  f"[{1.0 / args.max_degradation_gap:.3g}, "
                  f"{args.max_degradation_gap:.3g}]", file=sys.stderr)
            return 1
        print(f"faulted calibration OK: degradation gap "
              f"{deg['gap_ratio_live_over_sim']:.3g} within "
              f"{args.max_degradation_gap:.3g}x")
        return 0

    if args.sweep or args.apply_presets is not None:
        from repro.analysis.calibration import DEFAULT_SWEEP_GRID

        # The point flags join the default grid rather than being
        # silently ignored, so `--sweep --rate 4000` really sweeps the
        # rate the user asked about.
        grid = tuple(dict.fromkeys(
            DEFAULT_SWEEP_GRID
            + ((args.replicas, args.rate, args.payload),)))
        report = sweep_live_sim(
            protocol=args.protocol, grid=grid, duration=args.duration,
            bundle_size=args.bundle_size,
            datablock_size=args.datablock_size, seed=args.seed,
            warmup=args.warmup, costs=costs)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            for point in report["points"]:
                print(_render_calibration(point))
            combined = report["combined_cost_scale"]
            print(f"combined cost scale over {len(report['points'])} "
                  f"points: "
                  f"{combined:.3g}" if combined is not None else
                  "combined cost scale: n/a")
        _write_report(report, args.output)
        if args.min_committed is not None:
            for point in report["points"]:
                for backend in ("live", "sim"):
                    sub = point[backend]
                    committed = sub["executed_requests"].get(
                        sub["measure_replica"], 0)
                    if committed < args.min_committed:
                        print(f"FAIL: {backend} backend committed "
                              f"{committed} < required "
                              f"{args.min_committed} at n={point['n']}",
                              file=sys.stderr)
                        return 1
            print(f"calibration sweep OK: every backend of every point "
                  f"committed >= {args.min_committed}")
        # Presets only persist after the commit gate: a run the gate
        # rejects must not re-baseline the committed file.
        if args.apply_presets is not None:
            if report["combined_cost_scale"] is None:
                print("FAIL: sweep produced no usable cost scale; "
                      "presets not updated", file=sys.stderr)
                return 1
            path = args.apply_presets or DEFAULT_PRESETS_PATH
            save_host_preset(report, path)
            print(f"updated per-host cost presets in {path}")
        return 0

    report = compare_live_sim(
        protocol=args.protocol, n=args.replicas, total_rate=args.rate,
        payload_size=args.payload, duration=args.duration,
        bundle_size=args.bundle_size,
        datablock_size=args.datablock_size, seed=args.seed,
        warmup=args.warmup, costs=costs)

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_render_calibration(report))
    _write_report(report, args.output)

    if args.min_committed is not None:
        for backend in ("live", "sim"):
            sub = report[backend]
            committed = sub["executed_requests"].get(
                sub["measure_replica"], 0)
            if committed < args.min_committed:
                print(f"FAIL: {backend} backend committed {committed} "
                      f"< required {args.min_committed}", file=sys.stderr)
                return 1
        print(f"calibration smoke OK: both backends committed "
              f">= {args.min_committed}")
    return 0


def _traced_sim_run(args, tracer, scenario) -> dict:
    """One simulated run with lifecycle tracing, in the live topology.

    Mirrors the sim side of :func:`repro.analysis.calibration.
    compare_live_sim`: the same live smoke config and client topology,
    so a sim trace and a live trace of the same point line up
    phase-for-phase.
    """
    from repro.harness.cluster import (
        build_hotstuff_cluster,
        build_leopard_cluster,
        build_pbft_cluster,
    )
    from repro.net.protocols import default_live_config_for

    config = default_live_config_for(
        args.protocol, args.replicas, payload_size=args.payload,
        datablock_size=args.datablock_size)
    if args.protocol == "leopard":
        cluster = build_leopard_cluster(
            args.replicas, seed=args.seed, config=config,
            total_rate=args.rate, clients_per_replica=1,
            bundle_size=args.bundle_size, warmup=0.0, prime=False)
    elif args.protocol == "pbft":
        cluster = build_pbft_cluster(
            args.replicas, seed=args.seed, config=config,
            total_rate=args.rate, client_count=1,
            bundle_size=args.bundle_size, warmup=0.0)
    else:
        cluster = build_hotstuff_cluster(
            args.replicas, seed=args.seed, config=config,
            total_rate=args.rate, client_count=1,
            bundle_size=args.bundle_size, warmup=0.0)
    cluster.install_tracer(tracer)
    run_seconds = args.duration
    if scenario is not None:
        from repro.net.chaos import schedule_scenario_sim

        run_seconds = max(run_seconds, scenario.duration() + 0.5)
        cluster.scenario_name = scenario.name
        schedule_scenario_sim(cluster, scenario)
    cluster.run(run_seconds)
    return cluster.report()


def trace_command(argv: list[str]) -> int:
    """The ``trace`` subcommand: record and render request lifecycles."""
    from repro.net.protocols import LIVE_PROTOCOLS

    parser = argparse.ArgumentParser(
        prog="repro-experiments trace",
        description="Run one traced deployment (simulated or live, "
                    "in-process or one OS process per replica), "
                    "reconstruct per-request lifecycles — submit, "
                    "batch, proposal, commit, ack — and render them as "
                    "a text timeline and/or a Chrome trace_event JSON "
                    "for chrome://tracing / Perfetto.")
    parser.add_argument("--backend", choices=("sim", "live"),
                        default="sim",
                        help="execution backend to trace (default sim)")
    parser.add_argument("--processes", action="store_true",
                        help="live backend only: one OS process per "
                             "replica; per-child ring traces are merged "
                             "onto the parent's measurement clock")
    parser.add_argument("--protocol", choices=LIVE_PROTOCOLS,
                        default="leopard")
    parser.add_argument("--replicas", type=int, default=4,
                        help="replica count n (default 4)")
    parser.add_argument("--clients", type=int, default=1,
                        help="live-backend client count (default 1)")
    parser.add_argument("--duration", type=float, default=2.0,
                        help="seconds to serve/simulate (default 2)")
    parser.add_argument("--rate", type=float, default=2000.0,
                        help="offered load, requests/second total")
    parser.add_argument("--bundle-size", type=int, default=100)
    parser.add_argument("--payload", type=int, default=128)
    parser.add_argument("--datablock-size", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--capacity", type=int, default=65536,
                        help="ring-buffer capacity in events")
    parser.add_argument("--trace-sample", type=int, default=1,
                        metavar="K",
                        help="record only every K-th request lifecycle "
                             "(bundle id divisible by K); aggregate "
                             "events are always kept (default 1: "
                             "record everything)")
    parser.add_argument("--limit", type=int, default=10,
                        help="request rows in the text timeline")
    parser.add_argument("--scenario", default=None, metavar="SPEC",
                        help="chaos scenario to run during the traced "
                             "run (annotations land in the timeline)")
    parser.add_argument("--chrome", default=None, metavar="FILE",
                        help="export a validated Chrome trace_event "
                             "JSON document to FILE")
    parser.add_argument("--json", action="store_true",
                        help="print lifecycles + phase summary as JSON "
                             "instead of the text timeline")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="also write the full run report (including "
                             "the raw trace) to FILE")
    parser.add_argument("--require-request", action="store_true",
                        help="exit non-zero unless at least one request "
                             "has a complete committed lifecycle "
                             "(smoke gating)")
    args = parser.parse_args(argv)
    if args.processes and args.backend != "live":
        parser.error("--processes requires --backend live")

    scenario = None
    if args.scenario is not None:
        from repro.errors import ConfigError
        from repro.net.chaos import load_scenario

        try:
            scenario = load_scenario(args.scenario)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    from repro.obs import (
        RingTracer,
        build_lifecycles,
        chrome_trace,
        render_timeline,
        summarize_lifecycles,
        validate_chrome_trace,
    )

    try:
        tracer = RingTracer(capacity=args.capacity,
                            sample=args.trace_sample)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.backend == "sim":
        report = _traced_sim_run(args, tracer, scenario)
    elif args.processes:
        from repro.harness.procs import run_live_processes

        report = run_live_processes(
            n=args.replicas, client_count=args.clients,
            duration=args.duration, protocol=args.protocol,
            total_rate=args.rate, bundle_size=args.bundle_size,
            payload_size=args.payload,
            datablock_size=args.datablock_size, seed=args.seed,
            scenario=scenario, tracer=tracer)
    else:
        from repro.net.live import run_live_sync
        from repro.net.protocols import default_live_config_for

        config = default_live_config_for(
            args.protocol, args.replicas, payload_size=args.payload,
            datablock_size=args.datablock_size)
        report = run_live_sync(
            n=args.replicas, client_count=args.clients,
            duration=args.duration, protocol=args.protocol,
            config=config, total_rate=args.rate,
            bundle_size=args.bundle_size, seed=args.seed,
            scenario=scenario, tracer=tracer)

    trace = report.get("trace") or tracer.to_jsonable()
    annotations = (report.get("timeseries") or {}).get("annotations", [])
    lifecycles = build_lifecycles(trace["events"],
                                  measure_replica=report["measure_replica"])
    complete = sum(1 for lc in lifecycles if lc["complete"])

    if args.json:
        print(json.dumps({
            "backend": report["backend"],
            "protocol": report["protocol"],
            "n": report["n"],
            "deployment": report.get("deployment"),
            "events_recorded": len(trace["events"]),
            "events_dropped": trace.get("dropped", 0),
            "lifecycles": lifecycles,
            "phase_summary": summarize_lifecycles(lifecycles),
            "annotations": annotations,
        }, indent=2, sort_keys=True))
    else:
        mode = (report.get("deployment") or {}).get("mode", "in-process")
        print(f"traced {report['backend']} run: n={report['n']} "
              f"{report['protocol']} [{mode}], "
              f"{len(trace['events'])} events recorded "
              f"({trace.get('dropped', 0)} dropped)")
        print(render_timeline(lifecycles, annotations, limit=args.limit))
    _write_report(report, args.output)

    if args.chrome:
        doc = chrome_trace(lifecycles, annotations)
        spans = validate_chrome_trace(doc)
        with open(args.chrome, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
        print(f"chrome trace written to {args.chrome} "
              f"({spans} spans; load in chrome://tracing or Perfetto)")

    if args.require_request and complete == 0:
        print("FAIL: no request completed a traced lifecycle "
              "(submit through commit)", file=sys.stderr)
        return 1
    if args.require_request:
        print(f"trace smoke OK: {complete} committed lifecycles traced")
    return 0


def _expt_run(argv: list[str]) -> int:
    """``expt run``: execute a declarative trial matrix, locally parallel."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments expt run",
        description="Expand a YAML/JSON experiment config into concrete "
                    "trials and execute them in parallel, one "
                    "standard_report per trial.  Re-invocations resume: "
                    "trials whose result file exists and validates are "
                    "skipped; raising trials retry with the same seed.")
    parser.add_argument("--config", required=True, metavar="FILE",
                        help="experiment config (.yaml/.yml/.json)")
    parser.add_argument("--results-dir", default=None, metavar="DIR",
                        help="per-trial result files land here (default "
                             "artifacts/expt/<name>/results)")
    parser.add_argument("--store", default=None, metavar="FILE",
                        help="also append the trial results to this "
                             "longitudinal JSONL store")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel worker processes (default: "
                             "min(trials, cpu count); 0 = inline serial)")
    parser.add_argument("--retries", type=int, default=2,
                        help="retries per raising trial, same seed "
                             "(default 2)")
    parser.add_argument("--no-resume", action="store_true",
                        help="re-run every trial even when a valid "
                             "result file exists")
    parser.add_argument("--json", action="store_true",
                        help="print the run summary as JSON")
    args = parser.parse_args(argv)

    from repro.errors import ConfigError
    from repro.expt import load_config, run_experiment
    from repro.expt.store import ResultsStore

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results_dir = args.results_dir or f"artifacts/expt/{config.name}/results"
    print(f"experiment {config.name}: {len(config.trials)} trials "
          f"-> {results_dir}")
    summary = run_experiment(
        config, results_dir, jobs=args.jobs, retries=args.retries,
        resume=not args.no_resume, progress=print)
    if args.store:
        appended = ResultsStore(args.store).ingest_results_dir(results_dir)
        summary["store"] = args.store
        summary["store_rows_appended"] = appended
        print(f"store: appended {appended} trial rows to {args.store}")
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"executed {len(summary['executed'])}, "
              f"resumed past {len(summary['skipped'])}, "
              f"failed {len(summary['failed'])} "
              f"({summary['elapsed_s']:.1f}s)")
    if summary["failed"]:
        for trial_id, error in summary["failed"].items():
            print(f"FAIL: {trial_id}: {error}", file=sys.stderr)
        return 1
    return 0


def _expt_report(argv: list[str]) -> int:
    """``expt report``: render a store as markdown/HTML."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments expt report",
        description="Render cross-protocol comparison tables (bootstrap "
                    "confidence intervals, speedups and rank tests vs a "
                    "named baseline) and throughput-vs-n curves from a "
                    "longitudinal results store.")
    parser.add_argument("--store", required=True, metavar="FILE",
                        help="the JSONL results store")
    parser.add_argument("--baseline", default="pbft",
                        choices=("leopard", "pbft", "hotstuff"),
                        help="baseline protocol for speedups/rank tests "
                             "(default pbft, the paper's BFT-SMaRt "
                             "stand-in)")
    parser.add_argument("--markdown", default=None, metavar="FILE",
                        help="write the markdown report here "
                             "(default: print to stdout)")
    parser.add_argument("--html", default=None, metavar="FILE",
                        help="also write a standalone HTML report "
                             "(tables + inline SVG scaling curves)")
    args = parser.parse_args(argv)

    from repro.expt.report import render_html, render_markdown
    from repro.expt.store import ResultsStore

    store = ResultsStore(args.store)
    if not store.path.exists():
        print(f"error: no store at {args.store}", file=sys.stderr)
        return 2
    markdown = render_markdown(store, baseline=args.baseline)
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(markdown + "\n")
        print(f"markdown report written to {args.markdown}")
    else:
        print(markdown)
    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_html(store, baseline=args.baseline) + "\n")
        print(f"html report written to {args.html}")
    return 0


def _expt_ingest(argv: list[str]) -> int:
    """``expt ingest``: fold artifacts into a store."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments expt ingest",
        description="Append artifacts to a longitudinal store: trial "
                    "result files, repro.perf benchmark reports "
                    "(BENCH_micro_coding.json / BENCH_sim_eventloop"
                    ".json), or CALIBRATION_presets.json.  Ingestion "
                    "is lossless (bench rows keep the original row "
                    "verbatim, host fingerprints are preserved) and "
                    "idempotent unless --run-label marks a fresh "
                    "longitudinal observation.")
    parser.add_argument("--store", required=True, metavar="FILE")
    parser.add_argument("--run-label", default=None, metavar="LABEL",
                        help="key suffix distinguishing this ingestion "
                             "from earlier ones of the same artifact "
                             "(CI passes the workflow run id)")
    parser.add_argument("paths", nargs="+", metavar="PATH",
                        help="artifact files, or directories of trial "
                             "result files")
    args = parser.parse_args(argv)

    import os

    from repro.expt.store import ResultsStore

    store = ResultsStore(args.store)
    total = 0
    for path in args.paths:
        if os.path.isdir(path):
            appended = store.ingest_results_dir(path)
        else:
            try:
                appended = store.ingest_artifact(
                    path, run_label=args.run_label)
            except (ValueError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        print(f"{path}: appended {appended} rows")
        total += appended
    print(f"store {args.store}: {total} rows appended")
    return 0


def expt_command(argv: list[str]) -> int:
    """The ``expt`` subcommand family: run / report / ingest."""
    if argv and argv[0] == "run":
        return _expt_run(argv[1:])
    if argv and argv[0] == "report":
        return _expt_report(argv[1:])
    if argv and argv[0] == "ingest":
        return _expt_ingest(argv[1:])
    print("usage: expt {run,report,ingest} ...\n"
          "  run     execute a declarative trial matrix (parallel, "
          "resumable)\n"
          "  report  render markdown/HTML tables + curves from a store\n"
          "  ingest  fold BENCH_*/CALIBRATION_*/trial artifacts into a "
          "store", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    """Run the requested experiments (or the live cluster) and report."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "run-live":
        return run_live_command(argv[1:])
    if argv and argv[0] == "calibrate":
        return calibrate_command(argv[1:])
    if argv and argv[0] == "trace":
        return trace_command(argv[1:])
    if argv and argv[0] == "expt":
        return expt_command(argv[1:])

    from repro.harness.experiments import ALL_EXPERIMENTS, full_scale

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the Leopard paper's tables and figures, "
                    "boot a live cluster with 'run-live', reconcile "
                    "the backends with 'calibrate', or record request "
                    "lifecycles with 'trace'.")
    parser.add_argument(
        "experiments", nargs="*",
        help="experiment ids (e.g. fig9 table3), 'all', 'run-live', "
             "'calibrate', 'trace', or 'expt'")
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit")
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        print("available experiments:")
        for name in ALL_EXPERIMENTS:
            print(f"  {name}")
        print("\nlive cluster: run-live --protocol "
              "{leopard,pbft,hotstuff} [--processes] --replicas N "
              "--clients C --duration S (see run-live --help)")
        print("live-vs-sim reconciliation: calibrate --protocol P "
              "--duration S (see calibrate --help)")
        print("request-lifecycle tracing: trace --backend {sim,live} "
              "[--processes] [--chrome FILE] (see trace --help)")
        print("experiment service: expt run --config FILE | expt report "
              "--store FILE | expt ingest (see expt --help)")
        print(f"paper-scale grids: {'ON' if full_scale() else 'off'} "
              f"(set REPRO_FULL=1 to enable)")
        return 0

    selected = (list(ALL_EXPERIMENTS) if args.experiments == ["all"]
                else args.experiments)
    unknown = [name for name in selected if name not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    for name in selected:
        started = time.time()
        result = ALL_EXPERIMENTS[name]()
        print(result.render())
        print(f"  [{name} took {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
