"""The six workloads and the code that drives one of them in this process.

``run.py`` starts a fresh child per run; the child calls :func:`drive`,
which builds the deployment, measures it for ``seconds``, checks the
outputs and returns ``{"checks", "attempted", "failed", "metrics",
"info"}``.  ``metrics`` holds every end-to-end name on an untraced run
and every per-layer name on a traced one (see ``BENCHMARK.json``).

Live workloads boot an in-process ``LiveCluster`` (one OS process, one
thread, the cluster's own event loop) and swap the benchmark's
:class:`client.BenchClient` in for the stock clients.  Sim workloads run
fresh repetitions of a ``repro.harness.cluster`` builder and keep the
fastest.  Why each workload exists is recorded in ``BENCHMARK.json`` and
the README.

Throughput and latency are read on the clock the cluster runs on (the
host's for ``live-*``, the simulated one for ``sim-*``); cost is host
CPU on both.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import statistics
import time
from collections import defaultdict
from contextlib import ExitStack
from dataclasses import dataclass

from repro.core.client import assign_replica
from repro.core.config import LeopardConfig, table2_parameters
from repro.core.recovery import check_convergence
from repro.harness import cluster as builders
from repro.messages.client import Ack
from repro.net.chaos import load_scenario, schedule_scenario_sim
from repro.net.live import LiveCluster, transport_summary
from repro.net.protocols import default_live_config_for
from repro.stats import percentile as sorted_percentile

from .client import BenchClient, poisson_schedule
from .spans import Tracer, installed, layer_hooks

PAYLOAD = 128


@dataclass(frozen=True)
class LiveWorkload:
    """An in-process TCP cluster under benchmark-owned clients.

    ``mode`` ``closed`` keeps ``window`` bundles outstanding per client;
    ``paced`` offers ``rate`` requests/s in total on seeded Poisson
    schedules.  One client per non-leader replica, as in the paper's
    deployment.  ``batch`` is the protocol's batch size (Leopard's
    datablock size) handed to ``default_live_config_for``.
    """

    name: str
    protocol: str
    mode: str
    batch: int
    bundle_size: int
    window: int = 0
    rate: float = 0.0
    n: int = 16
    warmup_s: float = 2.0
    drain_s: float = 2.0


@dataclass(frozen=True)
class SimWorkload:
    """Repetitions of one simulated deployment.

    One repetition simulates ``fixed_s + per_second_s * seconds``
    seconds.  ``rate`` ``None`` keeps the builder's saturating primed
    clients; a number paces them (``prime=False, resubmit=True``).
    ``scenario`` is chaos-script text armed before the run; with one,
    bundles submitted more than ``SETTLE_S`` before the end must be
    acked.
    """

    name: str
    protocol: str
    n: int
    fixed_s: float
    per_second_s: float
    rate: float | None = None
    scenario: str | None = None
    warmup_s: float | None = None
    progress_timeout: float | None = None


WORKLOADS = {w.name: w for w in (
    # Six bundles deep, not HotStuff's three: a Leopard client feeds one
    # replica's data plane, and three bundles leave it waiting on acks
    # (goodput 166-216 k req/s, set by latency) where six keep it busy
    # (233-246 k on the same host, set by CPU; ten add nothing).
    LiveWorkload("live-leopard-closed", "leopard", "closed", batch=500,
                 bundle_size=500, window=6),
    # 20 k req/s, not the issue's 30 k: latency is the same 37 ms at
    # both (batching timers set it), but at 30 k the loop is 63 % busy
    # and a neighbour that costs the shared host 40 % of its speed puts
    # it past the knee (p50 37 -> 84 ms in five runs of ten); at 20 k
    # that neighbour only takes it to where 30 k sits on a quiet host.
    LiveWorkload("live-leopard-paced", "leopard", "paced", batch=100,
                 bundle_size=100, rate=20_000.0),
    LiveWorkload("live-hotstuff-closed", "hotstuff", "closed", batch=500,
                 bundle_size=500, window=3),
    # 12 s of saturation ramp (the builder's warm-up at n=128 is 11.86 s)
    # plus 0.8 simulated seconds per measured second.
    SimWorkload("sim-leopard-n128", "leopard", 128, fixed_s=12.0,
                per_second_s=0.8),
    SimWorkload("sim-pbft-n64", "pbft", 64, fixed_s=1.0,
                per_second_s=0.06),
    # The scenario is fixed in simulated time, so the length is too.
    SimWorkload("sim-leopard-faults", "leopard", 64, fixed_s=25.0,
                per_second_s=0.0, rate=60_000.0,
                scenario="at 5 crash victim; at 8 crash leader; "
                         "at 14 restart victim",
                warmup_s=2.0, progress_timeout=3.0),
)}

#: Fresh repetitions of a sim workload (the time cap allows two).
REPS = 2
#: Simulated step between outage probes on a scenario workload.
OUTAGE_STEP = 0.05
#: Live latency percentiles are taken per part of the window of about
#: this many seconds, and the median part is reported.
LATENCY_PART_S = 3.0
#: On a scenario workload, a bundle submitted this many simulated
#: seconds before the end and still unacknowledged has failed.
SETTLE_S = 8.0
#: A paced run whose generator sent this late at p99 did not offer the
#: schedule it claims.  Lateness counts as latency (bundles are timed
#: from their due time), so a few milliseconds only say the loop was
#: busy; this limit is longer than the median latency itself.
LATE_LIMIT_MS = 50.0
#: A simulated repetition is timed in this many consecutive chunks.
CHUNKS = 20


def percentile(values: list[float], pct: float) -> float:
    return sorted_percentile(sorted(values), pct)


def drive(workload, seed: int, seconds: float, trace: bool,
          spawned_at: float, spans_out: str | None = None) -> dict:
    """Run ``workload`` once in this process."""
    import_s = time.time() - spawned_at
    if isinstance(workload, LiveWorkload):
        result = asyncio.run(_drive_live(
            workload, seed, seconds, trace, spans_out))
    else:
        result = _drive_sim(workload, seed, seconds, trace, spans_out)
    metrics = result["metrics"]
    if trace:
        metrics["harness.import_s"] = import_s
    else:
        metrics["setup_s"] += import_s
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def time_setup(workload, seed: int, seconds: float,
               spawned_at: float) -> float:
    """``setup_s`` and nothing else: the deployment is made ready as
    :func:`drive` would make it, then torn down.  ``run.py`` reports the
    median of several fresh processes."""
    import_s = time.time() - spawned_at
    if isinstance(workload, LiveWorkload):
        async def set_up() -> float:
            cluster, build_s, start_s = await _start_live(
                workload, seed, seconds)
            await cluster.stop()
            return build_s + start_s
        return import_s + asyncio.run(set_up())
    started = time.perf_counter()
    _build_sim(workload, seed)
    return import_s + time.perf_counter() - started


# ---------------------------------------------------------------------------
# Correctness checks shared by both backends
# ---------------------------------------------------------------------------


def tails_agree(replicas: list) -> str | None:
    """Every replica's executed tail agrees at each overlapping sn."""
    seen: dict[int, tuple[str, int]] = {}
    for core in replicas:
        for sn, digest in core.recovery_summary()["exec_tail"]:
            first = seen.setdefault(sn, (digest, core.node_id))
            if first[0] != digest:
                return (f"replicas {first[1]} and {core.node_id} executed "
                        f"different blocks at sn {sn}")
    return None


def _last_executed(core) -> int:
    return core.recovery_summary()["last_executed"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _egress_share(sent_by_replica: list[int], leader: int) -> float:
    return _ratio(sent_by_replica[leader], sum(sent_by_replica))


# ---------------------------------------------------------------------------
# Live
# ---------------------------------------------------------------------------


def _build_live(workload: LiveWorkload, seed: int, seconds: float):
    n = workload.n
    clients = n - 1
    config = default_live_config_for(
        workload.protocol, n, PAYLOAD, workload.batch)
    cluster = LiveCluster(n, client_count=clients,
                          protocol=workload.protocol, config=config,
                          seed=seed, bundle_size=workload.bundle_size)
    # Load continues through the drain: chained HotStuff commits a block
    # only when later blocks extend it, so stopping the clients at the
    # window's end would strand the window's last bundles.
    stop = workload.warmup_s + seconds + workload.drain_s
    for index in range(clients):
        client_id = n + index
        target = cluster.leader
        if workload.protocol == "leopard":
            target = assign_replica(client_id, n, cluster.leader)
        schedule = ()
        if workload.mode == "paced":
            bundles_per_s = workload.rate / clients / workload.bundle_size
            schedule = poisson_schedule(
                seed * 1009 + index, bundles_per_s, 0.05, stop)
        cluster.clients[index] = BenchClient(
            client_id, target, workload.bundle_size, PAYLOAD,
            window=workload.window, schedule=schedule, stop_at=stop)
    return cluster


class _Probe:
    """Counters read at one instant of a live run."""

    def __init__(self, cluster) -> None:
        self.wall = time.perf_counter()
        self.cpu = time.process_time()
        self.committed = cluster.committed_requests()
        self.acked = sum(c.acked_requests for c in cluster.clients)
        self.batches = _last_executed(
            cluster.replicas[cluster.measure_replica])
        stats = [node.router.stats for node in cluster.nodes.values()]
        self.frames = sum(s.total_sent_msgs() for s in stats)
        self.sent = [cluster.nodes[i].router.stats.total_sent()
                     for i in range(cluster.n)]
        self.sent_all = sum(s.total_sent() for s in stats)


def _window(before: _Probe, after: _Probe) -> tuple[float, float]:
    """(requests/s, CPU microseconds/request) between two probes."""
    committed = after.committed - before.committed
    return (_ratio(committed, after.wall - before.wall),
            _ratio((after.cpu - before.cpu) * 1e6, committed))


async def _start_live(workload: LiveWorkload, seed: int, seconds: float):
    """Build and boot the cluster: ``(cluster, build_s, start_s)``."""
    build_started = time.perf_counter()
    cluster = _build_live(workload, seed, seconds)
    start_started = time.perf_counter()
    await cluster.start()
    return (cluster, start_started - build_started,
            time.perf_counter() - start_started)


async def _drive_live(workload: LiveWorkload, seed: int, seconds: float,
                      trace: bool, spans_out: str | None) -> dict:
    cluster, build_s, start_s = await _start_live(workload, seed, seconds)
    begin = workload.warmup_s
    end = begin + seconds
    # A traced pass runs the first half of the window untraced and the
    # second half traced: the same cluster in the same steady state
    # prices the tracing and yields the ledger.
    marks = [begin, (begin + end) / 2, end] if trace else [begin, end]
    tracer = Tracer()
    queue_max = [0, 0.0]
    probes: list[_Probe] = []
    sampler = None
    try:
        with ExitStack() as tracing:
            for at in marks:
                await asyncio.sleep(max(0.0, at - cluster.clock()))
                probes.append(_Probe(cluster))
                if trace and len(probes) == 2:
                    tracing.enter_context(installed(layer_hooks(
                        tracer, _core_classes(cluster), cluster.n,
                        cluster.nodes.values())))
                    sampler = asyncio.get_running_loop().create_task(
                        _sample_queues(cluster, queue_max))
            if sampler is not None:
                sampler.cancel()
                await asyncio.gather(sampler, return_exceptions=True)
        clients = cluster.clients
        while cluster.clock() < end + workload.drain_s and any(
                acked_at is None and due_at < end for c in clients
                for due_at, acked_at in zip(c.due_at, c.acked_at)):
            await asyncio.sleep(0.05)
    finally:
        await cluster.stop()
    first, middle, last = probes[0], probes[-2], probes[-1]

    # A bundle belongs to the window by its due time; it fails when its
    # last request is still unacknowledged after the drain.  Latency
    # percentiles are taken per part of the window and the median part
    # is reported: one stall (a collection, a neighbour on the shared
    # host) moves one part's tail, not the run's figure.
    parts = max(1, round(seconds / LATENCY_PART_S))
    latencies: list[list[float]] = [[] for _ in range(parts)]
    late, failed = [], 0
    for c in clients:
        for due_at, sent_at, acked_at in zip(
                c.due_at, c.sent_at, c.acked_at):
            if not begin <= due_at < end:
                continue
            late.append((sent_at - due_at) * 1e3)
            if acked_at is None:
                failed += 1
            else:
                part = int((due_at - begin) / seconds * parts)
                latencies[part].append((acked_at - due_at) * 1e3)
    due = len(late)

    transport = transport_summary(
        [node.router for node in cluster.nodes.values()])
    # Acks counted at the window's end against executions counted after
    # the drain: the measure replica may trail the acking replica by the
    # frames still in flight, never by more.
    executed = cluster.committed_requests()
    checks = []
    mismatch = tails_agree(cluster.replicas)
    if mismatch:
        checks.append(mismatch)
    if last.committed - first.committed <= 0:
        checks.append("nothing committed in the window")
    if last.acked > executed:
        checks.append(f"{last.acked} requests acked but only {executed} "
                      "executed at the measure replica")
    for counter in ("dropped_frames", "decode_errors", "handler_errors"):
        if transport[counter]:
            checks.append(f"{counter} = {transport[counter]}")
    late_p99 = percentile(late, 99) if workload.mode == "paced" else 0.0
    if late_p99 > LATE_LIMIT_MS:
        checks.append(f"load generator ran {late_p99:.2f} ms late at p99")

    result = {"checks": checks, "attempted": due, "failed": failed,
              "info": {"latency_samples": due - failed,
                       "latency_samples_per_part": (due - failed) // parts,
                       "late_p99_ms": late_p99}}
    if not trace:
        goodput, cost = _window(first, last)
        result["metrics"] = {
            "goodput_rps": goodput,
            "cpu_us_per_req": cost,
            "latency_p50_ms": statistics.median(
                percentile(part, 50) for part in latencies),
            "latency_p99_ms": statistics.median(
                percentile(part, 99) for part in latencies),
            "setup_s": build_s + start_s,
        }
        return result

    if spans_out:
        tracer.dump(spans_out)
    traced = tracer.snapshot()
    checks += unattached(traced, LIVE_SPANS)
    wall = last.wall - middle.wall
    cpu = last.cpu - middle.cpu
    committed = last.committed - middle.committed
    plain_cost = _window(first, middle)[1]
    traced_cost = _window(middle, last)[1]
    metrics = _layer_metrics(traced, committed, cluster.leader)
    frames = last.frames - middle.frames
    sent = [b - a for a, b in zip(middle.sent, last.sent)]
    sent_all = last.sent_all - middle.sent_all
    spans_self = sum(traced["self"].values())
    rest = max(0.0, cpu - spans_self)
    idle = max(0.0, wall - cpu)
    metrics.update({
        "harness.build_s": build_s,
        "harness.start_s": start_s,
        "client.bundles_due": due,
        "client.bundles_sent": sum(
            1 for c in clients for at in c.sent_at if begin <= at < end),
        "client.bundles_acked": due - failed,
        "client.late_p99_ms": late_p99,
        "client.failed_share": _ratio(failed, due),
        "core.reqs_per_batch": _ratio(
            committed, last.batches - middle.batches),
        "core.view_changes": max(r.view for r in cluster.replicas) - 1,
        "core.retransmissions": cluster.metrics.retransmissions,
        "wire.encodes_per_frame": _ratio(
            traced["calls"]["wire.encode"], frames),
        "net.frames_sent": frames,
        "net.bytes_sent": sent_all,
        "net.frames_per_req": _ratio(frames, committed),
        "net.bytes_per_req": _ratio(sent_all, committed),
        "net.leader_egress_share": _egress_share(sent, cluster.leader),
        "net.queue_bytes_max": queue_max[0],
        "net.backlog_s_max": queue_max[1],
        "net.rest_s": rest,
        "net.rest_us_per_req": _ratio(rest * 1e6, committed),
        "net.idle_s": idle,
        "trace.coverage": _ratio(spans_self, cpu),
        "trace.overhead_share": _ratio(traced_cost, plain_cost) - 1.0,
    })
    for counter in ("dropped_frames", "reconnects", "decode_errors",
                    "handler_errors"):
        metrics["net." + counter] = transport[counter]
    perf = cluster.metrics.perf.snapshot()["seconds"]
    _add_crypto(metrics, traced, perf, committed)
    result["metrics"] = metrics
    return result


async def _sample_queues(cluster, high: list) -> None:
    """Every 100 ms: the deepest outbound queue of any node."""
    routers = [node.router for node in cluster.nodes.values()]
    while True:
        await asyncio.sleep(0.1)
        high[0] = max(high[0], max(r.queued_bytes() for r in routers))
        high[1] = max(high[1], max(r.backlog_seconds() for r in routers))


def _core_classes(cluster) -> list[type]:
    return list({type(core) for core in
                 [*cluster.replicas, *cluster.clients]})


# ---------------------------------------------------------------------------
# Per-layer arithmetic shared by both backends
# ---------------------------------------------------------------------------

#: Spans every traced run of a backend must have recorded.  A hook that
#: no longer attaches (an entry point renamed, or held somewhere new)
#: would otherwise only move its time into the catch-all, ``net.rest_s``
#: or ``sim.self_s``, and lower ``trace.coverage`` unnoticed.
LIVE_SPANS = ("core.on_message", "wire.encode", "wire.decode", "net.send",
              "net.deliver", "stats.record")
SIM_SPANS = ("core.on_message", "core.on_timer", "stats.record", "sim.run")


def unattached(traced: dict, spans: tuple[str, ...]) -> list[str]:
    """One failed check per span name that recorded no call."""
    return [f"no {name} span was recorded: its hook did not attach"
            for name in spans if not traced["calls"][name]]


#: Per-layer names with no counterpart on the other backend report 0.
LIVE_ONLY = (
    "harness.start_s", "client.late_p99_ms",
    "wire.encodes_per_frame", "net.frames_sent", "net.bytes_sent",
    "net.frames_per_req", "net.bytes_per_req", "net.leader_egress_share",
    "net.queue_bytes_max", "net.backlog_s_max", "net.dropped_frames",
    "net.reconnects", "net.decode_errors", "net.handler_errors",
    "net.rest_s", "net.rest_us_per_req", "net.idle_s")
SIM_ONLY = (
    "sim.run_s", "sim.self_s", "sim.events", "sim.events_per_s",
    "sim.us_per_event", "sim.events_per_req", "sim.sim_s_per_wall_s",
    "sim.deliveries", "sim.modelled_bytes_per_req",
    "sim.leader_egress_share", "sim.queue.max_pending",
    "sim.queue.fanout_slabs", "sim.queue.overflow_migrated",
    "sim.queue.late_clamped", "sim.queue.waves", "sim.outage_s",
    "sim.catchup_s")


def _layer_metrics(traced: dict, committed: int, leader: int) -> dict:
    """Metrics that are plain arithmetic on the span aggregates."""
    calls, busy, self_s, counts = (traced["calls"], traced["busy"],
                                   traced["self"], traced["counts"])
    core_calls = sum(counts[f"core.{m}.calls"]
                     for m in ("start", "on_message", "on_timer"))
    by_node = traced["core_self_by_node"]
    metrics = dict.fromkeys(LIVE_ONLY + SIM_ONLY, 0.0)
    wire_s = self_s["wire.encode"] + self_s["wire.decode"]
    metrics.update({
        "client.busy_s": counts["client.self_s"],
        "core.calls": core_calls,
        "core.on_message.calls": counts["core.on_message.calls"],
        "core.on_message.busy_s": counts["core.on_message.busy_s"],
        "core.on_timer.calls": counts["core.on_timer.calls"],
        "core.on_timer.busy_s": counts["core.on_timer.busy_s"],
        "core.self_s": counts["core.self_s"],
        "core.us_per_req": _ratio(counts["core.self_s"] * 1e6, committed),
        "core.effects_per_call": _ratio(counts["core.effects"],
                                        core_calls),
        "core.leader_share": _ratio(
            by_node[leader], sum(by_node.values())),
        "wire.encode.calls": calls["wire.encode"],
        "wire.encode.busy_s": busy["wire.encode"],
        "wire.encode.bytes": counts["wire.encode.bytes"],
        "wire.decode.calls": calls["wire.decode"],
        "wire.decode.busy_s": busy["wire.decode"],
        "wire.decode.bytes": counts["wire.decode.bytes"],
        "wire.encode_mb_per_s": _ratio(
            counts["wire.encode.bytes"] / 1e6, busy["wire.encode"]),
        "wire.decode_mb_per_s": _ratio(
            counts["wire.decode.bytes"] / 1e6, busy["wire.decode"]),
        "wire.us_per_req": _ratio(wire_s * 1e6, committed),
        "net.send.calls": calls["net.send"],
        "net.send.self_s": self_s["net.send"],
        "net.deliver.calls": calls["net.deliver"],
        "net.deliver.self_s": self_s["net.deliver"],
        "stats.record.calls": calls["stats.record"],
        "stats.record.busy_s": busy["stats.record"],
    })
    return metrics


def _add_crypto(metrics: dict, traced: dict, perf_seconds: dict,
                committed: int) -> None:
    """``crypto.*``: threshold spans plus the report's own ``perf``
    timers for coding and hashing (which run inside core spans)."""
    calls, busy = traced["calls"], traced["busy"]
    total = 0.0
    for op in ("sign", "verify_share", "combine", "verify"):
        metrics[f"crypto.{op}.calls"] = calls[f"crypto.{op}"]
        metrics[f"crypto.{op}.busy_s"] = busy[f"crypto.{op}"]
        total += traced["self"][f"crypto.{op}"]
    for family in ("coding", "hashing"):
        spent = sum(value for key, value in perf_seconds.items()
                    if key.startswith(family + "/"))
        metrics[f"crypto.{family}.busy_s"] = spent
        total += spent
    metrics["crypto.us_per_req"] = _ratio(total * 1e6, committed)


# ---------------------------------------------------------------------------
# Sim
# ---------------------------------------------------------------------------


def _build_sim(workload: SimWorkload, seed: int):
    if workload.protocol == "pbft":
        return builders.build_pbft_cluster(n=workload.n, seed=seed)
    alpha, tau = table2_parameters(workload.n)
    options = {}
    if workload.progress_timeout is not None:
        options["progress_timeout"] = workload.progress_timeout
    config = LeopardConfig(n=workload.n, datablock_size=alpha,
                           bftblock_max_links=tau, **options)
    if workload.rate is None:
        return builders.build_leopard_cluster(
            n=workload.n, seed=seed, config=config,
            warmup=workload.warmup_s)
    return builders.build_leopard_cluster(
        n=workload.n, seed=seed, config=config, warmup=workload.warmup_s,
        total_rate=workload.rate, prime=False, resubmit=True)


def _strip_wall_clock(report: dict) -> dict:
    """The report minus the fields that time the host, not the model."""
    stripped = dict(report)
    stripped.pop("sim_events_per_sec")
    stripped["perf"] = {"counts": report["perf"]["counts"]}
    return stripped


def _run_rep(workload: SimWorkload, cluster, sim_seconds: float) -> dict:
    """Run one built cluster in timed chunks; watch for the outage."""
    victim = leader_crash = None
    if workload.scenario:
        scenario = schedule_scenario_sim(
            cluster, load_scenario(workload.scenario))
        for event in scenario.events:
            if event.op == "restart":
                victim = event.args["node"]
            if event.op == "crash" and event.args["node"] == cluster.leader:
                leader_crash = event.at
    # With a leader crash, step finely enough that the longest interval
    # with no execution at the measure replica afterwards can be read
    # off the collector, to within one step.
    steps = CHUNKS if leader_crash is None \
        else round(sim_seconds / OUTAGE_STEP)
    step_s = sim_seconds / steps
    per_chunk = max(1, steps // CHUNKS)
    executions = cluster.metrics.last_execution
    measure = cluster.measure_replica
    events, outage, last_seen = 0, 0.0, None
    wall, cpu = [], []
    wall_mark, cpu_mark = time.perf_counter(), time.process_time()
    for step in range(steps):
        events += cluster.run(step_s)
        latest = executions.get(measure)
        if latest != last_seen:
            resumed = step * step_s
            if last_seen is not None and leader_crash is not None \
                    and resumed > leader_crash:
                outage = max(outage, resumed - last_seen)
            last_seen = latest
        if (step + 1) % per_chunk == 0 or step == steps - 1:
            wall_now, cpu_now = time.perf_counter(), time.process_time()
            wall.append(wall_now - wall_mark)
            cpu.append(cpu_now - cpu_mark)
            wall_mark, cpu_mark = wall_now, cpu_now
    return {"wall": wall, "cpu": cpu, "events": events, "outage": outage,
            "victim": victim}


def _drive_sim(workload: SimWorkload, seed: int, seconds: float,
               trace: bool, spans_out: str | None) -> dict:
    sim_seconds = workload.fixed_s + workload.per_second_s * seconds
    reps = []
    tracer = Tracer()
    for index in range(REPS):
        gc.collect()
        build_started = time.perf_counter()
        cluster = _build_sim(workload, seed)
        build_s = time.perf_counter() - build_started
        acked: defaultdict[tuple[int, int], int] = defaultdict(int)
        with ExitStack() as tracing:
            if workload.scenario:
                tracing.enter_context(installed(
                    [_count_acks(type(cluster.clients[0]), acked)]))
            # A traced pass prices the tracing against the untraced
            # repetitions before it.
            traced_rep = trace and index == REPS - 1
            if traced_rep:
                hooks = layer_hooks(tracer, _core_classes(cluster),
                                    cluster.n)
                hooks.append((builders.Cluster, "run", tracer.wrap(
                    "sim.run", builders.Cluster.run)))
                tracing.enter_context(installed(hooks))
            rep = _run_rep(workload, cluster, sim_seconds)
        rep.update(build_s=build_s, cluster=cluster, acked=acked,
                   report=cluster.report(), traced=traced_rep)
        reps.append(rep)

    # Every repetition does the same work chunk by chunk, so the
    # fastest time seen for each chunk is the least disturbed one: a
    # finer-grained min-of-repetitions.
    plain = [rep for rep in reps if not rep["traced"]]
    cpu = sum(map(min, zip(*(rep["cpu"] for rep in plain))))
    rep = reps[-1]
    cluster, report = rep["cluster"], rep["report"]
    intervals = report["timeseries"]
    executed = round(sum(row["throughput_rps"]
                         for row in intervals["intervals"])
                     * intervals["interval_s"])

    checks = []
    reference = _strip_wall_clock(reps[0]["report"])
    for other in reps[1:]:
        if _strip_wall_clock(other["report"]) != reference \
                or other["outage"] != reps[0]["outage"]:
            checks.append("repetitions of one seed produced different "
                          "reports")
    mismatch = tails_agree(cluster.replicas)
    if mismatch:
        checks.append(mismatch)
    if report["executed_requests"].get(cluster.measure_replica, 0) <= 0:
        checks.append("nothing committed after warm-up")
    # Saturating clients offer more than the system can serve on
    # purpose: what is still queued at the end is backlog, not failure,
    # so the operations attempted are the bundles acknowledged.
    attempted, failed = report["acked_bundles"], 0
    catchup = 0.0
    if workload.scenario:
        victim = rep["victim"]
        recovery = report["recovery"]["replicas"][str(victim)]
        catchup = recovery["catchup_s"] or 0.0
        if not recovery["complete"]:
            checks.append(f"victim {victim} did not finish recovery")
        converged, detail = check_convergence(report, victim)
        if not converged:
            checks.append(detail)
        if max(r.view for r in cluster.replicas) <= 1:
            checks.append("the view did not advance past the crashed "
                          "leader")
        attempted, failed = _settled_bundles(
            cluster.clients, rep["acked"], sim_seconds - SETTLE_S)
    else:
        # (Skipped above: re-submission after a fault legitimately acks
        # duplicates.)
        acked = sum(c.acked_requests for c in cluster.clients)
        if acked > executed:
            checks.append(f"{acked} requests acked but only {executed} "
                          "executed at the measure replica")

    result = {"checks": checks, "attempted": attempted, "failed": failed,
              "info": {"latency_samples": report["acked_bundles"],
                       "sim_seconds": sim_seconds,
                       "repetitions": len(reps),
                       "executed_requests": executed}}
    if not trace:
        latency = report["latency_s"]
        result["metrics"] = {
            "goodput_rps": report["throughput_rps"],
            "cpu_us_per_req": _ratio(cpu * 1e6, executed),
            "latency_p50_ms": latency["p50"] * 1e3,
            "latency_p99_ms": latency["p99"] * 1e3,
            "setup_s": reps[0]["build_s"],
        }
        return result

    if spans_out:
        tracer.dump(spans_out)
    traced = tracer.snapshot()
    checks += unattached(traced, SIM_SPANS)
    run_s, run_cpu = sum(rep["wall"]), sum(rep["cpu"])
    metrics = _layer_metrics(traced, executed, cluster.leader)
    occupancy = report["event_queue"]
    sent = [cluster.network.stats(i).total_sent()
            for i in range(cluster.n)]
    deliveries = sum(
        cluster.network.stats(i).total_recv_msgs()
        for i in range(cluster.n + len(cluster.clients)))
    submitted = sum(c.next_bundle_id - 1 for c in cluster.clients)
    metrics.update({
        "harness.build_s": rep["build_s"],
        "client.bundles_due": submitted,
        "client.bundles_sent": submitted,
        "client.bundles_acked": report["acked_bundles"],
        "client.failed_share": _ratio(failed, attempted),
        "core.reqs_per_batch": _ratio(
            executed,
            _last_executed(cluster.replicas[cluster.measure_replica])),
        "core.view_changes": max(r.view for r in cluster.replicas) - 1,
        "core.retransmissions": report["retransmissions"],
        "sim.run_s": run_s,
        "sim.self_s": traced["self"]["sim.run"],
        "sim.events": rep["events"],
        "sim.events_per_s": _ratio(rep["events"], run_s),
        "sim.us_per_event": _ratio(run_s * 1e6, rep["events"]),
        "sim.events_per_req": _ratio(rep["events"], executed),
        "sim.sim_s_per_wall_s": _ratio(sim_seconds, run_s),
        "sim.deliveries": deliveries,
        "sim.modelled_bytes_per_req": _ratio(sum(sent), executed),
        "sim.leader_egress_share": _egress_share(sent, cluster.leader),
        "sim.queue.max_pending": occupancy["max_pending"],
        "sim.queue.fanout_slabs": occupancy["fanout_slabs"],
        "sim.queue.overflow_migrated": occupancy["overflow_migrated"],
        "sim.queue.late_clamped": occupancy["late_clamped"],
        "sim.queue.waves": occupancy["wave_events"],
        "sim.outage_s": rep["outage"],
        "sim.catchup_s": catchup,
        "trace.coverage": _ratio(
            sum(traced["self"].values()) - traced["self"]["sim.run"],
            run_cpu),
        "trace.overhead_share": _ratio(
            run_cpu, statistics.mean(sum(r["cpu"]) for r in plain)) - 1.0,
    })
    _add_crypto(metrics, traced, report["perf"]["seconds"], executed)
    result["metrics"] = metrics
    return result


def _count_acks(client_class: type, acked: dict) -> tuple:
    """A patch for :func:`spans.installed` that counts, at the clients'
    ``on_message``, the requests acknowledged per ``(client, bundle)``.

    The stock clients keep that only in private state, and a frozen
    benchmark must not read what later changes are free to rearrange.
    """
    on_message = client_class.on_message

    def counting(client, sender, msg, now):
        if isinstance(msg, Ack):
            acked[client.node_id, msg.bundle_id] += msg.count
        return on_message(client, sender, msg, now)

    return client_class, "on_message", counting


def _settled_bundles(clients: list, acked: dict, cutoff: float
                     ) -> tuple[int, int]:
    """Bundles the stock re-submitting clients sent before ``cutoff``
    (they send bundle k at k submit intervals), and how many of them
    are still not fully acknowledged."""
    attempted = failed = 0
    for client in clients:
        sent_before = int(cutoff / client.submit_interval)
        attempted += sent_before
        failed += sum(
            acked[client.node_id, bundle_id] < client.bundle_size
            for bundle_id in range(1, sent_before + 1))
    return attempted, failed
