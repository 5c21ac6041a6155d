"""Multi-process live deployment: one OS process per replica.

The in-process :class:`repro.net.live.LiveCluster` hosts every core on a
single asyncio event loop, so however many replicas it boots, one GIL
executes all of them — fine for protocol smoke tests, useless for
stressing the CPU model the simulator claims to reproduce.  This module
runs one :class:`repro.harness.spec.RunSpec` with **one OS process per
replica** instead:

* the parent picks a free localhost port for every node up front, so the
  complete host:port address book is known before anything boots;
* each replica child is ``python -m repro.harness.procs --replica-spec
  <file>``: the file holds the run's ``RunSpec`` plus the child's replica
  id and the facts of this deployment (address book, epoch, stop
  ceiling, report and snapshot paths, trace capacity, its fault).  The
  child builds its core from the spec exactly as ``execute`` builds an
  in-process run — key material is dealt deterministically from the
  seed, so no secrets cross process boundaries — binds its listener at
  its published port, serves until the parent's SIGTERM, then writes a
  JSON summary (executed requests, per-class byte counters, transport
  health, recovery counters) and exits 0;
* each child also persists a **durable state snapshot** (its executed
  ledger tail) every :data:`SNAPSHOT_PERIOD` seconds via atomic
  tmp-then-replace writes; a chaos-respawned child finds its
  predecessor's snapshot at the same path, restores the executed prefix
  from disk *before* booting, and then catches up the rest over the
  wire through :class:`repro.core.recovery.RecoveryManager`;
* rendezvous needs no barrier: every outbound link is a reconnecting
  :class:`repro.net.transport.PeerConnection`, so frames sent before a
  peer has bound simply wait in the bounded queue and flow on connect;
* the parent hosts the load-generating clients (latency is measured
  client-side, so acks terminate where the latency clock lives), reaps
  every child on **every** exit path via :class:`ProcessSupervisor`, and
  merges the child summaries with its client metrics through the same
  report builders an in-process run uses.

All processes share one wall-clock epoch (``time.time()`` at spawn), so
cross-process timestamps — bundle submission times in spans, proposal
times in blocks — stay comparable to within OS clock granularity.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

from repro.core.recovery import recovery_section
from repro.errors import ConfigError
from repro.faults import (
    FaultBehavior,
    fault_from_spec,
    fault_to_spec,
    faults_section,
    hosted_core,
    pick_measure_replica,
)
from repro.harness.spec import RunSpec
from repro.net.chaos import PROCESS_OPS, load_scenario, run_scenario_live
from repro.net.live import transport_summary
from repro.net.node import LiveNode
from repro.net.transport import Router
from repro.obs.timeseries import TimeSeries
from repro.obs.tracer import RingTracer, merge_trace_parts
from repro.protocols import get_protocol
from repro.stats import (
    MetricsCollector,
    NicStats,
    minor_faults,
    peak_rss_mb,
    standard_report,
)

#: Seconds a child gets to exit after its stop time before SIGTERM.
CHILD_EXIT_GRACE = 10.0

#: Seconds between parent health polls of the replica children.
POLL_INTERVAL = 0.25

#: Seconds the parent waits for every replica child to bind its listener
#: before declaring the deployment failed.  Generous: on a loaded CI
#: host, n python interpreters importing numpy can take a while.
BOOT_TIMEOUT = 30.0

#: Seconds between durable state snapshots in each replica child.
SNAPSHOT_PERIOD = 0.5

#: Executed-tail length persisted per snapshot (matches the in-core
#: :data:`repro.core.recovery.ExecutionLog.TAIL_LIMIT` retention).
SNAPSHOT_TAIL = 4096


def _snapshot_state(core, saved_at: float) -> dict:
    """Project a core's executed tail into a JSON-durable snapshot.

    Uses the recovery manager's own serve-side callbacks, so the persisted
    entries are byte-for-byte what the replica would send a catching-up
    peer over the wire.
    """
    recovery = core.recovery
    tip = recovery.local_tip()
    entries = recovery.entries_between(max(0, tip - SNAPSHOT_TAIL), tip)
    return {
        "last_executed": tip,
        "entries": [[entry.sn, entry.digest.hex(), entry.request_count]
                    for entry in entries],
        "saved_at": saved_at,
    }


def _restore_state(core, snapshot: dict) -> int:
    """Reload a durable snapshot into a freshly built core (pre-boot)."""
    from repro.messages.recovery import SegmentEntry

    entries = [SegmentEntry(int(sn), bytes.fromhex(digest), int(count))
               for sn, digest, count in snapshot.get("entries", [])]
    return core.restore_entries(entries)


def pick_free_ports(count: int, host: str = "127.0.0.1") -> list[int]:
    """Reserve ``count`` distinct free TCP ports on ``host``.

    All sockets are bound before any is closed, so the returned ports are
    pairwise distinct.  The usual caveat applies: the ports are free *at
    return time*; the window until the cluster binds them is tiny and
    localhost-only, the same trade every multi-process test harness makes.
    """
    sockets: list[socket.socket] = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


class ProcessSupervisor:
    """Spawn, monitor and reap a set of child processes.

    Use as a context manager: whatever happens inside the ``with`` block
    — normal completion, a crashed child, an exception in the parent —
    ``__exit__`` terminates and *reaps* every child, so no orphaned
    replica keeps a listener bound after the run (the ``make live-smoke``
    orphan bug, now gated by a test).
    """

    #: Initial delay between failed respawn attempts (seconds).
    RESPAWN_BACKOFF = 0.1
    #: Dial attempts before :meth:`respawn` gives up.
    RESPAWN_ATTEMPTS = 4

    def __init__(self, term_grace: float = 3.0) -> None:
        self.term_grace = term_grace
        self.procs: dict[str, subprocess.Popen] = {}
        #: Children whose death is scenario-induced (chaos ``crash``):
        #: excluded from :meth:`failed` so the health poll does not abort
        #: the run over an injected fault.
        self.expected_exits: set[str] = set()
        self.respawns = 0
        self._spawn_args: dict[str, tuple] = {}

    def spawn(self, name: str, cmd: list[str],
              env: dict | None = None,
              log_path: Path | None = None) -> subprocess.Popen:
        """Launch one child, teeing its stdout/stderr to ``log_path``."""
        log_file = open(log_path, "wb") if log_path is not None \
            else subprocess.DEVNULL
        try:
            proc = subprocess.Popen(
                cmd, env=env, stdout=log_file, stderr=subprocess.STDOUT)
        finally:
            if log_path is not None:
                log_file.close()  # the child holds its own descriptor
        self.procs[name] = proc
        self._spawn_args[name] = (cmd, env, log_path)
        return proc

    def kill(self, name: str) -> None:
        """SIGKILL one child (chaos ``crash``): an *expected* death."""
        proc = self.procs[name]
        self.expected_exits.add(name)
        if proc.poll() is None:
            try:
                proc.kill()
            except OSError:
                pass
        try:
            proc.wait(timeout=self.term_grace)
        except subprocess.TimeoutExpired:
            pass

    def respawn(self, name: str) -> subprocess.Popen:
        """Relaunch a killed child (chaos ``restart``), with backoff.

        Retries the launch a few times with exponential backoff — a
        restarted replica re-binds the port its predecessor held, which
        can linger briefly in ``TIME_WAIT``-adjacent states.
        """
        cmd, env, log_path = self._spawn_args[name]
        backoff = self.RESPAWN_BACKOFF
        last_error: Exception | None = None
        for attempt in range(self.RESPAWN_ATTEMPTS):
            if attempt:
                time.sleep(backoff)
                backoff *= 2.0
            try:
                proc = self.spawn(name, cmd, env=env, log_path=log_path)
            except OSError as exc:
                last_error = exc
                continue
            self.expected_exits.discard(name)
            self.respawns += 1
            return proc
        raise RuntimeError(
            f"failed to respawn {name} after "
            f"{self.RESPAWN_ATTEMPTS} attempts: {last_error}")

    def failed(self) -> dict[str, int]:
        """Children that exited non-zero, excluding expected deaths."""
        return {name: proc.returncode
                for name, proc in self.procs.items()
                if proc.poll() is not None and proc.returncode != 0
                and name not in self.expected_exits}

    def terminate_all(self) -> None:
        """SIGTERM every survivor, escalate to SIGKILL, reap everything."""
        survivors = [proc for proc in self.procs.values()
                     if proc.poll() is None]
        for proc in survivors:
            try:
                proc.terminate()
            except OSError:
                pass
        deadline = time.monotonic() + self.term_grace
        for proc in survivors:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                try:
                    proc.kill()
                except OSError:
                    pass
        for proc in survivors:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=self.term_grace)
                except subprocess.TimeoutExpired:
                    pass
        # Reap already-exited children too (collect their exit status).
        for proc in self.procs.values():
            if proc.poll() is None:
                continue
            try:
                proc.wait(timeout=0)
            except subprocess.TimeoutExpired:
                pass

    def __enter__(self) -> "ProcessSupervisor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.terminate_all()


# ---------------------------------------------------------------------------
# Child side: host one replica core until the parent's SIGTERM
# ---------------------------------------------------------------------------


def run_replica(child: dict) -> dict:
    """Child entry: boot one replica of ``child["spec"]``, serve, and
    return its summary dict."""
    spec = RunSpec(**child["spec"])
    node_id = int(child["node_id"])
    epoch = float(child["epoch"])
    proto = get_protocol(spec.protocol)
    config = spec.live_config()
    metrics = MetricsCollector(timeseries=TimeSeries())
    core = proto.make_replica(node_id, config,
                              proto.make_context(config, spec.seed),
                              metrics.perf)
    # Durable crash-recovery: a snapshot file left by a predecessor
    # process (this child is a chaos respawn) is reloaded *before* boot,
    # so the replica restarts from its persisted executed prefix instead
    # of seed-rebuilding — then catches up the rest over the wire.
    snapshot_path = Path(child["snapshot_path"])
    restored_from_disk = False
    if snapshot_path.exists():
        try:
            snapshot = json.loads(snapshot_path.read_text())
        except (OSError, ValueError):
            snapshot = None  # torn write at SIGKILL: fall back to wire
        if snapshot:
            _restore_state(core, snapshot)
            restored_from_disk = True
        core.begin_recovery()
    snapshots_persisted = 0
    address_book = {int(key): (host, int(port))
                    for key, (host, port) in child["address_book"].items()}
    host, port = address_book[node_id]
    router = Router(node_id, address_book, host=host, port=port)

    def clock() -> float:
        return time.time() - epoch

    trace_capacity = child["trace_capacity"]
    tracer = RingTracer(int(trace_capacity)) if trace_capacity else None
    node = LiveNode(
        hosted_core(core, fault_from_spec(child["fault"]), tracer),
        router, range(spec.n), metrics, clock)

    async def sample_loop(series: TimeSeries) -> None:
        while True:
            await asyncio.sleep(series.interval)
            series.sample(clock(),
                          backlog_s=router.backlog_seconds(),
                          queue_depth=router.queued_bytes())

    async def snapshot_loop() -> None:
        # Durability loop: atomic tmp-then-replace writes, so a SIGKILL
        # mid-write leaves the previous complete snapshot, never a torn
        # one.  The written entries come from the same serve-side
        # callbacks that answer wire fetches.
        nonlocal snapshots_persisted
        tmp = snapshot_path.with_suffix(".snap.tmp")
        while True:
            await asyncio.sleep(SNAPSHOT_PERIOD)
            state = _snapshot_state(core, clock())
            try:
                tmp.write_text(json.dumps(state))
                tmp.replace(snapshot_path)
            except OSError:
                continue  # disk hiccup: keep the previous snapshot
            snapshots_persisted += 1

    async def serve() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        # The parent ends a run with SIGTERM — a *graceful* stop: flush
        # the summary before exiting so even torn-down runs leave data.
        # ``stop_at_unix`` is only a fallback ceiling for an orphaned
        # child whose parent died without signalling.
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        await node.start()
        node.boot()
        tasks = [loop.create_task(sample_loop(metrics.timeseries)),
                 loop.create_task(snapshot_loop())]
        remaining = float(child["stop_at_unix"]) - time.time()
        if remaining > 0:
            try:
                await asyncio.wait_for(stop.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                pass
        for task in tasks:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        await node.shutdown()

    faults_at_start = minor_faults()
    asyncio.run(serve())
    return {
        "executed_requests": metrics.executed_requests.get(node_id, 0),
        "sent_bytes": router.stats.sent_bytes,
        "sent_msgs": router.stats.sent_msgs,
        "recv_bytes": router.stats.recv_bytes,
        "recv_msgs": router.stats.recv_msgs,
        **transport_summary([router]),
        "timeseries": metrics.timeseries.to_jsonable(),
        "perf": metrics.perf.snapshot(),
        "trace": tracer.to_jsonable() if tracer is not None else None,
        "recovery": core.recovery_summary(),
        "snapshots_persisted": snapshots_persisted,
        "restored_from_disk": restored_from_disk,
        "peak_rss_mb": peak_rss_mb(),
        "minor_faults": minor_faults() - faults_at_start,
    }


def _child_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.harness.procs",
        description="Host one live replica process (internal entry "
                    "point of the --processes deployment mode).")
    parser.add_argument("--replica-spec", required=True,
                        help="path to the JSON replica spec")
    args = parser.parse_args(argv)
    child = json.loads(Path(args.replica_spec).read_text())
    summary = run_replica(child)
    report_path = Path(child["report_path"])
    tmp_path = report_path.with_suffix(".tmp")
    tmp_path.write_text(json.dumps(summary, sort_keys=True))
    tmp_path.replace(report_path)  # atomic: parent never reads half a file
    return 0


# ---------------------------------------------------------------------------
# Parent side: spawn replicas, host clients, merge the report
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    """Environment for replica children: repro importable, else inherited."""
    import repro

    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (package_root + os.pathsep + existing
                         if existing else package_root)
    return env


def _wait_replicas_listening(supervisor: ProcessSupervisor,
                             address_book: dict[int, tuple[str, int]],
                             replica_ids: range,
                             timeout: float = BOOT_TIMEOUT) -> None:
    """Block until every replica child's listener accepts connections.

    Measurement starts only once the whole cluster is actually up, so a
    slow child boot (cold interpreter, loaded CI host) lengthens the run
    instead of silently eating the measurement window.
    """
    deadline = time.monotonic() + timeout
    pending = set(replica_ids)
    while pending:
        failed = supervisor.failed()
        if failed:
            raise RuntimeError(
                f"replica process(es) died during boot: {failed}")
        if time.monotonic() > deadline:
            raise RuntimeError(
                f"replicas {sorted(pending)} not listening after "
                f"{timeout:.0f}s")
        for replica_id in sorted(pending):
            host, port = address_book[replica_id]
            try:
                probe = socket.create_connection((host, port), timeout=0.2)
            except OSError:
                continue
            probe.close()
            pending.discard(replica_id)
        if pending:
            time.sleep(0.1)


class ProcessDeployment:
    """The parent's side of a ``--processes`` run of one :class:`RunSpec`.

    Built before any child spawns, so a bad fault set or scenario fails
    first.  It holds the load clients and the child supervisor, and is
    the cluster :func:`repro.net.chaos.run_scenario_live` drives:
    ``crash`` is :meth:`ProcessSupervisor.kill`, ``restart`` is
    :meth:`ProcessSupervisor.respawn` on the same port.
    """

    def __init__(self, spec: RunSpec,
                 faults: dict[int, FaultBehavior] | None = None,
                 tracer: RingTracer | None = None) -> None:
        self.spec = spec
        self.n = spec.n
        self.tracer = tracer
        self.faults = dict(faults or {})
        config = spec.live_config()
        self.leader = config.leader_of(1)
        self.measure_replica = pick_measure_replica(config, self.faults)
        # Static faults cross the process boundary as plain-JSON specs.
        self.fault_specs = {replica_id: fault_to_spec(fault)
                            for replica_id, fault in self.faults.items()}
        self.scenario = load_scenario(spec.scenario) \
            if spec.scenario else None
        if self.scenario is not None:
            unsupported = self.scenario.ops() - PROCESS_OPS
            if unsupported:
                raise ConfigError(
                    f"scenario {self.scenario.name!r} uses ops "
                    f"{sorted(unsupported)} the --processes mode cannot "
                    "execute (only crash/restart act on real processes); "
                    "run it in-process instead")
        proto = get_protocol(spec.protocol)
        count = spec.client_count()
        self.clients = [proto.make_client(spec.n + index, config,
                                          spec.rate / count,
                                          spec.bundle_size,
                                          client_timeout=2.0)
                        for index in range(count)]
        self.address_book = {
            node_id: ("127.0.0.1", port) for node_id, port
            in enumerate(pick_free_ports(spec.n + count))}
        self.metrics = MetricsCollector(timeseries=TimeSeries())
        self.supervisor = ProcessSupervisor(term_grace=CHILD_EXIT_GRACE)
        self.nodes: list[LiveNode] = []
        self.chaos_log: list[dict] = []
        self.faults_at_start = minor_faults()
        # Children clock from the spawn epoch; the parent restarts its
        # clock once every child listens (see run_live_processes).
        self.spawn_epoch = self.epoch = time.time()

    def clock(self) -> float:
        return time.time() - self.epoch

    async def apply_chaos_event(self, event) -> None:
        """Execute one resolved ``crash`` / ``restart`` on a child."""
        name = f"replica-{event.args['node']}"
        if event.op == "crash":
            self.supervisor.kill(name)
        else:  # "restart": __init__ rejected every other op
            self.supervisor.respawn(name)
        self.chaos_log.append(event.to_jsonable())
        self.metrics.timeseries.annotate(
            self.clock(), event.op, event.describe())

    async def serve(self, duration: float) -> None:
        """Host the clients for ``duration`` s, driving the scenario and
        polling child health; a dead child aborts the run."""
        for core in self.clients:
            host, port = self.address_book[core.node_id]
            router = Router(core.node_id, self.address_book, host=host,
                            port=port)
            self.nodes.append(LiveNode(
                hosted_core(core, tracer=self.tracer), router,
                range(self.n), self.metrics, self.clock))
        duties: list[asyncio.Future] = []
        try:
            await asyncio.gather(*(node.start() for node in self.nodes))
            for node in self.nodes:
                node.boot()
            duties.append(asyncio.ensure_future(
                self._poll_health(duration)))
            if self.scenario is not None:
                duties.append(asyncio.ensure_future(
                    run_scenario_live(self, self.scenario)))
            await asyncio.gather(*duties)
        finally:
            for duty in duties:
                duty.cancel()  # the other duty, when one raised
            await asyncio.gather(*(node.shutdown() for node in self.nodes))

    async def _poll_health(self, duration: float) -> None:
        while self.clock() < duration:
            failed = self.supervisor.failed()
            if failed:
                raise RuntimeError(
                    f"replica process(es) died mid-run: {failed}")
            await asyncio.sleep(
                min(POLL_INTERVAL, max(0.0, duration - self.clock())))


def run_live_processes(spec: RunSpec, *,
                       faults: dict[int, FaultBehavior] | None = None,
                       tracer: RingTracer | None = None) -> dict:
    """Run ``spec`` with one process per replica and merge the reports.

    Returns the :func:`repro.stats.standard_report` dict with a
    ``deployment`` section describing the process topology and the exit
    code of every replica child.

    ``spec.duration`` counts *measured* seconds: the clock starts once
    every replica child's listener accepts connections, so slow child
    boots lengthen the run instead of eating the window (``RunSpec``
    rejects a warmup here: a child's clock starts at spawn, before the
    measurement epoch).  With a scenario the run lasts at least 0.5 s
    past its last event.

    Static ``faults`` ship as plain-JSON specs inside each child's
    replica spec; a scenario runs in the parent against the real
    processes.  Scenario ops beyond crash/restart (partitions, shaping,
    mid-run fault swaps) would need an in-child control channel and are
    rejected up front; use the in-process mode for those.

    Telemetry crosses the boundary in each child's summary: its raw
    time-series buckets, perf counters and, with a ``tracer``, its
    ring-buffer trace, shifted onto the measurement clock by the merge.

    Raises:
        ConfigError: for more than f faults or a scenario with ops this
            mode cannot execute.
        ValueError: for a fault with no plain-JSON spec.
        RuntimeError: if any replica child crashes during boot or
            mid-run (scenario-killed children excepted), never starts
            listening, or fails to produce its summary (children are
            reaped on every one of those paths).
    """
    run = ProcessDeployment(spec, faults, tracer)
    duration = spec.duration
    if run.scenario is not None:
        duration = max(duration, run.scenario.duration() + 0.5)
    # Fallback ceiling only: children normally stop on the parent's
    # SIGTERM; this bounds an orphaned child whose parent died.
    ceiling_unix = run.spawn_epoch + BOOT_TIMEOUT + duration \
        + 3.0 * CHILD_EXIT_GRACE
    env = _child_env()
    with tempfile.TemporaryDirectory(prefix="repro-procs-") as tmp, \
            run.supervisor as supervisor:
        tmpdir = Path(tmp)
        log_paths: dict[int, Path] = {}
        for replica_id in range(spec.n):
            stem = f"replica-{replica_id}"
            log_paths[replica_id] = tmpdir / f"{stem}.log"
            child = {
                "spec": asdict(spec),
                "node_id": replica_id,
                "address_book": run.address_book,
                "epoch": run.spawn_epoch,
                "stop_at_unix": ceiling_unix,
                "report_path": str(tmpdir / f"{stem}.json"),
                # Stable across respawns: a restarted child restores
                # from its predecessor's snapshot here.
                "snapshot_path": str(tmpdir / f"{stem}.snapshot.json"),
                "trace_capacity": tracer.capacity
                if tracer is not None else None,
                "fault": run.fault_specs.get(replica_id),
            }
            spec_path = tmpdir / f"{stem}.spec.json"
            spec_path.write_text(json.dumps(child))
            supervisor.spawn(
                stem, [sys.executable, "-m", "repro.harness.procs",
                       "--replica-spec", str(spec_path)],
                env=env, log_path=log_paths[replica_id])
        try:
            _wait_replicas_listening(supervisor, run.address_book,
                                     range(spec.n))
            run.epoch = time.time()
            asyncio.run(run.serve(duration))
        except RuntimeError as exc:
            raise RuntimeError(
                f"{exc}; logs: {_tail_logs(log_paths)}") from exc
        elapsed = run.clock()
        # Graceful end-of-run: SIGTERM makes each child flush its
        # summary and exit 0 (terminate_all also reaps).
        supervisor.terminate_all()
        summaries: dict[int, dict] = {}
        for replica_id in range(spec.n):
            path = tmpdir / f"replica-{replica_id}.json"
            if path.exists():
                summaries[replica_id] = json.loads(path.read_text())
            elif f"replica-{replica_id}" not in supervisor.expected_exits:
                code = supervisor.procs[f"replica-{replica_id}"].returncode
                raise RuntimeError(
                    f"replica {replica_id} produced no summary (exit code "
                    f"{code}); logs: {_tail_logs(log_paths)}")
            # else: scenario-crashed and never restarted, so SIGKILL left
            # no summary; the merge counts it as having done nothing.
    return _merge_report(run, summaries, elapsed)


def _tail_logs(log_paths: dict[int, Path], limit: int = 400) -> dict:
    tails = {}
    for replica_id, path in log_paths.items():
        try:
            text = path.read_text(errors="replace")
        except OSError:
            continue
        if text.strip():
            tails[replica_id] = text[-limit:]
    return tails


def _merge_report(run: ProcessDeployment, summaries: dict[int, dict],
                  elapsed: float) -> dict:
    """One standard report from the child summaries and the parent's
    client metrics, built with the in-process report's section builders.

    The measurement window is the parent's client-serving span: children
    boot before it and stop after it, so commits only happen inside it.
    Children timestamp on their spawn-epoch clock, so their buckets and
    trace events shift by the boot time onto the measurement clock.
    """
    metrics, series = run.metrics, run.metrics.timeseries
    shift = run.epoch - run.spawn_epoch
    routers = [node.router for node in run.nodes]
    transport = transport_summary(routers)
    events = sum(router.stats.total_recv_msgs() for router in routers)
    byte_stats: dict[int, NicStats] = {}
    for replica_id in range(run.n):
        summary = summaries.get(replica_id, {})
        metrics.executed_requests[replica_id] = \
            summary.get("executed_requests", 0)
        stats = byte_stats[replica_id] = NicStats()
        for msg_class, count in summary.get("sent_bytes", {}).items():
            stats.add_counts(msg_class, sent_bytes=count,
                             sent_msgs=summary["sent_msgs"][msg_class])
        for msg_class, count in summary.get("recv_bytes", {}).items():
            stats.add_counts(msg_class, recv_bytes=count,
                             recv_msgs=summary["recv_msgs"][msg_class])
        events += stats.total_recv_msgs()
        for counter in transport:
            transport[counter] += summary.get(counter, 0)
        if summary.get("timeseries"):
            series.merge_raw(summary["timeseries"], shift=shift,
                             samples=replica_id == run.measure_replica)
        if summary.get("perf"):
            metrics.perf.merge_snapshot(summary["perf"])
    recovery = recovery_section(
        {replica_id: summary["recovery"]
         for replica_id, summary in summaries.items()},
        snapshots_persisted=sum(summary["snapshots_persisted"]
                                for summary in summaries.values()),
        restored_from_disk=[replica_id for replica_id, summary
                            in summaries.items()
                            if summary["restored_from_disk"]])
    report = standard_report(
        backend="live",
        protocol=run.spec.protocol,
        n=run.n,
        duration=elapsed,
        metrics=metrics,
        byte_stats=byte_stats,
        measure_replica=run.measure_replica,
        events_processed=events,
        events_per_sec=events / elapsed if elapsed > 0 else 0.0,
        # No "shaping": that needs the in-process shaper.
        faults=faults_section(
            run.faults, run.scenario.name if run.scenario else None,
            run.chaos_log, run.supervisor.respawns),
        timeseries=series.section(measure_replica=run.measure_replica,
                                  end=elapsed),
        recovery=recovery,
    )
    report["transport"] = transport

    def per_child(key: str) -> dict:
        return {str(replica_id): summaries.get(replica_id, {}).get(key)
                for replica_id in range(run.n)}

    report["deployment"] = {
        "mode": "processes",
        "replica_processes": run.n,
        "exit_codes": {name: proc.returncode for name, proc
                       in sorted(run.supervisor.procs.items())},
        "respawns": run.supervisor.respawns,
        # Peak RSS and minor faults: this (client-hosting) process's own,
        # and each replica child's from its summary (None for a child
        # killed without one).
        "peak_rss_mb": peak_rss_mb(),
        "replica_peak_rss_mb": per_child("peak_rss_mb"),
        "minor_faults": minor_faults() - run.faults_at_start,
        "replica_minor_faults": per_child("minor_faults"),
    }
    if run.tracer is not None and run.tracer.enabled:
        report["trace"] = merge_trace_parts(
            [(run.tracer.to_jsonable(), 0.0)]
            + [(summary["trace"], shift)
               for _, summary in sorted(summaries.items())
               if summary.get("trace")])
    return report


if __name__ == "__main__":
    raise SystemExit(_child_main(sys.argv[1:]))
