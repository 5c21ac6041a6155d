"""Multi-process live deployment: one OS process per replica.

The in-process :class:`repro.net.live.LiveCluster` hosts every core on a
single asyncio event loop, so however many replicas it boots, one GIL
executes all of them — fine for protocol smoke tests, useless for
stressing the CPU model the simulator claims to reproduce.  This module
launches **one OS process per replica** instead:

* the parent picks a free localhost port for every node up front, so the
  complete host:port address book is known before anything boots;
* each replica child is ``python -m repro.harness.procs --replica-spec
  <file>``: it rebuilds its core from the (protocol, n, node_id, seed)
  spec — key material is dealt deterministically from the seed, so no
  secrets cross process boundaries — binds its listener at its published
  port, serves until the spec's absolute stop time, then writes a JSON
  summary (executed requests, per-class byte counters, transport health,
  recovery counters) and exits 0;
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
  merges the child summaries with its client metrics into the shared
  :func:`repro.stats.standard_report` schema.

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
from pathlib import Path

from repro.errors import ConfigError
from repro.faults import (
    FaultBehavior,
    fault_from_spec,
    fault_to_spec,
    faults_section,
    hosted_core,
)
from repro.net.chaos import PROCESS_OPS, ChaosScenario
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

    def wait_all(self, timeout: float) -> dict[str, int | None]:
        """Wait (reaping) up to ``timeout`` s; stragglers get terminated.

        Returns:
            ``name -> exit code`` (negative for signal deaths, ``None``
            only if a child somehow survives SIGKILL).
        """
        deadline = time.monotonic() + timeout
        for name, proc in self.procs.items():
            remaining = max(0.0, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                pass
        self.terminate_all()
        return {name: proc.returncode for name, proc in self.procs.items()}

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
# Child side: host one replica core until the spec's stop time
# ---------------------------------------------------------------------------


def run_replica_from_spec(spec: dict) -> dict:
    """Child entry: boot one replica, serve, return its summary dict."""
    protocol = spec["protocol"]
    n = int(spec["n"])
    node_id = int(spec["node_id"])
    epoch = float(spec["epoch"])
    stop_at_unix = float(spec["stop_at_unix"])
    proto = get_protocol(protocol)
    config = proto.live_config(n, int(spec["payload_size"]),
                               int(spec["datablock_size"]))
    metrics = MetricsCollector(warmup=float(spec["warmup"]),
                               timeseries=TimeSeries())
    core = proto.make_replica(node_id, config,
                              proto.make_context(config, int(spec["seed"])),
                              metrics.perf)
    # Durable crash-recovery: a snapshot file left by a predecessor
    # process (this child is a chaos respawn) is reloaded *before* boot,
    # so the replica restarts from its persisted executed prefix instead
    # of seed-rebuilding — then catches up the rest over the wire.
    snapshot_path = spec.get("snapshot_path")
    snapshot_period = float(spec.get("snapshot_period") or 0.0)
    restored_from_disk = False
    if snapshot_path and Path(snapshot_path).exists():
        try:
            snapshot = json.loads(Path(snapshot_path).read_text())
        except (OSError, ValueError):
            snapshot = None  # torn write at SIGKILL: fall back to wire
        if snapshot:
            _restore_state(core, snapshot)
            restored_from_disk = True
        core.begin_recovery()
    snapshots_persisted = 0
    address_book = {int(key): (host, int(port))
                    for key, (host, port) in spec["address_book"].items()}
    host, port = address_book[node_id]
    router = Router(node_id, address_book, host=host, port=port)

    def clock() -> float:
        return time.time() - epoch

    # Static fault behaviours travel as plain-JSON specs (the behaviour
    # object itself never crosses the process boundary).
    trace_capacity = spec.get("trace_capacity")
    tracer = RingTracer(int(trace_capacity)) if trace_capacity else None
    node = LiveNode(
        hosted_core(core, fault_from_spec(spec.get("fault")), tracer),
        router, range(n), metrics, clock)

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
        target = Path(snapshot_path)
        tmp = target.with_suffix(".snap.tmp")
        while True:
            await asyncio.sleep(snapshot_period)
            state = _snapshot_state(core, clock())
            try:
                tmp.write_text(json.dumps(state))
                tmp.replace(target)
            except OSError:
                continue  # disk hiccup: keep the previous snapshot
            snapshots_persisted += 1

    async def serve() -> float:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        # The parent ends a run with SIGTERM — a *graceful* stop: flush
        # the summary before exiting so even torn-down runs leave data.
        # ``stop_at_unix`` is only a fallback ceiling for an orphaned
        # child whose parent died without signalling.
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        await node.start()
        node.boot()
        sampler = loop.create_task(sample_loop(metrics.timeseries)) \
            if metrics.timeseries is not None else None
        snapshotter = loop.create_task(snapshot_loop()) \
            if snapshot_path and snapshot_period > 0 else None
        remaining = stop_at_unix - time.time()
        if remaining > 0:
            try:
                await asyncio.wait_for(stop.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                pass
        stopped_at = clock()
        for task in (sampler, snapshotter):
            if task is None:
                continue
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        await node.shutdown()
        return stopped_at

    faults_at_start = minor_faults()
    stopped_at = asyncio.run(serve())
    return {
        "node_id": node_id,
        "protocol": protocol,
        "executed_requests": metrics.executed_requests.get(node_id, 0),
        "stopped_at": stopped_at,
        "sent_bytes": router.stats.sent_bytes,
        "sent_msgs": router.stats.sent_msgs,
        "recv_bytes": router.stats.recv_bytes,
        "recv_msgs": router.stats.recv_msgs,
        "events_processed": router.stats.total_recv_msgs(),
        **transport_summary([router]),
        "timeseries": metrics.timeseries.to_jsonable()
        if metrics.timeseries is not None else None,
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
    spec = json.loads(Path(args.replica_spec).read_text())
    summary = run_replica_from_spec(spec)
    report_path = Path(spec["report_path"])
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


async def _serve_clients(clients: list, n: int,
                         address_book: dict[int, tuple[str, int]],
                         metrics: MetricsCollector, epoch: float,
                         stop_at_unix: float,
                         supervisor: ProcessSupervisor,
                         chaos_events: list | None = None,
                         chaos_applied: list | None = None,
                         tracer=None) -> list[Router]:
    """Host the client cores in-parent until stop time or a child death.

    With ``chaos_events`` (resolved crash/restart events, sorted by
    time), the parent doubles as the chaos controller: it SIGKILLs and
    respawns replica children at the scripted offsets from ``epoch``,
    appending each executed event to ``chaos_applied``.
    """
    def clock() -> float:
        return time.time() - epoch

    pending = list(chaos_events or [])
    nodes = []
    for core in clients:
        host, port = address_book[core.node_id]
        router = Router(core.node_id, address_book, host=host, port=port)
        node = LiveNode(hosted_core(core, tracer=tracer), router, range(n),
                        metrics, clock)
        nodes.append(node)
    try:
        await asyncio.gather(*(node.start() for node in nodes))
        for node in nodes:
            node.boot()
        while time.time() < stop_at_unix:
            failed = supervisor.failed()
            if failed:
                raise RuntimeError(
                    f"replica process(es) died mid-run: {failed}")
            while pending and pending[0].at <= clock():
                event = pending.pop(0)
                name = f"replica-{event.args['node']}"
                if event.op == "crash":
                    supervisor.kill(name)
                else:  # "restart" — the scheduler validated the op set
                    supervisor.respawn(name)
                if chaos_applied is not None:
                    chaos_applied.append(event.to_jsonable())
                if metrics.timeseries is not None:
                    metrics.timeseries.annotate(
                        clock(), event.op, event.describe())
            sleep_until = stop_at_unix
            if pending:
                sleep_until = min(sleep_until, epoch + pending[0].at)
            await asyncio.sleep(
                min(POLL_INTERVAL, max(0.0, sleep_until - time.time())))
    finally:
        await asyncio.gather(*(node.shutdown() for node in nodes))
    return [node.router for node in nodes]


def run_live_processes(n: int = 4, client_count: int = 1,
                       duration: float = 5.0,
                       protocol: str = "leopard",
                       total_rate: float = 4000.0, bundle_size: int = 200,
                       payload_size: int = 128, datablock_size: int = 100,
                       seed: int = 0, warmup: float = 0.0,
                       host: str = "127.0.0.1",
                       faults: dict[int, FaultBehavior] | None = None,
                       scenario: ChaosScenario | None = None,
                       tracer: RingTracer | None = None) -> dict:
    """Boot one process per replica, serve ``duration`` s, merge reports.

    Returns the :func:`repro.stats.standard_report` dict with a
    ``deployment`` section describing the process topology and the exit
    code of every replica child.

    ``duration`` counts *measured* seconds: the clock starts once every
    replica child's listener accepts connections, so slow child boots
    (cold interpreters on a loaded CI host) lengthen the run instead of
    eating the window.  ``warmup`` must be 0 in this mode: replica
    children only know their own process clock (which starts at spawn,
    before the measurement epoch), so a child-side warmup window would
    be consumed by boot time while the parent still shrank the
    measurement denominator — silently inflating reported throughput.

    Fault injection crosses the process boundary two ways: static
    ``faults`` ship as plain-JSON specs inside each child's replica spec
    (the child rebuilds the behaviour locally), and a chaos ``scenario``
    is executed by the parent against the *real processes* — ``crash``
    is a SIGKILL, ``restart`` a respawn on the same port.  Scenario ops
    beyond crash/restart (partitions, shaping, mid-run fault swaps)
    would need an in-child control channel and are rejected up front;
    use the in-process mode for those.

    Telemetry crosses the boundary the same way: each child buckets its
    own executions into a :class:`repro.obs.timeseries.TimeSeries` on
    its process clock and ships the raw buckets (plus its perf-counter
    snapshot and, with a ``tracer``, its ring-buffer trace) home in the
    summary; the parent shifts them onto the measurement epoch and
    merges them with its client-side series, so the report's
    ``timeseries``/``trace`` sections look exactly like an in-process
    run's.

    Raises:
        ConfigError: for a nonzero ``warmup`` (see above), no clients,
            a non-serializable fault, or a scenario with ops this mode
            cannot execute.
        RuntimeError: if any replica child crashes during boot or
            mid-run (scenario-killed children excepted), never starts
            listening, or fails to produce its summary (children are
            reaped on every one of those paths).
    """
    if client_count < 1:
        raise ConfigError("need at least one client")
    if warmup != 0.0:
        raise ConfigError(
            "warmup is not supported in --processes mode: replica "
            "children cannot gate it on the measurement epoch; use the "
            "in-process mode for warmup-windowed runs")
    faults = dict(faults or {})
    proto = get_protocol(protocol)
    config = proto.live_config(n, payload_size, datablock_size)
    if len(faults) > config.f:
        raise ConfigError(
            f"at most f={config.f} faulty replicas allowed")
    fault_specs = {replica_id: fault_to_spec(fault)
                   for replica_id, fault in faults.items()}
    leader = config.leader_of(1)
    measure_replica = next(replica_id for replica_id in range(n)
                           if replica_id != leader)
    ports = pick_free_ports(n + client_count, host)
    address_book = {node_id: (host, ports[node_id])
                    for node_id in range(n + client_count)}
    metrics = MetricsCollector(warmup=warmup, timeseries=TimeSeries())
    per_client_rate = total_rate / client_count
    clients = [proto.make_client(n + index, config, per_client_rate,
                                 bundle_size, client_timeout=2.0)
               for index in range(client_count)]

    chaos_events: list = []
    chaos_applied: list = []
    if scenario is not None:
        unsupported = scenario.ops() - PROCESS_OPS
        if unsupported:
            raise ConfigError(
                f"scenario {scenario.name!r} uses ops "
                f"{sorted(unsupported)} the --processes mode cannot "
                "execute (only crash/restart act on real processes); "
                "run it in-process instead")
        primaries = frozenset(
            p for p in (getattr(c, "primary", getattr(c, "target", None))
                        for c in clients) if p is not None)
        resolved = scenario.resolve(n, leader, measure_replica, primaries)
        chaos_events = sorted(resolved.events, key=lambda e: e.at)
        duration = max(duration, resolved.duration() + 0.5)

    spawn_epoch = time.time()
    faults_at_start = minor_faults()
    # Fallback ceiling only: children normally stop on the parent's
    # SIGTERM; this bounds an orphaned child whose parent died.
    ceiling_unix = spawn_epoch + BOOT_TIMEOUT + duration \
        + 3.0 * CHILD_EXIT_GRACE
    env = _child_env()
    exit_codes: dict[str, int | None] = {}
    with tempfile.TemporaryDirectory(prefix="repro-procs-") as tmp:
        tmpdir = Path(tmp)
        report_paths: dict[int, Path] = {}
        log_paths: dict[int, Path] = {}
        with ProcessSupervisor(term_grace=CHILD_EXIT_GRACE) as supervisor:
            for replica_id in range(n):
                report_paths[replica_id] = \
                    tmpdir / f"replica-{replica_id}.json"
                log_paths[replica_id] = tmpdir / f"replica-{replica_id}.log"
                spec = {
                    "protocol": protocol,
                    "n": n,
                    "node_id": replica_id,
                    "seed": seed,
                    "epoch": spawn_epoch,
                    "stop_at_unix": ceiling_unix,
                    "warmup": warmup,
                    "payload_size": payload_size,
                    "datablock_size": datablock_size,
                    "address_book": address_book,
                    "report_path": str(report_paths[replica_id]),
                    "fault": fault_specs.get(replica_id),
                    "trace_capacity": tracer.capacity
                    if tracer is not None else None,
                    # Stable path across respawns: a chaos-restarted
                    # child finds its predecessor's snapshot here and
                    # restores from disk instead of seed-rebuilding.
                    "snapshot_path":
                        str(tmpdir / f"replica-{replica_id}.snapshot.json"),
                    "snapshot_period": SNAPSHOT_PERIOD,
                }
                spec_path = tmpdir / f"replica-{replica_id}.spec.json"
                spec_path.write_text(json.dumps(spec))
                supervisor.spawn(
                    f"replica-{replica_id}",
                    [sys.executable, "-m", "repro.harness.procs",
                     "--replica-spec", str(spec_path)],
                    env=env, log_path=log_paths[replica_id])
            try:
                _wait_replicas_listening(supervisor, address_book,
                                         range(n))
                # The measurement clock starts only now, with the whole
                # cluster listening: ``duration`` means measured seconds,
                # not "boot time plus whatever was left".
                epoch = time.time()
                client_routers = asyncio.run(_serve_clients(
                    clients, n, address_book, metrics, epoch,
                    epoch + duration, supervisor,
                    chaos_events=chaos_events,
                    chaos_applied=chaos_applied,
                    tracer=tracer))
            except RuntimeError as exc:
                raise RuntimeError(
                    f"{exc}; logs: {_tail_logs(log_paths)}") from exc
            elapsed = time.time() - epoch
            # Graceful end-of-run: SIGTERM makes each child flush its
            # summary and exit 0 (terminate_all also reaps).
            supervisor.terminate_all()
            exit_codes = {name: proc.returncode
                          for name, proc in supervisor.procs.items()}
            respawns = supervisor.respawns
            killed_for_good = {
                int(name.split("-", 1)[1])
                for name in supervisor.expected_exits}

        summaries: dict[int, dict] = {}
        for replica_id, path in report_paths.items():
            if not path.exists():
                if replica_id in killed_for_good:
                    # Scenario-crashed and never restarted: SIGKILL left
                    # no summary by design.  A zeroed stub keeps the
                    # report shape whole (the replica really did nothing
                    # measurable after its crash).
                    summaries[replica_id] = _stub_summary(replica_id,
                                                          protocol)
                    continue
                raise RuntimeError(
                    f"replica {replica_id} produced no summary "
                    f"(exit code {exit_codes.get(f'replica-{replica_id}')}"
                    f"); logs: {_tail_logs(log_paths)}")
            summaries[replica_id] = json.loads(path.read_text())

    # No "shaping": that needs the in-process shaper.
    fault_report = faults_section(
        faults, scenario.name if scenario is not None else None,
        chaos_applied, respawns)
    # Children timestamp on their process clock (epoch = spawn); the
    # parent measures from the post-boot epoch.  Shifting by the delta
    # lands every child bucket and trace event on the measurement clock.
    child_shift = epoch - spawn_epoch
    series = metrics.timeseries
    for replica_id, summary in sorted(summaries.items()):
        if series is not None and summary.get("timeseries"):
            series.merge_raw(summary["timeseries"], shift=child_shift,
                             samples=replica_id == measure_replica)
        if summary.get("perf"):
            metrics.perf.merge_snapshot(summary["perf"])
    timeseries_section = series.section(
        measure_replica=measure_replica,
        end=elapsed) if series is not None else None
    trace_section = None
    if tracer is not None and tracer.enabled:
        parts = [(tracer.to_jsonable(), 0.0)]
        parts.extend((summary["trace"], child_shift)
                     for _, summary in sorted(summaries.items())
                     if summary.get("trace"))
        trace_section = merge_trace_parts(parts)
    return _merge_report(protocol=protocol, n=n, metrics=metrics,
                         faults_at_start=faults_at_start,
                         summaries=summaries, client_routers=client_routers,
                         measure_replica=measure_replica, warmup=warmup,
                         elapsed=elapsed, exit_codes=exit_codes,
                         faults=fault_report, respawns=respawns,
                         timeseries=timeseries_section,
                         trace=trace_section)


def _stub_summary(replica_id: int, protocol: str) -> dict:
    """A zeroed child summary for a scenario-killed, never-restarted replica."""
    return {
        "node_id": replica_id,
        "protocol": protocol,
        "executed_requests": 0,
        "stopped_at": 0.0,
        "sent_bytes": {}, "sent_msgs": {},
        "recv_bytes": {}, "recv_msgs": {},
        "events_processed": 0,
        **transport_summary([]),
        "timeseries": None, "perf": None, "trace": None,
        "recovery": None, "snapshots_persisted": 0,
        "restored_from_disk": False, "peak_rss_mb": None,
        "minor_faults": None,
    }


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


def _merge_report(*, protocol: str, n: int, metrics: MetricsCollector,
                  faults_at_start: int,
                  summaries: dict[int, dict],
                  client_routers: list[Router], measure_replica: int,
                  warmup: float, elapsed: float,
                  exit_codes: dict[str, int | None],
                  faults: dict | None = None,
                  respawns: int = 0,
                  timeseries: dict | None = None,
                  trace: dict | None = None) -> dict:
    """Fold child summaries + parent client metrics into one report."""
    byte_stats: dict[int, NicStats] = {}
    events = sum(router.stats.total_recv_msgs()
                 for router in client_routers)
    transport = transport_summary(client_routers)
    for replica_id, summary in sorted(summaries.items()):
        metrics.executed_requests[replica_id] = \
            summary["executed_requests"]
        stats = NicStats()
        for msg_class, count in summary["sent_bytes"].items():
            stats.add_counts(msg_class, sent_bytes=count,
                             sent_msgs=summary["sent_msgs"].get(
                                 msg_class, 0))
        for msg_class, count in summary["recv_bytes"].items():
            stats.add_counts(msg_class, recv_bytes=count,
                             recv_msgs=summary["recv_msgs"].get(
                                 msg_class, 0))
        byte_stats[replica_id] = stats
        events += summary["events_processed"]
        for counter in transport:
            transport[counter] += summary.get(counter, 0)
    # The measurement window is the parent's client-serving span: replica
    # children boot before it and are stopped after it, so commits only
    # happen inside it.
    duration = max(elapsed - warmup, 0.0)
    recovery_replicas: dict[str, dict] = {}
    snapshots_persisted = 0
    restored_from_disk: list[int] = []
    for replica_id, summary in sorted(summaries.items()):
        snapshots_persisted += summary.get("snapshots_persisted", 0)
        if summary.get("restored_from_disk"):
            restored_from_disk.append(replica_id)
        if summary.get("recovery") is not None:
            recovery_replicas[str(replica_id)] = summary["recovery"]
    recovery = None
    if (snapshots_persisted or restored_from_disk
            or any(info.get("rounds", 0)
                   for info in recovery_replicas.values())):
        recovery = {
            "replicas": recovery_replicas,
            "snapshots_persisted": snapshots_persisted,
            "restored_from_disk": restored_from_disk,
        }
    report = standard_report(
        backend="live",
        protocol=protocol,
        n=n,
        duration=duration,
        metrics=metrics,
        byte_stats=byte_stats,
        measure_replica=measure_replica,
        events_processed=events,
        events_per_sec=events / elapsed if elapsed > 0 else 0.0,
        faults=faults,
        timeseries=timeseries,
        recovery=recovery,
    )
    report["transport"] = transport
    report["deployment"] = {
        "mode": "processes",
        "replica_processes": n,
        "exit_codes": dict(sorted(exit_codes.items())),
        "respawns": respawns,
        # Peak RSS and minor faults: this (client-hosting) process's own,
        # and each replica child's from its summary (None for a child
        # killed without one).
        "peak_rss_mb": peak_rss_mb(),
        "replica_peak_rss_mb": {
            str(replica_id): summary.get("peak_rss_mb")
            for replica_id, summary in sorted(summaries.items())},
        "minor_faults": minor_faults() - faults_at_start,
        "replica_minor_faults": {
            str(replica_id): summary.get("minor_faults")
            for replica_id, summary in sorted(summaries.items())},
    }
    if trace is not None:
        report["trace"] = trace
    return report


if __name__ == "__main__":
    raise SystemExit(_child_main(sys.argv[1:]))
