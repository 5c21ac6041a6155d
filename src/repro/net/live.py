"""Boot a real localhost BFT deployment and measure it.

:class:`LiveCluster` assembles what the simulator's
:func:`repro.harness.cluster.build_cluster` assembles, from the same
registry (:mod:`repro.protocols`) — replica cores plus a set of
load-generating client cores for **any** of the three protocols —
but hosts every core in a :class:`repro.net.node.LiveNode` behind its own
TCP listener on ``127.0.0.1``.  Every message really is encoded by
:mod:`repro.wire`, pushed through a socket, decoded and dispatched; no
simulated time exists, the event loop's clock is the protocol's ``now``.

The result of a run is :meth:`LiveCluster.report` — the same
:func:`repro.stats.standard_report` schema a simulated cluster emits,
with real socket byte counters in place of modelled NIC stats, so
``run-live`` output lines up column-for-column with an experiment run,
for every protocol the paper compares (Figs. 1/2/6/9).
"""

from __future__ import annotations

import asyncio

from repro.errors import ConfigError
from repro.faults import (
    HONEST,
    FaultBehavior,
    fault_from_spec,
    faults_section,
    hosted_core,
    pick_measure_replica,
)
from repro.net.chaos import ChaosScenario, run_scenario_live
from repro.net.node import LiveNode
from repro.net.shaping import LinkPolicy, LinkShaper
from repro.net.transport import Router
from repro.obs.timeseries import TimeSeries
from repro.protocols import get_protocol
from repro.stats import (
    MetricsCollector,
    NicStats,
    minor_faults,
    peak_rss_mb,
    standard_report,
)


def transport_summary(routers: list[Router]) -> dict:
    """Aggregate transport-health counters across a set of routers."""
    return {
        "dropped_frames": sum(r.dropped_frames() for r in routers),
        "unroutable_frames": sum(r.unroutable_frames for r in routers),
        "decode_errors": sum(r.listener.decode_errors for r in routers
                             if r.listener is not None),
        "handler_errors": sum(r.listener.handler_errors for r in routers
                              if r.listener is not None),
        "reconnects": sum(r.reconnects() for r in routers),
        "backoff_retries": sum(r.backoff_retries() for r in routers),
        "frames_sent": sum(r.frames_sent() for r in routers),
        "socket_writes": sum(r.socket_writes() for r in routers),
        "direct_frames": sum(r.direct_frames() for r in routers),
    }


class LiveCluster:
    """A live localhost deployment: n replicas + clients over TCP.

    Node ids follow the simulator's convention: ``0..n-1`` are replicas,
    ``n..n+clients-1`` are clients.  Throughput is measured server-side
    at an honest non-leader replica; latency client-side from
    acknowledgements (paper §VI).

    Args:
        n: replica count (3f+1).
        client_count: load-generating clients.
        protocol: which protocol to boot (``leopard`` / ``pbft`` /
            ``hotstuff``); every one runs over the same transport, wire
            codec and measurement harness.
        config: protocol configuration; defaults to the protocol's
            smoke-scale live config.
        total_rate: offered load in requests/second across all clients.
        bundle_size: requests per client submission.
        seed: determinism seed for key dealing.
        warmup: seconds of metrics warmup (live runs are short; 0 keeps
            every commit).
        host: bind address for all listeners.
        resubmit: Leopard clients re-route unacknowledged bundles to the
            next responsible replica (paper §IV-A1's f+1 re-routing; off
            for clean throughput accounting).  Baseline clients always
            submit to the leader.
        client_timeout: seconds a client waits for an ack before
            re-routing (only with ``resubmit``).
        faults: optional ``replica_id -> FaultBehavior`` map (≤ f
            entries) — the same behaviours the simulator hosts, applied
            at the live node's sans-io boundary.
        tracer: optional :class:`repro.obs.tracer.RingTracer`; when set,
            every hosted core is wrapped in a
            :class:`~repro.obs.tracer.TracedCore` and the report gains a
            ``trace`` dump (lifecycle events at the sans-io boundary).
    """

    def __init__(self, n: int, client_count: int = 1,
                 protocol: str = "leopard",
                 config=None,
                 total_rate: float = 4000.0, bundle_size: int = 200,
                 seed: int = 0, warmup: float = 0.0,
                 host: str = "127.0.0.1", resubmit: bool = False,
                 client_timeout: float = 2.0,
                 faults: dict[int, FaultBehavior] | None = None,
                 tracer=None) -> None:
        if client_count < 1:
            raise ConfigError("need at least one client")
        spec = get_protocol(protocol)
        self._spec = spec
        self.protocol = spec.name
        self.config = config if config is not None \
            else spec.live_config(n)
        if self.config.n != n:
            raise ConfigError(
                "config.n must match the requested cluster size")
        self.n = n
        self.client_count = client_count
        self.host = host
        self.warmup = warmup
        self.context = spec.make_context(self.config, seed)
        self.metrics = MetricsCollector(warmup=warmup,
                                        timeseries=TimeSeries())
        self.tracer = tracer
        self.leader = self.config.leader_of(1)
        self.faults = dict(faults or {})
        self.measure_replica = pick_measure_replica(self.config, self.faults)
        #: Cluster-wide link shaper, consulted by every outbound link.
        self.shaper = LinkShaper(seed=seed)
        self.restarts = 0
        self.chaos_log: list[dict] = []
        self.scenario_name: str | None = None
        self.address_book: dict[int, tuple[str, int]] = {}
        self.nodes: dict[int, LiveNode] = {}
        self.clients: list = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._epoch: float | None = None
        self._stopped_at: float | None = None
        self._faults_at_start = 0
        self._sampler_task: asyncio.Task | None = None

        self.replicas = [
            spec.make_replica(replica_id, self.config, self.context,
                              self.metrics.perf)
            for replica_id in range(n)]
        per_client_rate = total_rate / client_count
        for index in range(client_count):
            self.clients.append(spec.make_client(
                n + index, self.config, per_client_rate, bundle_size,
                resubmit=resubmit, client_timeout=client_timeout))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def clock(self) -> float:
        """Seconds since the cluster booted (the live ``now``)."""
        if self._loop is None or self._epoch is None:
            return 0.0
        return self._loop.time() - self._epoch

    async def start(self) -> None:
        """Bind every listener, then boot every core.

        If any listener fails to bind (or any core's start hook raises),
        every listener that *did* bind is closed before the error
        propagates — a crash during boot must not leave orphaned
        listeners holding ports (``make live-smoke`` reruns would then
        inherit them).
        """
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._epoch = loop.time()
        self._faults_at_start = minor_faults()
        for core in [*self.replicas, *self.clients]:
            router = Router(core.node_id, self.address_book, host=self.host,
                            shaper=self.shaper)
            node = LiveNode(self._stack(core), router, range(self.n),
                            self.metrics, self.clock)
            self.nodes[core.node_id] = node
        # All listeners must be routable before any core starts sending.
        results = await asyncio.gather(
            *(node.start() for node in self.nodes.values()),
            return_exceptions=True)
        failures = [r for r in results if isinstance(r, BaseException)]
        if failures:
            await self.stop()
            raise failures[0]
        try:
            for node in self.nodes.values():
                node.boot()
        except Exception:
            await self.stop()
            raise
        if self.metrics.timeseries is not None:
            self._sampler_task = loop.create_task(self._sample_loop())

    async def _sample_loop(self) -> None:
        """Feed host samples (backlog, queue depth, shaper drops) to the
        time series at its bucket cadence; runs until :meth:`stop`."""
        series = self.metrics.timeseries
        last_lost = self.shaper.frames_lost
        while True:
            await asyncio.sleep(series.interval)
            lost = self.shaper.frames_lost
            node = self.nodes.get(self.measure_replica)
            if node is not None and not node.crashed:
                series.sample(self.clock(),
                              backlog_s=node.router.backlog_seconds(),
                              queue_depth=node.router.queued_bytes(),
                              shaper_drops=lost - last_lost)
            last_lost = lost

    async def run(self, duration: float) -> None:
        """Let the cluster serve traffic for ``duration`` real seconds."""
        await asyncio.sleep(duration)

    async def kill_replica(self, replica_id: int) -> None:
        """Crash-stop one replica mid-run (fault injection)."""
        await self.nodes[replica_id].kill()

    async def restart_replica(self, replica_id: int) -> None:
        """Boot a fresh core for a crashed replica on its original port.

        Real crash-recovery semantics: the replacement core is rebuilt
        empty (key material re-dealt deterministically from the shared
        context), binds the *same* address, and begins recovery on boot —
        soliciting peer snapshots over real sockets, installing the
        checkpoint-anchored prefix and replaying forward into live
        agreement (:mod:`repro.core.recovery`) — while the surviving
        peers' reconnecting outbound links deliver their queued frames to
        it.  No cluster-wide reconfiguration happens.
        """
        if replica_id >= self.n:
            raise ConfigError("only replicas can be restarted")
        old = self.nodes[replica_id]
        if not old.crashed:
            raise ConfigError(
                f"replica {replica_id} is running; crash it first")
        address = self.address_book.get(replica_id)
        if address is None:
            raise ConfigError(f"replica {replica_id} was never started")
        core = self._spec.make_replica(replica_id, self.config, self.context,
                                       self.metrics.perf)
        core.begin_recovery()
        self.replicas[replica_id] = core
        router = Router(core.node_id, self.address_book, host=address[0],
                        port=address[1], shaper=self.shaper)
        node = LiveNode(self._stack(core), router, range(self.n),
                        self.metrics, self.clock)
        self.nodes[replica_id] = node
        await node.start()
        node.boot()
        self.restarts += 1

    def set_fault(self, replica_id: int, fault: FaultBehavior) -> None:
        """Hot-swap one replica's fault behaviour (chaos ``fault`` op)."""
        if replica_id == self.measure_replica and fault is not HONEST:
            raise ConfigError("the measurement replica must stay honest")
        if fault is HONEST:
            self.faults.pop(replica_id, None)
        else:
            self.faults[replica_id] = fault
        node = self.nodes[replica_id]
        node.host(self._stack(node.core))

    def _stack(self, core):
        """``core`` stacked with its node's fault and the run's tracer
        (:func:`repro.faults.hosted_core`)."""
        return hosted_core(core, self.faults.get(core.node_id, HONEST),
                           self.tracer)

    async def apply_chaos_event(self, event) -> None:
        """Execute one resolved chaos event against this deployment."""
        args = event.args
        if event.op == "partition":
            self.shaper.set_partition(
                [frozenset(group) for group in args["groups"]])
        elif event.op == "heal":
            self.shaper.heal()
        elif event.op == "crash":
            await self.kill_replica(args["node"])
        elif event.op == "restart":
            await self.restart_replica(args["node"])
        elif event.op == "shape":
            self.shaper.set_policy(args["src"], args["dst"],
                                   LinkPolicy(**args["policy"]))
        elif event.op == "unshape":
            self.shaper.clear_policy(args["src"], args["dst"])
        elif event.op == "fault":
            self.set_fault(args["node"], fault_from_spec(args["spec"]))
        elif event.op == "unfault":
            self.set_fault(args["node"], HONEST)
        else:
            raise ConfigError(f"unknown chaos op {event.op!r}")
        self.chaos_log.append(event.to_jsonable())
        series = self.metrics.timeseries
        if series is not None:
            series.annotate(self.clock(), event.op, event.describe())

    async def run_scenario(self, scenario: ChaosScenario) -> None:
        """Drive a chaos scenario to completion against this cluster."""
        self.scenario_name = scenario.name
        await run_scenario_live(self, scenario)

    async def stop(self) -> None:
        """Tear the whole cluster down (idempotent, safe mid-boot)."""
        if self._stopped_at is None:
            self._stopped_at = self.clock()
        if self._sampler_task is not None:
            self._sampler_task.cancel()
            try:
                await self._sampler_task
            except asyncio.CancelledError:
                pass
            self._sampler_task = None
        await asyncio.gather(
            *(node.shutdown() for node in self.nodes.values()))

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def committed_requests(self, replica_id: int | None = None) -> int:
        """Requests executed at a replica (default: the measure replica)."""
        if replica_id is None:
            replica_id = self.measure_replica
        return self.metrics.executed_requests.get(replica_id, 0)

    def measurement_window(self) -> float:
        """Post-warmup seconds the metrics cover."""
        elapsed = self._stopped_at if self._stopped_at is not None \
            else self.clock()
        return max(elapsed - self.warmup, 0.0)

    def report(self) -> dict:
        """The run report, in the simulator's schema (live backend)."""
        byte_stats: dict[int, NicStats] = {
            node_id: self.nodes[node_id].router.stats
            for node_id in range(self.n) if node_id in self.nodes}
        duration = self.measurement_window()
        # The live analogue of the simulator's event count: every frame
        # delivered to a core.  The rate divides whole-run events by
        # whole-run elapsed time (wall-clock and protocol time coincide
        # here), mirroring the sim's events_processed / wall_seconds —
        # NOT by the post-warmup window, which would inflate it.
        events = sum(node.router.stats.total_recv_msgs()
                     for node in self.nodes.values())
        elapsed = self._stopped_at if self._stopped_at is not None \
            else self.clock()
        report = standard_report(
            backend="live",
            protocol=self.protocol,
            n=self.n,
            duration=duration,
            metrics=self.metrics,
            byte_stats=byte_stats,
            measure_replica=self.measure_replica,
            events_processed=events,
            events_per_sec=events / elapsed if elapsed > 0 else 0.0,
            faults=self.faults_summary(),
            timeseries=self.timeseries_section(),
            recovery=self.recovery_section(),
        )
        report["transport"] = transport_summary(
            [node.router for node in self.nodes.values()])
        report["deployment"] = {
            "mode": "in-process",
            "replica_processes": 0,
            "peak_rss_mb": peak_rss_mb(),
            "minor_faults": minor_faults() - self._faults_at_start}
        if self.tracer is not None and self.tracer.enabled:
            report["trace"] = self.tracer.to_jsonable()
        return report

    def recovery_section(self) -> dict | None:
        """The report's ``recovery`` section (``None`` for a clean run)."""
        from repro.core.recovery import recovery_section
        return recovery_section({core.node_id: core.recovery_summary()
                                 for core in self.replicas})

    def timeseries_section(self) -> dict | None:
        """The schema-5 ``timeseries`` section for this run (live clock)."""
        series = self.metrics.timeseries
        if series is None:
            return None
        end = self._stopped_at if self._stopped_at is not None \
            else self.clock()
        return series.section(measure_replica=self.measure_replica,
                              end=end)

    def faults_summary(self) -> dict | None:
        """The report's ``faults`` section (``None`` for a clean run)."""
        return faults_section(self.faults, self.scenario_name,
                              self.chaos_log, self.restarts,
                              shaping=self.shaper.snapshot())


async def run_live(n: int = 4, client_count: int = 1,
                   duration: float = 5.0,
                   protocol: str = "leopard",
                   config=None,
                   total_rate: float = 4000.0, bundle_size: int = 200,
                   seed: int = 0, warmup: float = 0.0,
                   faults: dict[int, FaultBehavior] | None = None,
                   scenario: ChaosScenario | None = None,
                   tracer=None) -> dict:
    """Boot a localhost cluster, serve for ``duration`` s, return report.

    With a ``scenario`` the chaos controller runs concurrently with the
    load; the run lasts ``max(duration, scenario end + 0.5s)`` so the
    last event always executes before teardown.
    """
    cluster = LiveCluster(
        n, client_count=client_count, protocol=protocol, config=config,
        total_rate=total_rate, bundle_size=bundle_size, seed=seed,
        warmup=warmup, faults=faults, tracer=tracer)
    chaos_task: asyncio.Task | None = None
    if scenario is not None:
        duration = max(duration, scenario.duration() + 0.5)
    try:
        await cluster.start()
        if scenario is not None:
            chaos_task = asyncio.get_running_loop().create_task(
                cluster.run_scenario(scenario))
        await cluster.run(duration)
        if chaos_task is not None:
            await chaos_task  # surface scenario errors, don't swallow them
            chaos_task = None
    finally:
        if chaos_task is not None:
            chaos_task.cancel()
            try:
                await chaos_task
            except (asyncio.CancelledError, Exception):
                pass
        await cluster.stop()
    return cluster.report()


def run_live_sync(**kwargs) -> dict:
    """Synchronous wrapper around :func:`run_live` (CLI entry point)."""
    return asyncio.run(run_live(**kwargs))
