"""The simulated deployment: one builder for Leopard, PBFT and HotStuff.

:func:`build_cluster` assembles any protocol of the registry
(:mod:`repro.protocols`) on the discrete-event simulator; a
:class:`Cluster` bundles the simulation, the replica cores, the client
cores and the measurement conventions shared by every experiment:

* node ids ``0..n-1`` are replicas, ``n..n+m-1`` are clients;
* throughput is measured server-side at an honest non-leader replica over
  the post-warmup window (paper §VI);
* latency is measured client-side from acknowledgements.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

from repro.analysis.calibration import (
    CostModel,
    DEFAULT_COSTS,
    client_cpu_model,
)
from repro.errors import ConfigError
from repro.faults import (
    HONEST,
    Combined,
    Crash,
    FaultBehavior,
    fault_from_spec,
    faults_section,
    hosted_core,
    partition_behavior,
    pick_measure_replica,
)
from repro.obs.timeseries import TimeSeries
from repro.protocols import ProtocolSpec, get_protocol
from repro.sim.metrics import node_bandwidth_bps
from repro.sim.network import DEFAULT_BANDWIDTH_BPS, Network
from repro.sim.runner import Simulation
from repro.stats import MetricsCollector, standard_report


@dataclass
class Cluster:
    """A ready-to-run simulated deployment."""

    sim: Simulation
    #: The protocol's registry entry, the run's config and the shared
    #: replica context: a chaos ``restart`` rebuilds a crashed replica
    #: from these, as the live cluster does.
    spec: ProtocolSpec
    config: object
    context: object
    n: int
    replicas: list
    clients: list
    measure_replica: int
    warmup: float
    leader: int
    run_seconds: float = 0.0
    faults: dict[int, FaultBehavior] = field(default_factory=dict)
    restarts: int = 0
    chaos_log: list = field(default_factory=list)
    scenario_name: str | None = None
    partition_groups: list = field(default_factory=list)
    #: Lifecycle tracer (``install_tracer``); ``None`` keeps the hot
    #: paths structurally untouched.
    tracer: object | None = None
    _sampler_installed: bool = field(default=False, repr=False)

    @property
    def protocol(self) -> str:
        """The protocol's registry name."""
        return self.spec.name

    @property
    def metrics(self) -> MetricsCollector:
        """The shared metrics sink."""
        return self.sim.metrics

    @property
    def network(self) -> Network:
        """The shared network model."""
        return self.sim.network

    def run(self, seconds: float) -> int:
        """Advance the simulation by ``seconds`` of virtual time.

        Returns:
            Number of events the engine executed during this call.
        """
        self._install_sampler()
        executed = self.sim.run(seconds)
        self.run_seconds = self.sim.now
        return executed

    def install_tracer(self, tracer) -> None:
        """Record lifecycle traces for every node in this cluster.

        Re-stacks each hosted core with the :mod:`repro.obs` boundary
        tracer outermost (:func:`repro.faults.hosted_core`); fault hot
        swaps and chaos restarts keep it.
        """
        self.tracer = tracer
        for node_id in self.sim.nodes:
            self._restack(node_id)

    def _install_sampler(self) -> None:
        """Arm the recurring time-series host sampler (first run only).

        Samples the measure replica's NIC backlog and the scheduler's
        pending-event depth into the metrics' :class:`TimeSeries` every
        interval — a handful of read-only events per simulated second.
        """
        series = self.metrics.timeseries
        if self._sampler_installed or series is None:
            return
        self._sampler_installed = True
        queue = self.sim.queue
        nic = self.network.nics[self.measure_replica]
        interval = series.interval

        def tick() -> None:
            now = queue.now
            backlog = nic.tx_busy_until - now
            series.sample(now,
                          backlog_s=backlog if backlog > 0 else 0.0,
                          queue_depth=queue.pending)
            queue.schedule(now + interval, tick)

        queue.schedule(queue.now + interval, tick)

    def measurement_window(self) -> float:
        """Seconds of post-warmup time the metrics cover."""
        return max(self.run_seconds - self.warmup, 0.0)

    def throughput(self) -> float:
        """Requests/second executed at the measurement replica."""
        return self.metrics.throughput(
            self.measure_replica, self.measurement_window())

    def throughput_bps(self) -> float:
        """Goodput in payload bits/second (Fig. 10's unit)."""
        return self.throughput() * self.config.payload_size * 8.0

    def mean_latency(self) -> float:
        """Mean client-observed latency in seconds."""
        return self.metrics.mean_latency()

    def leader_bandwidth_bps(self) -> float:
        """The leader's total (send+receive) bandwidth utilization."""
        return node_bandwidth_bps(
            self.network, self.leader, self.run_seconds)

    def report(self) -> dict:
        """Backend-neutral run report (same schema as a live run's).

        Replica byte counters come from the modelled NICs; a live cluster
        produces the identical structure from real socket counters, so the
        two are directly comparable (see :mod:`repro.net.live`).
        """
        report = standard_report(
            backend="sim",
            protocol=self.protocol,
            n=self.n,
            duration=self.measurement_window(),
            metrics=self.metrics,
            byte_stats={node_id: self.network.stats(node_id)
                        for node_id in range(self.n)},
            measure_replica=self.measure_replica,
            events_processed=self.sim.events_processed,
            events_per_sec=self.sim.events_per_sec(),
            event_queue=self.sim.queue.occupancy(),
            faults=self.faults_summary(),
            timeseries=self.timeseries_section(),
            recovery=self.recovery_section(),
        )
        if self.tracer is not None and getattr(self.tracer, "enabled",
                                               False):
            report["trace"] = self.tracer.to_jsonable()
        return report

    def recovery_section(self) -> dict | None:
        """The report's ``recovery`` section (``None`` for a clean run)."""
        from repro.core.recovery import recovery_section
        return recovery_section({core.node_id: core.recovery_summary()
                                 for core in self.replicas})

    def timeseries_section(self) -> dict | None:
        """Rendered interval curve (``None`` without a collector)."""
        series = self.metrics.timeseries
        if series is None:
            return None
        return series.section(measure_replica=self.measure_replica,
                              end=self.run_seconds)

    # ------------------------------------------------------------------
    # Chaos (the simulated backend of repro.net.chaos scenarios)
    # ------------------------------------------------------------------

    def _effective_fault(self, replica_id: int) -> FaultBehavior:
        base = self.faults.get(replica_id, HONEST)
        part = partition_behavior(replica_id, self.partition_groups) \
            if self.partition_groups else HONEST
        if base is HONEST:
            return part
        if part is HONEST:
            return base
        return Combined((base, part))

    def _restack(self, node_id: int, core=None) -> None:
        """Host ``core`` (default: the node's current core) under the
        node's effective fault and the cluster's tracer."""
        node = self.sim.nodes[node_id]
        node.host(hosted_core(node.core if core is None else core,
                              self._effective_fault(node_id), self.tracer))

    def set_fault(self, replica_id: int, fault: FaultBehavior) -> None:
        """Hot-swap one replica's base fault behaviour mid-simulation."""
        if replica_id == self.measure_replica and fault is not HONEST:
            raise ConfigError("the measurement replica must stay honest")
        if fault is HONEST:
            self.faults.pop(replica_id, None)
        else:
            self.faults[replica_id] = fault
        self._restack(replica_id)

    def restart_replica(self, replica_id: int) -> None:
        """Replace a crashed replica's core and arm catch-up.

        The simulated analogue of killing and respawning a process: the
        node keeps its id, NIC and CPU lanes, but hosts a fresh core with
        empty state, cleared timers and an honest behaviour.  The fresh
        core begins recovery on boot — it solicits peer snapshots,
        installs the checkpoint-anchored prefix, and replays forward into
        live agreement (:mod:`repro.core.recovery`); recovery traffic
        flows through the modelled NICs like any other message.
        """
        if not self._effective_fault(replica_id).crashed(self.sim.now):
            raise ConfigError(
                f"replica {replica_id} is not crashed; only a crashed "
                "replica can be restarted")
        core = self.spec.make_replica(replica_id, self.config, self.context,
                                      self.metrics.perf)
        self.replicas[replica_id] = core
        self.faults.pop(replica_id, None)
        node = self.sim.nodes[replica_id]
        node._timer_generation.clear()
        core.begin_recovery()
        self._restack(replica_id, core)
        node.boot()
        self.restarts += 1

    def apply_chaos_event(self, event) -> None:
        """Execute one resolved chaos event at the current sim time.

        Scheduled by :func:`repro.net.chaos.schedule_scenario_sim`;
        ``shape``/``unshape`` never reach here (the scheduler rejects
        them — the simulator models bandwidth at the NIC layer).
        """
        args = event.args
        if event.op == "partition":
            self.partition_groups = [frozenset(group)
                                     for group in args["groups"]]
            for replica_id in range(self.n):
                self._restack(replica_id)
        elif event.op == "heal":
            self.partition_groups = []
            for replica_id in range(self.n):
                self._restack(replica_id)
        elif event.op == "crash":
            self.set_fault(args["node"], Crash(at=self.sim.now))
        elif event.op == "restart":
            self.restart_replica(args["node"])
        elif event.op == "fault":
            self.set_fault(args["node"], fault_from_spec(args["spec"]))
        elif event.op == "unfault":
            self.set_fault(args["node"], HONEST)
        else:
            raise ConfigError(
                f"chaos op {event.op!r} is not simulatable")
        self.chaos_log.append(event.to_jsonable())
        series = self.metrics.timeseries
        if series is not None:
            series.annotate(self.sim.now, event.op, event.describe())

    def faults_summary(self) -> dict | None:
        """The report's ``faults`` section (``None`` for a clean run)."""
        return faults_section(self.faults, self.scenario_name,
                              self.chaos_log, self.restarts)


def _bucket_width_hint(block_bytes: int, bandwidth_bps: float,
                       fanout: int) -> float:
    """Calendar bucket width sized from the NIC serialization quantum.

    ``fanout`` captures the protocol's traffic shape.  For all-to-all
    dissemination (Leopard: every replica multicasts datablocks, so the
    global event stream is dense) a bucket spans about a quarter of one
    wire copy's serialization time — wide enough that a coalesced
    arrival slab crosses few buckets, narrow enough that a copy's
    follow-on events (rx serialization + CPU occupancy, at least one
    further quantum) land beyond the bucket being drained.  For
    leader-based dissemination (HotStuff/PBFT: one sender, ~n× sparser
    events) ``fanout = n - 1`` makes a bucket span a slice of the
    whole egress ramp instead; per-copy-sized buckets there would mean
    one cursor advance per event.  Clamped so degenerate payloads (tiny
    control messages, throttled NICs) still get useful buckets.
    """
    # bytes*16/bandwidth == bytes*8/(bandwidth/2): one copy's wire time
    # at the NIC's half-duplex per-direction share (Nic.occupy_tx).
    quantum = max(1, block_bytes) * 16.0 / bandwidth_bps
    return min(4e-3, max(5e-5, max(1, fanout) * quantum / 4.0))


def build_cluster(
        protocol: str,
        n: int,
        seed: int = 0,
        config=None,
        costs: CostModel = DEFAULT_COSTS,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        total_rate: float | None = None,
        client_count: int | None = None,
        bundle_size: int = 500,
        warmup: float | None = None,
        faults: dict[int, FaultBehavior] | None = None,
        resubmit: bool = False,
        trace_phases: bool = False,
        gst: float = 0.0,
        prime: bool = True,
) -> Cluster:
    """Build a simulated deployment of ``n`` replicas plus load clients.

    Every default comes from the protocol's
    :class:`repro.protocols.ProtocolSpec`, the registry the live runtime
    builds from too.

    Args:
        protocol: ``leopard``, ``pbft`` or ``hotstuff``.
        n: replica count (3f+1 fault tolerance, as all paper experiments).
        seed: determinism seed (keys, jitter).
        config: protocol configuration; defaults to the paper-scale one.
        costs: CPU calibration.
        bandwidth_bps: per-node NIC capacity (Fig. 10 throttles this).
        total_rate: offered load in requests/s across all clients;
            defaults to a load saturating the calibrated ceiling.
        client_count: load clients (Leopard: one per non-leader replica;
            the baselines: four, all submitting to the leader).
        bundle_size: requests per client submission.
        warmup: metrics warmup window (seconds).  Leopard's default
            estimates the saturation ramp (and stretches a progress
            timeout the ramp would trip); the baselines' is 1 s.
        faults: optional ``replica_id -> FaultBehavior`` map (≤ f entries).
        resubmit: Leopard clients re-submit on ack timeout.
        trace_phases: collect Leopard's Table IV latency-phase breakdown.
        gst: global stabilization time of the partial-synchrony model.
        prime: inject the protocol's initial saturating request burst
            into every client (Leopard's steady-saturation setup; the
            baselines have none).  Disable for targeted workloads — e.g.
            the n = 1000 single-block commit smoke, where an all-replica
            burst would cost O(n²·blocks) Ready events.
    """
    spec = get_protocol(protocol)
    config = config if config is not None else spec.paper_config(n)
    if config.n != n:
        raise ConfigError("config.n must match the requested cluster size")
    faults = dict(faults or {})
    measure = pick_measure_replica(config, faults)
    if client_count is None:
        client_count = spec.sim_clients(n)
    if total_rate is None:
        total_rate = spec.saturating_rate(config, costs, bandwidth_bps)
    if warmup is None:
        warmup, config = spec.default_warmup(config, costs)
    network = Network(n + client_count, bandwidth_bps=bandwidth_bps,
                      gst=gst, seed=seed)
    metrics = MetricsCollector(warmup=warmup, timeseries=TimeSeries())
    block_bytes, fanout = spec.bucket_hint(config, bundle_size)
    sim = Simulation(
        network, replica_count=n, metrics=metrics,
        bucket_width=_bucket_width_hint(block_bytes, bandwidth_bps, fanout))
    context = spec.make_context(config, seed)
    leader = config.leader_of(1)

    replicas = []
    # One shared cost-model closure per role: every replica host holding
    # the same callable lets the broadcast fast path memoize the
    # per-message CPU cost across all n-1 copies.
    replica_cpu = spec.cpu_model(costs)
    for replica_id in range(n):
        replica_config = config
        if trace_phases and replica_id == measure:
            replica_config = dc_replace(config, trace_phases=True)
        replica = spec.make_replica(replica_id, replica_config, context,
                                    metrics.perf)
        sim.add_node(hosted_core(replica, faults.get(replica_id, HONEST)),
                     cpu_model=replica_cpu)
        replicas.append(replica)

    clients = []
    client_cpu = client_cpu_model(costs)
    per_client_rate = total_rate / client_count
    for index in range(client_count):
        client = spec.make_client(
            n + index, config, per_client_rate, bundle_size,
            resubmit=resubmit, trace_phases=trace_phases)
        sim.add_node(client, cpu_model=client_cpu)
        clients.append(client)

    cluster = Cluster(sim=sim, spec=spec, config=config, context=context,
                      n=n, replicas=replicas, clients=clients,
                      measure_replica=measure, warmup=warmup,
                      leader=leader, faults=faults)
    burst = spec.prime_burst(config) if prime else 0
    if burst:
        _prime(cluster, burst)
    return cluster


def build_leopard_cluster(n: int, **options) -> Cluster:
    """:func:`build_cluster` for Leopard."""
    return build_cluster("leopard", n, **options)


def build_pbft_cluster(n: int, **options) -> Cluster:
    """:func:`build_cluster` for PBFT / BFT-SMaRt (the Fig. 1 baseline)."""
    return build_cluster("pbft", n, **options)


def run_sim(protocol: str, n: int, duration: float, *, scenario=None,
            tracer=None, **options) -> dict:
    """Simulate ``duration`` seconds and return the run's report.

    The simulated counterpart of :func:`repro.net.live.run_live`: with a
    chaos ``scenario`` the run lasts until 0.5 s past its last event.
    ``options`` go to :func:`build_cluster`.
    """
    cluster = build_cluster(protocol, n, **options)
    if tracer is not None:
        cluster.install_tracer(tracer)
    if scenario is not None:
        from repro.net.chaos import schedule_scenario_sim

        duration = max(duration, scenario.duration() + 0.5)
        cluster.scenario_name = scenario.name
        schedule_scenario_sim(cluster, scenario)
    cluster.run(duration)
    return cluster.report()


def _prime(cluster: Cluster, burst: int) -> None:
    """Inject an initial request burst directly into client submission."""
    from repro.messages.client import RequestBundle

    for client in cluster.clients:
        bundle = RequestBundle(client.node_id, 0, burst,
                               client.config.payload_size, 0.0)
        target = client.primary
        cluster.sim.queue.schedule(
            0.0,
            lambda t=target, b=bundle, c=client.node_id:
            cluster.sim.deliver(c, t, b))


def throttle_all_replicas(cluster: Cluster, bandwidth_bps: float) -> None:
    """NetEm stand-in: throttle every replica NIC (paper §VI-B)."""
    for replica_id in range(cluster.n):
        cluster.network.set_bandwidth(replica_id, bandwidth_bps)
