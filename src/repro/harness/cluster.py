"""Cluster builders: assemble simulated Leopard/HotStuff/PBFT deployments.

A :class:`Cluster` bundles the simulation, the replica cores, the client
cores and the measurement conventions shared by every experiment:

* node ids ``0..n-1`` are replicas, ``n..n+m-1`` are clients;
* throughput is measured server-side at an honest non-leader replica over
  the post-warmup window (paper §VI);
* latency is measured client-side from acknowledgements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace as dc_replace
from typing import Callable

from repro.analysis.calibration import (
    CostModel,
    DEFAULT_COSTS,
    client_cpu_model,
    hotstuff_cpu_model,
    leopard_cpu_model,
    pbft_cpu_model,
)
from repro.core.client import LeopardClient
from repro.core.config import LeopardConfig
from repro.core.replica import LeopardReplica
from repro.crypto.keys import KeyRegistry
from repro.errors import ConfigError
from repro.faults import (
    HONEST,
    Combined,
    Crash,
    FaultBehavior,
    fault_from_spec,
    fault_to_spec,
    partition_behavior,
)
from repro.obs.timeseries import TimeSeries
from repro.sim.metrics import node_bandwidth_bps
from repro.sim.network import DEFAULT_BANDWIDTH_BPS, Network
from repro.sim.runner import Simulation
from repro.stats import MetricsCollector, standard_report


@dataclass
class Cluster:
    """A ready-to-run simulated deployment."""

    sim: Simulation
    protocol: str
    n: int
    replicas: list
    clients: list
    measure_replica: int
    warmup: float
    leader: int
    run_seconds: float = 0.0
    faults: dict[int, FaultBehavior] = field(default_factory=dict)
    #: ``replica_id -> fresh core`` factory the builders install so a
    #: chaos ``restart`` can rebuild a crashed replica from genesis.
    rebuild_replica: Callable | None = None
    restarts: int = 0
    chaos_log: list = field(default_factory=list)
    scenario_name: str | None = None
    partition_groups: list = field(default_factory=list)
    #: Lifecycle tracer (``install_tracer``); ``None`` keeps the hot
    #: paths structurally untouched.
    tracer: object | None = None
    _sampler_installed: bool = field(default=False, repr=False)

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

        Wraps each hosted core in the :mod:`repro.obs` boundary tracer;
        chaos restarts re-wrap the rebuilt core automatically.
        """
        self.tracer = tracer
        for node in self.sim.nodes.values():
            node.install_tracer(tracer)

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
        payload = self.replicas[0].config.payload_size \
            if self.protocol == "leopard" \
            else self.replicas[0].payload_size
        return self.throughput() * payload * 8.0

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
        return recovery_section(self.replicas)

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

    def _refresh_fault(self, replica_id: int) -> None:
        node = self.sim.nodes[replica_id]
        fault = self._effective_fault(replica_id)
        node.fault = fault
        node._honest = fault is HONEST

    def set_fault(self, replica_id: int, fault: FaultBehavior) -> None:
        """Hot-swap one replica's base fault behaviour mid-simulation."""
        if replica_id == self.measure_replica and fault is not HONEST:
            raise ConfigError("the measurement replica must stay honest")
        if fault is HONEST:
            self.faults.pop(replica_id, None)
        else:
            self.faults[replica_id] = fault
        self._refresh_fault(replica_id)

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
        if self.rebuild_replica is None:
            raise ConfigError(
                f"{self.protocol} cluster has no replica rebuild factory")
        node = self.sim.nodes[replica_id]
        if not node.fault.crashed:
            raise ConfigError(
                f"replica {replica_id} is not crashed; only a crashed "
                "replica can be restarted")
        core = self.rebuild_replica(replica_id)
        node.core = core
        self.replicas[replica_id] = core
        self.faults.pop(replica_id, None)
        self._refresh_fault(replica_id)
        node._timer_generation.clear()
        if hasattr(core, "backlog_probe"):
            core.backlog_probe = node._backlog_probe
        if hasattr(core, "begin_recovery"):
            core.begin_recovery()
        if self.tracer is not None:
            node.install_tracer(self.tracer)
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
                self._refresh_fault(replica_id)
        elif event.op == "heal":
            self.partition_groups = []
            for replica_id in range(self.n):
                self._refresh_fault(replica_id)
        elif event.op == "crash":
            crash = Crash(at=self.sim.now)
            crash._now = self.sim.now  # latch crashed immediately
            self.set_fault(args["node"], crash)
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
        if not (self.faults or self.chaos_log or self.restarts
                or self.scenario_name):
            return None

        def spec_or_custom(fault):
            try:
                return fault_to_spec(fault)
            except ValueError:
                return {"kind": "custom", "repr": repr(fault)}

        return {
            "injected": {str(replica_id): spec_or_custom(fault)
                         for replica_id, fault in sorted(self.faults.items())},
            "scenario": self.scenario_name,
            "events_applied": list(self.chaos_log),
            "restarts": self.restarts,
            "shaping": None,  # live-only; key kept for shape parity
        }


def _bucket_width_hint(n: int, block_bytes: int, bandwidth_bps: float,
                       fanout: int = 1) -> float:
    """Calendar bucket width sized from the NIC serialization quantum.

    ``fanout`` captures the protocol's traffic shape.  For all-to-all
    dissemination (Leopard: every replica multicasts datablocks, so the
    global event stream is dense) a bucket spans about a quarter of one
    wire copy's serialization time — wide enough that a coalesced
    arrival slab crosses few buckets, narrow enough that a copy's
    follow-on events (rx serialization + CPU occupancy, at least one
    further quantum) land beyond the bucket being drained.  For
    leader-based dissemination (HotStuff/PBFT: one sender, ~n× sparser
    events) pass ``fanout = n - 1`` so a bucket spans a slice of the
    whole egress ramp instead; per-copy-sized buckets there would mean
    one cursor advance per event.  Clamped so degenerate payloads (tiny
    control messages, throttled NICs) still get useful buckets.
    """
    # bytes*16/bandwidth == bytes*8/(bandwidth/2): one copy's wire time
    # at the NIC's half-duplex per-direction share (Nic.occupy_tx).
    quantum = max(1, block_bytes) * 16.0 / bandwidth_bps
    return min(4e-3, max(5e-5, max(1, fanout) * quantum / 4.0))


def _pick_measure_replica(n: int, leader: int, faulty: set[int]) -> int:
    for candidate in range(n):
        if candidate != leader and candidate not in faulty:
            return candidate
    raise ConfigError("no honest non-leader replica available to measure")


def build_leopard_cluster(
        n: int,
        seed: int = 0,
        config: LeopardConfig | None = None,
        costs: CostModel = DEFAULT_COSTS,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        total_rate: float | None = None,
        clients_per_replica: int = 1,
        bundle_size: int = 500,
        warmup: float | None = None,
        faults: dict[int, FaultBehavior] | None = None,
        resubmit: bool = False,
        trace_phases: bool = False,
        gst: float = 0.0,
        prime: bool = True,
) -> Cluster:
    """Build a Leopard deployment of ``n`` replicas plus load clients.

    Args:
        n: replica count (3f+1 fault tolerance, as all paper experiments).
        seed: determinism seed (keys, jitter).
        config: protocol configuration; defaults to ``LeopardConfig(n)``.
        costs: CPU calibration.
        bandwidth_bps: per-node NIC capacity (Fig. 10 throttles this).
        total_rate: offered load in requests/s across all clients; defaults
            to a saturating 1.6x of the calibrated capacity ceiling.
        clients_per_replica: client nodes per non-leader replica.
        bundle_size: requests per client submission.
        warmup: metrics warmup window (seconds).  Defaults to an
            estimate of the saturation ramp: the flow-control window
            admits W·(n-1) datablocks in flight, which take roughly
            W·(n-1)·α·t_verify seconds to stream through each data plane
            ("each lasting until the measurement is stabilized", §VI).
        faults: optional ``replica_id -> FaultBehavior`` map (≤ f entries).
        resubmit: enable client re-submission on ack timeout.
        trace_phases: collect the Table IV latency-phase breakdown.
        gst: global stabilization time of the partial-synchrony model.
        prime: inject the initial saturating request burst into every
            client (the paper's steady-saturation setup).  Disable for
            targeted workloads — e.g. the n = 1000 single-block commit
            smoke, where an all-replica burst would cost O(n²·blocks)
            Ready events.
    """
    config = config if config is not None else LeopardConfig(n=n)
    if config.n != n:
        raise ConfigError("config.n must match the requested cluster size")
    faults = dict(faults or {})
    if len(faults) > config.f:
        raise ConfigError(f"at most f={config.f} faulty replicas allowed")
    client_count = max(1, (n - 1) * clients_per_replica)
    if total_rate is None:
        total_rate = 1.6 / costs.leopard_verify_exec_per_request
    if warmup is None:
        ramp = (config.max_outstanding_datablocks * (n - 1)
                * config.datablock_size
                * costs.leopard_verify_exec_per_request)
        warmup = 1.0 + 3.0 * ramp
        if config.progress_timeout < warmup:
            # The saturation ramp at large n exceeds the default
            # view-change trigger; a fault-free stress run must not
            # misread pipeline fill as a dead leader (the paper: "the
            # timer ... should be set appropriately").
            config = dc_replace(config, progress_timeout=2.0 * warmup)
    network = Network(n + client_count, bandwidth_bps=bandwidth_bps,
                      gst=gst, seed=seed)
    metrics = MetricsCollector(warmup=warmup, timeseries=TimeSeries())
    sim = Simulation(
        network, replica_count=n, metrics=metrics,
        bucket_width=_bucket_width_hint(
            n, config.datablock_size * config.payload_size, bandwidth_bps))
    registry = KeyRegistry(n, config.f, seed=seed)
    leader = config.leader_of(1)
    measure = _pick_measure_replica(n, leader, set(faults))

    replicas = []
    # One shared cost-model closure per role: every replica host holding
    # the same callable lets the broadcast fast path memoize the
    # per-message CPU cost across all n-1 copies.
    replica_cpu = leopard_cpu_model(costs)
    for replica_id in range(n):
        replica_config = config
        if trace_phases and replica_id == measure:
            replica_config = dc_replace(config, trace_phases=True)
        replica = LeopardReplica(replica_id, replica_config, registry)
        replica.attach_perf(metrics.perf)
        sim.add_node(replica, cpu_model=replica_cpu,
                     fault=faults.get(replica_id, HONEST))
        replicas.append(replica)

    clients = []
    client_cpu = client_cpu_model(costs)
    per_client_rate = total_rate / client_count
    for index in range(client_count):
        client_id = n + index
        client = LeopardClient(
            client_id, config, rate=per_client_rate,
            bundle_size=bundle_size, resubmit=resubmit,
            trace_phases=trace_phases)
        sim.add_node(client, cpu_model=client_cpu)
        clients.append(client)

    cluster = Cluster(sim=sim, protocol="leopard", n=n, replicas=replicas,
                      clients=clients, measure_replica=measure,
                      warmup=warmup, leader=leader, faults=faults)

    def _rebuild_leopard(replica_id: int, config=config, registry=registry,
                         metrics=metrics):
        replica = LeopardReplica(replica_id, config, registry)
        replica.attach_perf(metrics.perf)
        return replica

    cluster.rebuild_replica = _rebuild_leopard
    # Prime the mempools so datablocks are full from the start; the paper
    # stress-tests "with a saturated request rate ... until the measurement
    # is stabilized".
    if prime:
        burst = max(1, math.ceil(
            2 * config.datablock_size / max(1, clients_per_replica)))
        _prime_leopard(cluster, burst)
    return cluster


def _prime_leopard(cluster: Cluster, burst: int) -> None:
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


def build_hotstuff_cluster(
        n: int,
        seed: int = 0,
        config: "HotStuffConfig | None" = None,
        costs: CostModel = DEFAULT_COSTS,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        total_rate: float | None = None,
        client_count: int = 4,
        bundle_size: int = 500,
        warmup: float = 1.0,
        faults: dict[int, FaultBehavior] | None = None,
) -> Cluster:
    """Build a chained-HotStuff deployment (clients submit to the leader).

    Parameters mirror :func:`build_leopard_cluster`; ``total_rate``
    defaults to a load saturating the leader's calibrated ceiling.
    """
    from repro.baselines.client import BaselineClient
    from repro.baselines.hotstuff.config import HotStuffConfig
    from repro.baselines.hotstuff.replica import HotStuffReplica

    config = config if config is not None else HotStuffConfig(n=n)
    if config.n != n:
        raise ConfigError("config.n must match the requested cluster size")
    faults = dict(faults or {})
    if total_rate is None:
        # Offered load comfortably above both the CPU and the NIC ceiling.
        nic_ceiling = (bandwidth_bps / 2.0) / (
            config.payload_size * 8.0 * max(1, n - 1))
        cpu_ceiling = 1.0 / (costs.hotstuff_ingest_per_request
                             + costs.hotstuff_exec_per_request
                             + costs.per_send_byte * config.payload_size
                             * (n - 1))
        total_rate = 1.5 * min(nic_ceiling, cpu_ceiling)
    network = Network(n + client_count, bandwidth_bps=bandwidth_bps,
                      seed=seed)
    metrics = MetricsCollector(warmup=warmup, timeseries=TimeSeries())
    sim = Simulation(
        network, replica_count=n, metrics=metrics,
        bucket_width=_bucket_width_hint(
            n, config.payload_size * bundle_size, bandwidth_bps,
            fanout=n - 1))
    leader = config.leader_of(1)
    measure = _pick_measure_replica(n, leader, set(faults))

    replicas = []
    replica_cpu = hotstuff_cpu_model(costs)
    for replica_id in range(n):
        replica = HotStuffReplica(replica_id, config)
        sim.add_node(replica, cpu_model=replica_cpu,
                     fault=faults.get(replica_id, HONEST))
        replicas.append(replica)

    clients = []
    client_cpu = client_cpu_model(costs)
    per_client_rate = total_rate / client_count
    for index in range(client_count):
        client = BaselineClient(
            n + index, target=leader, rate=per_client_rate,
            payload_size=config.payload_size, bundle_size=bundle_size)
        sim.add_node(client, cpu_model=client_cpu)
        clients.append(client)

    cluster = Cluster(sim=sim, protocol="hotstuff", n=n, replicas=replicas,
                      clients=clients, measure_replica=measure,
                      warmup=warmup, leader=leader, faults=faults)
    cluster.rebuild_replica = \
        lambda replica_id, config=config: HotStuffReplica(replica_id, config)
    return cluster


def build_pbft_cluster(
        n: int,
        seed: int = 0,
        config: "PbftConfig | None" = None,
        costs: CostModel = DEFAULT_COSTS,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        total_rate: float | None = None,
        client_count: int = 4,
        bundle_size: int = 500,
        warmup: float = 1.0,
        faults: dict[int, FaultBehavior] | None = None,
) -> Cluster:
    """Build a PBFT / BFT-SMaRt deployment (Fig. 1 baseline)."""
    from repro.baselines.client import BaselineClient
    from repro.baselines.pbft.config import PbftConfig
    from repro.baselines.pbft.replica import PbftReplica

    config = config if config is not None else PbftConfig(n=n)
    if config.n != n:
        raise ConfigError("config.n must match the requested cluster size")
    faults = dict(faults or {})
    if total_rate is None:
        nic_ceiling = (bandwidth_bps / 2.0) / (
            config.payload_size * 8.0 * max(1, n - 1))
        cpu_ceiling = 1.0 / (costs.pbft_ingest_per_request
                             + costs.pbft_exec_per_request
                             + costs.per_send_byte * config.payload_size
                             * (n - 1))
        total_rate = 1.5 * min(nic_ceiling, cpu_ceiling)
    network = Network(n + client_count, bandwidth_bps=bandwidth_bps,
                      seed=seed)
    metrics = MetricsCollector(warmup=warmup, timeseries=TimeSeries())
    sim = Simulation(
        network, replica_count=n, metrics=metrics,
        bucket_width=_bucket_width_hint(
            n, config.payload_size * bundle_size, bandwidth_bps,
            fanout=n - 1))
    leader = config.leader_of(1)
    measure = _pick_measure_replica(n, leader, set(faults))

    replicas = []
    replica_cpu = pbft_cpu_model(costs)
    for replica_id in range(n):
        replica = PbftReplica(replica_id, config)
        sim.add_node(replica, cpu_model=replica_cpu,
                     fault=faults.get(replica_id, HONEST))
        replicas.append(replica)

    clients = []
    client_cpu = client_cpu_model(costs)
    per_client_rate = total_rate / client_count
    for index in range(client_count):
        client = BaselineClient(
            n + index, target=leader, rate=per_client_rate,
            payload_size=config.payload_size, bundle_size=bundle_size)
        sim.add_node(client, cpu_model=client_cpu)
        clients.append(client)

    cluster = Cluster(sim=sim, protocol="pbft", n=n, replicas=replicas,
                      clients=clients, measure_replica=measure,
                      warmup=warmup, leader=leader, faults=faults)
    cluster.rebuild_replica = \
        lambda replica_id, config=config: PbftReplica(replica_id, config)
    return cluster
