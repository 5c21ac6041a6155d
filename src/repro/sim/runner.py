"""Simulation assembly and run loop.

``Simulation`` owns the event queue, the network, the metrics sink and the
node table, and routes completed transmissions to destination hosts.  The
protocol-specific cluster builders in :mod:`repro.harness.cluster` populate
it with Leopard / HotStuff / PBFT replicas and client nodes.
"""

from __future__ import annotations

import time

from repro.errors import SimulationError
from repro.faults import HONEST, FaultBehavior
from repro.interfaces import Message, ProtocolCore
from repro.sim.events import EventQueue
from repro.sim.network import Network
from repro.sim.node import CpuModel, SimNode, zero_cpu
from repro.stats import MetricsCollector


class Simulation:
    """A full simulated deployment: network + nodes + metrics.

    Args:
        network: the network model (sized for replicas + clients).
        replica_count: how many of the low node ids are replicas; broadcasts
            expand to exactly this id range.
        metrics: optional pre-configured metrics sink.
        bucket_width: calendar bucket width in seconds; cluster builders
            size it from the NIC serialization quantum so one bucket
            spans roughly one broadcast egress ramp.
    """

    def __init__(self, network: Network, replica_count: int,
                 metrics: MetricsCollector | None = None,
                 bucket_width: float | None = None) -> None:
        if replica_count > network.node_count:
            raise SimulationError("more replicas than network nodes")
        self.network = network
        self.queue = EventQueue(bucket_width=bucket_width)
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.replica_count = replica_count
        self.nodes: dict[int, SimNode] = {}
        #: Wall-clock seconds spent inside :meth:`run` (the engine-speed
        #: denominator of :meth:`events_per_sec`).
        self.wall_seconds = 0.0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.queue.now

    def add_node(self, core: ProtocolCore,
                 cpu_model: CpuModel = zero_cpu,
                 fault: FaultBehavior = HONEST) -> SimNode:
        """Register and boot-schedule a node hosting ``core``."""
        if core.node_id in self.nodes:
            raise SimulationError(f"duplicate node id {core.node_id}")
        if not 0 <= core.node_id < self.network.node_count:
            raise SimulationError(f"node id {core.node_id} outside network")
        node = SimNode(core, self.network, self.queue, self.metrics,
                       range(self.replica_count), cpu_model, fault)
        node.router = self
        self.nodes[core.node_id] = node
        node.boot()
        return node

    def deliver(self, src: int, dest: int, msg: Message) -> None:
        """Route a completed transmission to the destination host."""
        node = self.nodes.get(dest)
        if node is not None:
            node.deliver(src, msg)

    def deliver_at(self, src: int, dest: int, msg: Message,
                   delivered: float) -> None:
        """Route a transmission that completes at ``delivered``.

        Called at wire-arrival time by
        :meth:`repro.sim.network.Transmission.arrive`; the destination
        host reserves its CPU lane against the delivery-complete time and
        fires the core in a single event (:meth:`SimNode.receive_at`).
        """
        node = self.nodes.get(dest)
        if node is not None:
            node.receive_at(src, msg, delivered)

    def run(self, duration: float, max_events: int | None = None) -> int:
        """Advance the simulation ``duration`` seconds of virtual time.

        Returns:
            Number of events executed during this call.
        """
        started = time.perf_counter()
        executed = self.queue.run_until(self.queue.now + duration,
                                        max_events)
        self.wall_seconds += time.perf_counter() - started
        return executed

    @property
    def events_processed(self) -> int:
        """Total events executed since construction."""
        return self.queue.processed

    def events_per_sec(self) -> float:
        """Engine throughput: events executed per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.queue.processed / self.wall_seconds

    def node(self, node_id: int) -> SimNode:
        """Look up a host by node id."""
        return self.nodes[node_id]

    def core(self, node_id: int):
        """Look up the protocol core hosted at ``node_id``."""
        return self.nodes[node_id].core
