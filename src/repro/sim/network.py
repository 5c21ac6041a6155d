"""Bandwidth-accurate network model.

This is the substitute for the paper's EC2 testbed (DESIGN.md §2).  Each
node owns a NIC modelled as a single *shared* (half-duplex) serializer of
capacity ``bandwidth_bps``: every bit sent or received occupies the NIC for
``1/bandwidth`` seconds.  This matches the paper's cost accounting, where a
replica's communication cost ``c_i`` sums bits in *and* out (§I, §V-B) — and
it is what produces Eq. (1)'s leader bottleneck: a leader multicasting a
block serializes ``(n-1)`` copies one after another.

Propagation uses the partial-synchrony model of Dwork et al. adopted by the
paper (§III-A): after GST messages take ``base_delay`` (plus small jitter);
before GST an adversarial extra delay of up to ``pre_gst_extra_delay`` is
added.  Whether a message is "before GST" is judged by its **wire-departure
time** — a message that queues behind a NIC backlog and only departs after
GST is *not* subject to the adversarial delay (the adversary controls the
network, not a sender's local queue).

Every transmission is tagged with its message class, feeding the byte
accounting behind Tables III and Figs. 2/11/12/13 via the shared
:class:`repro.stats.NicStats` counters (the live TCP transport records
into the identical structure).

Determinism (draw-order version 2): jitter comes from one
``numpy.random.Generator`` seeded per network.  Scalar sends draw one
uniform for jitter (plus one for the pre-GST extra when departing before
GST); :meth:`Network.send_broadcast` draws one *batch* of n-1 jitter
samples (plus one batch of pre-GST extras if any copy departs before GST).
Runs are bit-reproducible for a fixed seed and workload, but the stream
differs from draw-order version 1 (per-copy ``random.Random`` draws), so
seed-sensitive expectations were re-baselined when v2 landed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.interfaces import DATA_PLANE_CLASSES, Message
from repro.sim.events import EventQueue, EventRecord
from repro.stats import NicStats, intern_class

__all__ = [
    "DEFAULT_BANDWIDTH_BPS",
    "DEFAULT_BASE_DELAY",
    "DRAW_ORDER_VERSION",
    "Network",
    "Nic",
    "NicStats",
    "Transmission",
]

#: Default per-node NIC capacity — *total*, split half per direction.
#: Calibrated against the paper's c5.xlarge instances (nominal 9.8 Gbps
#: full duplex): 6 Gbps effective per direction reproduces the paper's
#: HotStuff throughput-vs-n curve (e.g. ~20 Kreq/s at n = 300, Fig. 9).
DEFAULT_BANDWIDTH_BPS = 12e9

#: Default one-way propagation delay (single-datacenter, as in the paper).
DEFAULT_BASE_DELAY = 1e-3

#: Version of the jitter draw-order policy (see module docstring).
DRAW_ORDER_VERSION = 2


class Nic:
    """One node's network interface: egress + ingress serializers.

    ``bandwidth_bps`` is the node's *total* communication capacity — the
    quantity the paper's cost model divides a replica's combined sent+
    received bits by (C in §I and §V-B).  Each direction gets half of it,
    so a node whose traffic is all one-directional (a HotStuff leader
    sending blocks) can use at most C/2, while a node with symmetric
    traffic (a Leopard non-leader relaying datablocks) saturates the full
    C — which is exactly what makes the paper's scaling-up fraction γ
    approach 1/2 for Leopard (Eq. (4)) and 1/(n-1) for leader-based
    dissemination.
    """

    __slots__ = ("bandwidth_bps", "tx_busy_until", "rx_busy_until", "stats")

    def __init__(self, bandwidth_bps: float) -> None:
        if bandwidth_bps <= 0:
            raise ConfigError("NIC bandwidth must be positive")
        self.bandwidth_bps = bandwidth_bps
        self.tx_busy_until = 0.0
        self.rx_busy_until = 0.0
        self.stats = NicStats()

    @property
    def directional_bps(self) -> float:
        """Per-direction capacity (half the total)."""
        return self.bandwidth_bps / 2.0

    def occupy_tx(self, now: float, size_bytes: int) -> float:
        """Serialize an outgoing message; returns wire-departure time."""
        start = self.tx_busy_until if self.tx_busy_until > now else now
        # size * 8 / (bandwidth / 2), with the division folded in.
        self.tx_busy_until = start + (size_bytes * 16.0) / self.bandwidth_bps
        return self.tx_busy_until

    def occupy_rx(self, arrival_start: float, size_bytes: int) -> float:
        """Serialize an incoming message; returns delivery-complete time."""
        start = self.rx_busy_until if self.rx_busy_until > arrival_start \
            else arrival_start
        self.rx_busy_until = start + (size_bytes * 16.0) / self.bandwidth_bps
        return self.rx_busy_until

    def backlog(self, now: float) -> float:
        """Seconds of queued egress work (0 when idle)."""
        remaining = self.tx_busy_until - now
        return remaining if remaining > 0 else 0.0


class Transmission(EventRecord):
    """Typed event record for one message in flight to 1..n-1 destinations.

    *One* record is allocated per send — unicast or whole multicast —
    and its bound :meth:`arrive` is the queue callback for every copy,
    with the destination id riding in the entry's payload slot.

    ``size`` and the interned stats class id are captured once at send
    time, so ``msg.size_bytes()`` and the class-name lookup happen once
    per *transmission*, not once per destination.

    :meth:`arrive` fires at a copy's wire-arrival time: it reserves the
    destination's ingress serializer and, against the computed
    delivery-complete time, the destination's CPU lane, then schedules
    the core callback in one event.  Reserving in arrival order is
    equivalent to reserving at delivery-complete time: both the rx
    serializer and the CPU lanes are FIFO, so a node's
    delivery-complete times are monotone in arrival order and the
    resulting schedules coincide.
    """

    __slots__ = ("network", "nics", "queue", "router", "nodes", "src",
                 "msg", "size", "class_id", "data_plane", "cost_model",
                 "recv_cost")

    def __init__(self, network: Network, queue: EventQueue, router,
                 src: int, msg: Message, size: int) -> None:
        self.network = network
        self.nics = network.nics
        self.queue = queue
        self.router = router
        # Routers exposing a ``nodes`` map (the Simulation does) get the
        # flat fast path: arrivals hand off to the destination host with
        # no per-copy router dispatch.
        self.nodes = getattr(router, "nodes", None)
        self.src = src
        self.msg = msg
        self.size = size
        self.class_id = intern_class(msg.msg_class)
        self.data_plane = msg.msg_class in DATA_PLANE_CLASSES
        # Per-flight CPU-cost memo: every copy of a multicast lands on
        # hosts sharing one cost model, so the model runs once.
        self.cost_model = None
        self.recv_cost = 0.0

    def arrive(self, dest: int) -> None:
        """One copy reached ``dest``'s NIC: serialize in, then deliver.

        This is the innermost per-copy frame of the simulator: rx
        serialization, byte accounting, CPU-lane reservation and the
        core-callback insert all happen here, against the host's
        documented hot-path fields (``admits``, the two lane clocks,
        ``_deliver_ready``).  Hosts with a receipt gate (a fault in
        their stack) and routers without a ``nodes`` map take the
        general :meth:`SimNode.receive_at` path.
        """
        nic = self.nics[dest]
        queue = self.queue
        now = queue._now
        size = self.size
        busy = nic.rx_busy_until
        start = busy if busy > now else now
        delivered = nic.rx_busy_until = (
            start + size * 16.0 / nic.bandwidth_bps)
        stats = nic.stats
        class_id = self.class_id
        try:
            stats._recv_bytes[class_id] += size
            stats._recv_msgs[class_id] += 1
        except IndexError:
            # First message of a newly interned class at this NIC: take
            # the growing path (the failed += left nothing applied).
            stats.bump_recv(class_id, size)
        nodes = self.nodes
        if nodes is None:
            self.router.deliver_at(self.src, dest, self.msg, delivered)
            return
        node = nodes.get(dest)
        if node is None:
            return
        if node.admits is not None:
            node.receive_at(self.src, self.msg, delivered)
            return
        msg = self.msg
        model = node.cpu_model
        if model is self.cost_model:
            cost = self.recv_cost
        else:
            cost = model(msg, True)
            self.cost_model = model
            self.recv_cost = cost
        if self.data_plane:
            busy = node.data_busy_until
            start = busy if busy > delivered else delivered
            ready_at = node.data_busy_until = start + cost
        else:
            busy = node.ctrl_busy_until
            start = busy if busy > delivered else delivered
            ready_at = node.ctrl_busy_until = start + cost
        queue.push(ready_at, node._deliver_ready, (self.src, msg))


class Network:
    """The modelled network connecting all nodes (replicas and clients).

    Args:
        node_count: total number of nodes; node ids are ``0..node_count-1``.
        bandwidth_bps: default NIC capacity applied to every node (override
            per node with :meth:`set_bandwidth`).
        base_delay: one-way propagation delay after GST.
        jitter: uniform extra delay in ``[0, jitter]`` applied per message.
        gst: global stabilization time; before it, messages suffer an extra
            uniform delay in ``[0, pre_gst_extra_delay]``.
        seed: determinism seed for jitter.
    """

    def __init__(self, node_count: int,
                 bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
                 base_delay: float = DEFAULT_BASE_DELAY,
                 jitter: float = 2e-4,
                 gst: float = 0.0,
                 pre_gst_extra_delay: float = 0.5,
                 seed: int = 0) -> None:
        if node_count < 1:
            raise ConfigError("network needs at least one node")
        self.node_count = node_count
        self.base_delay = base_delay
        self.jitter = jitter
        self.gst = gst
        self.pre_gst_extra_delay = pre_gst_extra_delay
        self.nics = [Nic(bandwidth_bps) for _ in range(node_count)]
        self._rng = np.random.default_rng(seed)
        # Reusable 1..m ramp for broadcast departure cumsums (sliced per
        # call; grown on demand).
        self._ramp = np.arange(1.0, float(node_count) + 1.0)

    def set_bandwidth(self, node_id: int, bandwidth_bps: float) -> None:
        """Throttle (or boost) one node's NIC — the NetEm stand-in (§VI-B)."""
        if bandwidth_bps <= 0:
            raise ConfigError("NIC bandwidth must be positive")
        self.nics[node_id].bandwidth_bps = bandwidth_bps

    def set_all_bandwidth(self, bandwidth_bps: float) -> None:
        """Throttle every node's NIC, as the paper does for Fig. 10."""
        for node_id in range(self.node_count):
            self.set_bandwidth(node_id, bandwidth_bps)

    def propagation_delay(self, departure: float) -> float:
        """Sample the one-way delay for a message *departing* at ``departure``.

        The pre-GST adversarial extra applies only when the wire-departure
        time is before GST; a message that queued through GST behind a NIC
        backlog propagates at the post-GST delay.
        """
        delay = self.base_delay
        if self.jitter > 0:
            delay += float(self._rng.random()) * self.jitter
        if departure < self.gst:
            delay += float(self._rng.random()) * self.pre_gst_extra_delay
        return delay

    def send_unicast(self, src: int, dest: int, msg: Message, now: float,
                     queue: EventQueue, router) -> float:
        """Full unicast pipeline: egress, propagation, arrival scheduling.

        Computes ``size_bytes()`` once and enqueues a single
        :class:`Transmission` record covering both receiver-side phases.
        ``router is None`` (host-less unit tests) accounts egress only.
        Returns the wire-departure time.
        """
        size = msg.size_bytes()
        src_nic = self.nics[src]
        departed = src_nic.occupy_tx(now, size)
        src_nic.stats.record_send(msg.msg_class, size)
        if router is not None:
            arrival = departed + self.propagation_delay(departed)
            flight = Transmission(self, queue, router, src, msg, size)
            queue.schedule_call(arrival, flight.arrive, dest)
        return departed

    def send_broadcast(self, src: int, dests: list[int], msg: Message,
                       now: float, queue: EventQueue, router) -> float:
        """Serialize one message to every destination in a single pass.

        The batched counterpart of n-1 :meth:`send_unicast` calls, with
        identical cost-model semantics:

        * ``size_bytes()`` is computed **once** for the whole multicast;
        * egress departure times are the running cumulative sum over the
          copies' serialization times (Eq. (1)'s leader bottleneck),
          computed as one vectorized ramp;
        * propagation jitter (and the pre-GST extra for copies departing
          before GST) is sampled in one batched RNG draw;
        * byte accounting is two array increments
          (:meth:`repro.stats.NicStats.record_send_many`);
        * all arrival events enqueue through one
          :meth:`EventQueue.schedule_fanout` call sharing a single
          :class:`Transmission` record.

        Returns the wire-departure time of the last copy.
        """
        count = len(dests)
        if count == 0:
            return now
        size = msg.size_bytes()
        src_nic = self.nics[src]
        per_copy = (size * 16.0) / src_nic.bandwidth_bps
        busy = src_nic.tx_busy_until
        start = busy if busy > now else now
        ramp = self._ramp
        if count > len(ramp):
            ramp = self._ramp = np.arange(1.0, float(count) + 1.0)
        departures = start + per_copy * ramp[:count]
        src_nic.tx_busy_until = float(departures[-1])
        src_nic.stats.record_send_many(msg.msg_class, size, count)
        if router is None:
            return src_nic.tx_busy_until
        arrivals = departures + self.base_delay
        if self.jitter > 0:
            arrivals += self._rng.random(count) * self.jitter
        if departures[0] < self.gst:
            extra = self._rng.random(count) * self.pre_gst_extra_delay
            arrivals += np.where(departures < self.gst, extra, 0.0)
        flight = Transmission(self, queue, router, src, msg, size)
        queue.schedule_fanout(arrivals, flight.arrive, dests)
        return src_nic.tx_busy_until

    def stats(self, node_id: int) -> NicStats:
        """Byte counters for ``node_id``."""
        return self.nics[node_id].stats

    def backlog(self, node_id: int, now: float) -> float:
        """Seconds of queued NIC work at ``node_id`` (backpressure signal)."""
        return self.nics[node_id].backlog(now)
