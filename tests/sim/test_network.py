"""NIC-model tests: serialization math, throttling, byte accounting."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import ConfigError
from repro.sim.events import EventQueue
from repro.sim.network import Network, Nic


@dataclass(frozen=True)
class FakeMsg:
    size: int
    msg_class: str = "test"

    def size_bytes(self) -> int:
        return self.size


def make_network(**kwargs) -> Network:
    defaults = dict(node_count=4, bandwidth_bps=8e6, base_delay=0.01,
                    jitter=0.0, seed=1)
    defaults.update(kwargs)
    return Network(**defaults)


class RecordingRouter:
    """Router stand-in: ``(arrival, dest, delivered)`` per copy."""

    def __init__(self, queue: EventQueue) -> None:
        self.queue = queue
        self.copies: list[tuple[float, int, float]] = []

    def deliver_at(self, src, dest, msg, delivered):
        self.copies.append((self.queue.now, dest, delivered))


def unicast(network: Network, src: int, dest: int, msg: FakeMsg
            ) -> tuple[float, float]:
    """One copy through the full pipeline, sent at t=0.

    Returns ``(wire-arrival time, delivery-complete time)``.
    """
    queue = EventQueue()
    router = RecordingRouter(queue)
    network.send_unicast(src, dest, msg, 0.0, queue, router)
    queue.run_until_idle()
    (arrival, _, delivered), = router.copies
    return arrival, delivered


class TestNic:
    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigError):
            Nic(0)

    def test_directional_split(self):
        nic = Nic(8e6)
        assert nic.directional_bps == 4e6

    def test_tx_serialization_time(self):
        nic = Nic(8e6)  # 4 Mbps per direction
        done = nic.occupy_tx(0.0, 500_000)  # 4 Mbit -> 1 second
        assert done == pytest.approx(1.0)

    def test_tx_queueing(self):
        nic = Nic(8e6)
        nic.occupy_tx(0.0, 500_000)
        done = nic.occupy_tx(0.0, 500_000)
        assert done == pytest.approx(2.0)

    def test_tx_idle_gap_not_accumulated(self):
        nic = Nic(8e6)
        nic.occupy_tx(0.0, 500_000)
        done = nic.occupy_tx(5.0, 500_000)  # idle since t=1
        assert done == pytest.approx(6.0)

    def test_rx_independent_of_tx(self):
        nic = Nic(8e6)
        nic.occupy_tx(0.0, 500_000)
        done = nic.occupy_rx(0.0, 500_000)
        assert done == pytest.approx(1.0)

    def test_backlog(self):
        nic = Nic(8e6)
        nic.occupy_tx(0.0, 500_000)
        assert nic.backlog(0.25) == pytest.approx(0.75)
        assert nic.backlog(2.0) == 0.0


class TestTransmission:
    def test_two_phase_delivery_time(self):
        network = make_network()
        arrival, delivered = unicast(network, 0, 1, FakeMsg(500_000))
        assert arrival == pytest.approx(1.01)  # 1 s serialize + 10 ms prop
        assert delivered == pytest.approx(2.01)

    def test_sender_serializes_multicast_copies(self):
        # The Eq. (1) effect: copies queue behind each other at the sender.
        network = make_network()
        msg = FakeMsg(500_000)
        arrivals = [unicast(network, 0, dest, msg)[0] for dest in (1, 2, 3)]
        assert arrivals == pytest.approx([1.01, 2.01, 3.01])

    def test_accounting(self):
        network = make_network()
        unicast(network, 0, 2, FakeMsg(1000, "datablock"))
        assert network.stats(0).sent_bytes == {"datablock": 1000}
        assert network.stats(0).sent_msgs == {"datablock": 1}
        assert network.stats(2).recv_bytes == {"datablock": 1000}
        assert network.stats(1).recv_bytes == {}

    def test_throttling(self):
        network = make_network()
        network.set_bandwidth(0, 2e6)  # 1 Mbps per direction
        arrival, _ = unicast(network, 0, 1, FakeMsg(125_000))  # 1 Mbit
        assert arrival == pytest.approx(1.01)

    def test_set_all_bandwidth(self):
        network = make_network()
        network.set_all_bandwidth(2e6)
        assert all(nic.bandwidth_bps == 2e6 for nic in network.nics)

    def test_throttle_rejects_nonpositive(self):
        network = make_network()
        with pytest.raises(ConfigError):
            network.set_bandwidth(0, 0)


class TestPartialSynchrony:
    def test_pre_gst_extra_delay(self):
        network = make_network(gst=10.0, pre_gst_extra_delay=1.0)
        delays_before = [network.propagation_delay(0.0) for _ in range(50)]
        delays_after = [network.propagation_delay(20.0) for _ in range(50)]
        assert max(delays_after) <= 0.01 + 1e-9
        assert max(delays_before) > 0.01
        assert all(d <= 1.01 for d in delays_before)

    def test_pre_gst_delay_sampled_at_wire_departure(self):
        # Regression: a message enqueued before GST behind a NIC backlog
        # that only *departs* after GST must not suffer the adversarial
        # pre-GST delay (the adversary controls the network, not the
        # sender's local queue).
        network = make_network(gst=1.5, pre_gst_extra_delay=100.0)
        msg = FakeMsg(500_000)  # 1 s of serialization per copy
        first, _ = unicast(network, 0, 1, msg)   # departs at 1.0 < GST
        second, _ = unicast(network, 0, 2, msg)  # departs at 2.0 > GST
        assert first >= 1.0 + 0.01  # may include the adversarial extra
        # The queued copy departs at t=2.0 > GST: base delay only.
        assert second == pytest.approx(2.0 + 0.01)

    def test_broadcast_pre_gst_delay_per_departure(self):
        # Batched fast path: within one multicast, copies departing
        # before GST get the extra delay, copies departing after do not.
        network = make_network(gst=2.5, pre_gst_extra_delay=100.0)
        queue = EventQueue()
        router = RecordingRouter(queue)
        msg = FakeMsg(500_000)  # 1 s per copy
        network.send_broadcast(0, [1, 2, 3], msg, 0.0, queue, router)
        queue.run_until_idle()
        arrival_by_dest = {dest: delivered
                           for _, dest, delivered in router.copies}
        # Copies depart at 1.0 and 2.0 (< GST): adversarially delayed
        # far beyond base propagation.  The copy departing at 3.0 (> GST)
        # arrives after base delay + its own rx serialization only.
        assert arrival_by_dest[3] == pytest.approx(3.0 + 0.01 + 1.0)
        assert arrival_by_dest[1] > 1.5
        assert arrival_by_dest[2] > 2.5

    def test_jitter_bounds(self):
        network = make_network(jitter=0.005)
        delays = [network.propagation_delay(0.0) for _ in range(100)]
        assert all(0.01 <= d <= 0.015 for d in delays)

    def test_deterministic_for_seed(self):
        a = make_network(jitter=0.005, seed=9)
        b = make_network(jitter=0.005, seed=9)
        assert [a.propagation_delay(0.0) for _ in range(10)] == \
            [b.propagation_delay(0.0) for _ in range(10)]

    def test_node_count_validation(self):
        with pytest.raises(ConfigError):
            Network(0)


class TestHalfDuplexAccounting:
    """Property tests: NIC busy time and backlog under interleaved sends.

    The half-duplex invariant the whole cost model rests on: every byte
    through a direction occupies that direction's serializer for exactly
    ``bytes * 8 / directional_bps`` seconds, with no time created or
    destroyed by queueing, and the egress backlog is always the exact
    remaining busy time.
    """

    def test_total_tx_busy_time_equals_bits_over_rate(self):
        import random

        rng = random.Random(7)
        for _ in range(20):
            bandwidth = rng.choice([2e6, 8e6, 1e9])
            nic = Nic(bandwidth)
            total_bytes = 0
            now = 0.0
            busy = 0.0
            for _ in range(50):
                size = rng.randrange(1, 200_000)
                start = max(nic.tx_busy_until, now)
                done = nic.occupy_tx(now, size)
                total_bytes += size
                busy += done - start
                # Random interleaving: sometimes let the NIC idle,
                # sometimes pile on while busy.
                now += rng.choice([0.0, rng.uniform(0, 0.5)])
            expected = total_bytes * 8.0 / nic.directional_bps
            assert busy == pytest.approx(expected, rel=1e-9)

    def test_total_rx_busy_time_equals_bits_over_rate(self):
        import random

        rng = random.Random(8)
        nic = Nic(8e6)
        total_bytes = 0
        busy = 0.0
        arrival = 0.0
        for _ in range(100):
            size = rng.randrange(1, 100_000)
            start = max(nic.rx_busy_until, arrival)
            done = nic.occupy_rx(arrival, size)
            total_bytes += size
            busy += done - start
            arrival += rng.uniform(0.0, 0.2)
        assert busy == pytest.approx(
            total_bytes * 8.0 / nic.directional_bps, rel=1e-9)

    def test_backlog_monotone_consistent_under_interleaved_sends(self):
        import random

        rng = random.Random(9)
        nic = Nic(8e6)
        now = 0.0
        for _ in range(200):
            action = rng.random()
            if action < 0.6:
                size = rng.randrange(1, 150_000)
                before = nic.backlog(now)
                nic.occupy_tx(now, size)
                after = nic.backlog(now)
                # A send extends the backlog by exactly its own
                # serialization time.
                assert after == pytest.approx(
                    before + size * 8.0 / nic.directional_bps, rel=1e-9)
            else:
                advance = rng.uniform(0.0, 0.3)
                before = nic.backlog(now)
                now += advance
                after = nic.backlog(now)
                # Time drains backlog at unit rate, floored at idle.
                assert after == pytest.approx(
                    max(before - advance, 0.0), abs=1e-9)
            assert nic.backlog(now) >= 0.0

    def test_batched_broadcast_matches_scalar_egress_accounting(self):
        # The vectorized departure ramp must serialize copies exactly
        # like n-1 scalar occupy_tx calls (Eq. (1)).
        scalar = Nic(8e6)
        msg = FakeMsg(125_000, "datablock")
        for _ in range(5):
            scalar.occupy_tx(0.0, msg.size_bytes())

        network = make_network(node_count=6)
        queue = EventQueue()
        network.send_broadcast(0, [1, 2, 3, 4, 5], msg, 0.0, queue, None)
        nic = network.nics[0]
        assert nic.tx_busy_until == pytest.approx(scalar.tx_busy_until)
        assert nic.stats.sent_bytes == {"datablock": 5 * 125_000}
        assert nic.stats.sent_msgs == {"datablock": 5}
