"""SimNode tests: effect interpretation, timers, CPU lanes, faults."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.interfaces import (
    Broadcast,
    CancelTimer,
    Executed,
    Send,
    SetTimer,
    Trace,
)
from repro.faults import Crash, DelaySend, DropIncoming, hosted_core
from repro.stats import MetricsCollector
from repro.sim.network import Network
from repro.sim.runner import Simulation


@dataclass(frozen=True)
class Ping:
    tag: str = "ping"
    msg_class: str = "control"

    def size_bytes(self) -> int:
        return 100


@dataclass(frozen=True)
class Bulk:
    msg_class: str = "datablock"
    request_count: int = 10

    def size_bytes(self) -> int:
        return 10_000


@dataclass
class RecorderCore:
    """A scriptable core that records deliveries and emits queued effects."""

    node_id: int
    script: dict = field(default_factory=dict)
    received: list = field(default_factory=list)
    timers: list = field(default_factory=list)
    start_effects: list = field(default_factory=list)

    def start(self, now):
        return list(self.start_effects)

    def on_message(self, sender, msg, now):
        self.received.append((sender, msg, now))
        return list(self.script.get("on_message", []))

    def on_timer(self, key, now):
        self.timers.append((key, now))
        return list(self.script.get("on_timer", []))


def make_sim(node_count=3, replica_count=3, **net_kwargs):
    defaults = dict(bandwidth_bps=1e9, base_delay=0.001, jitter=0.0, seed=0)
    defaults.update(net_kwargs)
    network = Network(node_count, **defaults)
    return Simulation(network, replica_count=replica_count,
                      metrics=MetricsCollector())


class TestRouting:
    def test_send_delivers(self):
        sim = make_sim()
        a = RecorderCore(0, start_effects=[Send(1, Ping())])
        b = RecorderCore(1)
        sim.add_node(a)
        sim.add_node(b)
        sim.run(1.0)
        assert len(b.received) == 1
        assert b.received[0][0] == 0

    def test_broadcast_excludes_self_and_listed(self):
        sim = make_sim(node_count=4, replica_count=4)
        cores = [RecorderCore(i) for i in range(4)]
        cores[0].start_effects = [Broadcast(Ping(), exclude=(2,))]
        for core in cores:
            sim.add_node(core)
        sim.run(1.0)
        assert len(cores[0].received) == 0
        assert len(cores[1].received) == 1
        assert len(cores[2].received) == 0
        assert len(cores[3].received) == 1

    def test_broadcast_reaches_replicas_only(self):
        sim = make_sim(node_count=4, replica_count=2)
        cores = [RecorderCore(i) for i in range(4)]
        cores[0].start_effects = [Broadcast(Ping())]
        for core in cores:
            sim.add_node(core)
        sim.run(1.0)
        assert len(cores[1].received) == 1
        assert len(cores[2].received) == 0  # a client, not a replica

    def test_duplicate_node_id_rejected(self):
        from repro.errors import SimulationError
        sim = make_sim()
        sim.add_node(RecorderCore(0))
        with pytest.raises(SimulationError):
            sim.add_node(RecorderCore(0))

    def test_out_of_range_node_id_rejected(self):
        from repro.errors import SimulationError
        sim = make_sim()
        with pytest.raises(SimulationError):
            sim.add_node(RecorderCore(17))


class TestTimers:
    def test_timer_fires_once(self):
        sim = make_sim()
        core = RecorderCore(0, start_effects=[SetTimer("t", 0.1)])
        sim.add_node(core)
        sim.run(1.0)
        assert [key for key, _ in core.timers] == ["t"]

    def test_timer_rearm_replaces(self):
        sim = make_sim()
        core = RecorderCore(0, start_effects=[
            SetTimer("t", 0.5), SetTimer("t", 0.1)])
        sim.add_node(core)
        sim.run(1.0)
        assert len(core.timers) == 1
        assert core.timers[0][1] == pytest.approx(0.1)

    def test_superseded_timer_stays_dead_after_rearm(self):
        # "t" armed for 0.5, superseded by 0.1; the 0.1 firing re-arms
        # for 1.0 later.  The orphaned 0.5 event must not pass for the
        # new arm (a generation is never reused).
        sim = make_sim()
        core = RecorderCore(
            0, start_effects=[SetTimer("t", 0.5), SetTimer("t", 0.1)],
            script={"on_timer": [SetTimer("t", 1.0)]})
        sim.add_node(core)
        sim.run(2.0)
        assert [now for _, now in core.timers] == pytest.approx([0.1, 1.1])

    def test_timer_cancel(self):
        sim = make_sim()
        core = RecorderCore(0, start_effects=[
            SetTimer("t", 0.1), CancelTimer("t")])
        sim.add_node(core)
        sim.run(1.0)
        assert core.timers == []

    def test_tuple_timer_keys(self):
        sim = make_sim()
        core = RecorderCore(0, start_effects=[
            SetTimer(("retr", b"x"), 0.1)])
        sim.add_node(core)
        sim.run(1.0)
        assert core.timers[0][0] == ("retr", b"x")


class TestCpuLanes:
    def test_data_plane_cost_delays_handling(self):
        sim = make_sim()
        costs = {"datablock": 0.5, "control": 0.0}

        def cpu(msg, receiving):
            return costs[msg.msg_class] if receiving else 0.0

        sender = RecorderCore(0, start_effects=[
            Send(1, Bulk()), Send(1, Ping())])
        receiver = RecorderCore(1)
        sim.add_node(sender)
        sim.add_node(receiver, cpu_model=cpu)
        sim.run(1.0)
        kinds = [type(msg).__name__ for _, msg, _ in receiver.received]
        times = {type(msg).__name__: now
                 for _, msg, now in receiver.received}
        assert set(kinds) == {"Bulk", "Ping"}
        # The control message is NOT stuck behind the 0.5 s data job.
        assert times["Ping"] < 0.1
        assert times["Bulk"] >= 0.5

    def test_same_lane_serializes(self):
        sim = make_sim()

        def cpu(msg, receiving):
            return 0.2 if receiving else 0.0

        sender = RecorderCore(0, start_effects=[
            Send(1, Bulk()), Send(1, Bulk())])
        receiver = RecorderCore(1)
        sim.add_node(sender)
        sim.add_node(receiver, cpu_model=cpu)
        sim.run(1.0)
        first, second = (now for _, _, now in receiver.received)
        assert second - first == pytest.approx(0.2, abs=1e-3)


class TestFaultsAndMetrics:
    def test_crash_stops_recurring_timer(self):
        # A Crash-faulted node's heartbeat stops at its crash time: the
        # fault wrapper decides from the time of each firing, so the
        # first tick after the crash (0.4) never reaches the core.
        sim = make_sim()
        core = RecorderCore(
            0,
            start_effects=[SetTimer("hb", 0.1)],
            script={"on_timer": [SetTimer("hb", 0.1)]})
        sim.add_node(hosted_core(core, Crash(at=0.35)))
        sim.run(2.0)
        fired = [now for _, now in core.timers]
        assert fired == pytest.approx([0.1, 0.2, 0.3])

    def test_crashed_node_is_silent(self):
        sim = make_sim()
        a = RecorderCore(0, start_effects=[Send(1, Ping())])
        b = RecorderCore(1, script={"on_message": [Send(0, Ping())]})
        sim.add_node(a)
        sim.add_node(hosted_core(b, Crash(at=0.0)))
        sim.run(1.0)
        assert b.received == []
        assert a.received == []

    def test_drop_incoming_filters(self):
        sim = make_sim()
        a = RecorderCore(0, start_effects=[Send(1, Bulk()), Send(1, Ping())])
        b = RecorderCore(1)
        sim.add_node(a)
        sim.add_node(hosted_core(b, DropIncoming(frozenset({"datablock"}))))
        sim.run(1.0)
        assert [type(m).__name__ for _, m, _ in b.received] == ["Ping"]

    def test_delay_send_releases_through_a_timer(self):
        # The wrapper holds the send and arms a timer of its own; the
        # host just runs that timer, and the send leaves 0.2 s late.
        sim = make_sim()
        a = RecorderCore(0, start_effects=[Send(1, Ping())])
        b = RecorderCore(1)
        sim.add_node(hosted_core(a, DelaySend(delay=0.2)))
        sim.add_node(b)
        sim.run(1.0)
        assert [now for _, _, now in b.received] == pytest.approx(
            [0.2 + 0.001], abs=1e-5)  # lag + propagation
        assert a.timers == []  # the release key never reaches the core

    def test_executed_effect_recorded(self):
        sim = make_sim()
        core = RecorderCore(0, start_effects=[Executed(42)])
        sim.add_node(core)
        sim.run(1.0)
        assert sim.metrics.executed_requests[0] == 42

    def test_ack_trace_recorded(self):
        sim = make_sim()
        core = RecorderCore(0, start_effects=[
            Trace("ack", {"submitted_at": 0.0})])
        sim.add_node(core)
        sim.run(1.0)
        assert len(sim.metrics.latencies) == 1

    def test_phase_trace_recorded(self):
        sim = make_sim()
        core = RecorderCore(0, start_effects=[
            Trace("phase", {"phase": "agreement", "duration": 0.5})])
        sim.add_node(core)
        sim.run(1.0)
        assert sim.metrics.phase_durations["agreement"] == 0.5

    def test_unknown_trace_ignored(self):
        sim = make_sim()
        core = RecorderCore(0, start_effects=[Trace("debug", {})])
        sim.add_node(core)
        sim.run(1.0)  # must not raise
