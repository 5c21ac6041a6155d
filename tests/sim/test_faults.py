"""Fault-behaviour unit tests."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.interfaces import Broadcast, Delayed, Send, SetTimer
from repro.faults import (
    Combined,
    Crash,
    DelaySend,
    DropIncoming,
    FaultBehavior,
    HONEST,
    Mute,
    SelectiveDisseminator,
    fault_from_spec,
    fault_to_spec,
    partition_behavior,
)


@dataclass(frozen=True)
class Msg:
    msg_class: str

    def size_bytes(self) -> int:
        return 10


class TestHonest:
    def test_passthrough(self):
        effects = [Send(1, Msg("vote"))]
        assert HONEST.filter_effects(effects, 0.0) == effects
        assert not HONEST.drop_incoming(0, Msg("vote"), 0.0)
        assert not HONEST.crashed


class TestCrash:
    def test_before_crash_time(self):
        crash = Crash(at=5.0)
        effects = [Send(1, Msg("vote"))]
        assert crash.filter_effects(effects, 1.0) == effects
        assert not crash.drop_incoming(0, Msg("vote"), 1.0)

    def test_after_crash_time(self):
        crash = Crash(at=5.0)
        assert crash.filter_effects([Send(1, Msg("vote"))], 6.0) == []
        assert crash.drop_incoming(0, Msg("vote"), 6.0)
        assert crash.crashed


class TestSelectiveDisseminator:
    def test_rewrites_datablock_broadcasts(self):
        fault = SelectiveDisseminator(frozenset({1, 2}))
        effects = fault.filter_effects(
            [Broadcast(Msg("datablock"))], 0.0)
        assert all(isinstance(e, Send) for e in effects)
        assert sorted(e.dest for e in effects) == [1, 2]

    def test_leaves_other_classes_alone(self):
        fault = SelectiveDisseminator(frozenset({1}))
        effects = [Broadcast(Msg("vote")), Send(3, Msg("datablock"))]
        assert fault.filter_effects(effects, 0.0) == effects


class TestDropIncoming:
    def test_drops_by_class(self):
        fault = DropIncoming(frozenset({"datablock"}))
        assert fault.drop_incoming(0, Msg("datablock"), 0.0)
        assert not fault.drop_incoming(0, Msg("vote"), 0.0)

    def test_drops_by_sender(self):
        fault = DropIncoming(frozenset({"datablock"}),
                             from_senders=frozenset({3}))
        assert fault.drop_incoming(3, Msg("datablock"), 0.0)
        assert not fault.drop_incoming(4, Msg("datablock"), 0.0)


class TestMute:
    def test_suppresses_sends_and_broadcasts(self):
        fault = Mute(frozenset({"vote"}))
        effects = [Send(1, Msg("vote")), Broadcast(Msg("vote")),
                   Send(1, Msg("ready"))]
        filtered = fault.filter_effects(effects, 0.0)
        assert len(filtered) == 1
        assert filtered[0].msg.msg_class == "ready"


class TestCombined:
    def test_chains_filters_and_ors_drops(self):
        fault = Combined((
            Mute(frozenset({"vote"})),
            DropIncoming(frozenset({"datablock"})),
        ))
        filtered = fault.filter_effects(
            [Send(1, Msg("vote")), Send(1, Msg("query"))], 0.0)
        assert len(filtered) == 1
        assert fault.drop_incoming(0, Msg("datablock"), 0.0)
        assert not fault.drop_incoming(0, Msg("vote"), 0.0)
        assert not fault.crashed

    def test_combined_crash(self):
        fault = Combined((Crash(at=0.0), Mute(frozenset())))
        fault.drop_incoming(0, Msg("x"), 1.0)
        assert fault.crashed


class TestDelaySend:
    def test_wraps_sends_and_broadcasts(self):
        fault = DelaySend(delay=0.05)
        effects = fault.filter_effects(
            [Send(1, Msg("vote")), Broadcast(Msg("datablock"))], 0.0)
        assert all(isinstance(e, Delayed) for e in effects)
        assert all(e.delay == 0.05 for e in effects)
        assert isinstance(effects[0].effect, Send)
        assert isinstance(effects[1].effect, Broadcast)

    def test_class_filter(self):
        fault = DelaySend(delay=0.05, msg_classes=frozenset({"datablock"}))
        effects = fault.filter_effects(
            [Send(1, Msg("vote")), Broadcast(Msg("datablock"))], 0.0)
        assert isinstance(effects[0], Send)  # vote untouched
        assert isinstance(effects[1], Delayed)

    def test_non_network_effects_untouched(self):
        fault = DelaySend(delay=0.05)
        timer = SetTimer("t", 1.0)
        assert fault.filter_effects([timer], 0.0) == [timer]

    def test_does_not_delay_incoming(self):
        assert not DelaySend(delay=0.05).drop_incoming(0, Msg("vote"), 0.0)


class TestFaultSpecs:
    @pytest.mark.parametrize("fault", [
        Crash(at=2.5),
        SelectiveDisseminator(frozenset({1, 2})),
        DropIncoming(frozenset({"datablock"}), from_senders=frozenset({3})),
        DropIncoming(msg_classes=None, from_senders=frozenset({3})),
        Mute(frozenset({"vote"})),
        DelaySend(delay=0.1, msg_classes=frozenset({"datablock"})),
        DelaySend(delay=0.1),
        Combined((Mute(frozenset({"vote"})), Crash(at=1.0))),
    ])
    def test_round_trip(self, fault):
        spec = fault_to_spec(fault)
        rebuilt = fault_from_spec(spec)
        assert type(rebuilt) is type(fault)
        assert fault_to_spec(rebuilt) == spec

    def test_honest_maps_to_none(self):
        assert fault_to_spec(HONEST) is None
        assert fault_from_spec(None) is HONEST

    def test_custom_subclass_has_no_spec(self):
        class Weird(FaultBehavior):
            def filter_effects(self, effects, now):
                return []

        with pytest.raises(ValueError):
            fault_to_spec(Weird())
        with pytest.raises(ValueError):
            fault_from_spec({"kind": "weird"})

    def test_spec_is_plain_json(self):
        import json

        spec = fault_to_spec(Combined((
            SelectiveDisseminator(frozenset({2, 1})),
            DelaySend(delay=0.1))))
        assert json.loads(json.dumps(spec)) == spec


class TestPartitionBehavior:
    GROUPS = [frozenset({3}), frozenset({0, 1, 2})]

    def test_grouped_node_drops_cross_cut_traffic(self):
        fault = partition_behavior(3, self.GROUPS)
        assert fault.drop_incoming(0, Msg("datablock"), 0.0)
        assert not fault.drop_incoming(3, Msg("datablock"), 0.0)

    def test_same_group_traffic_flows(self):
        fault = partition_behavior(0, self.GROUPS)
        assert not fault.drop_incoming(1, Msg("vote"), 0.0)
        assert fault.drop_incoming(3, Msg("vote"), 0.0)

    def test_ungrouped_node_unaffected(self):
        assert partition_behavior(7, self.GROUPS) is HONEST

    def test_single_group_is_no_partition(self):
        assert partition_behavior(0, [frozenset({0, 1})]) is HONEST
