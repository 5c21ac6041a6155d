"""Fault-behaviour unit tests."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.interfaces import Broadcast, Send, SetTimer
from repro.faults import (
    Combined,
    Crash,
    Delayed,
    DelaySend,
    DropIncoming,
    FaultBehavior,
    FaultyCore,
    HONEST,
    Mute,
    RELEASE,
    SelectiveDisseminator,
    fault_from_spec,
    fault_to_spec,
    hosted_core,
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
        assert not HONEST.crashed(0.0)


class TestCrash:
    def test_before_crash_time(self):
        crash = Crash(at=5.0)
        effects = [Send(1, Msg("vote"))]
        assert crash.filter_effects(effects, 1.0) == effects
        assert not crash.drop_incoming(0, Msg("vote"), 1.0)
        assert not crash.crashed(1.0)

    def test_after_crash_time(self):
        crash = Crash(at=5.0)
        assert crash.filter_effects([Send(1, Msg("vote"))], 6.0) == []
        assert crash.drop_incoming(0, Msg("vote"), 6.0)
        assert crash.crashed(6.0)
        assert crash.crashed(5.0)  # decided by the time given, no memory
        assert not crash.crashed(4.0)


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
        assert not fault.crashed(0.0)

    def test_combined_crash(self):
        fault = Combined((Crash(at=1.0), Mute(frozenset())))
        assert not fault.crashed(0.5)
        assert fault.crashed(1.0)

    @pytest.mark.parametrize("delay_first", [True, False])
    def test_mute_drops_the_vote_in_either_order(self, delay_first):
        delay, mute = DelaySend(delay=0.05), Mute(frozenset({"vote"}))
        fault = Combined((delay, mute) if delay_first else (mute, delay))
        ready = Send(2, Msg("ready"))
        timer = SetTimer("t", 1.0)
        assert fault.filter_effects(
            [timer, Send(2, Msg("vote")), ready], 0.0) == [
            timer, Delayed(0.05, ready)]

    def test_selective_after_delay_still_restricts_targets(self):
        fault = Combined((DelaySend(delay=0.05),
                          SelectiveDisseminator(frozenset({0, 3}))))
        assert fault.filter_effects([Broadcast(Msg("datablock"))], 0.0) == [
            Delayed(0.05, Send(0, Msg("datablock"))),
            Delayed(0.05, Send(3, Msg("datablock")))]

    def test_delays_add(self):
        fault = Combined((DelaySend(delay=0.05), DelaySend(delay=0.02)))
        [held] = fault.filter_effects([Send(2, Msg("vote"))], 0.0)
        assert held == Delayed(0.05 + 0.02, Send(2, Msg("vote")))

    def test_muted_vote_is_never_released(self):
        core = FaultyCore(_ScriptedCore([Send(2, Msg("vote"))]), Combined((
            DelaySend(delay=0.05), Mute(frozenset({"vote"})))))
        assert core.start(0.0) == []
        assert core.held == {}


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


class _ScriptedCore:
    """Every hook returns ``effects``; calls are logged."""

    def __init__(self, effects):
        self.node_id = 1
        self.effects = effects
        self.calls = []

    def start(self, now):
        self.calls.append(("start", now))
        return list(self.effects)

    def on_message(self, sender, msg, now):
        self.calls.append(("message", now))
        return list(self.effects)

    def on_timer(self, key, now):
        self.calls.append(("timer", key))
        return list(self.effects)


class TestFaultyCore:
    def test_gate_drops_by_behaviour_and_crash(self):
        core = FaultyCore(_ScriptedCore([]), Combined((
            DropIncoming(frozenset({"datablock"})), Crash(at=2.0))))
        assert not core.admits(0, Msg("datablock"), 0.0)
        assert core.admits(0, Msg("vote"), 0.0)
        assert not core.admits(0, Msg("vote"), 2.0)

    def test_filters_what_the_core_emits(self):
        core = FaultyCore(
            _ScriptedCore([Send(2, Msg("vote")), Send(2, Msg("ready"))]),
            Mute(frozenset({"vote"})))
        assert core.on_message(0, Msg("vote"), 0.0) == [
            Send(2, Msg("ready"))]

    def test_crashed_core_is_never_called(self):
        inner = _ScriptedCore([Send(2, Msg("vote"))])
        core = FaultyCore(inner, Crash(at=1.0))
        assert core.on_message(0, Msg("vote"), 0.5) == [Send(2, Msg("vote"))]
        assert core.on_message(0, Msg("vote"), 1.0) == []
        assert core.on_timer("t", 1.5) == []
        assert core.start(2.0) == []
        assert inner.calls == [("message", 0.5)]

    def test_delayed_becomes_a_wrapper_timer_released_unfiltered(self):
        send = Send(2, Msg("vote"))
        inner = _ScriptedCore([send])
        core = FaultyCore(inner, DelaySend(delay=0.05))
        [timer] = core.start(0.0)
        assert isinstance(timer, SetTimer)
        assert timer.delay == 0.05 and timer.key[0] == RELEASE
        # Released as is: the DelaySend does not delay it a second time.
        assert core.on_timer(timer.key, 0.05) == [send]
        assert core.held == {}
        assert inner.calls == [("start", 0.0)]  # the key is the wrapper's

    def test_no_release_after_a_crash(self):
        core = FaultyCore(_ScriptedCore([Send(2, Msg("vote"))]),
                          DelaySend(delay=0.05))
        [timer] = core.start(0.0)
        core.behaviour = Crash(at=0.01)
        assert core.on_timer(timer.key, 0.05) == []
        assert core.held == {}

    def test_pending_release_survives_unfault(self):
        send = Send(2, Msg("vote"))
        inner = _ScriptedCore([send])
        stack = hosted_core(inner, DelaySend(delay=0.05))
        [timer] = stack.start(0.0)
        # Something is held, so the wrapper stays, now honest.
        assert hosted_core(stack, HONEST) is stack
        assert stack.behaviour is HONEST
        assert stack.on_timer(timer.key, 0.05) == [send]
        # Nothing held any more: the next re-stack hosts the bare core.
        assert hosted_core(stack, HONEST) is inner

    def test_restart_discards_pending_release(self):
        inner = _ScriptedCore([Send(2, Msg("vote"))])
        stack = hosted_core(inner, DelaySend(delay=0.05))
        stack.start(0.0)
        fresh = _ScriptedCore([])
        restarted = hosted_core(fresh, DelaySend(delay=0.05))
        assert restarted is not stack and restarted.held == {}
        assert hosted_core(fresh) is fresh

    def test_attributes_pass_through(self):
        inner = _ScriptedCore([])
        core = FaultyCore(inner, HONEST)
        assert core.node_id == 1 and core.effects == []
        core.backlog_probe = 7  # write falls through
        assert inner.backlog_probe == 7


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
