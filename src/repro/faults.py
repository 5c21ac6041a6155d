"""Composable Byzantine fault behaviours and the core wrapper that hosts them.

The paper's adversary (§III-A) fully controls up to f replicas.  A faulty
replica's core is wrapped in a :class:`FaultyCore`, itself a
:class:`repro.interfaces.ProtocolCore`, which holds a :class:`FaultBehavior`
and owns everything the fault does: which messages are received at all
(:meth:`FaultyCore.admits`), silencing a crashed core, rewriting the
effects the core emits, and realising :class:`DelaySend` with timers of its
own.  Behaviours compose, so "selective disseminator that also withholds
votes" is a one-liner in tests.

The simulator (:class:`repro.sim.node.SimNode`) and the live runtime
(:class:`repro.net.node.LiveNode`) have no fault logic beyond one receipt
gate, ``admits`` (``None`` for a stack with no fault), so an attack
validated in simulation runs unchanged against real sockets.
:func:`hosted_core` builds every hosted stack in one order — the fault
innermost, :class:`repro.obs.tracer.TracedCore` outside it, so traces show
what the network saw — and honest cores are hosted bare.

Provided behaviours cover the attacks the paper analyses:

* :class:`Crash` — fail-stop (used for view-change experiments, §VI-D2).
* :class:`SelectiveDisseminator` — sends its datablocks only to a chosen
  subset including the leader (the liveness attack of §IV-A2).
* :class:`DropIncoming` — pretends not to receive selected message classes
  (e.g. drops honest replicas' datablocks, §V-B case (b)).
* :class:`Mute` — suppresses selected outgoing message classes
  (e.g. vote withholding).
* :class:`DelaySend` — a slow/lagging replica: its sends leave ``delay``
  seconds late.

Behaviours round-trip through plain-JSON *specs* (:func:`fault_to_spec` /
:func:`fault_from_spec`), so a multi-process deployment ships a replica's
fault across the process boundary and chaos scenarios name faults
declaratively; :func:`faults_section` reports them for every backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Hashable

from repro.errors import ConfigError
from repro.interfaces import Broadcast, Effect, Message, Send, SetTimer
from repro.obs.tracer import TracedCore


@dataclass(slots=True)
class Delayed(Effect):
    """Apply ``effect`` after ``delay`` seconds of host time.

    Emitted by :meth:`DelaySend.filter_effects` and consumed by the
    :class:`FaultyCore` holding that behaviour, which turns it into a
    timer of its own: no host or protocol core ever sees one.
    """

    delay: float
    effect: Effect


class FaultBehavior:
    """Base behaviour: fully honest (identity pass-through)."""

    def filter_effects(self, effects: list[Effect], now: float
                       ) -> list[Effect]:
        """Rewrite the effects a core emitted before they reach the network."""
        return effects

    def drop_incoming(self, sender: int, msg: Message, now: float) -> bool:
        """Return True to silently discard an incoming message."""
        return False

    def crashed(self, now: float) -> bool:
        """Whether the node is crashed at ``now``: it neither sends nor
        receives anything."""
        return False


HONEST = FaultBehavior()


@dataclass
class Crash(FaultBehavior):
    """Fail-stop at time ``at`` (immediately by default)."""

    at: float = 0.0

    def filter_effects(self, effects: list[Effect], now: float
                       ) -> list[Effect]:
        return [] if now >= self.at else effects

    def drop_incoming(self, sender: int, msg: Message, now: float) -> bool:
        return now >= self.at

    def crashed(self, now: float) -> bool:
        return now >= self.at


@dataclass
class SelectiveDisseminator(FaultBehavior):
    """Multicasts datablocks only to ``targets`` (which includes the leader).

    This is the selective attack of §IV-A2: the faulty replica's datablocks
    reach the leader (so they get linked into BFTblocks) but not enough
    replicas to vote, forcing the retrieval mechanism to engage.
    """

    targets: frozenset[int]
    msg_classes: frozenset[str] = frozenset({"datablock"})

    def filter_effects(self, effects: list[Effect], now: float
                       ) -> list[Effect]:
        rewritten: list[Effect] = []
        for effect in effects:
            if (isinstance(effect, Broadcast)
                    and effect.msg.msg_class in self.msg_classes):
                rewritten.extend(
                    Send(dest, effect.msg) for dest in sorted(self.targets))
            else:
                rewritten.append(effect)
        return rewritten


@dataclass
class DropIncoming(FaultBehavior):
    """Discards incoming messages of the given classes (optionally by sender).

    ``msg_classes=None`` matches every class — combined with
    ``from_senders`` that is a one-sided network partition, which is
    exactly how the chaos layer realises ``partition`` events on the
    simulated backend.
    """

    msg_classes: frozenset[str] | None = None
    from_senders: frozenset[int] | None = None

    def drop_incoming(self, sender: int, msg: Message, now: float) -> bool:
        if self.msg_classes is not None \
                and msg.msg_class not in self.msg_classes:
            return False
        return self.from_senders is None or sender in self.from_senders


@dataclass
class Mute(FaultBehavior):
    """Suppresses outgoing messages of the given classes (vote withholding)."""

    msg_classes: frozenset[str]

    def filter_effects(self, effects: list[Effect], now: float
                       ) -> list[Effect]:
        kept: list[Effect] = []
        for effect in effects:
            if isinstance(effect, (Send, Broadcast)) \
                    and effect.msg.msg_class in self.msg_classes:
                continue
            kept.append(effect)
        return kept


@dataclass
class DelaySend(FaultBehavior):
    """A slow/lagging replica: outgoing effects leave ``delay`` seconds late.

    Send/Broadcast effects (of ``msg_classes``, or every class when
    ``None``) are wrapped in :class:`Delayed`, which the
    :class:`FaultyCore` releases after the lag through a timer.  Message
    *handling* is not delayed: the replica is slow to speak, not deaf,
    matching the "slow link / overloaded replica" shape of the FnF-BFT
    degradation attacks rather than a crash.
    """

    delay: float = 0.05
    msg_classes: frozenset[str] | None = None

    def filter_effects(self, effects: list[Effect], now: float
                       ) -> list[Effect]:
        rewritten: list[Effect] = []
        for effect in effects:
            if isinstance(effect, (Send, Broadcast)) \
                    and (self.msg_classes is None
                         or effect.msg.msg_class in self.msg_classes):
                rewritten.append(Delayed(self.delay, effect))
            else:
                rewritten.append(effect)
        return rewritten


@dataclass
class Combined(FaultBehavior):
    """Applies several behaviours in order (effects chain, drops OR).

    A behaviour after a :class:`DelaySend` filters what the delay wraps,
    and what survives keeps its delay (delays add), so the members
    compose the same in any order.
    """

    behaviors: tuple[FaultBehavior, ...]

    def filter_effects(self, effects: list[Effect], now: float
                       ) -> list[Effect]:
        for behavior in self.behaviors:
            rewritten: list[Effect] = []
            for effect in effects:
                if isinstance(effect, Delayed):
                    rewritten += [_later(effect.delay, survivor)
                                  for survivor in behavior.filter_effects(
                                      [effect.effect], now)]
                else:
                    rewritten += behavior.filter_effects([effect], now)
            effects = rewritten
        return effects

    def drop_incoming(self, sender: int, msg: Message, now: float) -> bool:
        return any(b.drop_incoming(sender, msg, now) for b in self.behaviors)

    def crashed(self, now: float) -> bool:
        return any(b.crashed(now) for b in self.behaviors)


def _later(delay: float, effect: Effect) -> Delayed:
    """``effect`` held ``delay`` seconds longer."""
    if isinstance(effect, Delayed):
        return Delayed(delay + effect.delay, effect.effect)
    return Delayed(delay, effect)


# ---------------------------------------------------------------------------
# The sans-io seam: a faulty replica's core
# ---------------------------------------------------------------------------

#: Tags the timer keys a :class:`FaultyCore` arms for held effects.
RELEASE = "fault.release"


class FaultyCore:
    """A protocol core under a :class:`FaultBehavior`.

    Attributes other than its own fall through to the wrapped core, as
    with :class:`repro.obs.tracer.TracedCore`.  A crashed core is never
    called; its effects pass through ``behaviour.filter_effects``; each
    :class:`Delayed` effect is held and replaced by a ``SetTimer`` under
    a ``(RELEASE, n)`` key, and returned unfiltered when that timer fires
    unless the node has crashed by then.  Hosts consult :meth:`admits`
    before they charge or deliver anything.  Swapping :attr:`behaviour`
    keeps what is held, so a pending release survives ``unfault``.
    """

    __slots__ = ("inner", "behaviour", "node_id", "held", "_keys")

    def __init__(self, inner: object, behaviour: FaultBehavior) -> None:
        self.inner = inner
        self.behaviour = behaviour
        self.node_id = inner.node_id
        self.held: dict[tuple, Effect] = {}
        self._keys = count()

    def admits(self, sender: int, msg: Message, now: float) -> bool:
        """The receipt gate: ``False`` discards ``msg`` unseen."""
        behaviour = self.behaviour
        return not (behaviour.crashed(now)
                    or behaviour.drop_incoming(sender, msg, now))

    # -- ProtocolCore surface ------------------------------------------

    def start(self, now: float) -> list[Effect]:
        if self.behaviour.crashed(now):
            return []
        return self._emit(self.inner.start(now), now)

    def on_message(self, sender: int, msg: Message, now: float
                   ) -> list[Effect]:
        if self.behaviour.crashed(now):
            return []
        return self._emit(self.inner.on_message(sender, msg, now), now)

    def on_timer(self, key: Hashable, now: float) -> list[Effect]:
        held = self.held.pop(key, None)
        if self.behaviour.crashed(now):
            return []
        if held is not None:
            return [held]
        return self._emit(self.inner.on_timer(key, now), now)

    def _emit(self, effects: list[Effect], now: float) -> list[Effect]:
        return [self._hold(effect) if isinstance(effect, Delayed)
                else effect
                for effect in self.behaviour.filter_effects(effects, now)]

    def _hold(self, delayed: Delayed) -> SetTimer:
        key = (RELEASE, next(self._keys))
        self.held[key] = delayed.effect
        return SetTimer(key, delayed.delay)

    # -- transparency ---------------------------------------------------

    def __getattr__(self, name: str):
        return getattr(object.__getattribute__(self, "inner"), name)

    def __setattr__(self, name: str, value: object) -> None:
        if name in FaultyCore.__slots__:
            object.__setattr__(self, name, value)
        else:
            setattr(self.inner, name, value)


def hosted_core(core: object, behaviour: FaultBehavior = HONEST,
                tracer=None) -> object:
    """The stack a host runs for ``core``: the fault innermost, then a
    :class:`~repro.obs.tracer.TracedCore` when ``tracer`` is given.

    An honest core is returned bare.  Given a stack this function built
    (a hot swap), its :class:`FaultyCore` takes the new behaviour and is
    dropped only when that is honest and nothing is held.
    """
    if isinstance(core, TracedCore):
        core = core.inner
    if isinstance(core, FaultyCore):
        core.behaviour = behaviour
        if behaviour is HONEST and not core.held:
            core = core.inner
    elif behaviour is not HONEST:
        core = FaultyCore(core, behaviour)
    return core if tracer is None else TracedCore(core, tracer)


# ---------------------------------------------------------------------------
# Serializable fault specs (multi-process deployment, chaos scenarios)
# ---------------------------------------------------------------------------


def fault_to_spec(fault: FaultBehavior) -> dict | None:
    """A plain-JSON description of ``fault`` (``None`` for honest).

    Raises:
        ValueError: for a behaviour with no spec form (custom test-local
            subclasses stay in-process).
    """
    if fault is HONEST or type(fault) is FaultBehavior:
        return None
    if isinstance(fault, Crash):
        return {"kind": "crash", "at": fault.at}
    if isinstance(fault, SelectiveDisseminator):
        return {"kind": "selective", "targets": sorted(fault.targets),
                "msg_classes": sorted(fault.msg_classes)}
    if isinstance(fault, DropIncoming):
        return {"kind": "drop",
                "msg_classes": None if fault.msg_classes is None
                else sorted(fault.msg_classes),
                "from_senders": None if fault.from_senders is None
                else sorted(fault.from_senders)}
    if isinstance(fault, Mute):
        return {"kind": "mute", "msg_classes": sorted(fault.msg_classes)}
    if isinstance(fault, DelaySend):
        return {"kind": "delay_send", "delay": fault.delay,
                "msg_classes": None if fault.msg_classes is None
                else sorted(fault.msg_classes)}
    if isinstance(fault, Combined):
        return {"kind": "combined",
                "behaviors": [fault_to_spec(b) for b in fault.behaviors]}
    raise ValueError(f"fault {fault!r} has no serializable spec")


def fault_from_spec(spec: dict | None) -> FaultBehavior:
    """Rebuild a :class:`FaultBehavior` from its plain-JSON spec."""
    if spec is None:
        return HONEST
    kind = spec["kind"]
    if kind == "crash":
        return Crash(at=float(spec.get("at", 0.0)))
    if kind == "selective":
        return SelectiveDisseminator(
            targets=frozenset(int(t) for t in spec["targets"]),
            msg_classes=frozenset(spec.get("msg_classes")
                                  or ("datablock",)))
    if kind == "drop":
        classes = spec.get("msg_classes")
        senders = spec.get("from_senders")
        return DropIncoming(
            msg_classes=None if classes is None else frozenset(classes),
            from_senders=None if senders is None
            else frozenset(int(s) for s in senders))
    if kind == "mute":
        return Mute(msg_classes=frozenset(spec["msg_classes"]))
    if kind == "delay_send":
        classes = spec.get("msg_classes")
        return DelaySend(
            delay=float(spec.get("delay", 0.05)),
            msg_classes=None if classes is None else frozenset(classes))
    if kind == "combined":
        return Combined(tuple(fault_from_spec(sub)
                              for sub in spec["behaviors"]))
    raise ValueError(f"unknown fault spec kind {kind!r}")


def pick_measure_replica(config, faults: dict[int, FaultBehavior]) -> int:
    """The replica whose executions a run reports: the first honest
    non-leader (paper §VI), after checking ``faults`` holds at most f.

    Every host — the simulator, the in-process live cluster and the
    process deployment — picks with this one rule.
    """
    if len(faults) > config.f:
        raise ConfigError(f"at most f={config.f} faulty replicas allowed")
    leader = config.leader_of(1)
    for candidate in range(config.n):
        if candidate != leader and candidate not in faults:
            return candidate
    raise ConfigError("no honest non-leader replica available to measure")


def faults_section(faults: dict[int, FaultBehavior], scenario: str | None,
                   events: list, restarts: int, shaping: dict | None = None
                   ) -> dict | None:
    """The report's ``faults`` section (``None`` for a clean run).

    ``faults`` maps replica ids to injected behaviours (one with no spec
    form is listed by its repr); ``shaping`` is the in-process live
    shaper's snapshot.
    """
    if not (faults or events or restarts or scenario):
        return None

    def spec_or_custom(fault: FaultBehavior) -> dict | None:
        try:
            return fault_to_spec(fault)
        except ValueError:
            return {"kind": "custom", "repr": repr(fault)}

    return {
        "injected": {str(replica_id): spec_or_custom(fault)
                     for replica_id, fault in sorted(faults.items())},
        "scenario": scenario,
        "events_applied": list(events),
        "restarts": restarts,
        "shaping": shaping,
    }


def partition_behavior(node_id: int, groups: list[frozenset[int]]
                       ) -> FaultBehavior:
    """The per-node behaviour realising a network partition.

    Nodes in different groups cannot exchange messages; a node in no
    group is unaffected.  Used by the *simulated* chaos backend (the live
    transport cuts partitioned links inside the shaper instead): each
    grouped node drops everything arriving from across the cut.
    """
    own = next((group for group in groups if node_id in group), None)
    if own is None:
        return HONEST
    others = frozenset(member for group in groups for member in group
                       if group is not own)
    if not others:
        return HONEST
    return DropIncoming(msg_classes=None, from_senders=others)
