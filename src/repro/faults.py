"""Composable Byzantine fault behaviours, shared by both backends.

The paper's adversary (§III-A) fully controls up to f replicas.  Rather than
writing bespoke malicious replicas for every experiment, hosts wrap their
protocol core with a :class:`FaultBehavior` that intercepts the sans-io
boundary: outgoing effects can be rewritten/suppressed and incoming messages
dropped.  Behaviours compose, so "selective disseminator that also withholds
votes" is a one-liner in tests.

This module is deliberately backend-neutral (it imports only
:mod:`repro.interfaces`): the discrete-event simulator
(:class:`repro.sim.node.SimNode`) and the live TCP runtime
(:class:`repro.net.node.LiveNode`) both host the same behaviours, so an
attack validated in simulation runs unchanged against real sockets.

Provided behaviours cover the attacks the paper analyses:

* :class:`Crash` — fail-stop (used for view-change experiments, §VI-D2).
* :class:`SelectiveDisseminator` — sends its datablocks only to a chosen
  subset including the leader (the liveness attack of §IV-A2).
* :class:`DropIncoming` — pretends not to receive selected message classes
  (e.g. drops honest replicas' datablocks, §V-B case (b)).
* :class:`Mute` — suppresses selected outgoing message classes
  (e.g. vote withholding).
* :class:`DelaySend` — a slow/lagging replica: outgoing effects are
  wrapped in :class:`repro.interfaces.Delayed` and applied ``delay``
  seconds late by the hosting backend.

Behaviours are round-trippable through plain-JSON *specs*
(:func:`fault_to_spec` / :func:`fault_from_spec`) so the multi-process
live deployment can ship a replica's fault across a process boundary and
chaos scenarios can name faults declaratively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.interfaces import Broadcast, Delayed, Effect, Message, Send


class FaultBehavior:
    """Base behaviour: fully honest (identity pass-through)."""

    def filter_effects(self, effects: list[Effect], now: float
                       ) -> list[Effect]:
        """Rewrite the effects a core emitted before they reach the network."""
        return effects

    def drop_incoming(self, sender: int, msg: Message, now: float) -> bool:
        """Return True to silently discard an incoming message."""
        return False

    @property
    def crashed(self) -> bool:
        """Crashed nodes neither send nor receive anything."""
        return False


HONEST = FaultBehavior()


@dataclass
class Crash(FaultBehavior):
    """Fail-stop at time ``at`` (immediately by default)."""

    at: float = 0.0
    _now: float = field(default=0.0, repr=False)

    def filter_effects(self, effects: list[Effect], now: float
                       ) -> list[Effect]:
        self._now = now
        return [] if now >= self.at else effects

    def drop_incoming(self, sender: int, msg: Message, now: float) -> bool:
        self._now = now
        return now >= self.at

    @property
    def crashed(self) -> bool:
        return self._now >= self.at


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
    ``None``) are wrapped in :class:`repro.interfaces.Delayed`; the
    hosting backend applies the inner effect after the lag — the
    simulator via its event queue, the live runtime via an event-loop
    timer — so the behaviour is identical on both.  Message *handling*
    is not delayed: the replica is slow to speak, not deaf, matching the
    "slow link / overloaded replica" shape of the FnF-BFT degradation
    attacks rather than a crash.
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
    """Applies several behaviours in order (effects chain, drops OR)."""

    behaviors: tuple[FaultBehavior, ...]

    def filter_effects(self, effects: list[Effect], now: float
                       ) -> list[Effect]:
        for behavior in self.behaviors:
            effects = behavior.filter_effects(effects, now)
        return effects

    def drop_incoming(self, sender: int, msg: Message, now: float) -> bool:
        return any(b.drop_incoming(sender, msg, now) for b in self.behaviors)

    @property
    def crashed(self) -> bool:
        return any(b.crashed for b in self.behaviors)


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
