"""Sans-io protocol interfaces shared by Leopard, the baselines and the sim.

Every replica and client in this repository is a *pure state machine*: it
consumes messages and timer firings and returns a list of :class:`Effect`
values describing what it wants done (send a message, set a timer, report
committed requests).  The discrete-event simulator in :mod:`repro.sim`
interprets those effects against a modelled network; unit tests interpret
them directly.  This is the layering that makes a 600-replica protocol
testable function-by-function (DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Protocol, runtime_checkable


@runtime_checkable
class Message(Protocol):
    """Anything that can cross the simulated wire.

    ``msg_class`` buckets bytes for the bandwidth-breakdown tables (paper
    Table III); ``size_bytes`` drives NIC serialization time.
    """

    @property
    def msg_class(self) -> str:
        """Accounting bucket, e.g. ``"datablock"`` or ``"vote"``."""
        ...

    def size_bytes(self) -> int:
        """Total wire size of the message in bytes."""
        ...


#: Message classes processed on the data plane.  Modelled nodes have two
#: processing lanes (the paper's c5.xlarge instances have 4 vCPUs): heavy
#: per-request payload work (datablock/client/chunk processing) must not
#: head-of-line-block the consensus-critical control messages (votes,
#: proofs, readies), exactly as a threaded implementation separates them.
DATA_PLANE_CLASSES = frozenset({"datablock", "client", "resp", "block"})


class Effect:
    """Base class for protocol-core outputs."""

    __slots__ = ()


@dataclass(slots=True)
class Send(Effect):
    """Unicast ``msg`` to node ``dest``."""

    dest: int
    msg: Message


@dataclass(slots=True)
class Broadcast(Effect):
    """Send ``msg`` to every *replica* except the sender and ``exclude``.

    The simulator expands a broadcast into n-1 unicasts that serialize
    through the sender's NIC one after another — the cost model behind the
    paper's Eq. (1).
    """

    msg: Message
    exclude: tuple[int, ...] = ()


@dataclass(slots=True)
class SetTimer(Effect):
    """Arm (or re-arm) the timer ``key`` to fire ``delay`` seconds from now."""

    key: Hashable
    delay: float


@dataclass(slots=True)
class CancelTimer(Effect):
    """Disarm the timer ``key`` if armed."""

    key: Hashable


@dataclass(slots=True)
class Executed(Effect):
    """Report requests executed (committed and applied) by this node.

    Attributes:
        count: number of requests executed.
        info: optional protocol-specific commit identities — Leopard and
            PBFT cores pass the executed sequence numbers, HotStuff the
            executed heights, as a tuple.  The tracing layer
            (:mod:`repro.obs`) joins these against the proposal that
            carried each request to measure the agreement phase; tests
            may inspect them directly.
    """

    count: int
    info: object = None


@dataclass(slots=True)
class Trace(Effect):
    """Structured trace point for instrumentation (latency breakdowns)."""

    kind: str
    data: dict = field(default_factory=dict)


class ProtocolCore(Protocol):
    """The sans-io surface that hosts (simulator or tests) drive."""

    node_id: int

    def start(self, now: float) -> list[Effect]:
        """Called once when the node boots; returns initial effects."""
        ...

    def on_message(self, sender: int, msg: Message, now: float
                   ) -> list[Effect]:
        """Handle one delivered message."""
        ...

    def on_timer(self, key: Hashable, now: float) -> list[Effect]:
        """Handle the firing of timer ``key``."""
        ...


def cpu_cost_zero(msg: Message, receiving: bool) -> float:
    """A cost model that charges nothing — used by pure-logic unit tests."""
    return 0.0
