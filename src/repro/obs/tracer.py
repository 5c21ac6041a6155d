"""Lifecycle tracers and the sans-io core wrapper that feeds them.

Tracing is **structurally free when disabled**: nothing on the hot path
consults a tracer.  Enabling it wraps a protocol core in
:class:`TracedCore`, which stamps one event per delivered message and one
per identity-bearing effect (send/broadcast/execute/trace) before handing
the unmodified effect list back to the host.  Both backends host the same
wrapper, stacked by :func:`repro.faults.hosted_core` outside any
:class:`repro.faults.FaultyCore`: a faulty replica's trace shows what
its fault let onto the network (a delayed send at its release time, a
crashed replica's silence), and a simulated run and a live TCP run emit
the same trace schema.

Events are keyed by :func:`trace_key` so a request can be followed across
nodes: ``("req", client, bundle)`` for client bundles and acks,
``("db", creator, counter)`` for Leopard datablocks, ``("bft", view,
sn)`` for BFTblocks, ``("sn", view, sn)`` for PBFT instances and
``("ht", height)`` for HotStuff blocks.  :mod:`repro.obs.timeline` joins
the chain back into per-request phase spans.
"""

from __future__ import annotations

from repro.interfaces import Broadcast, Executed, Send, Trace


class NullTracer:
    """The default tracer: records nothing, costs nothing.

    ``enabled`` is ``False`` so hosts (and tests) can branch on it; the
    :meth:`record` no-op keeps the interface total for code that holds a
    tracer unconditionally.
    """

    __slots__ = ()

    enabled = False

    def record(self, t: float, node: int, kind: str, cls: str,
               key: tuple | None, data: dict | None) -> None:
        """Discard the event."""


#: Shared no-op instance — tracers are stateless when disabled.
NULL_TRACER = NullTracer()


class RingTracer:
    """Bounded ring-buffer trace recorder.

    Keeps the most recent ``capacity`` events; older events are
    overwritten and counted in :attr:`dropped`.  Workloads submit
    continuously, so the retained tail always contains complete
    request lifecycles.

    ``sample=k`` keeps only every *k*-th request lifecycle: events whose
    :func:`trace_key` is ``("req", client, bundle)`` are discarded unless
    ``bundle % k == 0``.  Aggregate events (datablocks, BFTblocks,
    commits) batch many requests and are always kept, so the sampled
    lifecycles still join end to end.  Sampling selects which requests
    are retained — each retained trace is still exact, because traced
    nodes deliver on the scalar path.
    """

    __slots__ = ("capacity", "dropped", "sample", "_events", "_next")

    enabled = True

    def __init__(self, capacity: int = 65536, sample: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"tracer capacity must be positive, "
                             f"got {capacity}")
        if sample <= 0:
            raise ValueError(f"tracer sample stride must be positive, "
                             f"got {sample}")
        self.capacity = capacity
        self.sample = sample
        self.dropped = 0
        self._events: list[dict] = []
        self._next = 0

    def record(self, t: float, node: int, kind: str, cls: str,
               key: tuple | None, data: dict | None) -> None:
        """Append one lifecycle event (overwriting the oldest when full)."""
        if (self.sample != 1 and key is not None and key[0] == "req"
                and key[2] % self.sample != 0):
            return
        event = {"t": t, "node": node, "kind": kind, "cls": cls,
                 "key": key, "data": data}
        events = self._events
        if len(events) < self.capacity:
            events.append(event)
        else:
            events[self._next] = event
            self._next = (self._next + 1) % self.capacity
            self.dropped += 1

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> list[dict]:
        """Recorded events in chronological order."""
        events = self._events
        if len(events) < self.capacity or self._next == 0:
            return list(events)
        return events[self._next:] + events[:self._next]

    def to_jsonable(self) -> dict:
        """JSON-ready dump (tuple keys become lists)."""
        return {
            "capacity": self.capacity,
            "sample": self.sample,
            "dropped": self.dropped,
            "events": [
                {**event, "key": list(event["key"])
                 if event["key"] is not None else None}
                for event in self.events()
            ],
        }


def merge_trace_parts(parts: list[tuple[dict, float]]) -> dict:
    """Merge per-process trace dumps into one chronological trace.

    Args:
        parts: ``(dump, shift)`` pairs — each a :meth:`RingTracer.
            to_jsonable` dict plus the seconds to *subtract* from its
            timestamps (the multi-process runner passes each child's
            ``measurement_epoch - spawn_epoch`` so every merged event
            lands on the parent's measurement clock).
    """
    events: list[dict] = []
    dropped = 0
    for dump, shift in parts:
        dropped += dump.get("dropped", 0)
        for event in dump.get("events", ()):
            if shift:
                event = {**event, "t": event["t"] - shift}
            events.append(event)
    events.sort(key=lambda e: (e["t"], e["node"], e["kind"]))
    return {"dropped": dropped, "events": events}


# ---------------------------------------------------------------------------
# Message identity
# ---------------------------------------------------------------------------


def _hex(digest: object) -> str | None:
    if isinstance(digest, bytes):
        return digest.hex()[:12]
    return None


def trace_key(msg: object) -> tuple | None:
    """Stable cross-node identity of a message, or ``None``.

    The key joins events from different nodes into one lifecycle:
    client bundles and their acks share a key, every copy of a
    datablock/block shares a key, and votes/readies key on the digest
    or instance they certify.
    """
    cls = getattr(msg, "msg_class", None)
    if cls in ("client", "ack"):
        return ("req", msg.client_id, msg.bundle_id)
    if cls == "datablock":
        return ("db", msg.creator, msg.counter)
    if cls == "ready":
        return ("dbh", _hex(msg.block_digest))
    if cls == "bftblock":
        return ("bft", msg.view, msg.sn)
    if cls == "block":
        height = getattr(msg, "height", None)
        if height is not None:
            return ("ht", height)
        return ("sn", msg.view, msg.sn)
    if cls == "vote":
        height = getattr(msg, "height", None)
        if height is not None:
            return ("ht", height)
        digest = getattr(msg, "block_digest", None)
        if isinstance(digest, bytes):
            sn = getattr(msg, "sn", None)
            if sn is not None:
                return ("sn", msg.view, sn)
            return ("dbh", _hex(digest))
    if cls == "proof":
        return ("prf", getattr(msg, "round", 0),
                _hex(getattr(msg, "block_digest", None)))
    return None


def trace_data(msg: object) -> dict | None:
    """Join-relevant payload details for identity-bearing messages.

    Only origination events (send/broadcast) carry data; it is what
    lets :mod:`repro.obs.timeline` walk request → datablock → BFTblock
    → commit: datablocks list the ``(client, bundle)`` spans they batch
    plus their digest, BFTblocks list the datablock digests they link.
    """
    cls = getattr(msg, "msg_class", None)
    if cls == "datablock":
        return {"digest": _hex(msg.digest()),
                "spans": [[span.client_id, span.bundle_id]
                          for span in msg.spans]}
    if cls == "bftblock":
        return {"links": [_hex(link) for link in msg.links]}
    if cls == "block":
        spans = getattr(msg, "spans", None)
        if spans is None:
            return None
        return {"spans": [[span.client_id, span.bundle_id]
                          for span in spans]}
    return None


# ---------------------------------------------------------------------------
# The sans-io boundary wrapper
# ---------------------------------------------------------------------------


class TracedCore:
    """Wrap a protocol core, stamping lifecycle events at its boundary.

    Transparent to the host: every attribute read/write falls through to
    the wrapped core (``backlog_probe`` wiring, config access and a
    :class:`repro.faults.FaultyCore`'s ``admits`` gate keep working),
    and the effect lists pass through unmodified.  Message ingress
    stamps a ``recv`` event; returned effects stamp ``send`` /
    ``bcast`` / ``exec`` / ``note`` events at the same protocol time the
    host interprets them.
    """

    __slots__ = ("inner", "tracer", "node_id")

    def __init__(self, inner: object, tracer: RingTracer) -> None:
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "tracer", tracer)
        object.__setattr__(self, "node_id", inner.node_id)

    # -- ProtocolCore surface ------------------------------------------

    def start(self, now: float) -> list:
        effects = self.inner.start(now)
        if effects:
            self._scan(effects, now)
        return effects

    def on_message(self, sender: int, msg: object, now: float) -> list:
        self.tracer.record(now, self.node_id, "recv",
                           getattr(msg, "msg_class", "?"),
                           trace_key(msg), None)
        effects = self.inner.on_message(sender, msg, now)
        if effects:
            self._scan(effects, now)
        return effects

    def on_timer(self, key: object, now: float) -> list:
        effects = self.inner.on_timer(key, now)
        if effects:
            self._scan(effects, now)
        return effects

    def _scan(self, effects: list, now: float) -> None:
        record = self.tracer.record
        node = self.node_id
        for effect in effects:
            if isinstance(effect, (Send, Broadcast)):
                msg = effect.msg
                kind = "send" if isinstance(effect, Send) else "bcast"
                record(now, node, kind,
                       getattr(msg, "msg_class", "?"),
                       trace_key(msg), trace_data(msg))
            elif isinstance(effect, Executed):
                ids = effect.info
                record(now, node, "exec", "exec", None,
                       {"count": effect.count,
                        "ids": list(ids)
                        if isinstance(ids, (tuple, list)) else None})
            elif isinstance(effect, Trace):
                record(now, node, "note", effect.kind, None,
                       dict(effect.data))

    # -- transparency ---------------------------------------------------

    def __getattr__(self, name: str):
        return getattr(object.__getattribute__(self, "inner"), name)

    def __setattr__(self, name: str, value: object) -> None:
        setattr(object.__getattribute__(self, "inner"), name, value)
