"""In-memory span recorder for the traced pass.

Spans are recorded from here, by wrapping the layers' public entry
points (:func:`layer_hooks`); nothing under ``src/`` knows it is being
timed.  A span's *self* time is its duration minus the part of that
interval its child spans cover, so a core call that encodes nothing and
verifies three shares charges the shares to ``crypto`` and only the
remainder to ``core``.

Per-name totals are always kept; full span records (name, start, end,
parent span, cause, bundle) go to a bounded ring so a 3-million-call
simulation does not hold 3 million tuples.  ``cause`` is what made the
work happen — the delivered frame's class or the timer key — and is
inherited by every span underneath the entry point that set it;
``bundle`` is ``(client_id, bundle_id)`` when the message handled names
one, so the spans of one client bundle can be joined.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

#: Finished spans kept for ``Tracer.dump`` (newest win).
RING_SPANS = 50_000


class Tracer:
    """Span stack + per-name aggregates.  Single-threaded by design: the
    simulator and the in-process live cluster both run on one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        #: name -> [finished spans, summed duration, summed self time].
        self._totals: dict[str, list] = {}
        #: Free-form counters the hooks bump at the same boundaries
        #: (bytes encoded, effects returned, ...).
        self.counts: defaultdict[str, float] = defaultdict(float)
        #: Self time of replica-core spans per node id (leader share).
        self.core_self_by_node: defaultdict[int, float] = \
            defaultdict(float)
        self.ring: deque[tuple] = deque(maxlen=RING_SPANS)
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, name: str, fn: Callable,
             tag: Callable | None = None,
             after: Callable | None = None) -> Callable:
        """``fn`` timed as span ``name``.

        Args:
            tag: ``tag(args) -> (cause, bundle)`` for entry points that
                start a causal chain (a delivery, a timer firing).
            after: ``after(args, result, duration, self_time)`` for
                counts taken where the work happens.
        """
        clock = self.clock
        stack = self._stack
        ring_append = self.ring.append
        totals = self._totals.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if tag is not None:
                cause, bundle = tag(args)
            elif parent is not None:
                cause, bundle = parent[2], parent[3]
            else:
                cause = bundle = None
            span_id = self._next_id = self._next_id + 1
            # [span id, time covered by children, cause, bundle]
            frame = [span_id, 0.0, cause, bundle]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += own
                ring_append((span_id, parent[0] if parent else 0, name,
                             start, end, cause, bundle))
            if after is not None:
                after(args, result, duration, own)
            return result

        return traced

    def snapshot(self) -> dict[str, defaultdict]:
        """Copy of the aggregates; names never seen read as zero."""
        sections = {"calls": 0, "busy": 1, "self": 2}
        out = {section: defaultdict(float, {
            name: totals[index] for name, totals in self._totals.items()})
            for section, index in sections.items()}
        out["counts"] = defaultdict(float, self.counts)
        out["core_self_by_node"] = defaultdict(
            float, self.core_self_by_node)
        return out

    def dump(self, path: str) -> None:
        """Write the retained span records as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.ring:
                handle.write(json.dumps(dict(zip(
                    ("id", "parent", "name", "start", "end", "cause",
                     "bundle"), span)), default=str) + "\n")


@contextmanager
def installed(patches: list[tuple[object, str, Callable]]
              ) -> Iterator[None]:
    """Apply ``(owner, attribute, replacement)`` patches, undo on exit."""
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# The layer boundaries
# ---------------------------------------------------------------------------


def _bundle_of(msg) -> tuple[int, int] | None:
    if hasattr(msg, "bundle_id"):
        return (msg.client_id, msg.bundle_id)
    spans = getattr(msg, "spans", None)
    if spans:
        return (spans[0].client_id, spans[0].bundle_id)
    return None


def layer_hooks(tracer: Tracer, core_classes: list[type],
                replica_count: int, live_nodes: Iterable = ()
                ) -> list[tuple[object, str, Callable]]:
    """Patches that time every layer's public entry points.

    Layers are named after the modules: ``core`` (every hosted
    ``ProtocolCore``; replicas and clients are told apart by node id),
    ``crypto`` (the shared ``ThresholdScheme`` / ``Signer``), ``wire``
    (``repro.wire.codec``), ``net`` (``Router`` / ``LiveNode``) and
    ``stats`` (``MetricsCollector.record_*``).  Patching the classes —
    not instances — also covers cores rebuilt by a chaos ``restart``.
    The one exception is ``LiveNode.deliver``: each listener already
    holds it as a bound method, so it is wrapped where it is held, on
    the listeners of ``live_nodes``.
    """
    from repro.crypto.threshold import Signer, ThresholdScheme
    from repro.net.transport import Router
    from repro.stats import MetricsCollector
    from repro.wire import codec

    counts = tracer.counts
    patches: list[tuple[object, str, Callable]] = []

    by_node = tracer.core_self_by_node

    def core_hook(method: str) -> tuple[Callable, Callable]:
        replica_keys, client_keys = (
            (f"{role}.{method}.calls", f"{role}.{method}.busy_s",
             f"{role}.self_s", f"{role}.effects")
            for role in ("core", "client"))

        def after(args, effects, duration, own):
            node_id = args[0].node_id
            if node_id < replica_count:
                keys = replica_keys
                by_node[node_id] += own
            else:
                keys = client_keys
            counts[keys[0]] += 1
            counts[keys[1]] += duration
            counts[keys[2]] += own
            counts[keys[3]] += len(effects)

        if method == "on_message":
            def tag(args):
                return args[2].msg_class, _bundle_of(args[2])
        elif method == "on_timer":
            def tag(args):
                return args[1], None
        else:
            def tag(args):
                return "boot", None
        return tag, after

    for cls in core_classes:
        for method in ("start", "on_message", "on_timer"):
            tag, after = core_hook(method)
            patches.append((cls, method, tracer.wrap(
                "core." + method, getattr(cls, method), tag, after)))

    for owner, attr, name in (
            (Signer, "sign", "crypto.sign"),
            (ThresholdScheme, "verify_share", "crypto.verify_share"),
            (ThresholdScheme, "verify_shares", "crypto.verify_share"),
            (ThresholdScheme, "combine", "crypto.combine"),
            (ThresholdScheme, "verify", "crypto.verify")):
        patches.append((owner, attr, tracer.wrap(
            name, getattr(owner, attr))))

    def encoded(args, frame, duration, own):
        counts["wire.encode.bytes"] += len(frame)

    def decoded(args, result, duration, own):
        counts["wire.decode.bytes"] += len(args[0])

    # ``codec.decode`` only checks the length prefix and calls
    # ``decode_payload``, so one wrapper covers both.
    patches.append((codec, "encode", tracer.wrap(
        "wire.encode", codec.encode, after=encoded)))
    patches.append((codec, "decode_payload", tracer.wrap(
        "wire.decode", codec.decode_payload, after=decoded)))

    for attr in ("send", "send_many"):
        patches.append((Router, attr, tracer.wrap(
            "net.send", getattr(Router, attr))))
    for node in live_nodes:
        listener = node.router.listener
        patches.append((listener, "handler", tracer.wrap(
            "net.deliver", listener.handler,
            tag=lambda args: (args[1].msg_class, _bundle_of(args[1])))))

    for attr in ("record_execution", "record_ack", "record_phase",
                 "record_retransmission"):
        patches.append((MetricsCollector, attr, tracer.wrap(
            "stats.record", getattr(MetricsCollector, attr))))
    return patches
