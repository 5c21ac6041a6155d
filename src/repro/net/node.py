"""LiveNode: hosts one sans-io protocol core over real sockets.

The live-deployment sibling of :class:`repro.sim.node.SimNode` — the same
effect-interpretation contract (``Send``/``Broadcast`` become transport
writes, ``SetTimer``/``CancelTimer`` become event-loop timers with the
same re-arm generation semantics, ``Executed``/``Trace`` feed the shared
metrics collector), but against an asyncio event loop and a
:class:`repro.net.transport.Router` instead of the discrete-event queue
and modelled NICs.  Because both hosts honour the identical
:class:`repro.interfaces.ProtocolCore` contract, a replica or client core
runs unmodified under either backend.

Faults live in the hosted stack, not here: a faulty replica's core comes
wrapped in a :class:`repro.faults.FaultyCore` (stacked by
:func:`repro.faults.hosted_core`), which filters what the core emits and
realises ``DelaySend`` through ordinary timers.  The node keeps one
receipt gate, :attr:`LiveNode.admits` — the wrapper's ``admits``, ``None``
for a stack with no fault — so ``Crash``/``Mute``/
``SelectiveDisseminator``/``DropIncoming``/``DelaySend`` behaviours
written against the sim run unchanged on real sockets.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Hashable, Iterable

from repro.interfaces import (
    Broadcast,
    CancelTimer,
    Effect,
    Executed,
    ProtocolCore,
    Send,
    SetTimer,
    Trace,
)
from repro.net.transport import Router
from repro.stats import MetricsCollector


class LiveNode:
    """One live node (replica or client) on the local event loop.

    Args:
        core: the sans-io protocol core to host, bare or stacked by
            :func:`repro.faults.hosted_core`.
        router: this node's transport endpoint.
        replica_ids: ids that :class:`Broadcast` effects expand to.
        metrics: shared metrics sink.
        clock: returns seconds since the cluster epoch (the live ``now``).
    """

    def __init__(self, core: ProtocolCore, router: Router,
                 replica_ids: Iterable[int], metrics: MetricsCollector,
                 clock: Callable[[], float]) -> None:
        self.node_id = core.node_id
        self.router = router
        self.replica_ids = tuple(replica_ids)
        self.metrics = metrics
        self.clock = clock
        self.crashed = False
        self._timer_generation: dict[Hashable, int] = {}
        self._timer_handles: dict[Hashable, asyncio.TimerHandle] = {}
        self.host(core)

    def host(self, core: ProtocolCore) -> None:
        """Host ``core`` (at build, or re-stacked on a fault hot swap)
        and take its receipt gate (``None`` unless a fault is in it)."""
        self.core = core
        self.admits = getattr(core, "admits", None)
        # Same pacing contract the simulator offers: cores that throttle
        # on local egress backlog read the transport's queue depth.
        if hasattr(core, "backlog_probe"):
            core.backlog_probe = self.router.backlog_seconds

    async def start(self) -> None:
        """Bind this node's listener (address becomes routable)."""
        await self.router.start(self.deliver)

    def boot(self) -> None:
        """Run the core's start hook (arms its initial timers)."""
        self._apply(self.core.start(self.clock()))

    def deliver(self, sender: int, msg) -> None:
        """Transport fan-in: one decoded message for the core."""
        if self.crashed:
            return
        admits = self.admits
        if admits is not None and not admits(sender, msg, self.clock()):
            return
        self._apply(self.core.on_message(sender, msg, self.clock()))

    def _fire_timer(self, key: Hashable, generation: int) -> None:
        if self._timer_generation.get(key) != generation:
            return  # re-armed or cancelled since scheduling
        del self._timer_generation[key]
        self._timer_handles.pop(key, None)
        if self.crashed:
            return
        self._apply(self.core.on_timer(key, self.clock()))

    def _apply(self, effects: list[Effect]) -> None:
        """Execute the effects the hosted core returned."""
        if not effects:
            return
        now = self.clock()
        for effect in effects:
            if isinstance(effect, Send):
                self.router.send(effect.dest, effect.msg)
            elif isinstance(effect, Broadcast):
                excluded = set(effect.exclude)
                excluded.add(self.node_id)
                self.router.send_many(
                    (dest for dest in self.replica_ids
                     if dest not in excluded),
                    effect.msg)
            elif isinstance(effect, SetTimer):
                self._set_timer(effect.key, effect.delay)
            elif isinstance(effect, CancelTimer):
                self._cancel_timer(effect.key)
            elif isinstance(effect, Executed):
                self.metrics.record_execution(
                    self.node_id, effect.count, now)
            elif isinstance(effect, Trace):
                self.metrics.record_trace(effect.kind, effect.data, now)
            else:
                raise TypeError(f"unknown effect {effect!r}")

    def _set_timer(self, key: Hashable, delay: float) -> None:
        generation = self._timer_generation.get(key, 0) + 1
        self._timer_generation[key] = generation
        stale = self._timer_handles.pop(key, None)
        if stale is not None:
            stale.cancel()
        loop = asyncio.get_running_loop()
        self._timer_handles[key] = loop.call_later(
            delay, self._fire_timer, key, generation)

    def _cancel_timer(self, key: Hashable) -> None:
        self._timer_generation.pop(key, None)
        handle = self._timer_handles.pop(key, None)
        if handle is not None:
            handle.cancel()

    async def kill(self) -> None:
        """Crash-stop this node: no more timers, sockets torn down.

        Peers observe a closed connection and keep retrying their
        outbound links — exactly the failure surface a real crashed
        replica presents.
        """
        self.crashed = True
        for handle in self._timer_handles.values():
            handle.cancel()
        self._timer_handles.clear()
        self._timer_generation.clear()
        await self.router.close()

    async def shutdown(self) -> None:
        """Graceful teardown at the end of a run: a :meth:`kill`.

        The node is marked crashed first: the measurement window is
        frozen by the time shutdown runs, so late frames from still-open
        inbound connections must not keep executing (that would inflate
        the reported throughput past the window).
        """
        await self.kill()
