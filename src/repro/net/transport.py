"""Asyncio TCP transport: framing, fan-in, reconnecting outbound links.

Framing is the :mod:`repro.wire` codec's: a 4-byte big-endian length
prefix followed by the frame payload.  One :class:`Listener` per node
accepts any number of inbound connections and feeds decoded messages to a
handler; one :class:`PeerConnection` per (node, peer) pair owns the
outbound direction with a bounded write queue and automatic reconnect —
the connection fan-in/fan-out shape of a real BFT deployment, where every
replica dials every peer it sends to and a leader terminates n-1 inbound
vote streams.  Both directions are asyncio protocols, not streams: each
socket read is one dispatch pass over every complete frame it holds, and
each drain of a peer's queue hands its unshaped frames over in one write.

Receive buffer: every inbound connection on an event loop reads into one
reused buffer of ``RECV_BUFFER_BYTES`` and decodes frames in place from
it (decoded messages copy what they keep, so nothing aliases it).  A
plain ``asyncio.Protocol`` costs a fresh buffer of that size per read,
which the allocator serves with an mmap, page faults and a munmap — the
largest per-message cost of a small-frame stream.  Sharing is safe
because asyncio calls ``get_buffer``, ``recv_into`` and
``buffer_updated`` back to back on the loop thread, so no two reads
interleave; one buffer per loop rather than per connection keeps a
leader's n-1 inbound streams from each holding one.  Only a frame that
straddles reads is copied, once, into a buffer of its own that the
kernel then fills directly.

Backpressure: an outbound frame waits in its link's byte-bounded queue
until the drain loop writes it, then in the asyncio transport's write
buffer until the kernel accepts it, then in the kernel socket buffer
until the peer reads it.  The drain loop stops taking frames while the
transport buffer is above its high-water mark, so the kernel's pushback
reaches the queue.  ``queued_bytes`` counts the first two — every byte
the kernel has not accepted — and the queue bound applies to that sum:
when a peer is slow or dead further frames are dropped (and counted)
instead of growing without bound.  BFT protocols tolerate message loss
by design (timers and view-changes re-drive progress), so dropping at
the transport edge is the correct overload behaviour, mirroring what the
simulator's NIC backlog model charges as queueing delay.

Byte accounting records into :class:`repro.stats.NicStats` — the shared
per-message-class counters the simulator also keeps for its modelled
NICs — so live and simulated bandwidth breakdowns line up
column-for-column without the transport importing simulator machinery.
"""

from __future__ import annotations

import asyncio
import mmap
import random
import struct
import time
import weakref
from collections import deque
from typing import Callable

from repro.net.shaping import PARTITION_POLL, LinkShaper
from repro.stats import NicStats
from repro.wire import codec

#: Default cap on one outbound peer queue (bytes).
DEFAULT_MAX_QUEUE_BYTES = 32 * 1024 * 1024

#: Reconnect backoff bounds (seconds).
INITIAL_BACKOFF = 0.05
MAX_BACKOFF = 1.0

#: Assumed localhost link rate for backlog-seconds estimation (bits/s).
DEFAULT_LINK_BPS = 1e9

#: Most bytes of frames joined into one write.  One write per drain saves
#: more (a syscall each) than the join copies; the cap bounds that copy
#: when a backlog drains, and a frame that would overflow it starts the
#: next write.
WRITE_BATCH_BYTES = 1024 * 1024

#: Size of the receive buffer every inbound connection on one event loop
#: reads into: the read size asyncio's own socket transport uses.
RECV_BUFFER_BYTES = 256 * 1024

_PREFIX = struct.Struct("!I")  # the codec's LENGTH_PREFIX

_RECV_BUFFERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

MessageHandler = Callable[[int, object], None]


def _receive_buffer(loop: asyncio.AbstractEventLoop) -> memoryview:
    """The receive buffer shared by every inbound connection on ``loop``,
    mapped on first use.  An anonymous mapping, not a zero-filled
    bytearray: a page becomes resident only once a read reaches it, so
    a loop whose reads stay small keeps a small footprint."""
    buffer = _RECV_BUFFERS.get(loop)
    if buffer is None:
        buffer = _RECV_BUFFERS[loop] = memoryview(
            mmap.mmap(-1, RECV_BUFFER_BYTES))
    return buffer


class _InboundConnection(asyncio.BufferedProtocol):
    """One accepted connection: slices whole frames out of each read.

    Reads land in the loop's shared receive buffer and are decoded in
    place.  A frame that straddles reads gets a buffer of its own, sized
    from its length prefix: its received head is copied in once and the
    kernel writes the rest straight into it.  A cut length prefix is
    completed the same way in a buffer of the prefix's size.
    """

    def __init__(self, listener: Listener) -> None:
        self.listener = listener
        self.transport: asyncio.Transport | None = None
        loop = asyncio.get_running_loop()
        self.closed = loop.create_future()
        self._shared = _receive_buffer(loop)
        self._frame: memoryview | None = None  # straddling frame
        self._filled = 0  # bytes of it received so far

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.listener._connections.add(self)

    def connection_lost(self, exc) -> None:
        self.listener._connections.discard(self)
        self.closed.set_result(None)

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._frame is not None:
            return self._frame[self._filled:]
        return self._shared

    def buffer_updated(self, nbytes: int) -> None:
        frame = self._frame
        if frame is None:
            self._dispatch(self._shared, nbytes)
            return
        self._filled += nbytes
        if self._filled == len(frame):
            self._frame = None
            self._dispatch(frame, len(frame))

    def _dispatch(self, view: memoryview, end: int) -> None:
        """Decode and hand on every whole frame in ``view[:end]``; keep
        the trailing partial one for the next read."""
        listener = self.listener
        # Looked up per read, not held: tracing swaps both at runtime.
        decode = codec.decode_payload
        handler = listener.handler
        record = listener.stats.record_recv
        pos = 0
        while pos < end:
            size = codec.LENGTH_PREFIX
            if end - pos >= size:
                length = _PREFIX.unpack_from(view, pos)[0]
                if length > codec.MAX_FRAME_BYTES:
                    return self._garbled()
                size += length
            if pos + size > end:
                frame = memoryview(bytearray(size))
                frame[:end - pos] = view[pos:end]
                self._frame = frame
                self._filled = end - pos
                return
            try:
                sender, msg = decode(view[pos + codec.LENGTH_PREFIX:
                                          pos + size])
            except codec.CodecError:
                return self._garbled()
            pos += size
            record(msg.msg_class, size)
            try:
                handler(sender, msg)
            except Exception:
                # A core bug must not tear down the TCP connection (that
                # would silently drop the peer's queued frames); count it
                # and keep serving.
                listener.handler_errors += 1

    def _garbled(self) -> None:
        """Oversized or malformed frame: drop this connection only."""
        self.listener.decode_errors += 1
        self.transport.close()


class Listener:
    """Inbound side of one node: accepts peers, decodes, dispatches.

    Args:
        handler: called as ``handler(sender, msg)`` for every decoded
            frame, inline in the socket's read callback.
        stats: byte counters to record received frames into.
        host: bind address.
        port: bind port; 0 picks an ephemeral port (read :attr:`port`
            after :meth:`start`).
    """

    def __init__(self, handler: MessageHandler, stats: NicStats,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.handler = handler
        self.stats = stats
        self.host = host
        self.port = port
        self.decode_errors = 0
        self.handler_errors = 0
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_InboundConnection] = set()

    async def start(self) -> None:
        """Bind and start serving; resolves :attr:`port` if ephemeral."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _InboundConnection(self), self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting, close every accepted connection, await each.

        Returns once every accepted socket has really closed, so nothing
        is left for event-loop teardown and a listener restarted on the
        same port never races its predecessor's connections.
        """
        if self._server is not None:
            self._server.close()
        while self._connections:
            connections = list(self._connections)
            for connection in connections:
                connection.transport.close()
            await asyncio.gather(*(c.closed for c in connections))
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None


class _OutboundLink(asyncio.Protocol):
    """Write side of one outbound connection: flow control and loss.

    Nothing is ever received; the peer's EOF closes the transport.
    Resuming and losing the connection both wake the owning drain loop.
    """

    def __init__(self, wakeup: asyncio.Event) -> None:
        self.wakeup = wakeup
        self.transport: asyncio.Transport | None = None
        self.paused = False
        self.lost = False

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        self.lost = True
        self.wakeup.set()

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self.wakeup.set()


class PeerConnection:
    """Outbound link to one peer: reconnect loop + bounded write queue.

    Frames enqueue without blocking (the protocol core runs inline on the
    event loop and must never stall on one slow peer); a dedicated writer
    task drains the queue into the socket, waiting whenever the transport
    pushes back.  While the peer is unreachable the task retries with
    exponential backoff (jittered, so a cluster of reconnecting peers
    does not dial a restarted listener in lock-step) and the queue keeps
    absorbing frames up to ``max_queue_bytes``, beyond which new frames
    are dropped and counted.

    Each drain writes the run of queued frames at the head of the queue
    in one write.  When a :class:`~repro.net.shaping.LinkShaper` is
    attached it is consulted per frame: partitioned links hold their
    queue intact (frames flow again on heal), lost frames are discarded
    after dequeue, and a frame it delays ends the run and is written
    alone once its token-bucket and latency delay has passed.
    """

    def __init__(self, peer_id: int, host: str, port: int,
                 max_queue_bytes: int = DEFAULT_MAX_QUEUE_BYTES,
                 src_id: int | None = None,
                 shaper: LinkShaper | None = None) -> None:
        self.peer_id = peer_id
        self.host = host
        self.port = port
        self.max_queue_bytes = max_queue_bytes
        self.src_id = src_id
        self.shaper = shaper
        self.dropped_frames = 0
        self.sent_frames = 0
        self.connects = 0
        self.backoff_retries = 0
        self._queue: deque[tuple[bytes, float]] = deque()
        self._queued_bytes = 0
        self._link: _OutboundLink | None = None
        self._wakeup = asyncio.Event()
        self._closed = False
        self._task: asyncio.Task | None = None

    def start(self) -> None:
        """Spawn the writer/reconnect task."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    @property
    def queued_bytes(self) -> int:
        """Bytes the kernel has not accepted yet (backpressure signal).

        The write queue plus the connected transport's write buffer.
        """
        if self._link is None:
            return self._queued_bytes
        return (self._queued_bytes
                + self._link.transport.get_write_buffer_size())

    def send(self, frame: bytes) -> bool:
        """Enqueue one frame; False if closed or the queue is full."""
        if self._closed:
            return False
        if self.queued_bytes + len(frame) > self.max_queue_bytes:
            self.dropped_frames += 1
            return False
        if not self._queue:
            # Only an empty queue leaves the drain loop waiting on us;
            # behind a paused transport it waits for resume_writing.
            self._wakeup.set()
        self._queue.append((frame, time.monotonic()))
        self._queued_bytes += len(frame)
        return True

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        backoff = INITIAL_BACKOFF
        while not self._closed:
            try:
                _, link = await loop.create_connection(
                    lambda: _OutboundLink(self._wakeup), self.host, self.port)
            except OSError:
                self.backoff_retries += 1
                # Jitter de-synchronizes the reconnect herd after a
                # restarted peer comes back.
                await asyncio.sleep(backoff * (1.0 + 0.5 * random.random()))
                backoff = min(backoff * 2.0, MAX_BACKOFF)
                continue
            self.connects += 1
            backoff = INITIAL_BACKOFF
            self._link = link
            try:
                await self._drain_loop(link)
            finally:
                # A lost link's unsent bytes are lost in flight; the
                # queue is kept for the next link.
                self._link = None
                link.transport.close()

    async def _drain_loop(self, link: _OutboundLink) -> None:
        queue = self._queue
        transport = link.transport
        shaper = self.shaper if self.src_id is not None else None
        while not (self._closed or link.lost):
            if link.paused or not queue:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            if shaper is not None and shaper.blocked(self.src_id,
                                                     self.peer_id):
                # Partitioned: hold the queue intact and poll so a heal
                # resumes delivery within one poll interval.
                await asyncio.sleep(PARTITION_POLL)
                continue
            batch: list[bytes] = []
            size = 0
            delay: float | None = 0.0
            while queue:
                frame, enqueued_at = queue[0]
                if batch and size + len(frame) > WRITE_BATCH_BYTES:
                    break
                queue.popleft()
                self._queued_bytes -= len(frame)
                if shaper is not None:
                    delay = shaper.frame_delay(
                        self.src_id, self.peer_id, len(frame),
                        enqueued_at, time.monotonic())
                    if delay is None:
                        continue  # shaped loss: frame vanishes in transit
                    if delay > 0:
                        break  # written alone once its delay has passed
                batch.append(frame)
                size += len(frame)
            if batch:
                transport.writelines(batch)
                self.sent_frames += len(batch)
            if delay:
                await asyncio.sleep(delay)
                if self._closed:
                    return
                transport.write(frame)
                self.sent_frames += 1

    async def close(self) -> None:
        """Stop the writer task and drop any queued frames."""
        self._closed = True
        self._wakeup.set()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        self._queue.clear()
        self._queued_bytes = 0


class Router:
    """One node's transport endpoint: listener + lazy outbound links.

    Args:
        node_id: this node's id (stamped into every outgoing frame).
        address_book: shared ``node_id -> (host, port)`` map.  The
            cluster bootstrapper fills it as listeners bind; lookups
            happen lazily at first send, so boot order does not matter.
        host: bind address for the listener.
        port: bind port (0 = ephemeral).
        link_bps: assumed link rate used to express the outbound backlog
            in seconds (the protocol cores' ``backlog_probe`` pacing
            contract, same unit as the simulator's NIC backlog).
        max_queue_bytes: per-peer write-queue bound.
        shaper: optional cluster-wide link shaper consulted by every
            outbound link's drain loop (chaos scenarios, WAN emulation).
    """

    def __init__(self, node_id: int,
                 address_book: dict[int, tuple[str, int]],
                 host: str = "127.0.0.1", port: int = 0,
                 link_bps: float = DEFAULT_LINK_BPS,
                 max_queue_bytes: int = DEFAULT_MAX_QUEUE_BYTES,
                 shaper: LinkShaper | None = None) -> None:
        self.node_id = node_id
        self.address_book = address_book
        self.host = host
        self.link_bps = link_bps
        self.max_queue_bytes = max_queue_bytes
        self.shaper = shaper
        self.stats = NicStats()
        self.unroutable_frames = 0
        self.listener: Listener | None = None
        self._requested_port = port
        self._peers: dict[int, PeerConnection] = {}
        self._closed = False

    async def start(self, handler: MessageHandler) -> None:
        """Bind the listener and publish this node's address."""
        self.listener = Listener(handler, self.stats, self.host,
                                 self._requested_port)
        await self.listener.start()
        self.address_book[self.node_id] = (self.host, self.listener.port)

    def _peer_for(self, dest: int) -> PeerConnection | None:
        """The outbound link to ``dest``, dialing lazily; None if unknown."""
        peer = self._peers.get(dest)
        if peer is None:
            address = self.address_book.get(dest)
            if address is None:
                self.unroutable_frames += 1
                return None
            peer = PeerConnection(dest, address[0], address[1],
                                  self.max_queue_bytes,
                                  src_id=self.node_id, shaper=self.shaper)
            peer.start()
            self._peers[dest] = peer
        return peer

    def send(self, dest: int, msg) -> bool:
        """Encode and enqueue ``msg`` for ``dest``; False if dropped."""
        if self._closed:
            return False
        peer = self._peer_for(dest)
        if peer is None:
            return False
        frame = codec.encode(self.node_id, msg)
        accepted = peer.send(frame)
        if accepted:
            self.stats.record_send(msg.msg_class, len(frame))
        return accepted

    def send_many(self, dests, msg) -> int:
        """Fan ``msg`` out to every id in ``dests``, encoding once.

        A broadcast sends the identical frame to n-1 peers; encoding it
        per destination made fan-out cost scale the serialization work
        with n for no reason, and it is accounted once, for every copy
        accepted.  Returns the number of accepted sends.
        """
        if self._closed:
            return 0
        frame: bytes | None = None
        accepted = 0
        for dest in dests:
            peer = self._peer_for(dest)
            if peer is None:
                continue
            if frame is None:
                frame = codec.encode(self.node_id, msg)
            if peer.send(frame):
                accepted += 1
        if accepted:
            self.stats.record_send_many(msg.msg_class, len(frame), accepted)
        return accepted

    def backlog_seconds(self) -> float:
        """Seconds of egress work queued across all peers at link rate."""
        return self.queued_bytes() * 8.0 / self.link_bps

    def queued_bytes(self) -> int:
        """Bytes the kernel has not accepted, across all outbound links.

        The live analogue of the simulator's event-queue depth for the
        telemetry sampler: it is the user-space backlog that builds up
        when a peer stalls, so the timeseries ``queue_depth`` column
        tracks it.
        """
        return sum(peer.queued_bytes for peer in self._peers.values())

    def dropped_frames(self) -> int:
        """Frames dropped by full peer queues (overload indicator)."""
        return sum(peer.dropped_frames for peer in self._peers.values())

    def reconnects(self) -> int:
        """Successful (re)connects beyond each link's first, summed."""
        return sum(max(0, peer.connects - 1)
                   for peer in self._peers.values())

    def backoff_retries(self) -> int:
        """Failed dial attempts across all outbound links."""
        return sum(peer.backoff_retries for peer in self._peers.values())

    async def close(self) -> None:
        """Close the listener and every outbound link."""
        self._closed = True
        if self.listener is not None:
            await self.listener.close()
        peers = list(self._peers.values())
        self._peers.clear()
        for peer in peers:
            await peer.close()
