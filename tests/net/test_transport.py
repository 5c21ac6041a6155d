"""Transport-layer tests: framing over real sockets, reconnect, drops."""

from __future__ import annotations

import asyncio
import fcntl
import socket
import struct
import termios

from hypothesis import given, settings, strategies as st

from repro.messages.client import RequestBundle
from repro.messages.leopard import Ready
from repro.net import transport as transport_mod
from repro.net.shaping import LinkPolicy, LinkShaper
from repro.net.transport import Listener, PeerConnection, Router
from repro.sim.network import NicStats
from repro.wire import codec
from tests.wire.test_codec_roundtrip import CORPUS

DIGEST = bytes(range(32))
DIGEST2 = bytes(range(32, 64))


def run(coro):
    return asyncio.run(coro)


async def until(predicate, timeout: float = 3.0) -> None:
    """Poll ``predicate`` every 10 ms; fail after ``timeout`` seconds."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.01)


class _Transport:
    """Stands in for an accepted socket's transport; records close()."""

    def __init__(self) -> None:
        self.closing = False

    def close(self) -> None:
        self.closing = True


def receiver(listener: Listener):
    """A receive-side connection of ``listener`` whose socket reads are
    fed by hand (``data_received``), so piece boundaries are exact.
    Needs a running event loop."""
    connection = transport_mod._InboundConnection(listener)
    connection.connection_made(_Transport())
    return connection


class TestListenerFraming:
    def test_frame_split_across_writes_reassembles(self):
        """TCP is a byte stream: frames must survive arbitrary chunking."""
        async def scenario():
            received = []
            listener = Listener(
                lambda sender, msg: received.append((sender, msg)),
                NicStats())
            await listener.start()
            frame = codec.encode(7, Ready(DIGEST))
            _, writer = await asyncio.open_connection(
                "127.0.0.1", listener.port)
            for i in range(len(frame)):  # one byte at a time
                writer.write(frame[i:i + 1])
                await writer.drain()
            await asyncio.sleep(0.05)
            writer.close()
            await listener.close()
            return received

        received = run(scenario())
        assert received == [(7, Ready(DIGEST))]

    def test_back_to_back_frames_in_one_write(self):
        async def scenario():
            received = []
            listener = Listener(
                lambda sender, msg: received.append(msg), NicStats())
            await listener.start()
            frames = b"".join(
                codec.encode(1, Ready(bytes([i]) * 32)) for i in range(5))
            _, writer = await asyncio.open_connection(
                "127.0.0.1", listener.port)
            writer.write(frames)
            await writer.drain()
            await asyncio.sleep(0.05)
            writer.close()
            await listener.close()
            return received

        received = run(scenario())
        assert [msg.block_digest[0] for msg in received] == [0, 1, 2, 3, 4]

    def test_garbage_frame_counted_and_connection_dropped(self):
        async def scenario():
            listener = Listener(lambda *a: None, NicStats())
            await listener.start()
            _, writer = await asyncio.open_connection(
                "127.0.0.1", listener.port)
            # Valid length prefix, unknown type tag 255.
            writer.write((6).to_bytes(4, "big") + bytes([255]) + bytes(5))
            await writer.drain()
            await asyncio.sleep(0.05)
            writer.close()
            errors = listener.decode_errors
            await listener.close()
            return errors

        assert run(scenario()) == 1

    def test_byte_accounting_matches_wire_size(self):
        async def scenario():
            stats = NicStats()
            listener = Listener(lambda *a: None, stats)
            await listener.start()
            msg = Ready(DIGEST)
            _, writer = await asyncio.open_connection(
                "127.0.0.1", listener.port)
            writer.write(codec.encode(0, msg))
            await writer.drain()
            await asyncio.sleep(0.05)
            writer.close()
            await listener.close()
            return stats

        stats = run(scenario())
        assert stats.recv_bytes == {"ready": Ready(DIGEST).size_bytes()}
        assert stats.recv_msgs == {"ready": 1}


class TestPeerConnection:
    def test_queued_frames_flush_once_peer_appears(self):
        """Reconnect loop: sends before the peer listens are not lost."""
        async def scenario():
            received = []
            listener = Listener(
                lambda sender, msg: received.append(msg), NicStats())
            # Reserve a port, then close it so the peer starts dialling
            # a dead address.
            await listener.start()
            port = listener.port
            await listener.close()

            peer = PeerConnection(1, "127.0.0.1", port)
            peer.start()
            assert peer.send(codec.encode(0, Ready(DIGEST)))
            await asyncio.sleep(0.15)  # a few failed dials
            listener.port = port
            await listener.start()
            await asyncio.sleep(0.5)
            await peer.close()
            await listener.close()
            return received

        received = run(scenario())
        assert received == [Ready(DIGEST)]

    def test_full_queue_drops_and_counts(self):
        async def scenario():
            frame = codec.encode(0, Ready(DIGEST))
            peer = PeerConnection(1, "127.0.0.1", 1, len(frame) * 2)
            peer.start()  # port 1: nothing listens; queue only fills
            results = [peer.send(frame) for _ in range(5)]
            dropped = peer.dropped_frames
            queued = peer.queued_bytes
            await peer.close()
            return results, dropped, queued

        results, dropped, queued = run(scenario())
        assert results == [True, True, False, False, False]
        assert dropped == 3
        assert queued == 2 * Ready(DIGEST).size_bytes()

    def test_close_rejects_further_sends(self):
        async def scenario():
            peer = PeerConnection(1, "127.0.0.1", 1)
            peer.start()
            await peer.close()
            return peer.send(b"x")

        assert run(scenario()) is False


class TestRouter:
    def test_bidirectional_send_with_stats(self):
        async def scenario():
            book: dict[int, tuple[str, int]] = {}
            inbox_a, inbox_b = [], []
            router_a = Router(0, book)
            router_b = Router(1, book)
            await router_a.start(lambda s, m: inbox_a.append((s, m)))
            await router_b.start(lambda s, m: inbox_b.append((s, m)))
            router_a.send(1, Ready(DIGEST))
            router_b.send(0, Ready(DIGEST))
            await asyncio.sleep(0.2)
            await router_a.close()
            await router_b.close()
            return inbox_a, inbox_b, router_a.stats

        inbox_a, inbox_b, stats_a = run(scenario())
        assert inbox_b == [(0, Ready(DIGEST))]
        assert inbox_a == [(1, Ready(DIGEST))]
        assert stats_a.sent_bytes == {"ready": Ready(DIGEST).size_bytes()}
        assert stats_a.recv_bytes == {"ready": Ready(DIGEST).size_bytes()}

    def test_unknown_destination_counted_not_crashing(self):
        async def scenario():
            router = Router(0, {})
            await router.start(lambda *a: None)
            ok = router.send(99, Ready(DIGEST))
            count = router.unroutable_frames
            await router.close()
            return ok, count

        ok, count = run(scenario())
        assert ok is False
        assert count == 1

    def test_backlog_seconds_reflects_queued_bytes(self):
        async def scenario():
            book = {1: ("127.0.0.1", 1)}  # dead port: frames queue
            router = Router(0, book, link_bps=8.0)  # 1 byte/second
            await router.start(lambda *a: None)
            router.send(1, Ready(DIGEST))
            backlog = router.backlog_seconds()
            await router.close()
            return backlog

        # 96 wire bytes at 1 byte/s == 96 seconds of backlog.
        assert run(scenario()) == Ready(DIGEST).size_bytes()


class TestHandlerFailures:
    def test_handler_exception_keeps_connection_alive(self):
        """A crashing handler must not drop the peer's queued frames."""
        async def scenario():
            received = []

            def handler(sender, msg):
                if not received:
                    received.append("boom")
                    raise RuntimeError("core bug")
                received.append(msg)

            listener = Listener(handler, NicStats())
            await listener.start()
            _, writer = await asyncio.open_connection(
                "127.0.0.1", listener.port)
            writer.write(codec.encode(0, Ready(DIGEST)))
            writer.write(codec.encode(0, Ready(DIGEST2)))
            await writer.drain()
            await asyncio.sleep(0.1)
            writer.close()
            errors = listener.handler_errors
            await listener.close()
            return received, errors

        received, errors = run(scenario())
        assert errors == 1
        assert received == ["boom", Ready(DIGEST2)]


class TestOverloadRecovery:
    """Satellite (d): transport behaviour under overload and after it."""

    def test_full_queue_drops_then_recovers_when_peer_appears(self):
        async def scenario():
            received = []
            listener = Listener(
                lambda sender, msg: received.append(msg), NicStats())
            await listener.start()
            port = listener.port
            await listener.close()  # peer dials a dead port first

            frame = codec.encode(0, Ready(DIGEST))
            peer = PeerConnection(1, "127.0.0.1", port, len(frame) * 2)
            peer.start()
            assert peer.send(frame) and peer.send(frame)
            assert not peer.send(frame)  # overloaded: dropped + counted
            dropped_during = peer.dropped_frames

            listener.port = port
            await listener.start()
            await asyncio.sleep(0.6)  # backoff dial succeeds, queue drains
            accepted_after = peer.send(frame)
            await asyncio.sleep(0.3)
            await peer.close()
            await listener.close()
            return (dropped_during, accepted_after, len(received),
                    peer.dropped_frames)

        dropped_during, accepted_after, delivered, dropped_final = \
            run(scenario())
        assert dropped_during == 1
        assert accepted_after is True  # queue freed: overload was transient
        assert delivered == 3          # both survivors + the post-recovery one
        assert dropped_final == dropped_during

    def test_reconnect_after_listener_restart_delivers_queued_frames(self):
        """A restarted peer is re-dialled with backoff; frames queued
        while it was down arrive after the reconnect."""
        async def scenario():
            received = []

            def handler(sender, msg):
                received.append(msg)

            listener = Listener(handler, NicStats())
            await listener.start()
            port = listener.port

            peer = PeerConnection(1, "127.0.0.1", port)
            peer.start()
            peer.send(codec.encode(0, Ready(DIGEST)))
            await asyncio.sleep(0.2)  # delivered on the first connection
            await listener.close()

            # In-flight loss is real TCP: a write lands in the kernel
            # buffer and only a *later* write observes the reset, so keep
            # probing with sacrificial frames until the writer discovers
            # the dead connection and re-enters the dial loop
            # (observable via backoff_retries).
            deadline = asyncio.get_running_loop().time() + 5.0
            while peer.backoff_retries == 0:
                assert asyncio.get_running_loop().time() < deadline
                peer.send(codec.encode(0, Ready(DIGEST)))
                await asyncio.sleep(0.05)

            queued_frame = codec.encode(0, Ready(DIGEST2))
            assert peer.send(queued_frame)  # queued while peer is down

            restarted = Listener(handler, NicStats(), port=port)
            await restarted.start()
            await asyncio.sleep(0.8)
            stats = (peer.connects, peer.backoff_retries, list(received))
            await peer.close()
            await restarted.close()
            return stats

        connects, retries, received = run(scenario())
        assert connects == 2       # original + one reconnect
        assert retries >= 1        # counted for the report
        assert received[0] == Ready(DIGEST)
        assert received[-1] == Ready(DIGEST2)  # queued frame survived

    def test_garbling_peer_dropped_without_disturbing_clean_peer(self):
        async def scenario():
            received = []
            listener = Listener(
                lambda sender, msg: received.append(msg), NicStats())
            await listener.start()

            _, garbler = await asyncio.open_connection(
                "127.0.0.1", listener.port)
            _, clean = await asyncio.open_connection(
                "127.0.0.1", listener.port)
            garbler.write((6).to_bytes(4, "big") + bytes([255]) + bytes(5))
            await garbler.drain()
            clean.write(codec.encode(3, Ready(DIGEST)))
            await clean.drain()
            await asyncio.sleep(0.1)
            # The garbling connection is dead; the clean one still works.
            clean.write(codec.encode(3, Ready(DIGEST2)))
            await clean.drain()
            await asyncio.sleep(0.1)
            errors = listener.decode_errors
            clean.close()
            garbler.close()
            await listener.close()
            return errors, received

        errors, received = run(scenario())
        assert errors == 1
        assert received == [Ready(DIGEST), Ready(DIGEST2)]


class TestSendMany:
    def test_broadcast_fanout_encodes_frame_once(self, monkeypatch):
        """Satellite (b): send_many serializes the message exactly once."""
        from repro.net import transport as transport_mod

        calls = {"count": 0}
        real_encode = codec.encode

        def counting_encode(sender, msg):
            calls["count"] += 1
            return real_encode(sender, msg)

        async def scenario():
            book: dict[int, tuple[str, int]] = {}
            inboxes = {1: [], 2: [], 3: []}
            routers = {}
            sender = Router(0, book)
            await sender.start(lambda *a: None)
            for dest in (1, 2, 3):
                routers[dest] = Router(dest, book)
                await routers[dest].start(
                    lambda s, m, d=dest: inboxes[d].append(m))
            monkeypatch.setattr(transport_mod.codec, "encode",
                                counting_encode)
            accepted = sender.send_many((1, 2, 3), Ready(DIGEST))
            await asyncio.sleep(0.3)
            monkeypatch.undo()
            for router in (sender, *routers.values()):
                await router.close()
            return accepted, inboxes

        accepted, inboxes = run(scenario())
        assert accepted == 3
        assert calls["count"] == 1
        assert all(inboxes[d] == [Ready(DIGEST)] for d in (1, 2, 3))

    def test_send_many_skips_unroutable_without_encoding(self, monkeypatch):
        from repro.net import transport as transport_mod

        calls = {"count": 0}

        def failing_encode(sender, msg):
            calls["count"] += 1
            raise AssertionError("must not encode for unroutable fan-out")

        async def scenario():
            router = Router(0, {})
            await router.start(lambda *a: None)
            monkeypatch.setattr(transport_mod.codec, "encode",
                                failing_encode)
            accepted = router.send_many((7, 8), Ready(DIGEST))
            monkeypatch.undo()
            unroutable = router.unroutable_frames
            await router.close()
            return accepted, unroutable

        accepted, unroutable = run(scenario())
        assert accepted == 0
        assert unroutable == 2
        assert calls["count"] == 0


class TestShapedLinks:
    """The shaper hooks inside the drain loop (partition hold, loss)."""

    def test_partitioned_link_holds_queue_until_heal(self):
        from repro.net.shaping import LinkShaper

        async def scenario():
            received = []
            listener = Listener(
                lambda sender, msg: received.append(msg), NicStats())
            await listener.start()
            shaper = LinkShaper()
            shaper.set_partition([frozenset({0}), frozenset({1})])
            peer = PeerConnection(1, "127.0.0.1", listener.port,
                                  src_id=0, shaper=shaper)
            peer.start()
            peer.send(codec.encode(0, Ready(DIGEST)))
            await asyncio.sleep(0.2)
            held = (len(received), peer.queued_bytes)
            shaper.heal()
            await asyncio.sleep(0.2)
            await peer.close()
            await listener.close()
            return held, received

        (held_count, held_bytes), received = run(scenario())
        assert held_count == 0
        assert held_bytes > 0  # frame stayed queued, not dropped
        assert received == [Ready(DIGEST)]

    def test_lossy_link_discards_frames_after_dequeue(self):
        from repro.net.shaping import LinkPolicy, LinkShaper

        async def scenario():
            received = []
            listener = Listener(
                lambda sender, msg: received.append(msg), NicStats())
            await listener.start()
            shaper = LinkShaper()
            shaper.set_policy(0, 1, LinkPolicy(loss=1.0))
            peer = PeerConnection(1, "127.0.0.1", listener.port,
                                  src_id=0, shaper=shaper)
            peer.start()
            for _ in range(3):
                peer.send(codec.encode(0, Ready(DIGEST)))
            await asyncio.sleep(0.2)
            stats = (len(received), peer.sent_frames,
                     shaper.frames_lost, peer.queued_bytes)
            await peer.close()
            await listener.close()
            return stats

        delivered, sent, lost, queued = run(scenario())
        assert delivered == 0
        assert sent == 0
        assert lost == 3
        assert queued == 0  # lost frames do not rot in the queue


class TestReceiver:
    """One dispatch pass per socket read, whatever the read boundaries."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_frames_cut_at_any_boundaries_decode_in_order(self, data):
        msgs = data.draw(st.lists(st.sampled_from(CORPUS), min_size=1,
                                  max_size=6))
        frames = [codec.encode(i, msg) for i, msg in enumerate(msgs)]
        stream = b"".join(frames)
        cuts = data.draw(st.one_of(
            st.just(range(1, len(stream))),        # 1-byte pieces
            st.just(()),                           # one piece holds all
            st.sets(st.integers(1, len(stream) - 1), max_size=20)))
        bounds = [0, *sorted(cuts), len(stream)]
        pieces = [stream[a:b] for a, b in zip(bounds, bounds[1:])]

        async def scenario():
            received = []
            stats = NicStats()
            connection = receiver(Listener(
                lambda sender, msg: received.append((sender, msg)), stats))
            for piece in pieces:
                connection.data_received(piece)
            return received, stats, connection

        received, stats, connection = run(scenario())
        assert received == list(enumerate(msgs))
        expected = NicStats()
        for msg, frame in zip(msgs, frames):
            expected.record_recv(msg.msg_class, len(frame))
        assert stats.recv_bytes == expected.recv_bytes
        assert stats.recv_msgs == expected.recv_msgs
        assert not connection._parts  # nothing left over

    def test_garbled_frame_mid_piece_drops_only_its_connection(self):
        garbage = (6).to_bytes(4, "big") + bytes([255]) + bytes(5)

        async def scenario():
            received = []
            listener = Listener(
                lambda sender, msg: received.append(msg), NicStats())
            garbler, clean = receiver(listener), receiver(listener)
            garbler.data_received(
                codec.encode(1, Ready(DIGEST)) + codec.encode(1, Ready(DIGEST2))
                + garbage + codec.encode(1, Ready(bytes(32))))
            clean.data_received(codec.encode(2, Ready(DIGEST2)))
            return received, listener, garbler, clean

        received, listener, garbler, clean = run(scenario())
        assert received == [Ready(DIGEST), Ready(DIGEST2), Ready(DIGEST2)]
        assert listener.decode_errors == 1
        assert garbler.transport.closing
        assert not clean.transport.closing

    def test_oversize_length_prefix_closes_connection(self):
        async def scenario():
            received = []
            listener = Listener(
                lambda sender, msg: received.append(msg), NicStats())
            connection = receiver(listener)
            connection.data_received(
                codec.encode(1, Ready(DIGEST))
                + (codec.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            return received, listener.decode_errors, connection

        received, errors, connection = run(scenario())
        assert received == [Ready(DIGEST)]
        assert errors == 1
        assert connection.transport.closing


class TestCoalescedSends:
    def test_frames_queued_in_one_tick_arrive_in_order(self, monkeypatch):
        """One drain writes the whole run; sent_frames still counts frames."""
        writes = []
        made = transport_mod._OutboundLink.connection_made

        def counting(self, transport):
            write = transport.write
            transport.write = lambda data: (writes.append(len(data)),
                                            write(data))
            made(self, transport)

        monkeypatch.setattr(transport_mod._OutboundLink, "connection_made",
                            counting)
        digests = [bytes([i]) * 32 for i in range(50)]

        async def scenario():
            received = []
            listener = Listener(
                lambda sender, msg: received.append(msg.block_digest),
                NicStats())
            await listener.start()
            peer = PeerConnection(1, "127.0.0.1", listener.port)
            peer.start()
            for digest in digests:
                assert peer.send(codec.encode(0, Ready(digest)))
            await until(lambda: len(received) == len(digests))
            sent = peer.sent_frames
            await peer.close()
            await listener.close()
            return received, sent

        received, sent = run(scenario())
        assert received == digests
        assert sent == len(digests)
        assert len(writes) < len(digests)
        assert sum(writes) == len(digests) * Ready(DIGEST).size_bytes()

    def test_latency_shaped_link_delays_while_sibling_flows(self):
        """Each frame on the shaped link waits out its own latency, from
        its own enqueue; the unshaped link from the same router does not
        wait for it."""
        async def scenario():
            loop = asyncio.get_running_loop()
            book: dict[int, tuple[str, int]] = {}
            arrivals = {1: [], 2: []}
            shaper = LinkShaper()
            shaper.set_policy(0, 1, LinkPolicy(latency=0.3))
            sender = Router(0, book, shaper=shaper)
            await sender.start(lambda *a: None)
            routers = [sender]
            for dest in (1, 2):
                router = Router(dest, book)
                await router.start(
                    lambda s, m, d=dest: arrivals[d].append(
                        (m.block_digest[0], loop.time())))
                routers.append(router)
            sent_at = []
            for i in range(3):
                sent_at.append(loop.time())
                sender.send(1, Ready(bytes([i]) * 32))
                sender.send(2, Ready(bytes([i]) * 32))
                await asyncio.sleep(0.1)
            await until(lambda: len(arrivals[1]) == 3)
            for router in routers:
                await router.close()
            return sent_at, arrivals, shaper

        sent_at, arrivals, shaper = run(scenario())
        assert [i for i, _ in arrivals[1]] == [0, 1, 2]
        assert [i for i, _ in arrivals[2]] == [0, 1, 2]
        assert all(at - sent_at[i] >= 0.3 for i, at in arrivals[1])
        assert all(at - sent_at[i] < 0.3 for i, at in arrivals[2])
        assert shaper.frames_shaped == 3  # consulted per frame, link 1 only


class TestQueueBound:
    def test_never_reading_peer_fills_bound_then_delivers_in_order(self):
        """A peer that accepts but never reads: the bound and the backlog
        probe count every byte the kernel has not taken, wherever it
        waits, and every accepted frame arrives in order once it reads."""
        bound = 2 * 1024 * 1024

        def kernel_bytes(sock, request) -> int:
            return struct.unpack(
                "i", fcntl.ioctl(sock.fileno(), request, bytes(4)))[0]

        async def scenario():
            loop = asyncio.get_running_loop()
            server = socket.socket()
            server.bind(("127.0.0.1", 0))
            server.listen()
            server.setblocking(False)
            router = Router(0, {1: server.getsockname()},
                            max_queue_bytes=bound)
            accepted, sent_bytes = [], 0
            for bundle_id in range(1000):
                msg = RequestBundle(0, bundle_id, 500, 128, 0.0)
                if router.send(1, msg):
                    accepted.append(bundle_id)
                    sent_bytes += msg.size_bytes()
                elif router.dropped_frames() == 2:
                    break  # the bound held twice: the peer is stuck
                if bundle_id == 0:
                    connection, _ = await loop.sock_accept(server)
                await asyncio.sleep(0.002)  # let the writer fill the kernel
            queued, backlog = router.queued_bytes(), router.backlog_seconds()
            dropped = router.dropped_frames()
            link = router._peers[1]._link.transport.get_extra_info("socket")
            in_kernel = (kernel_bytes(link, termios.TIOCOUTQ)
                         + kernel_bytes(connection, termios.FIONREAD))

            stream = bytearray()
            while len(stream) < sent_bytes:
                chunk = await asyncio.wait_for(
                    loop.sock_recv(connection, 1 << 20), 5.0)
                assert chunk, "connection closed early"
                stream += chunk
            drained = router.queued_bytes()
            await router.close()
            connection.close()
            server.close()
            return (accepted, sent_bytes, queued, backlog, dropped,
                    in_kernel, drained, stream, router.link_bps)

        (accepted, sent_bytes, queued, backlog, dropped, in_kernel, drained,
         stream, link_bps) = run(scenario())
        frame = RequestBundle(0, 0, 500, 128, 0.0).size_bytes()
        assert in_kernel > 0
        assert queued + in_kernel == sent_bytes  # nothing unaccounted
        assert queued > bound - frame
        assert backlog == queued * 8.0 / link_bps
        assert dropped == 2
        assert drained == 0
        ids, pos = [], 0
        while pos < len(stream):
            end = pos + codec.LENGTH_PREFIX + int.from_bytes(
                stream[pos:pos + codec.LENGTH_PREFIX], "big")
            ids.append(codec.decode(bytes(stream[pos:end]))[1].bundle_id)
            pos = end
        assert ids == accepted


class TestTracingHooks:
    def test_hooks_swapped_after_connect_see_the_next_frame(
            self, monkeypatch):
        """The ledger's traced pass swaps ``listener.handler`` on the
        instance and ``codec.encode`` / ``decode_payload`` on the module
        once the cluster is up; the transport must not hold the originals."""
        async def scenario():
            book: dict[int, tuple[str, int]] = {}
            inbox, seen = [], []
            sender, dest = Router(0, book), Router(1, book)
            await sender.start(lambda *a: None)
            await dest.start(lambda s, m: inbox.append(m))
            sender.send(1, Ready(DIGEST))
            await until(lambda: inbox)  # the connection is up

            encode, decode = codec.encode, codec.decode_payload
            handler = dest.listener.handler
            monkeypatch.setattr(codec, "encode", lambda s, m: (
                seen.append("encode"), encode(s, m))[1])
            monkeypatch.setattr(codec, "decode_payload", lambda p: (
                seen.append("decode"), decode(p))[1])
            dest.listener.handler = lambda s, m: (
                seen.append("handler"), handler(s, m))
            sender.send(1, Ready(DIGEST2))
            await until(lambda: len(inbox) == 2)
            monkeypatch.undo()
            await sender.close()
            await dest.close()
            return inbox, seen

        inbox, seen = run(scenario())
        assert inbox == [Ready(DIGEST), Ready(DIGEST2)]
        assert seen == ["encode", "decode", "handler"]
