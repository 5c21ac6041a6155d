"""Tracer unit tests: ring buffer, message identity, the core wrapper."""

from __future__ import annotations

import pytest

from repro.interfaces import (
    Broadcast,
    Executed,
    Send,
    SetTimer,
    Trace,
)
from repro.messages.client import Ack, RequestBundle
from repro.messages.leopard import (
    BFTblock,
    BundleSpan,
    Datablock,
    Proof,
    Ready,
    Vote,
)
from repro.obs.tracer import (
    NULL_TRACER,
    RingTracer,
    TracedCore,
    merge_trace_parts,
    trace_data,
    trace_key,
)


class TestRingTracer:
    def test_records_in_order(self):
        tracer = RingTracer(capacity=8)
        for i in range(5):
            tracer.record(float(i), 0, "recv", "client", ("req", 4, i), None)
        assert len(tracer) == 5
        assert [e["t"] for e in tracer.events()] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert tracer.dropped == 0

    def test_ring_overwrites_oldest(self):
        tracer = RingTracer(capacity=3)
        for i in range(5):
            tracer.record(float(i), 0, "recv", "client", None, None)
        assert len(tracer) == 3
        assert [e["t"] for e in tracer.events()] == [2.0, 3.0, 4.0]
        assert tracer.dropped == 2

    def test_jsonable_converts_tuple_keys(self):
        tracer = RingTracer()
        tracer.record(0.5, 1, "send", "datablock", ("db", 1, 0),
                      {"digest": "abc"})
        dump = tracer.to_jsonable()
        assert dump["events"][0]["key"] == ["db", 1, 0]
        assert dump["dropped"] == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingTracer(capacity=0)

    def test_sample_keeps_every_kth_request(self):
        tracer = RingTracer(capacity=64, sample=3)
        for bundle in range(7):
            tracer.record(float(bundle), 0, "recv", "client",
                          ("req", 4, bundle), None)
        kept = [e["key"][2] for e in tracer.events()]
        assert kept == [0, 3, 6]  # bundle % 3 == 0

    def test_sample_keeps_aggregate_events(self):
        tracer = RingTracer(capacity=64, sample=10)
        tracer.record(0.0, 0, "recv", "client", ("req", 4, 7), None)
        tracer.record(0.1, 0, "send", "datablock", ("db", 1, 3), None)
        tracer.record(0.2, 0, "exec", "exec", None, {"count": 5})
        kinds = [e["kind"] for e in tracer.events()]
        assert kinds == ["send", "exec"]  # only the req event sampled out
        assert tracer.to_jsonable()["sample"] == 10

    def test_rejects_bad_sample(self):
        with pytest.raises(ValueError):
            RingTracer(sample=0)

    def test_null_tracer_is_disabled_noop(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.record(0.0, 0, "recv", "client", None, None)


class TestTraceIdentity:
    def test_client_and_ack_share_a_key(self):
        bundle = RequestBundle(4, 7, 100, 128, 0.0)
        ack = Ack(4, 7, 100, 0.0, 0.1)
        assert trace_key(bundle) == ("req", 4, 7)
        assert trace_key(bundle) == trace_key(ack)

    def test_datablock_key_and_data(self):
        block = Datablock(1, 3, 100, 128,
                          spans=(BundleSpan(4, 7, 100, 0.0),))
        assert trace_key(block) == ("db", 1, 3)
        data = trace_data(block)
        assert data["spans"] == [[4, 7]]
        assert data["digest"] == block.digest().hex()[:12]

    def test_ready_keys_on_datablock_digest(self):
        block = Datablock(1, 3, 100, 128)
        ready = Ready(block.digest())
        assert trace_key(ready) == ("dbh", block.digest().hex()[:12])

    def test_bftblock_key_and_links(self):
        block = Datablock(1, 3, 100, 128)
        bft = BFTblock(view=0, sn=5, links=(block.digest(),))
        assert trace_key(bft) == ("bft", 0, 5)
        assert trace_data(bft) == {"links": [block.digest().hex()[:12]]}

    def test_leopard_vote_and_proof_key_on_digest(self):
        block = Datablock(1, 3, 100, 128)
        vote = Vote(1, block.digest(), b"", None)
        proof = Proof(1, block.digest(), b"", None)
        assert trace_key(vote) == ("dbh", block.digest().hex()[:12])
        assert trace_key(proof) == ("prf", 1, block.digest().hex()[:12])

    def test_unknown_message_has_no_key(self):
        assert trace_key(object()) is None
        assert trace_data(object()) is None


class _ScriptedCore:
    """Minimal sans-io core returning a fixed effect list."""

    def __init__(self, node_id: int, effects) -> None:
        self.node_id = node_id
        self.effects = effects
        self.backlog_probe = None

    def start(self, now):
        return [SetTimer("t", 1.0)]

    def on_message(self, sender, msg, now):
        return list(self.effects)

    def on_timer(self, key, now):
        return []


class TestTracedCore:
    def test_stamps_recv_and_effects(self):
        block = Datablock(1, 0, 100, 128,
                          spans=(BundleSpan(4, 7, 100, 0.0),))
        effects = [
            Broadcast(block),
            Send(4, Ack(4, 7, 100, 0.0, 0.1)),
            Executed(100, info=(5,)),
            Trace("note", {"detail": 1}),
        ]
        tracer = RingTracer()
        core = TracedCore(_ScriptedCore(1, effects), tracer)
        returned = core.on_message(
            4, RequestBundle(4, 7, 100, 128, 0.0), 2.0)
        assert returned == effects  # effects pass through unmodified
        kinds = [(e["kind"], e["cls"]) for e in tracer.events()]
        assert kinds == [("recv", "client"), ("bcast", "datablock"),
                         ("send", "ack"), ("exec", "exec"),
                         ("note", "note")]
        execs = [e for e in tracer.events() if e["kind"] == "exec"]
        assert execs[0]["data"] == {"count": 100, "ids": [5]}
        assert all(e["t"] == 2.0 and e["node"] == 1
                   for e in tracer.events())

    def test_attribute_passthrough(self):
        inner = _ScriptedCore(3, [])
        core = TracedCore(inner, RingTracer())
        assert core.node_id == 3
        core.backlog_probe = lambda: 0.0  # write falls through
        assert inner.backlog_probe is not None
        assert core.effects == []

    def test_start_effects_are_not_message_events(self):
        tracer = RingTracer()
        core = TracedCore(_ScriptedCore(0, []), tracer)
        core.start(0.0)
        assert [e for e in tracer.events() if e["kind"] == "recv"] == []


class TestMergeTraceParts:
    def test_shifts_and_sorts(self):
        a = RingTracer()
        a.record(1.0, 0, "recv", "client", ("req", 4, 1), None)
        b = RingTracer()
        b.record(3.5, 1, "exec", "exec", None, {"count": 1, "ids": [0]})
        merged = merge_trace_parts([(a.to_jsonable(), 0.0),
                                    (b.to_jsonable(), 3.0)])
        assert [e["t"] for e in merged["events"]] == [0.5, 1.0]
        assert merged["dropped"] == 0
