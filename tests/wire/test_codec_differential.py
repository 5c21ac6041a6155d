"""The table-compiled codec against the frozen hand-written one.

Every registered message class has a strategy drawing in-range field
values (each integer width's 0 and maximum included, 0-12 list items,
optional parts present and absent).  For every draw the codec must
write the oracle's frame byte for byte and read it back unchanged; for
every truncated, bit-flipped or extended payload it must reach the
oracle's verdict — the same ``(sender, message)`` or a ``CodecError`` —
and it may raise nothing else, because the transport's receive path
catches only ``CodecError``.
"""

from __future__ import annotations

import struct
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto.keys import PlainSignature
from repro.crypto.merkle import MerkleProof
from repro.crypto.threshold import SignatureShare, ThresholdSignature
from repro.messages.client import Ack, RequestBundle
from repro.messages.hotstuff import HSBlock, HSNewView, HSVote, QuorumCert
from repro.messages.leopard import (
    BFTblock,
    BundleSpan,
    CheckpointProof,
    CheckpointShare,
    ChunkResponse,
    Datablock,
    NewViewMsg,
    NotarizedEntry,
    Proof,
    Query,
    Ready,
    TimeoutMsg,
    ViewChangeMsg,
    Vote,
)
from repro.messages.pbft import Commit, Prepare, PrePrepare
from repro.messages.recovery import (
    LedgerSegment,
    SegmentEntry,
    StateRequest,
    StateSnapshot,
)
from repro.wire import codec
from repro.wire.codec import LENGTH_PREFIX
from tests.wire import codec_oracle as oracle
from tests.wire.test_codec_roundtrip import CORPUS

EXAMPLES = 40


def _uint(bits: int):
    top = (1 << bits) - 1
    return st.one_of(st.sampled_from([0, top]), st.integers(0, top))


U8, U32, U64, INT256 = (_uint(bits) for bits in (8, 32, 64, 256))
F64 = st.floats(allow_nan=False)
DIGEST = st.binary(min_size=32, max_size=32)
BLOB = st.binary(max_size=80)
#: ``(request_count, payload_size)``: each width's maximum, but never
#: both large, because the frame is padded to their product.
PAYLOAD = st.one_of(st.tuples(U32, st.just(0)), st.tuples(st.just(0), U32),
                    st.tuples(st.integers(0, 300), st.integers(0, 300)))
#: A QC is priced 64 bytes per signer, and a frame is padded to it.
SIGNERS = st.integers(0, 1000)


def _items(strategy, max_size: int = 12):
    return st.lists(strategy, max_size=max_size).map(tuple)


SHARE = st.builds(SignatureShare, U32, INT256)
TSIG = st.builds(ThresholdSignature, INT256)
PLAIN = st.builds(PlainSignature, U32, BLOB)
SPANS = _items(st.builds(BundleSpan, U32, U64, U32, F64))
QC = st.builds(QuorumCert, DIGEST, U64, SIGNERS)
CHECKPOINT = st.builds(CheckpointProof, U64, DIGEST, TSIG)
BFTBLOCK = st.builds(BFTblock, U64, U64, _items(DIGEST), st.none() | SHARE,
                     F64)
DATABLOCK = st.builds(
    lambda creator, counter, payload, spans, created_at: Datablock(
        creator, counter, *payload, spans, created_at),
    U32, U64, PAYLOAD, SPANS, F64)
VIEWCHANGE = st.builds(
    ViewChangeMsg, U64, st.none() | CHECKPOINT,
    _items(st.builds(NotarizedEntry, BFTBLOCK, TSIG), max_size=4), PLAIN)

#: One strategy per registered message class.
STRATEGIES = {
    RequestBundle: st.builds(
        lambda client, bundle, payload, at, flagged: RequestBundle(
            client, bundle, *payload, at, flagged),
        U32, U64, PAYLOAD, F64, st.booleans()),
    Ack: st.builds(Ack, U32, U64, U32, F64, F64),
    Datablock: DATABLOCK,
    Ready: st.builds(Ready, DIGEST),
    BFTblock: BFTBLOCK,
    Vote: st.builds(Vote, U8, DIGEST, BLOB, SHARE),
    Proof: st.builds(Proof, U8, DIGEST, BLOB, TSIG, st.none() | TSIG),
    Query: st.builds(Query, _items(DIGEST)),
    ChunkResponse: st.builds(
        ChunkResponse, DIGEST, DIGEST, U32, st.binary(max_size=200),
        st.builds(MerkleProof, U32, _items(st.tuples(st.booleans(), DIGEST))),
        DATABLOCK),
    CheckpointShare: st.builds(CheckpointShare, U64, DIGEST, SHARE),
    CheckpointProof: CHECKPOINT,
    TimeoutMsg: st.builds(TimeoutMsg, U64, PLAIN),
    ViewChangeMsg: st.builds(
        ViewChangeMsg, U64, st.none() | CHECKPOINT,
        _items(st.builds(NotarizedEntry, BFTBLOCK, TSIG)), PLAIN),
    NewViewMsg: st.builds(NewViewMsg, U64, _items(VIEWCHANGE, max_size=3),
                          _items(BFTBLOCK), PLAIN),
    PrePrepare: st.builds(
        lambda view, sn, payload, spans, at: PrePrepare(
            view, sn, *payload, spans, at),
        U64, U64, PAYLOAD, SPANS, F64),
    Prepare: st.builds(Prepare, U64, U64, DIGEST, U32),
    Commit: st.builds(Commit, U64, U64, DIGEST, U32),
    HSBlock: st.builds(
        lambda height, parent, justify, payload, spans, at: HSBlock(
            height, parent, justify, *payload, spans, at),
        U64, DIGEST, st.none() | QC, PAYLOAD, SPANS, F64),
    HSVote: st.builds(HSVote, U64, DIGEST, U32),
    HSNewView: st.builds(HSNewView, U64, st.none() | QC),
    StateRequest: st.builds(StateRequest, U64, U64),
    StateSnapshot: st.builds(StateSnapshot, U64, DIGEST,
                             st.none() | CHECKPOINT),
    LedgerSegment: st.builds(
        LedgerSegment, U64,
        _items(st.builds(SegmentEntry, U64, DIGEST, U32))),
}

CLASSES = sorted(STRATEGIES, key=lambda cls: cls.__name__)
SETTINGS = settings(max_examples=EXAMPLES, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


def test_every_registered_class_has_a_strategy():
    assert set(STRATEGIES) == set(codec.registered_message_types())
    assert codec.registered_message_types() == \
        oracle.registered_message_types()


def _verdict(module, payload):
    """What ``module.decode_payload`` makes of ``payload``: the decoded
    pair (``repr`` keeps a decoded NaN comparable), or ``CodecError``.
    Any other exception propagates and fails the test."""
    try:
        sender, msg = module.decode_payload(payload)
    except module.CodecError:
        return "CodecError"
    return sender, type(msg), repr(msg)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestAgainstOracle:
    @SETTINGS
    @given(data=st.data())
    def test_frames_are_the_oracles_and_round_trip(self, cls, data):
        msg = data.draw(STRATEGIES[cls])
        sender = data.draw(U32)
        frame = codec.encode(sender, msg)
        assert frame == oracle.encode(sender, msg)
        assert codec.decode(frame) == (sender, msg)

    @SETTINGS
    @given(data=st.data())
    def test_mutated_payloads_get_the_oracles_verdict(self, cls, data):
        payload = oracle.encode(data.draw(U32), data.draw(
            STRATEGIES[cls]))[LENGTH_PREFIX:]
        mutation = data.draw(st.sampled_from(["truncate", "flip", "extend"]))
        if mutation == "truncate":
            payload = payload[:data.draw(st.integers(0, len(payload) - 1))]
        elif mutation == "flip":
            # Mostly within the fields rather than the zero padding.
            bit = data.draw(st.integers(0, 8 * min(len(payload), 400) - 1))
            flipped = bytearray(payload)
            flipped[bit // 8] ^= 1 << (bit % 8)
            payload = bytes(flipped)
        else:
            payload += data.draw(st.binary(min_size=1, max_size=64))
        assert _verdict(codec, payload) == _verdict(oracle, payload)


@SETTINGS
@given(tag=st.sampled_from(sorted(codec.registered_message_types().values())),
       body=st.binary(max_size=300))
def test_random_payloads_get_the_oracles_verdict(tag, body):
    payload = bytes([tag]) + body
    assert _verdict(codec, payload) == _verdict(oracle, payload)


#: Short payloads that claim 0xFFFFFFFF list items (span, link, digest,
#: entry, view-change entry and redo counts).
HUGE_COUNTS = {
    "datablock-spans": struct.pack("!BIIQIIdI", 3, 1, 2, 3, 4, 5, 0.0,
                                   0xFFFFFFFF) + bytes(24),
    "bftblock-links": struct.pack("!BIQQdBI", 5, 1, 2, 3, 0.0, 0,
                                  0xFFFFFFFF) + bytes(32),
    "query-digests": struct.pack("!BII", 8, 1, 0xFFFFFFFF) + bytes(32),
    "preprepare-spans": struct.pack("!BIQQIIdI", 20, 1, 2, 3, 4, 5, 0.0,
                                    0xFFFFFFFF) + bytes(24),
    "segment-entries": struct.pack("!BIQI", 42, 1, 2, 0xFFFFFFFF)
    + bytes(44),
    "viewchange-entries": struct.pack("!BIQBI", 13, 1, 2, 0, 0xFFFFFFFF)
    + bytes(8),
    "newview-redo": struct.pack("!BIQII", 14, 1, 2, 0, 0xFFFFFFFF)
    + bytes(8),
}


@pytest.mark.parametrize("payload", HUGE_COUNTS.values(), ids=HUGE_COUNTS)
def test_a_huge_count_in_a_short_frame_allocates_nothing(payload):
    for msg in CORPUS:  # compile every decoder before measuring
        codec.decode(codec.encode(0, msg))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        with pytest.raises(codec.CodecError):
            codec.decode_payload(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert _verdict(oracle, payload) == "CodecError"


def test_a_wrong_length_digest_is_refused_as_by_the_oracle():
    for msg in (Ready(bytes(31)), BFTblock(1, 2, (bytes(32), bytes(33))),
                LedgerSegment(1, (SegmentEntry(2, b"short", 3),))):
        with pytest.raises(oracle.CodecError):
            oracle.encode(0, msg)
        with pytest.raises(codec.CodecError):
            codec.encode(0, msg)
