"""Codec round-trip and wire-size-parity tests.

Property (ISSUE 2 acceptance): every registered message class survives
``decode(encode(msg))`` unchanged, and the encoded frame length equals the
abstract cost model's ``size_bytes()`` — so live TCP traffic and simulated
NIC accounting move identical byte counts.
"""

from __future__ import annotations

import pytest

from repro.crypto.keys import PlainSignature
from repro.crypto.merkle import MerkleTree
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
from repro.wire import (
    CodecError,
    decode,
    encode,
    registered_message_types,
)
from repro.wire.codec import LENGTH_PREFIX
from tests.wire import codec_oracle

DIGEST = bytes(range(32))
DIGEST2 = bytes(reversed(range(32)))
SHARE = SignatureShare(2, 0x1234567890ABCDEF)
TSIG = ThresholdSignature(0xFEDCBA0987654321)
PLAIN = PlainSignature(3, bytes(32))
SPANS = (BundleSpan(9, 1, 100, 0.125), BundleSpan(10, 7, 50, 2.5))


def _datablock() -> Datablock:
    return Datablock(creator=2, counter=5, request_count=150,
                     payload_size=128, spans=SPANS, created_at=1.5)


def _bftblock() -> BFTblock:
    return BFTblock(view=1, sn=9, links=(DIGEST, DIGEST2),
                    leader_share=SHARE, proposed_at=0.75)


def _chunk_response() -> ChunkResponse:
    chunks = [bytes([i]) * 64 for i in range(4)]
    tree = MerkleTree(chunks)
    return ChunkResponse(
        block_digest=DIGEST, root=tree.root, chunk_index=1,
        chunk_data=chunks[1], proof=tree.proof(1), meta=_datablock())


def _viewchange() -> ViewChangeMsg:
    entry = NotarizedEntry(_bftblock(), TSIG)
    checkpoint = CheckpointProof(50, DIGEST, TSIG)
    return ViewChangeMsg(new_view=2, checkpoint=checkpoint,
                         entries=(entry,), signature=PLAIN)


def _new_view() -> NewViewMsg:
    return NewViewMsg(new_view=2, view_changes=(_viewchange(),),
                      redo=(_bftblock(), BFTblock(2, 10, ())),
                      signature=PLAIN)


#: One realistic instance per registered message class.
CORPUS = [
    RequestBundle(8, 3, 500, 128, 0.25, timeout_flagged=True),
    Ack(8, 3, 500, 0.25, 1.0),
    _datablock(),
    Ready(DIGEST),
    _bftblock(),
    BFTblock(3, 11, (), leader_share=None),  # dummy block, no share
    Vote(1, DIGEST, DIGEST, SHARE),
    Proof(1, DIGEST, DIGEST, TSIG),
    Proof(2, DIGEST, DIGEST2, TSIG, prior_signature=TSIG),
    Query((DIGEST, DIGEST2)),
    _chunk_response(),
    CheckpointShare(50, DIGEST, SHARE),
    CheckpointProof(50, DIGEST, TSIG),
    TimeoutMsg(4, PLAIN),
    _viewchange(),
    ViewChangeMsg(2, None, (), PLAIN),
    _new_view(),
    PrePrepare(1, 4, 200, 128, SPANS, proposed_at=0.5),
    Prepare(1, 4, DIGEST, 2),
    Commit(1, 4, DIGEST, 2),
    HSBlock(7, DIGEST, QuorumCert(DIGEST2, 6, 3), 200, 128, SPANS, 0.5),
    HSBlock(1, bytes(32), None, 100, 128),  # genesis child, no QC
    HSVote(7, DIGEST, 2),
    HSNewView(3, QuorumCert(DIGEST, 2, 3)),
    HSNewView(3, None),
    StateRequest(0, 0),  # snapshot solicitation
    StateRequest(64, 96),
    StateSnapshot(120, DIGEST, CheckpointProof(100, DIGEST2, TSIG)),
    StateSnapshot(0, bytes(32)),  # fresh replica, no checkpoint yet
    LedgerSegment(64, (SegmentEntry(65, DIGEST, 200),
                       SegmentEntry(66, DIGEST2, 150))),
    LedgerSegment(10, ()),  # truncated-empty reply (serve cap)
]


def _ids(corpus):
    counts: dict[str, int] = {}
    labels = []
    for msg in corpus:
        name = type(msg).__name__
        counts[name] = counts.get(name, 0) + 1
        labels.append(f"{name}-{counts[name]}")
    return labels


class TestRoundTrip:
    @pytest.mark.parametrize("msg", CORPUS, ids=_ids(CORPUS))
    def test_round_trip_identity(self, msg):
        sender, decoded = decode(encode(41, msg))
        assert sender == 41
        assert decoded == msg

    @pytest.mark.parametrize("msg", CORPUS, ids=_ids(CORPUS))
    def test_encoded_length_matches_wire_size_model(self, msg):
        frame = encode(0, msg)
        assert len(frame) == msg.size_bytes(), (
            f"{type(msg).__name__}: frame {len(frame)}B != "
            f"modelled {msg.size_bytes()}B")

    def test_corpus_covers_every_registered_type(self):
        corpus_types = {type(msg) for msg in CORPUS}
        registered = set(registered_message_types())
        assert registered == corpus_types

    def test_every_message_module_class_registered(self):
        """Every Message-shaped class in repro.messages has a codec."""
        import inspect

        from repro.messages import client, hotstuff, leopard, pbft, recovery

        registered = set(registered_message_types())
        missing = []
        for module in (client, hotstuff, leopard, pbft, recovery):
            for _, cls in inspect.getmembers(module, inspect.isclass):
                if cls.__module__ != module.__name__:
                    continue
                if not hasattr(cls, "msg_class"):
                    continue  # nested structures travel inside carriers
                if cls not in registered:
                    missing.append(cls.__name__)
        assert not missing, f"unregistered message classes: {missing}"


class TestFraming:
    def test_truncated_frame_rejected(self):
        frame = encode(0, Ready(DIGEST))
        with pytest.raises(CodecError):
            decode(frame[:-1])

    def test_length_prefix_is_authoritative(self):
        frame = encode(5, Ready(DIGEST))
        payload_length = int.from_bytes(frame[:LENGTH_PREFIX], "big")
        assert LENGTH_PREFIX + payload_length == len(frame)

    def test_unknown_tag_rejected(self):
        frame = bytearray(encode(0, Ready(DIGEST)))
        frame[LENGTH_PREFIX] = 255
        with pytest.raises(CodecError):
            decode(bytes(frame))

    def test_unregistered_type_rejected(self):
        with pytest.raises(CodecError):
            encode(0, object())

    def test_digest_survives_transport(self):
        """Decoded blocks recompute the same digests (identity preserved)."""
        block = _bftblock()
        _, decoded = decode(encode(1, block))
        assert decoded.digest() == block.digest()
        datablock = _datablock()
        _, decoded_db = decode(encode(1, datablock))
        assert decoded_db.digest() == datablock.digest()
        assert decoded_db.body() == datablock.body()


#: Messages padded by more than one of the encoder's zero blocks.
LONG_PADDING = [
    RequestBundle(8, 4, 2000, 128, 0.5),
    Datablock(creator=1, counter=2, request_count=1024, payload_size=64),
]


class TestFrameAssembly:
    @pytest.mark.parametrize("msg", CORPUS + LONG_PADDING,
                             ids=_ids(CORPUS + LONG_PADDING))
    def test_frames_are_byte_identical_to_the_reference_assembly(self, msg):
        frame = encode(7, msg)
        assert type(frame) is bytes
        assert frame == codec_oracle.encode(7, msg)
        assert len(frame) == msg.size_bytes()


class TestDecodedMessagesOwnTheirBytes:
    """The live receiver decodes in place from a buffer the next read
    overwrites, so no decoded message may keep a view of its frame."""

    @pytest.mark.parametrize("msg", CORPUS, ids=_ids(CORPUS))
    def test_decoded_message_survives_its_buffer_being_overwritten(
            self, msg):
        buffer = bytearray(encode(41, msg))
        sender, decoded = decode(memoryview(buffer))
        buffer[:] = b"\xa5" * len(buffer)
        assert sender == 41
        assert decoded == msg
