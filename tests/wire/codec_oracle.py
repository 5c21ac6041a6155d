"""Differential oracle for :mod:`repro.wire.codec`: the frozen reference.

This is the hand-written codec that the table-compiled one replaced,
kept verbatim below this paragraph so the tests can hold every frame
to it byte for byte and every malformed input to its verdict.  It is
never imported from ``src/``.  Edit it only together with a deliberate
change of the wire format, never to make a codec change pass.

Length-prefixed binary codec for every protocol message.

Frame layout (big-endian)::

    u32  payload_length      # bytes following this field
    u8   type tag            # registry entry of the message class
    u32  sender              # node id of the transmitting node
    ...  body                # per-type fields; nested items length-prefixed
    ...  zero padding        # up to the cost model's wire size

**Size parity.**  The abstract cost model (:mod:`repro.messages.base`)
prices each message as a 32-byte envelope plus its content terms; this
codec reconciles that envelope against its actual 9 framing bytes by
letting per-message metadata spill into the envelope allowance and by
padding the frame tail, so that ``len(encode(sender, msg)) ==
msg.size_bytes()`` holds exactly for every protocol message — the live
transport therefore moves the same byte counts the simulator charges.

Payload-carrying messages (request bundles, datablocks, PBFT pre-prepares,
HotStuff blocks) transfer ``request_count * payload_size`` filler bytes in
place of real request payloads: everywhere in this reproduction payloads
are synthetic (see :meth:`repro.messages.leopard.Datablock.body`), but the
bytes still cross the wire so bandwidth and backpressure are real.

If a pathological message's metadata outgrows its modelled size (e.g. a
datablock with zero requests), the frame grows past the model rather than
truncating; decoding is always driven by the length prefix.
"""

from __future__ import annotations

import struct
from typing import Callable

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

#: Upper bound on one frame; protects stream readers from garbage lengths.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Bytes of the length prefix itself.
LENGTH_PREFIX = 4

_HEADER = struct.Struct("!IBI")  # payload_length, type tag, sender
_ZERO_BLOCK = memoryview(bytes(64 * 1024))  # frame padding is cut from it
_FIELD_BYTES = 32  # threshold-scheme field elements (256-bit prime)


class CodecError(ValueError):
    """Raised on malformed frames or unregistered message types."""


# ---------------------------------------------------------------------------
# Primitive readers/writers
# ---------------------------------------------------------------------------


class _Writer:
    """Accumulates body bytes for one frame."""

    __slots__ = ("parts",)

    def __init__(self) -> None:
        self.parts: list[bytes] = []

    def u8(self, value: int) -> None:
        self.parts.append(value.to_bytes(1, "big"))

    def u16(self, value: int) -> None:
        self.parts.append(value.to_bytes(2, "big"))

    def u32(self, value: int) -> None:
        self.parts.append(value.to_bytes(4, "big"))

    def u64(self, value: int) -> None:
        self.parts.append(value.to_bytes(8, "big"))

    def f64(self, value: float) -> None:
        self.parts.append(struct.pack("!d", value))

    def raw(self, data: bytes) -> None:
        self.parts.append(data)

    def hash32(self, data: bytes) -> None:
        if len(data) != 32:
            raise CodecError(f"expected a 32-byte digest, got {len(data)}")
        self.parts.append(data)

    def vbytes16(self, data: bytes) -> None:
        self.u16(len(data))
        self.parts.append(data)

    def vbytes32(self, data: bytes) -> None:
        self.u32(len(data))
        self.parts.append(data)

    def size(self) -> int:
        return sum(len(part) for part in self.parts)

    def body(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    """Sequential reader over one frame's body."""

    __slots__ = ("data", "pos")

    def __init__(self, data: memoryview) -> None:
        self.data = data
        self.pos = 0

    def _take(self, count: int) -> memoryview:
        end = self.pos + count
        if end > len(self.data):
            raise CodecError("truncated frame body")
        view = self.data[self.pos:end]
        self.pos = end
        return view

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self._take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self._take(8), "big")

    def f64(self) -> float:
        return struct.unpack("!d", self._take(8))[0]

    def raw(self, count: int) -> bytes:
        return bytes(self._take(count))

    def hash32(self) -> bytes:
        return bytes(self._take(32))

    def vbytes16(self) -> bytes:
        return self.raw(self.u16())

    def vbytes32(self) -> bytes:
        return self.raw(self.u32())


# -- shared sub-structures ---------------------------------------------------


def _w_share(w: _Writer, share: SignatureShare) -> None:
    w.u32(share.signer)
    w.raw(share.value.to_bytes(_FIELD_BYTES, "big"))


def _r_share(r: _Reader) -> SignatureShare:
    signer = r.u32()
    value = int.from_bytes(r.raw(_FIELD_BYTES), "big")
    return SignatureShare(signer, value)


def _w_tsig(w: _Writer, sig: ThresholdSignature) -> None:
    w.raw(sig.value.to_bytes(_FIELD_BYTES, "big"))


def _r_tsig(r: _Reader) -> ThresholdSignature:
    return ThresholdSignature(int.from_bytes(r.raw(_FIELD_BYTES), "big"))


def _w_plainsig(w: _Writer, sig: PlainSignature) -> None:
    w.u32(sig.signer)
    w.vbytes16(sig.tag)


def _r_plainsig(r: _Reader) -> PlainSignature:
    return PlainSignature(r.u32(), r.vbytes16())


def _w_spans(w: _Writer, spans: tuple[BundleSpan, ...]) -> None:
    w.u32(len(spans))
    for span in spans:
        w.u32(span.client_id)
        w.u64(span.bundle_id)
        w.u32(span.count)
        w.f64(span.submitted_at)


def _r_spans(r: _Reader) -> tuple[BundleSpan, ...]:
    count = r.u32()
    return tuple(
        BundleSpan(r.u32(), r.u64(), r.u32(), r.f64())
        for _ in range(count))


def _w_merkle_proof(w: _Writer, proof: MerkleProof) -> None:
    w.u32(proof.leaf_index)
    w.u16(len(proof.siblings))
    for is_right, sibling in proof.siblings:
        w.u8(1 if is_right else 0)
        w.hash32(sibling)


def _r_merkle_proof(r: _Reader) -> MerkleProof:
    leaf_index = r.u32()
    count = r.u16()
    siblings = tuple((r.u8() == 1, r.hash32()) for _ in range(count))
    return MerkleProof(leaf_index, siblings)


def _w_nested(w: _Writer,
              encode_body: Callable[[_Writer, object], None],
              obj) -> None:
    """Encode ``obj`` as a u32-length-prefixed nested blob."""
    inner = _Writer()
    encode_body(inner, obj)
    w.vbytes32(inner.body())


def _read_nested(r: _Reader, decode_body: Callable[[_Reader], object]
                 ) -> object:
    blob = r.vbytes32()
    return decode_body(_Reader(memoryview(blob)))


# ---------------------------------------------------------------------------
# Per-type body codecs
# ---------------------------------------------------------------------------


def _enc_request_bundle(w: _Writer, msg: RequestBundle) -> None:
    w.u32(msg.client_id)
    w.u64(msg.bundle_id)
    w.u32(msg.count)
    w.u32(msg.payload_size)
    w.f64(msg.submitted_at)
    w.u8(1 if msg.timeout_flagged else 0)
    # Request payloads (count * payload_size filler); padding completes it.


def _dec_request_bundle(r: _Reader) -> RequestBundle:
    return RequestBundle(
        client_id=r.u32(), bundle_id=r.u64(), count=r.u32(),
        payload_size=r.u32(), submitted_at=r.f64(),
        timeout_flagged=r.u8() == 1)


def _enc_ack(w: _Writer, msg: Ack) -> None:
    w.u32(msg.client_id)
    w.u64(msg.bundle_id)
    w.u32(msg.count)
    w.f64(msg.submitted_at)
    w.f64(msg.executed_at)


def _dec_ack(r: _Reader) -> Ack:
    return Ack(client_id=r.u32(), bundle_id=r.u64(), count=r.u32(),
               submitted_at=r.f64(), executed_at=r.f64())


def _enc_datablock_meta(w: _Writer, msg: Datablock) -> None:
    """The datablock header (no payload bytes) — reused by ChunkResponse."""
    w.u32(msg.creator)
    w.u64(msg.counter)
    w.u32(msg.request_count)
    w.u32(msg.payload_size)
    w.f64(msg.created_at)
    _w_spans(w, msg.spans)


def _dec_datablock_meta(r: _Reader) -> Datablock:
    return Datablock(
        creator=r.u32(), counter=r.u64(), request_count=r.u32(),
        payload_size=r.u32(), created_at=r.f64(), spans=_r_spans(r))


def _enc_datablock(w: _Writer, msg: Datablock) -> None:
    _enc_datablock_meta(w, msg)
    # body_size() filler + padding follow.


def _enc_ready(w: _Writer, msg: Ready) -> None:
    w.hash32(msg.block_digest)


def _dec_ready(r: _Reader) -> Ready:
    return Ready(r.hash32())


def _enc_bftblock(w: _Writer, msg: BFTblock) -> None:
    w.u64(msg.view)
    w.u64(msg.sn)
    w.f64(msg.proposed_at)
    if msg.leader_share is None:
        w.u8(0)
    else:
        w.u8(1)
        _w_share(w, msg.leader_share)
    w.u32(len(msg.links))
    for link in msg.links:
        w.hash32(link)


def _dec_bftblock(r: _Reader) -> BFTblock:
    view = r.u64()
    sn = r.u64()
    proposed_at = r.f64()
    share = _r_share(r) if r.u8() == 1 else None
    links = tuple(r.hash32() for _ in range(r.u32()))
    return BFTblock(view=view, sn=sn, links=links, leader_share=share,
                    proposed_at=proposed_at)


def _enc_vote(w: _Writer, msg: Vote) -> None:
    w.u8(msg.round)
    w.hash32(msg.block_digest)
    w.vbytes16(msg.signed_payload)
    _w_share(w, msg.share)


def _dec_vote(r: _Reader) -> Vote:
    return Vote(round=r.u8(), block_digest=r.hash32(),
                signed_payload=r.vbytes16(), share=_r_share(r))


def _enc_proof(w: _Writer, msg: Proof) -> None:
    w.u8(msg.round)
    w.hash32(msg.block_digest)
    w.vbytes16(msg.signed_payload)
    _w_tsig(w, msg.signature)
    if msg.prior_signature is None:
        w.u8(0)
    else:
        w.u8(1)
        _w_tsig(w, msg.prior_signature)


def _dec_proof(r: _Reader) -> Proof:
    round_ = r.u8()
    block_digest = r.hash32()
    signed_payload = r.vbytes16()
    signature = _r_tsig(r)
    prior = _r_tsig(r) if r.u8() == 1 else None
    return Proof(round=round_, block_digest=block_digest,
                 signed_payload=signed_payload, signature=signature,
                 prior_signature=prior)


def _enc_query(w: _Writer, msg: Query) -> None:
    w.u32(len(msg.block_digests))
    for block_digest in msg.block_digests:
        w.hash32(block_digest)


def _dec_query(r: _Reader) -> Query:
    return Query(tuple(r.hash32() for _ in range(r.u32())))


def _enc_chunk_response(w: _Writer, msg: ChunkResponse) -> None:
    w.hash32(msg.block_digest)
    w.hash32(msg.root)
    w.u32(msg.chunk_index)
    w.vbytes32(msg.chunk_data)
    _w_merkle_proof(w, msg.proof)
    _enc_datablock_meta(w, msg.meta)


def _dec_chunk_response(r: _Reader) -> ChunkResponse:
    return ChunkResponse(
        block_digest=r.hash32(), root=r.hash32(), chunk_index=r.u32(),
        chunk_data=r.vbytes32(), proof=_r_merkle_proof(r),
        meta=_dec_datablock_meta(r))


def _enc_checkpoint_share(w: _Writer, msg: CheckpointShare) -> None:
    w.u64(msg.sn)
    w.hash32(msg.state_digest)
    _w_share(w, msg.share)


def _dec_checkpoint_share(r: _Reader) -> CheckpointShare:
    return CheckpointShare(sn=r.u64(), state_digest=r.hash32(),
                           share=_r_share(r))


def _enc_checkpoint_proof(w: _Writer, msg: CheckpointProof) -> None:
    w.u64(msg.sn)
    w.hash32(msg.state_digest)
    _w_tsig(w, msg.signature)


def _dec_checkpoint_proof(r: _Reader) -> CheckpointProof:
    return CheckpointProof(sn=r.u64(), state_digest=r.hash32(),
                           signature=_r_tsig(r))


def _enc_timeout(w: _Writer, msg: TimeoutMsg) -> None:
    w.u64(msg.view)
    _w_plainsig(w, msg.signature)


def _dec_timeout(r: _Reader) -> TimeoutMsg:
    return TimeoutMsg(view=r.u64(), signature=_r_plainsig(r))


def _enc_viewchange(w: _Writer, msg: ViewChangeMsg) -> None:
    w.u64(msg.new_view)
    if msg.checkpoint is None:
        w.u8(0)
    else:
        w.u8(1)
        _w_nested(w, _enc_checkpoint_proof, msg.checkpoint)
    w.u32(len(msg.entries))
    for entry in msg.entries:
        inner = _Writer()
        _w_nested(inner, _enc_bftblock, entry.block)
        _w_tsig(inner, entry.notarization)
        w.vbytes32(inner.body())
    _w_plainsig(w, msg.signature)


def _dec_viewchange(r: _Reader) -> ViewChangeMsg:
    new_view = r.u64()
    checkpoint = None
    if r.u8() == 1:
        checkpoint = _read_nested(r, _dec_checkpoint_proof)
    entries = []
    for _ in range(r.u32()):
        inner = _Reader(memoryview(r.vbytes32()))
        block = _read_nested(inner, _dec_bftblock)
        notarization = _r_tsig(inner)
        entries.append(NotarizedEntry(block, notarization))
    signature = _r_plainsig(r)
    return ViewChangeMsg(new_view=new_view, checkpoint=checkpoint,
                         entries=tuple(entries), signature=signature)


def _enc_new_view(w: _Writer, msg: NewViewMsg) -> None:
    w.u64(msg.new_view)
    w.u32(len(msg.view_changes))
    for vc_msg in msg.view_changes:
        _w_nested(w, _enc_viewchange, vc_msg)
    w.u32(len(msg.redo))
    for block in msg.redo:
        _w_nested(w, _enc_bftblock, block)
    _w_plainsig(w, msg.signature)


def _dec_new_view(r: _Reader) -> NewViewMsg:
    new_view = r.u64()
    view_changes = tuple(
        _read_nested(r, _dec_viewchange) for _ in range(r.u32()))
    redo = tuple(_read_nested(r, _dec_bftblock) for _ in range(r.u32()))
    signature = _r_plainsig(r)
    return NewViewMsg(new_view=new_view, view_changes=view_changes,
                      redo=redo, signature=signature)


# -- PBFT --------------------------------------------------------------------


def _enc_preprepare(w: _Writer, msg: PrePrepare) -> None:
    w.u64(msg.view)
    w.u64(msg.sn)
    w.u32(msg.request_count)
    w.u32(msg.payload_size)
    w.f64(msg.proposed_at)
    _w_spans(w, msg.spans)


def _dec_preprepare(r: _Reader) -> PrePrepare:
    return PrePrepare(
        view=r.u64(), sn=r.u64(), request_count=r.u32(),
        payload_size=r.u32(), proposed_at=r.f64(), spans=_r_spans(r))


def _enc_prepare(w: _Writer, msg: Prepare) -> None:
    w.u64(msg.view)
    w.u64(msg.sn)
    w.hash32(msg.block_digest)
    w.u32(msg.voter)


def _dec_prepare(r: _Reader) -> Prepare:
    return Prepare(view=r.u64(), sn=r.u64(), block_digest=r.hash32(),
                   voter=r.u32())


def _enc_commit(w: _Writer, msg: Commit) -> None:
    w.u64(msg.view)
    w.u64(msg.sn)
    w.hash32(msg.block_digest)
    w.u32(msg.voter)


def _dec_commit(r: _Reader) -> Commit:
    return Commit(view=r.u64(), sn=r.u64(), block_digest=r.hash32(),
                  voter=r.u32())


# -- HotStuff ----------------------------------------------------------------


def _enc_qc(w: _Writer, qc: QuorumCert) -> None:
    w.hash32(qc.block_digest)
    w.u64(qc.height)
    w.u32(qc.signer_count)


def _dec_qc(r: _Reader) -> QuorumCert:
    return QuorumCert(block_digest=r.hash32(), height=r.u64(),
                      signer_count=r.u32())


def _enc_hsblock(w: _Writer, msg: HSBlock) -> None:
    w.u64(msg.height)
    w.hash32(msg.parent_digest)
    if msg.justify is None:
        w.u8(0)
    else:
        w.u8(1)
        _w_nested(w, _enc_qc, msg.justify)
    w.u32(msg.request_count)
    w.u32(msg.payload_size)
    w.f64(msg.proposed_at)
    _w_spans(w, msg.spans)


def _dec_hsblock(r: _Reader) -> HSBlock:
    height = r.u64()
    parent = r.hash32()
    justify = _read_nested(r, _dec_qc) if r.u8() == 1 else None
    return HSBlock(
        height=height, parent_digest=parent, justify=justify,
        request_count=r.u32(), payload_size=r.u32(), proposed_at=r.f64(),
        spans=_r_spans(r))


def _enc_hsvote(w: _Writer, msg: HSVote) -> None:
    w.u64(msg.height)
    w.hash32(msg.block_digest)
    w.u32(msg.voter)


def _dec_hsvote(r: _Reader) -> HSVote:
    return HSVote(height=r.u64(), block_digest=r.hash32(), voter=r.u32())


def _enc_hsnewview(w: _Writer, msg: HSNewView) -> None:
    w.u64(msg.view)
    if msg.high_qc is None:
        w.u8(0)
    else:
        w.u8(1)
        _w_nested(w, _enc_qc, msg.high_qc)


def _dec_hsnewview(r: _Reader) -> HSNewView:
    view = r.u64()
    high_qc = _read_nested(r, _dec_qc) if r.u8() == 1 else None
    return HSNewView(view=view, high_qc=high_qc)


# -- Recovery ----------------------------------------------------------------


def _enc_state_request(w: _Writer, msg: StateRequest) -> None:
    w.u64(msg.start_sn)
    w.u64(msg.end_sn)


def _dec_state_request(r: _Reader) -> StateRequest:
    return StateRequest(start_sn=r.u64(), end_sn=r.u64())


def _enc_state_snapshot(w: _Writer, msg: StateSnapshot) -> None:
    w.u64(msg.last_executed)
    w.hash32(msg.state_digest)
    if msg.checkpoint is None:
        w.u8(0)
    else:
        w.u8(1)
        _w_nested(w, _enc_checkpoint_proof, msg.checkpoint)


def _dec_state_snapshot(r: _Reader) -> StateSnapshot:
    last_executed = r.u64()
    state_digest = r.hash32()
    checkpoint = _read_nested(r, _dec_checkpoint_proof) \
        if r.u8() == 1 else None
    return StateSnapshot(last_executed=last_executed,
                         state_digest=state_digest, checkpoint=checkpoint)


def _enc_ledger_segment(w: _Writer, msg: LedgerSegment) -> None:
    w.u64(msg.start_sn)
    w.u32(len(msg.entries))
    for entry in msg.entries:
        w.u64(entry.sn)
        w.hash32(entry.digest)
        w.u32(entry.request_count)


def _dec_ledger_segment(r: _Reader) -> LedgerSegment:
    start_sn = r.u64()
    entries = tuple(
        SegmentEntry(sn=r.u64(), digest=r.hash32(), request_count=r.u32())
        for _ in range(r.u32()))
    return LedgerSegment(start_sn=start_sn, entries=entries)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: tag -> (message class, encode_body, decode_body).  Tags are wire ABI:
#: never renumber an existing entry, only append.
_REGISTRY: dict[int, tuple[type, Callable, Callable]] = {
    1: (RequestBundle, _enc_request_bundle, _dec_request_bundle),
    2: (Ack, _enc_ack, _dec_ack),
    3: (Datablock, _enc_datablock, _dec_datablock_meta),
    4: (Ready, _enc_ready, _dec_ready),
    5: (BFTblock, _enc_bftblock, _dec_bftblock),
    6: (Vote, _enc_vote, _dec_vote),
    7: (Proof, _enc_proof, _dec_proof),
    8: (Query, _enc_query, _dec_query),
    9: (ChunkResponse, _enc_chunk_response, _dec_chunk_response),
    10: (CheckpointShare, _enc_checkpoint_share, _dec_checkpoint_share),
    11: (CheckpointProof, _enc_checkpoint_proof, _dec_checkpoint_proof),
    12: (TimeoutMsg, _enc_timeout, _dec_timeout),
    13: (ViewChangeMsg, _enc_viewchange, _dec_viewchange),
    14: (NewViewMsg, _enc_new_view, _dec_new_view),
    20: (PrePrepare, _enc_preprepare, _dec_preprepare),
    21: (Prepare, _enc_prepare, _dec_prepare),
    22: (Commit, _enc_commit, _dec_commit),
    30: (HSBlock, _enc_hsblock, _dec_hsblock),
    31: (HSVote, _enc_hsvote, _dec_hsvote),
    32: (HSNewView, _enc_hsnewview, _dec_hsnewview),
    40: (StateRequest, _enc_state_request, _dec_state_request),
    41: (StateSnapshot, _enc_state_snapshot, _dec_state_snapshot),
    42: (LedgerSegment, _enc_ledger_segment, _dec_ledger_segment),
}

_TAG_BY_TYPE: dict[type, int] = {
    cls: tag for tag, (cls, _, _) in _REGISTRY.items()}


def registered_message_types() -> dict[type, int]:
    """Every encodable message class and its wire type tag."""
    return dict(_TAG_BY_TYPE)


# ---------------------------------------------------------------------------
# Top-level encode / decode
# ---------------------------------------------------------------------------


def encode(sender: int, msg) -> bytes:
    """Encode one message into a full frame (length prefix included).

    The frame is padded to ``msg.size_bytes()`` — the abstract cost model's
    wire size — whenever the encoded fields fit within it (they do for all
    protocol-generated messages); otherwise the frame grows past the model.
    """
    tag = _TAG_BY_TYPE.get(type(msg))
    if tag is None:
        raise CodecError(f"unregistered message type {type(msg).__name__}")
    writer = _Writer()
    _REGISTRY[tag][1](writer, msg)
    parts = writer.parts
    body_size = writer.size()
    padding = msg.size_bytes() - _HEADER.size - body_size
    if padding > 0:
        # Views of one zero block: the join below is the frame's only
        # frame-sized allocation.
        whole, rest = divmod(padding, len(_ZERO_BLOCK))
        parts.extend([_ZERO_BLOCK] * whole)
        parts.append(_ZERO_BLOCK[:rest])
        body_size += padding
    payload_length = _HEADER.size - LENGTH_PREFIX + body_size
    return b"".join([_HEADER.pack(payload_length, tag, sender), *parts])


def decode_payload(payload: bytes | memoryview) -> tuple[int, object]:
    """Decode a frame payload (everything after the length prefix).

    Returns ``(sender, message)``.  Trailing padding is ignored.
    """
    view = memoryview(payload)
    if len(view) < _HEADER.size - LENGTH_PREFIX:
        raise CodecError("frame shorter than its header")
    tag = view[0]
    sender = int.from_bytes(view[1:5], "big")
    entry = _REGISTRY.get(tag)
    if entry is None:
        raise CodecError(f"unknown message type tag {tag}")
    reader = _Reader(view[_HEADER.size - LENGTH_PREFIX:])
    try:
        msg = entry[2](reader)
    except CodecError:
        raise
    except (ValueError, struct.error, OverflowError) as exc:
        raise CodecError(f"malformed {entry[0].__name__} frame: {exc}") \
            from exc
    return sender, msg


def decode(frame: bytes | memoryview) -> tuple[int, object]:
    """Decode one full frame (as produced by :func:`encode`)."""
    view = memoryview(frame)
    if len(view) < LENGTH_PREFIX:
        raise CodecError("frame shorter than its length prefix")
    payload_length = int.from_bytes(view[:LENGTH_PREFIX], "big")
    if payload_length > MAX_FRAME_BYTES:
        raise CodecError(f"frame length {payload_length} exceeds cap")
    if LENGTH_PREFIX + payload_length != len(view):
        raise CodecError(
            f"frame length mismatch: prefix says {payload_length}, "
            f"got {len(view) - LENGTH_PREFIX}")
    return decode_payload(view[LENGTH_PREFIX:])
