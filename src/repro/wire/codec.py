"""Length-prefixed binary codec for every protocol message.

Frame layout (big-endian)::

    u32  payload_length      # bytes following this field
    u8   type tag            # registry entry of the message class
    u32  sender              # node id of the transmitting node
    ...  body                # per-type fields; nested items length-prefixed
    ...  zero padding        # up to the cost model's wire size

**One field table.**  Every structure the codec writes is one entry of
:data:`_TABLE`: its class and its fields in wire order, each written
``name:kind``.  A kind is

* ``u8`` / ``u16`` / ``u32`` / ``u64`` / ``f64`` — a big-endian number;
* ``bool`` — one byte; it decodes true only when it is 1;
* ``hash`` — a 32-byte digest; ``int256`` — a 32-byte unsigned integer
  (the threshold scheme's field elements);
* ``bytes16`` / ``bytes32`` — a u16 / u32 length, then that many bytes;
* the name of another entry — that structure's fields, in place;
* ``<Name>`` — that structure as a nested blob behind a u32 length;

and a trailing ``?`` makes a part optional (a u8 flag, 1 when present),
a trailing ``*`` a list (a u32 count, or ``*u16`` for a u16 one, then
the items).  Adding a message is one table entry, one tag in
:data:`_TAGS` and one instance in the round-trip corpus.

The table compiles into Python functions — a frame encoder and decoder
per message, a nested-blob encoder and decoder per ``<Name>`` — whose
source is generated from the table alone and ``exec``-ed, the way
:mod:`dataclasses` writes ``__init__``.  Each is compiled once, on the
first frame of its message, so importing the codec costs only the
table's parse (compiling all of them costs ~10 ms, which the simulator,
importing but never encoding, should not pay); ``_COMPILER.sources``
keeps the source of each.  Each run of fixed-width fields — counts,
lengths and flags of the part that follows included — is one
precompiled :class:`struct.Struct`.  Decoding walks a ``memoryview`` by
offset with ``unpack_from``, constructs every structure positionally,
and reads a list of fixed-width records with one ``iter_unpack``; no
call is made per field.  The messages whose ``size_bytes()`` is a
constant (:data:`_FIXED_SIZE`) encode their whole frame — header,
fields and padding — with a single ``Struct.pack``.

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
truncating; decoding is always driven by the length prefix.  Decoded
messages copy every byte they keep, so the receive buffer may be reused
at once, and every malformed payload raises :class:`CodecError`.
"""

from __future__ import annotations

import dataclasses
import re
import struct

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


class CodecError(ValueError):
    """Raised on malformed frames or unregistered message types."""


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

#: Every structure the codec writes, with its fields in wire order.
_TABLE = {
    # -- parts carried inside messages
    BundleSpan: "client_id:u32 bundle_id:u64 count:u32 submitted_at:f64",
    SignatureShare: "signer:u32 value:int256",
    ThresholdSignature: "value:int256",
    PlainSignature: "signer:u32 tag:bytes16",
    tuple: "is_right:bool sibling:hash",  # one step of a Merkle path
    MerkleProof: "leaf_index:u32 siblings:tuple*u16",
    QuorumCert: "block_digest:hash height:u64 signer_count:u32",
    NotarizedEntry: "block:<BFTblock> notarization:ThresholdSignature",
    SegmentEntry: "sn:u64 digest:hash request_count:u32",
    # -- client
    RequestBundle: ("client_id:u32 bundle_id:u64 count:u32 payload_size:u32"
                    " submitted_at:f64 timeout_flagged:bool"),
    Ack: ("client_id:u32 bundle_id:u64 count:u32 submitted_at:f64"
          " executed_at:f64"),
    # -- Leopard (request payloads and padding follow the fields)
    Datablock: ("creator:u32 counter:u64 request_count:u32 payload_size:u32"
                " created_at:f64 spans:BundleSpan*"),
    Ready: "block_digest:hash",
    BFTblock: ("view:u64 sn:u64 proposed_at:f64 leader_share:SignatureShare?"
               " links:hash*"),
    Vote: ("round:u8 block_digest:hash signed_payload:bytes16"
           " share:SignatureShare"),
    Proof: ("round:u8 block_digest:hash signed_payload:bytes16"
            " signature:ThresholdSignature"
            " prior_signature:ThresholdSignature?"),
    Query: "block_digests:hash*",
    ChunkResponse: ("block_digest:hash root:hash chunk_index:u32"
                    " chunk_data:bytes32 proof:MerkleProof meta:Datablock"),
    CheckpointShare: "sn:u64 state_digest:hash share:SignatureShare",
    CheckpointProof: "sn:u64 state_digest:hash signature:ThresholdSignature",
    TimeoutMsg: "view:u64 signature:PlainSignature",
    ViewChangeMsg: ("new_view:u64 checkpoint:<CheckpointProof>?"
                    " entries:<NotarizedEntry>* signature:PlainSignature"),
    NewViewMsg: ("new_view:u64 view_changes:<ViewChangeMsg>*"
                 " redo:<BFTblock>* signature:PlainSignature"),
    # -- PBFT
    PrePrepare: ("view:u64 sn:u64 request_count:u32 payload_size:u32"
                 " proposed_at:f64 spans:BundleSpan*"),
    Prepare: "view:u64 sn:u64 block_digest:hash voter:u32",
    Commit: "view:u64 sn:u64 block_digest:hash voter:u32",
    # -- HotStuff
    HSBlock: ("height:u64 parent_digest:hash justify:<QuorumCert>?"
              " request_count:u32 payload_size:u32 proposed_at:f64"
              " spans:BundleSpan*"),
    HSVote: "height:u64 block_digest:hash voter:u32",
    HSNewView: "view:u64 high_qc:<QuorumCert>?",
    # -- recovery
    StateRequest: "start_sn:u64 end_sn:u64",
    StateSnapshot: ("last_executed:u64 state_digest:hash"
                    " checkpoint:<CheckpointProof>?"),
    LedgerSegment: "start_sn:u64 entries:SegmentEntry*",
}

#: Wire type tag of every message.  Tags are wire ABI: never renumber an
#: existing entry, only append.
_TAGS = {
    RequestBundle: 1, Ack: 2, Datablock: 3, Ready: 4, BFTblock: 5, Vote: 6,
    Proof: 7, Query: 8, ChunkResponse: 9, CheckpointShare: 10,
    CheckpointProof: 11, TimeoutMsg: 12, ViewChangeMsg: 13, NewViewMsg: 14,
    PrePrepare: 20, Prepare: 21, Commit: 22,
    HSBlock: 30, HSVote: 31, HSNewView: 32,
    StateRequest: 40, StateSnapshot: 41, LedgerSegment: 42,
}

#: Messages whose ``size_bytes()`` is a constant: one ``Struct.pack``
#: writes each whole frame, header and padding included.
_FIXED_SIZE = (Ready, Ack, HSVote, Prepare, Commit, CheckpointShare,
               CheckpointProof, StateRequest)

#: Fixed-width kinds: format when encoding, format when decoding, and the
#: expression packed for field ``{0}`` / built from unpacked ``{0}``.
_FIXED = {
    "u8": ("B", "B", "{0}", "{0}"),
    "u16": ("H", "H", "{0}", "{0}"),
    "u32": ("I", "I", "{0}", "{0}"),
    "u64": ("Q", "Q", "{0}", "{0}"),
    "f64": ("d", "d", "{0}", "{0}"),
    "bool": ("?", "B", "{0}", "{0} == 1"),
    "hash": ("32s", "32s", "({0} if len({0}) == 32 else _bad_digest({0}))",
             "{0}"),
    "int256": ("32s", "32s", "{0}.to_bytes(32, 'big')",
               "_from_bytes({0}, 'big')"),
}

#: Length-prefixed byte strings: the format of their length.
_BYTES = {"bytes16": "H", "bytes32": "I"}

_FIELD = re.compile(r"(\w+):(<?)(\w+)>?([?*]?)(\w*)$")


def _bad_digest(value: bytes) -> bytes:
    raise CodecError(f"expected a 32-byte digest, got {len(value)}")


# ---------------------------------------------------------------------------
# The compiler: table -> generated encoders and decoders
# ---------------------------------------------------------------------------


class _Compiler:
    """The parsed table and the namespace the generated code runs in."""

    def __init__(self) -> None:
        self.classes = {cls.__name__: cls for cls in _TABLE}
        self.fields = {cls.__name__: [_parse(item) for item in spec.split()]
                       for cls, spec in _TABLE.items()}
        self.namespace = {
            "CodecError": CodecError, "_ZERO_BLOCK": _ZERO_BLOCK,
            "_bad_digest": _bad_digest, "_from_bytes": int.from_bytes,
            **self.classes}
        self.structs: dict[str, str] = {}
        self.sources: dict[str, str] = {}  # generated so far, by name

    def define(self, function: _Function):
        """Compile ``function`` — after each nested-blob function it calls
        that is not compiled yet — and return it."""
        for kind in function.calls:
            if function.nested.format(kind) not in self.namespace:
                self.define(type(function)(self, kind))
        source = self.sources[function.name] = "\n".join(function.lines)
        exec(compile(source, f"<codec {function.name}>", "exec"),
             self.namespace)
        return self.namespace[function.name]

    def struct(self, fmt: str) -> str:
        """The name of the precompiled ``Struct`` for ``fmt``."""
        name = self.structs.get(fmt)
        if name is None:
            name = self.structs[fmt] = f"_S{len(self.structs)}"
            self.namespace[name] = struct.Struct("!" + fmt)
        return name

    def zero(self, name: str):
        """An all-zero instance of a fixed-width structure."""
        zeros = {"f64": 0.0, "bool": False, "hash": bytes(32)}
        return self.classes[name](**{
            field: zeros.get(kind, 0) if kind in _FIXED else self.zero(kind)
            for field, _, kind, _, _ in self.fields[name]})

    def construct(self, name: str, args: list[str]) -> str:
        """A positional constructor call from args in wire order."""
        if name == "tuple":
            return "(" + "".join(f"{arg}, " for arg in args) + ")"
        by_field = dict(zip((f[0] for f in self.fields[name]), args))
        order = [f.name for f in dataclasses.fields(self.classes[name])
                 if f.init]
        if sorted(order) != sorted(by_field):
            raise TypeError(f"table fields of {name} are not {order}")
        return f"{name}({', '.join(by_field[field] for field in order)})"


def _parse(item: str) -> tuple[str, bool, str, str, str]:
    """``name:kind`` -> (name, nested, kind, modifier, count format)."""
    field, nested, kind, mod, width = _FIELD.match(item).groups()
    return field, bool(nested), kind, mod, _FIXED[width or "u32"][1]


def _size(run: list) -> int:
    return struct.calcsize("!" + "".join(fmt for fmt, _ in run))


class _Function:
    """The source of one generated function and its pending fixed run:
    ``(format, expression)`` pairs when encoding, ``(format, local)``
    when decoding."""

    nested = ""  # name of the function for a nested blob of structure {}

    def __init__(self, compiler: _Compiler, name: str, params: str,
                 head: list) -> None:
        self.compiler = compiler
        self.name = name
        self.lines = [f"def {name}({params}):"]
        self.calls: set[str] = set()  # structures read or written nested
        self.depth = 1
        self.locals = 0
        self.run = list(head)

    def call(self, kind: str, arg: str) -> str:
        self.calls.add(kind)
        return f"{self.nested.format(kind)}({arg})"

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def local(self) -> str:
        self.locals += 1
        return f"_{self.locals}"

    def record(self, kind: str, *obj: str) -> tuple[list, str | None]:
        """The run and value of one fixed-width list item or option."""
        saved, self.run = self.run, []
        lines = len(self.lines)
        value = self.part(False, kind, *obj)
        if len(self.lines) != lines:
            raise TypeError(f"{kind} is not fixed-width")
        run, self.run = self.run, saved
        return run, value


class _Encoder(_Function):
    """``_frame_X(sender, m)`` (whole frame) or ``_blob_X(m)`` (u32
    length + body): runs packed, variable parts computed first and
    joined in between."""

    nested = "_blob_{}"

    def __init__(self, compiler: _Compiler, name: str,
                 tag: int | None = None) -> None:
        fixed = compiler.classes[name] in _FIXED_SIZE and tag is not None
        if tag is None:
            super().__init__(compiler, self.nested.format(name), "m",
                             [("I", "body")])
        else:
            size = compiler.zero(name).size_bytes() if fixed else None
            super().__init__(compiler, f"_frame_{name}", "sender, m", [
                ("I", f"{size - LENGTH_PREFIX}" if fixed
                 else f"{_HEADER.size - LENGTH_PREFIX} + body + pad"),
                ("B", f"{tag}"), ("I", "sender")])
        head = list(self.run)
        self.pieces: list = []  # runs, and the locals of variable parts
        self.write(name, "m")
        self.pieces.append(self.run)
        variable = [p for p in self.pieces if isinstance(p, str)]
        static = sum(_size(p) for p in self.pieces if isinstance(p, list))
        static -= _size(head)
        if fixed:
            padding = size - _HEADER.size - static
            if variable or padding < 0:
                raise TypeError(f"{name} is not fixed-size")
            self.run.append((f"{padding}x", None))
            self.emit(f"return {self.pack(self.run)}")
            return
        parts = ", ".join(p if isinstance(p, str) else self.pack(p)
                          for p in self.pieces if p)
        self.emit(" + ".join([f"body = {static}"]
                             + [f"len({p})" for p in variable]))
        if tag is None:
            self.emit(f'return b"".join([{parts}])' if variable
                      else f"return {parts}")
            return
        self.emit(f"pad = m.size_bytes() - {_HEADER.size} - body")
        self.emit("if pad < 0:")
        self.emit("    pad = 0")
        self.emit(f"parts = [{parts}]")
        self.emit("if pad:")
        self.emit(f"    whole, rest = divmod(pad, {len(_ZERO_BLOCK)})")
        self.emit("    parts += [_ZERO_BLOCK] * whole")
        self.emit("    parts.append(_ZERO_BLOCK[:rest])")
        self.emit('return b"".join(parts)')

    def pack(self, run: list) -> str:
        fmt = "".join(fmt for fmt, _ in run)
        args = ", ".join(expr for _, expr in run if expr is not None)
        return f"{self.compiler.struct(fmt)}.pack({args})"

    def add(self, expr: str, length: str | None = None) -> None:
        """A variable part, after the current run (which ends with its
        ``length`` if it has one)."""
        local = self.local()
        self.emit(f"{local} = {expr}")
        if length:
            self.run.append((length, f"len({local})"))
        self.pieces += [self.run, local]
        self.run = []

    def part(self, nested: bool, kind: str, obj: str) -> None:
        if nested:
            self.add(self.call(kind, obj))
        elif kind in _BYTES:
            self.add(obj, _BYTES[kind])
        elif kind in _FIXED:
            self.run.append((_FIXED[kind][0], _FIXED[kind][2].format(obj)))
        else:
            self.write(kind, obj)

    def write(self, name: str, obj: str) -> None:
        for index, (field, nested, kind, mod, width) in enumerate(
                self.compiler.fields[name]):
            value = f"{obj}[{index}]" if name == "tuple" else f"{obj}.{field}"
            if mod == "*":
                self.run.append((width, f"len({value})"))
                if nested:
                    self.calls.add(kind)
                    blob = self.nested.format(kind)
                    self.add(f'b"".join(map({blob}, {value}))')
                else:
                    item = self.pack(self.record(kind, "r")[0])
                    self.add(f'b"".join([{item} for r in {value}])')
            elif mod == "?":
                self.run.append(("?", f"{value} is not None"))
                content = (self.call(kind, value) if nested
                           else self.pack(self.record(kind, value)[0]))
                self.add(f'b"" if {value} is None else {content}')
            else:
                self.part(nested, kind, value)


class _Decoder(_Function):
    """``_read_frame_X(v)`` -> ``(sender, msg)`` from a payload, or
    ``_read_X(v)`` -> msg from a nested blob: one ``unpack_from`` per
    run, at a constant offset until the first variable part and at ``o``
    after it; every variable part is bounds-checked before it is read."""

    nested = "_read_{}"

    def __init__(self, compiler: _Compiler, name: str,
                 frame: bool = False) -> None:
        if frame:
            super().__init__(compiler, f"_read_frame_{name}", "v",
                             [("x", None), ("I", "sender")])
        else:
            super().__init__(compiler, self.nested.format(name), "v", [])
        self.pos: int | None = 0  # constant offset, None once it is ``o``
        value = self.read(name)
        self.flush()
        if self.lines[-1].startswith("    o "):
            self.lines.pop()  # nothing reads past the last part
        self.emit(f"return sender, {value}" if frame else f"return {value}")

    def take(self, fmt: str) -> str:
        local = self.local()
        self.run.append((fmt, local))
        return local

    def flush(self) -> None:
        if not self.run:
            return
        fmt = "".join(fmt for fmt, _ in self.run)
        targets = "".join(f"{local}, " for _, local in self.run if local)
        offset = "o" if self.pos is None else self.pos
        self.emit(f"{targets}= {self.compiler.struct(fmt)}"
                  f".unpack_from(v, {offset})")
        if self.pos is None:
            self.emit(f"o += {_size(self.run)}")
        else:
            self.pos += _size(self.run)
        self.run = []

    def dynamic(self) -> None:
        """Read everything pending; from here on the offset is ``o``."""
        self.flush()
        if self.pos is not None:
            self.emit(f"o = {self.pos}")
            self.pos = None

    def span(self, length: str) -> None:
        """Check that ``length`` bytes follow; they are ``v[o:e]``."""
        self.dynamic()
        self.emit(f"e = o + {length}")
        self.emit("if e > len(v):")
        self.emit('    raise CodecError("truncated frame body")')

    def blob(self) -> str:
        """A view of the next u32-length-prefixed bytes."""
        self.span(self.take("I"))
        local = self.local()
        self.emit(f"{local} = v[o:e]")
        self.emit("o = e")
        return local

    def part(self, nested: bool, kind: str) -> str:
        if nested:
            return self.call(kind, self.blob())
        if kind in _BYTES:
            self.span(self.take(_BYTES[kind]))
            local = self.local()
            self.emit(f"{local} = bytes(v[o:e])")
            self.emit("o = e")
            return local
        if kind in _FIXED:
            return _FIXED[kind][3].format(self.take(_FIXED[kind][1]))
        return self.read(kind)

    def read(self, name: str) -> str:
        args = []
        for _, nested, kind, mod, width in self.compiler.fields[name]:
            if mod == "*" and nested:
                count, items = self.take(width), self.local()
                self.dynamic()
                self.emit(f"{items} = []")
                self.emit(f"for _ in range({count}):")
                self.depth += 1
                self.emit(f"{items}.append({self.call(kind, self.blob())})")
                self.depth -= 1
                args.append(f"tuple({items})")
            elif mod == "*":
                count = self.take(width)
                run, item = self.record(kind)
                self.span(f"{_size(run)} * {count}")
                items = self.local()
                targets = "".join(f"{local}, " for _, local in run)
                unpack = self.compiler.struct("".join(f for f, _ in run))
                self.emit(f"{items} = tuple([{item} for {targets}in "
                          f"{unpack}.iter_unpack(v[o:e])])")
                self.emit("o = e")
                args.append(items)
            elif mod == "?":
                flag, value = self.take("B"), self.local()
                self.dynamic()
                self.emit(f"if {flag} == 1:")
                self.depth += 1
                content = self.part(nested, kind)
                self.flush()
                self.emit(f"{value} = {content}")
                self.depth -= 1
                self.emit("else:")
                self.emit(f"    {value} = None")
                args.append(value)
            else:
                args.append(self.part(nested, kind))
        return self.compiler.construct(name, args)


class _Compiled(dict):
    """Frame functions by message class or tag, each generated and
    compiled on its first lookup: importing the codec stays cheap, and a
    process that never touches a frame (the simulator) compiles none."""

    def __init__(self, generate) -> None:
        super().__init__()
        self.generate = generate

    def __missing__(self, key):
        function = self[key] = _COMPILER.define(self.generate(key))
        return function


_COMPILER = _Compiler()
_TYPES = {tag: cls for cls, tag in _TAGS.items()}
_ENCODERS = _Compiled(
    lambda cls: _Encoder(_COMPILER, cls.__name__, _TAGS[cls]))
_DECODERS = _Compiled(
    lambda tag: _Decoder(_COMPILER, _TYPES[tag].__name__, frame=True))


def registered_message_types() -> dict[type, int]:
    """Every encodable message class and its wire type tag."""
    return dict(_TAGS)


# ---------------------------------------------------------------------------
# Top-level encode / decode
# ---------------------------------------------------------------------------


def encode(sender: int, msg) -> bytes:
    """Encode one message into a full frame (length prefix included).

    The frame is padded to ``msg.size_bytes()`` — the abstract cost model's
    wire size — whenever the encoded fields fit within it (they do for all
    protocol-generated messages); otherwise the frame grows past the model.
    """
    try:
        frame = _ENCODERS[type(msg)]
    except KeyError:
        raise CodecError(
            f"unregistered message type {type(msg).__name__}") from None
    try:
        return frame(sender, msg)
    except (struct.error, OverflowError) as exc:
        raise CodecError(f"cannot encode {type(msg).__name__}: {exc}") \
            from exc


def decode_payload(payload: bytes | memoryview) -> tuple[int, object]:
    """Decode a frame payload (everything after the length prefix).

    Returns ``(sender, message)``.  Trailing padding is ignored.
    """
    view = memoryview(payload)
    if len(view) < _HEADER.size - LENGTH_PREFIX:
        raise CodecError("frame shorter than its header")
    try:
        read = _DECODERS[view[0]]
    except KeyError:
        raise CodecError(f"unknown message type tag {view[0]}") from None
    try:
        return read(view)
    except struct.error as exc:
        raise CodecError(f"malformed {_TYPES[view[0]].__name__} frame: "
                         f"{exc}") from exc


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
