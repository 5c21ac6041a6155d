"""Python-level calls per encode / decode: pins the mechanism, not a time.

A count of ``call`` profile events is exact and repeatable where a
timing is not.  The table-compiled codec reads a fixed-size frame in a
handful of calls and a block in a few plus one per span; the
hand-written codec it replaced made one or more calls per field.
Every class must also stay at or below the frozen oracle's count.
"""

from __future__ import annotations

import sys

import pytest

from repro.messages.client import Ack
from repro.messages.hotstuff import HSBlock, HSVote
from repro.messages.leopard import (
    BFTblock,
    BundleSpan,
    CheckpointProof,
    CheckpointShare,
    Datablock,
    Ready,
    Vote,
)
from repro.messages.pbft import Commit, Prepare
from repro.messages.recovery import StateRequest
from repro.wire import codec
from repro.wire.codec import LENGTH_PREFIX
from tests.wire import codec_oracle as oracle
from tests.wire.test_codec_roundtrip import CORPUS, _ids

#: Fixed-size hot classes: at most this many calls each way.
FIXED_SIZE = (Ready, Ack, HSVote, Prepare, Commit, CheckpointShare,
              CheckpointProof, StateRequest)
FIXED_LIMIT = 4
#: Blocks: at most ``BLOCK_BASE + BLOCK_PER_ITEM`` per span or link.
BLOCK_BASE, BLOCK_PER_ITEM = 10, 2

TEN_SPANS = Datablock(1, 2, 100, 128, tuple(
    BundleSpan(client, client, 10, 0.5) for client in range(10)), 0.25)
MESSAGES = CORPUS + [TEN_SPANS]


def calls(function, *args) -> int:
    """Python-level function calls made by ``function(*args)``, itself
    included."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return count


def both_ways(module, msg) -> tuple[int, int]:
    frame = module.encode(7, msg)
    payload = memoryview(frame)[LENGTH_PREFIX:]
    return (calls(module.encode, 7, msg),
            calls(module.decode_payload, payload))


def items(msg) -> int:
    return len(msg.links) if isinstance(msg, BFTblock) else len(msg.spans)


@pytest.mark.parametrize("msg", MESSAGES, ids=_ids(MESSAGES))
def test_calls_per_encode_and_decode(msg):
    codec.decode(codec.encode(7, msg))  # compile this class's functions
    encode_calls, decode_calls = both_ways(codec, msg)
    if type(msg) in FIXED_SIZE:
        limit = FIXED_LIMIT
    elif type(msg) in (Datablock, BFTblock, HSBlock):
        limit = BLOCK_BASE + BLOCK_PER_ITEM * items(msg)
    else:
        limit = None
    if limit is not None:
        assert max(encode_calls, decode_calls) <= limit, (
            encode_calls, decode_calls, limit)
    oracle_encode, oracle_decode = both_ways(oracle, msg)
    assert encode_calls <= oracle_encode
    assert decode_calls <= oracle_decode


def test_the_hand_written_codec_fails_the_guard():
    """The replaced codec read a Ready in 6 calls, a Vote in 19 and a
    ten-span Datablock in 118: the limits above would have caught it."""
    vote = next(msg for msg in CORPUS if isinstance(msg, Vote))
    assert both_ways(oracle, Ready(bytes(32)))[1] > FIXED_LIMIT
    assert both_ways(oracle, vote)[1] > FIXED_LIMIT
    assert both_ways(oracle, TEN_SPANS)[1] > BLOCK_BASE + BLOCK_PER_ITEM * 10
