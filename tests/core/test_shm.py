"""Property tests for the shared-memory ring transport (repro.core.shm).

Hypothesis drives the ring through its contractual edge cases:
records wrapping the physical end of the segment, torn or corrupted
tails recovered as a valid prefix, reader-lag overflow degrading to
the inline path with bit-identical content.  The end-to-end guarantee
the transport exists for -- fork fleet shards gossiping over the
rings report byte-identically to the serial fleet -- is pinned by
``tests/serve/test_fleet.py`` and the fleet bench.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.shm import (
    _HEADER,
    _REC,
    _U64,
    DeltaChannel,
    ShmRing,
    TagMismatch,
    TornRecord,
    make_channel_pair,
    shared_memory_available,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="no usable multiprocessing.shared_memory on this host",
)

#: every generated record fits even the smallest generated ring:
#: max record bytes = _REC.size + MAX_PAYLOAD < MIN_CAPACITY
MAX_PAYLOAD = 48
MIN_CAPACITY = 96
MAX_CAPACITY = 256

payloads = st.binary(max_size=MAX_PAYLOAD)


def _drain_write(ring: ShmRing, rec: bytes) -> list[bytes]:
    """Write ``rec``, draining first on reader-lag refusal."""
    if ring.try_write(rec):
        return []
    got = ring.read_available()
    assert ring.try_write(rec), "drained ring refused a fitting record"
    return got


# -- wraparound: virtual offsets vs the physical segment ---------------
@given(
    records=st.lists(payloads, min_size=1, max_size=60),
    capacity=st.integers(MIN_CAPACITY, MAX_CAPACITY),
)
def test_ring_roundtrip_preserves_order_across_wraparound(
    records, capacity
):
    """Interleaved write/drain cycles return every payload, in order,
    regardless of how records straddle the physical end."""
    ring = ShmRing(capacity)
    try:
        got: list[bytes] = []
        for rec in records:
            got.extend(_drain_write(ring, rec))
        got.extend(ring.read_available())
        assert got == records
        assert ring.free_bytes == ring.capacity
        # offsets are virtual: committed never wraps back
        total = sum(_REC.size + len(r) for r in records)
        assert ring.committed == total
        assert ring.acked == total
    finally:
        ring.close()
        ring.unlink()


def test_ring_record_straddles_physical_boundary():
    """A record split across the segment end reads back intact."""
    ring = ShmRing(MIN_CAPACITY)
    try:
        first = bytes(range(64))
        assert ring.try_write(first)
        assert ring.read_available() == [first]
        # next record starts at virtual offset 72; 96 - 72 = 24 bytes
        # remain before the physical end, so this 40-byte payload wraps
        second = bytes(reversed(range(40)))
        assert ring.try_write(second)
        assert ring.committed > ring.capacity  # genuinely wrapped
        assert ring.read_one() == second
    finally:
        ring.close()
        ring.unlink()


# -- torn tails: the solve-store recovery contract ---------------------
@given(
    records=st.lists(payloads, min_size=1, max_size=12),
    torn=payloads,
    data=st.data(),
)
def test_corrupted_record_keeps_valid_prefix(records, torn, data):
    """A bit flipped anywhere inside record ``k`` drops ``k`` and its
    successors; records before it survive, and the cursor recovers to
    the committed offset so later writes read back normally."""
    ring = ShmRing(4096)
    try:
        offsets = []
        for rec in records:
            offsets.append(ring.committed)
            assert ring.try_write(rec)
        k = data.draw(st.integers(0, len(records) - 1), label="record")
        span = _REC.size + len(records[k])
        byte = data.draw(st.integers(0, span - 1), label="byte")
        bit = data.draw(st.integers(0, 7), label="bit")
        pos = _HEADER + (offsets[k] + byte) % ring.capacity
        ring._shm.buf[pos] ^= 1 << bit
        assert ring.read_available() == records[:k]
        # recovery: the torn tail is skipped, not re-parsed forever
        after = b"post-recovery"
        assert ring.try_write(after)
        assert ring.read_available() == [after]
    finally:
        ring.close()
        ring.unlink()


@given(prefix=st.lists(payloads, max_size=6), garbage=payloads)
def test_partial_write_published_as_torn_tail(prefix, garbage):
    """A writer that crashed after publishing a half-written record
    (bad CRC) must not poison the valid prefix before it."""
    ring = ShmRing(4096)
    try:
        for rec in prefix:
            assert ring.try_write(rec)
        # forge the torn record: body in place, CRC deliberately wrong,
        # committed header published past it (the crash window)
        off = ring.committed
        ring._write_at(off, _REC.pack(len(garbage), 0xDEADBEEF) + garbage)
        _U64.pack_into(ring._shm.buf, 0, off + _REC.size + len(garbage))
        assert ring.read_available() == prefix
        with pytest.raises(TornRecord):
            # the strict single-record path refuses resurrected garbage
            ring._parse_one(off, ring.committed)
    finally:
        ring.close()
        ring.unlink()


# -- reader-lag overflow: refuse, never block or overwrite -------------
@given(records=st.lists(payloads, min_size=1, max_size=60))
def test_overflow_refuses_and_preserves_unread_records(records):
    ring = ShmRing(MIN_CAPACITY)
    try:
        accepted: list[bytes] = []
        for rec in records:
            if ring.try_write(rec):
                accepted.append(rec)
        assert ring.read_available() == accepted
        # after the reader drains, the ring accepts again
        assert ring.try_write(b"x" * MAX_PAYLOAD)
        assert ring.read_one() == b"x" * MAX_PAYLOAD
    finally:
        ring.close()
        ring.unlink()


@given(
    objs=st.lists(
        st.one_of(
            st.binary(max_size=200),
            st.tuples(st.integers(), st.text(max_size=40)),
            st.dictionaries(st.text(max_size=6), st.floats(allow_nan=False)),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_channel_overflow_falls_back_inline_with_identical_content(objs):
    """Tokens unpack to equal objects in send order even when the ring
    fills mid-sequence and later payloads ride the control queue; each
    token keeps its epoch tag on either path."""
    up = DeltaChannel(ShmRing(512))
    try:
        tokens = [up.pack(o, epoch) for epoch, o in enumerate(objs)]
        assert up.sent_ring + up.sent_inline == len(objs)
        assert [t[1] for t in tokens] == list(range(len(objs)))
        big = sum(
            len(pickle.dumps(o, pickle.HIGHEST_PROTOCOL)) for o in objs
        )
        if big > 512:  # guaranteed lag: nothing was read back
            assert up.sent_inline > 0
        assert [up.unpack(t) for t in tokens] == objs
        # draining acked the ring: the fast path is available again
        assert up.pack(objs[0], 0)[0] in ("shm", "inline")
    finally:
        up.close()
        up.unlink()


def test_channel_without_ring_degenerates_to_inline():
    ch = DeltaChannel(None)
    token = ch.pack({"a": 1}, 3)
    assert token == ("inline", 3, {"a": 1})
    assert ch.unpack(token) == {"a": 1}
    assert ch.sent_ring == 0 and ch.sent_inline == 1
    ch.close()
    ch.unlink()


def test_make_channel_pair_lifecycle():
    up, down = make_channel_pair(capacity=1024)
    try:
        t = up.pack((1, 2, 3), 0)
        assert up.unpack(t) == (1, 2, 3)
        t2 = down.pack("broadcast", 0)
        assert down.unpack(t2) == "broadcast"
    finally:
        up.close()
        up.unlink()
        down.close()
        down.unlink()


def test_ring_record_with_a_foreign_tag_is_refused():
    """A token must never pair with another epoch's ring record."""
    ch = DeltaChannel(ShmRing(1024))
    try:
        token = ch.pack("epoch 4 gossip", 4)
        assert token == ("shm", 4)
        with pytest.raises(TagMismatch):
            ch.unpack(("shm", 5))
    finally:
        ch.close()
        ch.unlink()
