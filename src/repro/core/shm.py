"""Shared-memory ring-buffer transport for epoch-sync payloads.

The serving fleet exchanges bulk epoch payloads -- evaluation-memo
fragments and solve gossip -- between fork shards and the parent,
through the epoch runtime in :mod:`repro.core.parallel`.  Those payloads used to ride inside the
control messages on :class:`multiprocessing.SimpleQueue`, which means
every epoch serializes kilobytes through a pipe one ``write(2)`` /
``read(2)`` pair at a time.  :class:`ShmRing` moves the bulk bytes
into a :mod:`multiprocessing.shared_memory` segment instead: the
control message shrinks to a fixed-size token and the payload crosses
the process boundary as a single memcpy.

Design rules (and what they buy):

* **Single writer, single reader, per direction.**  Every
  (worker, parent) pair gets two rings -- one up, one down -- so no
  ring ever has two writers and no lock is needed.
* **Control stays on the queue.**  A payload token is only ever read
  *after* the matching control message arrives through the pipe, and a
  pipe round-trip is a synchronization point: the writer's memcpy
  happens-before the reader's.  The ring adds no ordering of its own.
* **Records are self-validating.**  ``[u32 length][u32 crc32][payload]``,
  with the committed-offset header published only after the record
  body is fully written.  A reader never trusts bytes past the
  committed offset, and a record whose length or CRC does not check
  out is a *torn tail*: the valid prefix is kept and the garbage is
  ignored -- the same recovery contract as the solve store's JSONL
  torn-tail handling (``core/solve_store``).
* **Overflow degrades, never blocks.**  When the reader lags and the
  ring is full, :meth:`ShmRing.try_write` refuses the record and
  :class:`DeltaChannel` falls back to sending the payload inline on
  the control queue -- bit-identical content, just the slow path.
  Nothing ever spins on the ring.

Determinism: the transport moves opaque pickled bytes and preserves
send order per direction.  Which path a payload takes (ring or inline
fallback) can depend on timing, but the *content* delivered is
identical either way, and every payload carries its epoch tag, which
the epoch runtime uses to merge in (epoch, worker-index) order
regardless of arrival path -- so per-shard reports and solver traces
remain byte-identical to the in-process (serial) runs.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any

#: ring header: [0:8) committed write offset, [8:16) reader ack offset
#: (both monotone virtual offsets; data starts at byte 16)
_HEADER = 16
_U64 = struct.Struct("<Q")
#: per-record prefix: little-endian u32 length + u32 crc32(payload)
_REC = struct.Struct("<II")


class RingUnavailable(RuntimeError):
    """``multiprocessing.shared_memory`` cannot back a ring here."""


class TornRecord(RuntimeError):
    """A record failed validation (length or CRC) mid-read."""


def shared_memory_available() -> bool:
    """Best-effort probe for a usable shared-memory implementation."""
    try:
        from multiprocessing import shared_memory

        probe = shared_memory.SharedMemory(create=True, size=16)
    except (ImportError, OSError, PermissionError):
        return False
    probe.close()
    probe.unlink()
    return True


class ShmRing:
    """Bounded single-writer / single-reader shared-memory ring.

    Offsets are *virtual* (monotonically increasing, never wrapped);
    the data region is addressed modulo ``capacity``, so records may
    wrap around the physical end of the segment.  The writer publishes
    the committed offset only after the record body is in place; the
    reader publishes its ack offset only after consuming, which is
    what the writer's free-space check reads.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < _REC.size + 1:
            raise ValueError(f"capacity {capacity} too small for a record")
        from multiprocessing import shared_memory

        self.capacity = capacity
        try:
            self._shm = shared_memory.SharedMemory(
                create=True, size=_HEADER + capacity
            )
        except (OSError, PermissionError) as exc:
            raise RingUnavailable(f"shared memory unavailable: {exc}")
        buf = self._shm.buf
        assert buf is not None
        _U64.pack_into(buf, 0, 0)
        _U64.pack_into(buf, 8, 0)
        #: reader-local cursor (virtual offset of the next unread byte)
        self._read_off = 0
        self._closed = False

    # -- header accessors ----------------------------------------------
    @property
    def committed(self) -> int:
        """Virtual offset of the end of the last published record."""
        return int(_U64.unpack_from(self._shm.buf, 0)[0])

    @property
    def acked(self) -> int:
        """Virtual offset the reader has consumed up to."""
        return int(_U64.unpack_from(self._shm.buf, 8)[0])

    @property
    def free_bytes(self) -> int:
        return self.capacity - (self.committed - self.acked)

    # -- raw circular IO ------------------------------------------------
    def _write_at(self, offset: int, payload: bytes) -> None:
        buf = self._shm.buf
        pos = offset % self.capacity
        first = min(len(payload), self.capacity - pos)
        buf[_HEADER + pos : _HEADER + pos + first] = payload[:first]
        rest = payload[first:]
        if rest:
            buf[_HEADER : _HEADER + len(rest)] = rest

    def _read_at(self, offset: int, size: int) -> bytes:
        buf = self._shm.buf
        pos = offset % self.capacity
        first = min(size, self.capacity - pos)
        out = bytes(buf[_HEADER + pos : _HEADER + pos + first])
        if first < size:
            out += bytes(buf[_HEADER : _HEADER + size - first])
        return out

    # -- writer ---------------------------------------------------------
    def try_write(self, payload: bytes) -> bool:
        """Append one record; ``False`` when the reader lags too far.

        Refusal (instead of blocking or overwriting) is the overflow
        contract: the caller falls back to its inline path and the
        reader's unconsumed records stay intact.
        """
        need = _REC.size + len(payload)
        if need > self.capacity - (self.committed - self.acked):
            return False
        offset = self.committed
        self._write_at(
            offset, _REC.pack(len(payload), zlib.crc32(payload)) + payload
        )
        # publish *after* the body: bytes past `committed` are garbage
        # by contract, so a crash mid-write tears nothing visible
        _U64.pack_into(self._shm.buf, 0, offset + need)
        return True

    # -- reader ---------------------------------------------------------
    def _parse_one(self, offset: int, limit: int) -> tuple[bytes, int]:
        """Validate and return the record at ``offset``; raises
        :class:`TornRecord` when length or CRC do not check out."""
        if limit - offset < _REC.size:
            raise TornRecord(
                f"truncated record header at offset {offset}"
            )
        length, crc = _REC.unpack(self._read_at(offset, _REC.size))
        if length > self.capacity - _REC.size:
            raise TornRecord(f"implausible record length {length}")
        if offset + _REC.size + length > limit:
            raise TornRecord(
                f"record at {offset} extends past committed offset"
            )
        payload = self._read_at(offset + _REC.size, length)
        if zlib.crc32(payload) != crc:
            raise TornRecord(f"CRC mismatch at offset {offset}")
        return payload, offset + _REC.size + length

    def read_one(self) -> bytes:
        """Consume exactly one record (the transport fast path)."""
        payload, nxt = self._parse_one(self._read_off, self.committed)
        self._read_off = nxt
        _U64.pack_into(self._shm.buf, 8, nxt)
        return payload

    def read_available(self) -> list[bytes]:
        """Consume every valid record; tolerate a torn tail.

        Mirrors the solve store's recovery semantics: the valid prefix
        is returned, the first invalid record and everything after it
        is dropped, and the cursor skips to the committed offset so a
        recovered writer can keep appending.
        """
        out: list[bytes] = []
        limit = self.committed
        offset = self._read_off
        while offset < limit:
            try:
                payload, offset = self._parse_one(offset, limit)
            except TornRecord:
                offset = limit  # drop the torn tail, keep the prefix
                break
            out.append(payload)
        self._read_off = offset
        _U64.pack_into(self._shm.buf, 8, offset)
        return out

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner side, after workers exited)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:  # already unlinked by a peer
            pass


#: token tags on the control queue (see :class:`DeltaChannel`)
_SHM, _INLINE = "shm", "inline"


class TagMismatch(RuntimeError):
    """A ring record's epoch tag disagrees with its control token."""


class DeltaChannel:
    """One-direction transport for picklable, epoch-tagged payloads.

    ``pack(obj, tag)`` turns an object into a small token for the
    control queue: ``("shm", tag)`` when the pickled ``(tag, obj)``
    record landed in the ring, ``("inline", tag, obj)`` when there is
    no ring or the ring is full (reader-lag overflow).  ``unpack``
    inverts it on the other side and re-checks that a ring record's
    embedded tag matches its token's -- a cheap end-to-end guard that
    a lagging reader and a fast writer never pair a token with the
    wrong epoch's bytes.  Tokens must be unpacked in send order -- the
    ring is FIFO.

    With ``ring=None`` the channel degenerates to the inline path,
    which is how a host without shared memory speaks the same
    protocol with zero copies of this code.
    """

    def __init__(self, ring: ShmRing | None = None) -> None:
        self.ring = ring
        #: transport telemetry (benchmarks report these)
        self.sent_ring = 0
        self.sent_inline = 0

    def pack(self, obj: Any, tag: Any) -> tuple[Any, ...]:
        if self.ring is not None:
            payload = pickle.dumps((tag, obj), protocol=pickle.HIGHEST_PROTOCOL)
            if self.ring.try_write(payload):
                self.sent_ring += 1
                return (_SHM, tag)
        self.sent_inline += 1
        return (_INLINE, tag, obj)

    def unpack(self, token: tuple[Any, ...]) -> Any:
        if token[0] != _SHM:
            return token[2]
        assert self.ring is not None, "shm token without a ring"
        tag, obj = pickle.loads(self.ring.read_one())
        if tag != token[1]:
            raise TagMismatch(
                f"ring record tagged {tag!r}, token says {token[1]!r}"
            )
        return obj

    def close(self) -> None:
        if self.ring is not None:
            self.ring.close()

    def unlink(self) -> None:
        if self.ring is not None:
            self.ring.unlink()


def make_channel_pair(
    capacity: int = 1 << 20,
) -> tuple[DeltaChannel, DeltaChannel]:
    """(up, down) ring channels for one worker, or inline channels
    when shared memory is unavailable on this host."""
    try:
        return DeltaChannel(ShmRing(capacity)), DeltaChannel(ShmRing(capacity))
    except RingUnavailable:
        return DeltaChannel(None), DeltaChannel(None)
