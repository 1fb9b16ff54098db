"""The shared-memory ring buffer between internal sensors and the EXS.

In BRISK the ``NOTICE`` macros "write a data record ... to a ring-buffer data
structure in memory", and the external sensor — a separate, possibly
lower-priority process on the same node — reads it.  The ring therefore has
to work over a plain byte region so it can be backed either by a local
``bytearray`` (single process, simulation) or by
``multiprocessing.shared_memory`` (real two-process runtime,
:mod:`repro.runtime.shm`).

Design
------
Single-producer / single-consumer byte ring with a fixed header:

======  =====  =======================================================
offset  size   field
======  =====  =======================================================
0       8      ``head`` — total bytes ever written (monotonic, u64)
8       8      ``tail`` — total bytes ever consumed (monotonic, u64)
16      8      ``dropped`` — records rejected because the ring was full
24      8      ``wrapped`` — records discarded by the overwrite policy
======  =====  =======================================================

Monotonic head/tail counters (rather than wrapping offsets) make the
occupancy computation race-tolerant for the SPSC case: the producer only
writes ``head``, the consumer only writes ``tail``, and each reads the
other's counter at worst stale, which errs on the safe side (producer sees
the ring fuller than it is, consumer sees it emptier).

Records are written length-prefixed via :mod:`repro.core.native`; a record
never wraps — if it does not fit in the remaining contiguous region a *skip
marker* (length ``0xFFFFFFFF``) is written and the record starts back at
offset zero, mirroring how fixed-slot C rings burn the slack at the end.

Overflow policy (a §2 "tuning knob" — intrusion vs completeness):

* ``DROP_NEW`` — the producer drops the incoming record and counts it; the
  application never blocks, bounding intrusion (BRISK's default posture).
* ``OVERWRITE_OLD`` — the producer advances the tail over the oldest
  records.  Only safe when producer and consumer live in one process (the
  simulator); the shared-memory runtime refuses this policy.
"""

from __future__ import annotations

import struct
from enum import Enum
from typing import Iterator

from repro.core import native
from repro.core.records import EventRecord

_HEADER = struct.Struct("<QQQQ")
HEADER_SIZE = _HEADER.size  # 32 bytes
_LEN = struct.Struct("<I")
_SKIP_MARKER = 0xFFFF_FFFF
_LEN_SIZE = 4


class OverflowPolicy(Enum):
    """What the producer does when the ring cannot take the next record."""

    DROP_NEW = "drop_new"
    OVERWRITE_OLD = "overwrite_old"


class RingBufferFull(RuntimeError):
    """Raised by :meth:`RingBuffer.push` in ``DROP_NEW`` mode only when the
    caller asked for ``raise_on_full=True`` (tests, strict applications)."""


class RingBuffer:
    """SPSC byte ring over an arbitrary writable buffer.

    Parameters
    ----------
    buffer:
        A writable buffer (``bytearray``, ``memoryview``, shared-memory
        ``buf``).  The first :data:`HEADER_SIZE` bytes hold the control
        header; the rest is the data region.
    policy:
        Overflow behaviour; see :class:`OverflowPolicy`.
    attach:
        When True, adopt the existing header state in *buffer* (the consumer
        side of a shared-memory ring); when False, initialize a fresh ring.
    """

    def __init__(
        self,
        buffer,
        policy: OverflowPolicy = OverflowPolicy.DROP_NEW,
        *,
        attach: bool = False,
    ) -> None:
        self._view = memoryview(buffer)
        if self._view.readonly:
            raise ValueError("ring buffer requires a writable buffer")
        self._data_size = len(self._view) - HEADER_SIZE
        if self._data_size < 64:
            raise ValueError(
                f"buffer too small: need > {HEADER_SIZE + 64} bytes"
            )
        self.policy = policy
        # The four header words as one u64 view.  An item load/store is a
        # single aligned 8-byte access, so a peer *process* never sees a
        # half-written counter; ``struct.pack_into`` zero-fills and then
        # writes byte by byte, and a reader catching the zero drained
        # unwritten memory.  Native order is the documented little-endian
        # layout on every supported host (``_HEADER`` still names it).
        self._hdr = self._view[:HEADER_SIZE].cast("Q")
        if not attach:
            _HEADER.pack_into(self._view, 0, 0, 0, 0, 0)

    def release(self) -> None:
        """Drop the buffer exports (a shared-memory segment cannot be
        closed while they exist); the ring is unusable afterwards."""
        self._hdr.release()
        self._view.release()

    # ------------------------------------------------------------------
    # header accessors (each field has a single writer)
    # ------------------------------------------------------------------
    @property
    def head(self) -> int:
        """Total bytes ever written (producer-owned)."""
        return self._hdr[0]

    def _set_head(self, value: int) -> None:
        self._hdr[0] = value

    @property
    def tail(self) -> int:
        """Total bytes ever consumed (consumer-owned)."""
        return self._hdr[1]

    def _set_tail(self, value: int) -> None:
        self._hdr[1] = value

    @property
    def dropped(self) -> int:
        """Records rejected because the ring was full (``DROP_NEW``)."""
        return self._hdr[2]

    def _set_dropped(self, value: int) -> None:
        self._hdr[2] = value

    @property
    def overwritten(self) -> int:
        """Records discarded by ``OVERWRITE_OLD`` to make room."""
        return self._hdr[3]

    def _set_overwritten(self, value: int) -> None:
        self._hdr[3] = value

    # ------------------------------------------------------------------
    # occupancy
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Data-region size in bytes."""
        return self._data_size

    @property
    def used(self) -> int:
        """Bytes currently occupied (including skip-marker slack)."""
        return self.head - self.tail

    @property
    def free(self) -> int:
        """Bytes currently available to the producer."""
        return self._data_size - self.used

    def __bool__(self) -> bool:
        return self.used > 0

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def push(self, record: EventRecord, *, raise_on_full: bool = False) -> bool:
        """Append *record*; returns False when dropped (``DROP_NEW``).

        The serialized record is written with a four-byte length prefix.  A
        record larger than half the data region is rejected outright — such
        a record could starve the ring permanently.
        """
        payload = native.pack_record(record)
        return self.push_bytes(payload, raise_on_full=raise_on_full)

    def push_bytes(self, payload: bytes, *, raise_on_full: bool = False) -> bool:
        """Append an already-serialized native record (sensor fast path)."""
        need = _LEN_SIZE + len(payload)
        if need > self._data_size // 2:
            raise ValueError(
                f"record of {len(payload)} bytes exceeds half the ring "
                f"({self._data_size} bytes)"
            )
        head = self.head
        offset = head % self._data_size
        contiguous = self._data_size - offset
        slack = 0
        if contiguous < need:
            # Burn the tail of the region with a skip marker and wrap.
            slack = contiguous
            need += slack
        while self._data_size - (head - self.tail) < need:
            if self.policy is OverflowPolicy.DROP_NEW:
                self._set_dropped(self.dropped + 1)
                if raise_on_full:
                    raise RingBufferFull(
                        f"ring full: need {need}, free {self.free}"
                    )
                return False
            self._evict_oldest()
        if slack:
            if contiguous >= _LEN_SIZE:
                _LEN.pack_into(self._view, HEADER_SIZE + offset, _SKIP_MARKER)
            # (if fewer than 4 bytes remain the consumer wraps implicitly)
            head += slack
            offset = 0
        base = HEADER_SIZE + offset
        _LEN.pack_into(self._view, base, len(payload))
        self._view[base + _LEN_SIZE : base + _LEN_SIZE + len(payload)] = payload
        self._set_head(head + _LEN_SIZE + len(payload))
        return True

    def _evict_oldest(self) -> None:
        """Advance the tail past one record (``OVERWRITE_OLD`` only)."""
        consumed = self._consume_one(peek=False)
        if consumed is None:  # pragma: no cover - cannot happen when full
            raise RuntimeError("evict on empty ring")
        self._set_overwritten(self.overwritten + 1)

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def pop(self) -> EventRecord | None:
        """Remove and return the oldest record, or None when empty."""
        payload = self.pop_bytes()
        if payload is None:
            return None
        record, _ = native.unpack_record(payload)
        return record

    def pop_bytes(self) -> bytes | None:
        """Remove and return the oldest serialized record (EXS fast path)."""
        return self._consume_one(peek=False)

    def peek_bytes(self) -> bytes | None:
        """Return the oldest serialized record without consuming it."""
        return self._consume_one(peek=True)

    def _consume_one(self, *, peek: bool) -> bytes | None:
        tail = self.tail
        head = self.head
        if tail == head:
            return None
        offset = tail % self._data_size
        contiguous = self._data_size - offset
        if contiguous < _LEN_SIZE:
            # Producer could not even fit a skip marker here; wrap.
            tail += contiguous
            offset = 0
        else:
            (length,) = _LEN.unpack_from(self._view, HEADER_SIZE + offset)
            if length == _SKIP_MARKER:
                tail += contiguous
                offset = 0
        base = HEADER_SIZE + offset
        (length,) = _LEN.unpack_from(self._view, base)
        payload = bytes(
            self._view[base + _LEN_SIZE : base + _LEN_SIZE + length]
        )
        if not peek:
            self._set_tail(tail + _LEN_SIZE + length)
        return payload

    def drain(self, limit: int | None = None) -> list[EventRecord]:
        """Pop up to *limit* records (all, when None) as decoded records."""
        out: list[EventRecord] = []
        while limit is None or len(out) < limit:
            record = self.pop()
            if record is None:
                break
            out.append(record)
        return out

    def drain_bytes(self, limit: int | None = None) -> list[bytes]:
        """Pop up to *limit* serialized records without decoding them.

        This is the EXS hot path: the external sensor re-encodes to XDR from
        the serialized form, so decoding into :class:`EventRecord` objects
        here would be pure overhead.

        The whole drain runs against one head snapshot and publishes the
        consumed tail once at the end: records pushed mid-drain are picked
        up by the next poll, and the header round-trips (a shared-memory
        struct unpack/pack pair per record on the per-record path) collapse
        to one per drain.  Safe under both policies: with ``DROP_NEW`` the
        producer never moves the tail, and ``OVERWRITE_OLD`` is restricted
        to single-process rings where no concurrent producer exists.
        """
        if limit is not None and limit <= 0:
            return []
        out: list[bytes] = []
        view = self._view
        data_size = self._data_size
        unpack_len = _LEN.unpack_from
        tail = self.tail
        head = self.head
        while tail != head:
            offset = tail % data_size
            contiguous = data_size - offset
            if contiguous < _LEN_SIZE:
                tail += contiguous
                offset = 0
            else:
                (length,) = unpack_len(view, HEADER_SIZE + offset)
                if length == _SKIP_MARKER:
                    tail += contiguous
                    offset = 0
            base = HEADER_SIZE + offset
            (length,) = unpack_len(view, base)
            out.append(bytes(view[base + _LEN_SIZE : base + _LEN_SIZE + length]))
            tail += _LEN_SIZE + length
            if limit is not None and len(out) >= limit:
                break
        if out:
            self._set_tail(tail)
        return out

    def __iter__(self) -> Iterator[EventRecord]:
        """Destructively iterate records until the ring is empty."""
        while True:
            record = self.pop()
            if record is None:
                return
            yield record


def ring_for_records(
    approx_records: int,
    approx_record_bytes: int = 96,
    policy: OverflowPolicy = OverflowPolicy.DROP_NEW,
) -> RingBuffer:
    """Allocate a local (bytearray-backed) ring sized for a workload.

    A convenience used by examples and tests; the real runtime sizes its
    shared-memory segment the same way.
    """
    size = HEADER_SIZE + max(4096, approx_records * (approx_record_bytes + 4))
    return RingBuffer(bytearray(size), policy)
