"""Watermark-driven k-way merge of per-shard ordered streams.

The sharded ISM runs one :class:`~repro.core.sorting.OnlineSorter` per
shard, so each shard emits records that are (best-effort) ordered *within
the shard* but interleave arbitrarily *across* shards.  Consumers that
asked for the single-process ISM's globally ordered stream get it back
from this stage: a k-way heap merge over per-shard FIFO queues, gated by
per-shard **watermarks**.

A watermark is a shard's promise — carried on its commit records — that
every record it will ever emit from now on has ``timestamp >=
watermark``.  The merge may therefore release the globally smallest
queued record as soon as every shard with an *empty* queue has a
watermark at or above it; shards with queued records compete through the
heap directly.  Until every shard has reported at least one watermark
nothing is released (a silent shard could still hold the global minimum);
:meth:`close_shard` and :meth:`flush` lift that gate for shutdown.

Like the sorter, the merge is best-effort rather than blocking: a record
arriving *below* the emitted high-water mark (a shard broke its watermark
promise, e.g. after a forced release under overload) is passed through
immediately and counted in ``stats.regressions`` instead of stalling the
pipeline.

Everything here is pure data-structure code — no clocks, no entropy —
so the stage is byte-deterministic for a given push/advance sequence.

The merge is generic over anything carrying a record-style sort key
(:class:`SortKeyed`): the sharded ISM merges
:class:`~repro.core.records.EventRecord` streams, and the relay tier
merges whole batch envelopes (one item per downstream batch, keyed by its
first record) so pre-sorting never has to split or re-encode a batch.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Collection, Generic, Mapping, Protocol, Sequence, Sized, TypeVar

#: Sort key type mirrored from ``EventRecord.sort_key()``.
_Key = tuple[int, int, int]


class SortKeyed(Protocol):
    """Anything orderable by a record-style ``(ts, node, event)`` key."""

    def sort_key(self) -> _Key:
        """Total-order key; ties broken upstream by shard id."""
        ...  # pragma: no cover - protocol stub


ItemT = TypeVar("ItemT", bound=SortKeyed)


def empty_floor(
    queues: Mapping[int, Sized],
    marks: Mapping[int, int | None],
    closed: Collection[int],
) -> tuple[float, int]:
    """The release bound imposed by open sources whose queue is empty,
    and the source that imposes it.

    Each queue is FIFO and its *mark* (a shard's declared watermark, a
    sorter source's frontier) promises that nothing older will follow, so
    the merge minimum is safe while it lies below the lowest mark among
    the sources that have nothing queued to compete with it.  Returns that
    minimum: ``-inf`` while such a source has declared no mark yet (it
    could still hold the global minimum), ``+inf`` (and source 0) when
    every open source has items queued and the heap alone arbitrates.
    This one gate serves :class:`OrderedMerger` and
    :class:`~repro.core.sorting.OnlineSorter`.
    """
    floor, gate = math.inf, 0
    for source, queue in queues.items():
        if queue or source in closed:
            continue
        mark = marks.get(source)
        if mark is None:
            return -math.inf, source
        if mark < floor:
            floor, gate = mark, source
    return floor, gate


@dataclass
class MergeStats:
    """Counters the merge stage maintains as it runs."""

    #: Records accepted from shards.
    pushed: int = 0
    #: Records released downstream.
    emitted: int = 0
    #: Records emitted below the high-water mark (a shard regressed past
    #: its own watermark; passed through, not reordered).
    regressions: int = 0


class OrderedMerger(Generic[ItemT]):
    """K-way merge of per-shard streams by timestamp watermark.

    Shards are registered up front with :meth:`add_shard`; thereafter the
    caller alternates :meth:`push` (records drained from a shard, in that
    shard's emission order) and :meth:`advance` (the watermark carried on
    the shard's commit record), calling :meth:`emit` to take whatever has
    become safe to release.  The single-shard configuration degenerates to
    a pure pass-through in shard order, which is what keeps the 1-shard
    sharded ISM byte-identical to the single-process ISM.
    """

    def __init__(self) -> None:
        self.stats = MergeStats()
        self._queues: dict[int, deque[ItemT]] = {}
        # shard_id → highest watermark declared; None until first advance.
        self._watermarks: dict[int, int | None] = {}
        self._closed: set[int] = set()
        # Heap over queue heads: (sort_key, shard_id).  Only shards whose
        # queue is non-empty appear; ties break on shard id so the merge
        # order is strict and deterministic.
        self._heap: list[tuple[_Key, int]] = []
        self._high_water: _Key | None = None
        self._held = 0

    # ------------------------------------------------------------------
    def add_shard(self, shard_id: int) -> None:
        """Register a shard (idempotent).  A registered shard gates
        emission until it declares a watermark or is closed."""
        self._queues.setdefault(shard_id, deque())
        self._watermarks.setdefault(shard_id, None)

    @property
    def shards(self) -> tuple[int, ...]:
        """Registered shard identifiers."""
        return tuple(self._queues)

    @property
    def held(self) -> int:
        """Records currently parked in the merge (O(1))."""
        return self._held

    def push(self, shard_id: int, records: Sequence[ItemT]) -> None:
        """Append records a shard emitted, in the shard's own order."""
        if not records:
            return
        queue = self._queues[shard_id]
        was_empty = not queue
        queue.extend(records)
        n = len(records)
        self._held += n
        self.stats.pushed += n
        if was_empty:
            heapq.heappush(self._heap, (records[0].sort_key(), shard_id))

    def advance(self, shard_id: int, watermark_ts: int) -> None:
        """Raise *shard_id*'s watermark (monotone: lower values ignored)."""
        current = self._watermarks[shard_id]
        if current is None or watermark_ts > current:
            self._watermarks[shard_id] = watermark_ts

    def close_shard(self, shard_id: int) -> None:
        """Mark a shard as finished: it no longer gates emission.  Its
        queued records remain mergeable.  A restarted shard reopens with
        :meth:`reopen_shard`."""
        self._closed.add(shard_id)

    def reopen_shard(self, shard_id: int) -> None:
        """Bring a closed (restarted) shard back into the gating set with
        a fresh, undeclared watermark."""
        self._closed.discard(shard_id)
        self._queues.setdefault(shard_id, deque())
        self._watermarks[shard_id] = None

    def low_watermark(self) -> int | None:
        """Minimum declared watermark over open shards, or None while any
        open shard has not declared one yet.

        Every record with a timestamp at or below this has already been
        emitted (or sits at the head of the heap and will be on the next
        :meth:`emit`) — it is the bound the durable ack path uses to
        decide when an ack held for merge ordering may be released.
        """
        low: int | None = None
        for shard_id, mark in self._watermarks.items():
            if shard_id in self._closed:
                continue
            if mark is None:
                return None
            if low is None or mark < low:
                low = mark
        return low

    # ------------------------------------------------------------------
    def emit(self) -> list[ItemT]:
        """Release every record that is safe under current watermarks, in
        merge order (oldest sort key first)."""
        released: list[ItemT] = []
        heap = self._heap
        queues = self._queues
        floor = empty_floor(queues, self._watermarks, self._closed)[0]
        while heap:
            key, shard_id = heap[0]
            if key[0] > floor:
                break
            queue = queues[shard_id]
            record = queue.popleft()
            self._held -= 1
            if queue:
                heapq.heapreplace(heap, (queue[0].sort_key(), shard_id))
            else:
                heapq.heappop(heap)
                # This shard's queue just drained: its watermark now
                # gates further release.
                floor = empty_floor(queues, self._watermarks, self._closed)[0]
            self._account(record)
            released.append(record)
        return released

    def flush(self) -> list[ItemT]:
        """Release everything still queued, in merge order (shutdown)."""
        released: list[ItemT] = []
        heap = self._heap
        queues = self._queues
        while heap:
            key, shard_id = heap[0]
            queue = queues[shard_id]
            record = queue.popleft()
            self._held -= 1
            if queue:
                heapq.heapreplace(heap, (queue[0].sort_key(), shard_id))
            else:
                heapq.heappop(heap)
            self._account(record)
            released.append(record)
        return released

    def _account(self, record: ItemT) -> None:
        self.stats.emitted += 1
        key = record.sort_key()
        high = self._high_water
        if high is not None and key < high:
            self.stats.regressions += 1
        else:
            self._high_water = key
