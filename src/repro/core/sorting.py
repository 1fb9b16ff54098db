"""On-line sorting of instrumentation records (§3.5–3.6).

The ISM keeps one FIFO queue per external sensor (in-order arrival within a
queue is guaranteed by the TCP stream) and merges the queues with "a heap
having one entry for each queue".  Merging alone is not enough: a record
from a slow or quiet node may *arrive* after records with larger timestamps
have already been delivered.  BRISK therefore delays every record for a
**time frame** ``T`` after its creation before releasing it, and adapts
``T`` on-line:

* when two successively extracted records from *different* external sensors
  come out in decreasing timestamp order, the time frame was too small:
  ``T`` is increased (to at least the observed lateness);
* otherwise ``T`` decays exponentially, shrinking the amount of data parked
  in ISM memory.

The resulting trade-off — event ordering versus delivery latency — is the
subject of evaluation E7, which the paper explored "by varying four
quantitative and qualitative parameters"; :class:`SorterConfig` exposes the
same four knobs (initial frame, growth factor, decay constant, memory
bound).

A held-record bound reproduces the "event dropping" box of Figure 1: under
overload the sorter force-releases the oldest records rather than letting
ISM memory grow without bound.

**Frontier release.**  Waiting ``T`` is only *necessary* for a silent
source.  Each queue is FIFO, so the timestamp of the last record a source
pushed — its *frontier* — promises that nothing older follows.  The heap
minimum is released when its frame has expired (the paper's rule, tested
first) **or** every other registered source has records queued or a
frontier strictly above it (:func:`repro.core.merge.empty_floor`, the gate
``OrderedMerger`` applies to shards).  ``T`` is then the wait for a source
that has gone quiet.  A source registered with :meth:`OnlineSorter.add_source`
that never pushes is silent forever: every record then waits out ``T``,
which is the paper's pure time-frame sorter (E4b and E7 run it that way).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator, Sequence

from repro.core.merge import empty_floor
from repro.core.records import EventRecord
from repro.util.stats import RunningStats


@dataclass(frozen=True, slots=True)
class SorterConfig:
    """The on-line sorter's tuning knobs (the four parameters of E7).

    Attributes
    ----------
    initial_frame_us:
        Starting value of the time frame ``T``.
    min_frame_us:
        Floor that the exponential decay approaches; 0 means "decay toward
        releasing immediately".
    max_frame_us:
        Cap on ``T`` so one pathological straggler cannot freeze delivery.
    growth_factor:
        Multiplier applied to the observed lateness when growing ``T``
        (1.0 sets ``T`` to exactly the lateness that was just observed —
        the strategy the paper recommends for latency-critical uses).
    growth_signal:
        Which lateness measurement drives growth — a qualitative E7 knob:

        * ``"arrival"`` (default, the paper's recommended strategy): a
          record arriving behind the release watermark grows ``T`` to its
          *arrival lateness* ``now − ts``, the delay it would have needed
          to be merged in order;
        * ``"watermark"``: growth uses the timestamp regression observed at
          extraction (``watermark_ts − ts``), a weaker signal that adapts
          more slowly but holds ``T`` lower.
    decay_lambda:
        Exponential decay rate per second: between releases ``T`` shrinks
        by ``exp(-decay_lambda · Δt)`` toward ``min_frame_us``.  A *small*
        constant (long half-life) is what the paper found helps in
        non-latency-critical applications.
    max_held:
        Bound on records parked in the sorter; beyond it the oldest are
        force-released ("event dropping" from Figure 1 — nothing is lost,
        but ordering may suffer).
    """

    initial_frame_us: int = 10_000
    min_frame_us: int = 0
    max_frame_us: int = 10_000_000
    growth_factor: float = 1.0
    decay_lambda: float = 0.1
    max_held: int = 1_000_000
    growth_signal: str = "arrival"

    def __post_init__(self) -> None:
        if self.initial_frame_us < 0 or self.min_frame_us < 0:
            raise ValueError("time frames must be non-negative")
        if self.max_frame_us < self.min_frame_us:
            raise ValueError("max_frame_us < min_frame_us")
        if self.growth_factor <= 0:
            raise ValueError("growth_factor must be positive")
        if self.decay_lambda < 0:
            raise ValueError("decay_lambda must be non-negative")
        if self.max_held < 1:
            raise ValueError("max_held must be >= 1")
        if self.growth_signal not in ("arrival", "watermark"):
            raise ValueError("growth_signal must be 'arrival' or 'watermark'")


@dataclass
class SorterStats:
    """Counters and distributions the sorter maintains as it runs."""

    pushed: int = 0
    released: int = 0
    #: Out-of-order extractions observed (consecutive releases from
    #: different sources with decreasing timestamps).
    out_of_order: int = 0
    #: Records force-released by the ``max_held`` bound.
    forced: int = 0
    #: Records released ahead of their frame, on the frontier rule.
    on_frontier: int = 0
    #: Records pushed below their own source's frontier (e.g. a backward
    #: clock correction); passed through.
    frontier_regressions: int = 0
    #: Records released by :meth:`OnlineSorter.flush` (shutdown).
    flushed: int = 0
    #: Distribution of time spent parked in the sorter (µs).
    hold_time_us: RunningStats = field(default_factory=RunningStats)
    #: Distribution of observed lateness at out-of-order extractions (µs).
    lateness_us: RunningStats = field(default_factory=RunningStats)


class OnlineSorter:
    """Heap merge of per-source queues with an adaptive release time frame.

    Time never comes from a wall clock here: callers pass ``now`` (ISM time,
    microseconds) into :meth:`push` and :meth:`extract`, which makes the
    sorter equally usable from the real ISM loop, the simulator, and
    deterministic tests.
    """

    def __init__(self, config: SorterConfig = SorterConfig()) -> None:
        self.config = config
        self.frame_us: float = float(config.initial_frame_us)
        self.stats = SorterStats()
        # exs_id → FIFO of (record, arrival_now); heads are mirrored in the
        # heap as (timestamp, node, event, exs_id) entries.
        self._queues: dict[int, deque[tuple[EventRecord, int]]] = {}
        self._heap: list[tuple[tuple[int, int, int], int]] = []
        # Running count of parked records: maintained on push/pop so the
        # `held` property (read per extract iteration under overload) is
        # O(1) instead of a sum over every queue.
        self._held = 0
        # exs_id → records released so far.  The sharded ISM's ack
        # watermark advances only once a batch's records have *left* the
        # sorter (released downstream), so a shard killed mid-hold still
        # gets the parked records retransmitted; this per-source count is
        # what lets it map "released so far" back onto batch seqs.
        self.released_by_source: dict[int, int] = {}
        # exs_id → timestamp of the last record pushed.  Retired sources
        # said goodbye: once drained they no longer gate the frontier.
        self._frontier: dict[int, int] = {}
        self._retired: set[int] = set()
        self._last_released_ts: int | None = None
        self._last_released_source: int | None = None
        self._last_decay_now: int | None = None

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def add_source(self, exs_id: int) -> None:
        """Register a source queue (idempotent; un-retires a source that
        came back)."""
        self._queues.setdefault(exs_id, deque())
        self._retired.discard(exs_id)

    def retire_source(self, exs_id: int) -> None:
        """The source departed cleanly: once its queue drains it stops
        gating the frontier.  :meth:`add_source` brings it back."""
        self._retired.add(exs_id)

    @property
    def sources(self) -> tuple[int, ...]:
        """Registered source identifiers."""
        return tuple(self._queues)

    @property
    def held(self) -> int:
        """Records currently parked across all queues (O(1))."""
        return self._held

    def push(self, exs_id: int, record: EventRecord, now: int) -> None:
        """Enqueue one record that just arrived from *exs_id* at ISM time
        *now*."""
        queue = self._queues.setdefault(exs_id, deque())
        was_empty = not queue
        queue.append((record, now))
        self._held += 1
        self.stats.pushed += 1
        if record.timestamp < self._frontier.get(exs_id, record.timestamp):
            self.stats.frontier_regressions += 1
        self._frontier[exs_id] = record.timestamp
        if was_empty:
            heapq.heappush(self._heap, (record.sort_key(), exs_id))
        if (
            self.config.growth_signal == "arrival"
            and self._last_released_ts is not None
            and record.timestamp < self._last_released_ts
            and exs_id != self._last_released_source
        ):
            # This record is already behind the release watermark: it will
            # be extracted out of order.  Grow T to the delay that would
            # have held the watermark back long enough ("as large as the
            # latest late event's lateness").
            self._grow(now - record.timestamp)

    def push_many(
        self,
        exs_id: int,
        records: Sequence[EventRecord],
        now: int,
    ) -> None:
        """Enqueue a whole batch with batch-level bookkeeping.

        Equivalent, record for record, to calling :meth:`push` in a loop —
        the property tests assert the released sequence *and* the adapted
        time frame are identical — but the deque extend, held/pushed
        counters, heap maintenance, and the arrival-lateness growth signal
        all run once per batch instead of once per record:

        * at most one heap push happens (the queue head can only go from
          absent to present once per batch);
        * the growth signal reduces to a single :meth:`_grow` with the
          batch's worst lateness, because ``_grow`` is a monotone max and
          the release watermark cannot move while records are only pushed.
        """
        if not records:
            return
        queue = self._queues.get(exs_id)
        if queue is None:
            queue = self._queues.setdefault(exs_id, deque())
        was_empty = not queue
        queue.extend(zip(records, repeat(now)))  # C-speed: pays for the stamps scan
        n = len(records)
        self._held += n
        self.stats.pushed += n
        # The frontier follows the last timestamp pushed, down as well as
        # up (after a backward clock correction the lower value is the
        # promise the source can still keep); a record below it is
        # counted, not stalled.
        stamps = [record.timestamp for record in records]
        prev = self._frontier.get(exs_id, stamps[0])
        if stamps[0] < prev or stamps != sorted(stamps):
            for ts in stamps:
                if ts < prev:
                    self.stats.frontier_regressions += 1
                prev = ts
        self._frontier[exs_id] = stamps[-1]
        if was_empty:
            heapq.heappush(self._heap, (records[0].sort_key(), exs_id))
        last_ts = self._last_released_ts
        if (
            self.config.growth_signal == "arrival"
            and last_ts is not None
            and exs_id != self._last_released_source
        ):
            min_ts = min(stamps)
            if min_ts < last_ts:
                self._grow(now - min_ts)

    def push_batch(
        self, exs_id: int, records: Iterator[EventRecord] | list[EventRecord], now: int
    ) -> None:
        """Enqueue a whole batch (the ISM's per-message entry point)."""
        if type(records) is not list and type(records) is not tuple:
            records = list(records)
        self.push_many(exs_id, records, now)

    # ------------------------------------------------------------------
    # release
    # ------------------------------------------------------------------
    def extract(self, now: int) -> list[EventRecord]:
        """Release every record that is due, in merge order.

        The heap minimum is due when its frame has expired or no open
        source with an *empty* queue has a frontier at or below it.  The
        frame test runs first, so a saturated stream never evaluates the
        frontier; the floor is computed at most once per call and lowered
        in O(1) when a queue drains mid-call.  Also applies the
        ``max_held`` overload bound and advances the decay of ``T``.

        Heap maintenance is batch-aware: while a single source holds every
        parked record (the common single-stream case) due records drain
        straight off its FIFO with no heap traffic at all, and in the
        multi-source merge a release costs one ``heapreplace`` sift instead
        of a pop + push.  Heap keys end in the source id, so entry order is
        strict and both spellings release the exact per-record sequence.
        """
        self._decay(now)
        released: list[EventRecord] = []
        append = released.append
        heap = self._heap
        queues = self._queues
        max_held = self.config.max_held
        account = self._account_release
        overload = self._held > max_held
        floor: float | None = None  # computed on first use
        on_frontier = 0
        while heap:
            key, exs_id = heap[0]
            if not overload and now < key[0] + int(self.frame_us):
                if floor is None:
                    floor = empty_floor(queues, self._frontier, self._retired)[0]
                if key[0] >= floor:
                    break
                on_frontier += 1
            queue = queues[exs_id]
            record, arrival = queue.popleft()
            self._held -= 1
            account(record, exs_id, arrival, now, forced=overload)
            append(record)
            if overload:
                overload = self._held > max_held
            if len(heap) == 1:
                # Single active source: its FIFO is the merge order.
                while queue:
                    record, arrival = queue[0]
                    if not overload and now < record.timestamp + int(self.frame_us):
                        if floor is None:
                            floor = empty_floor(
                                queues, self._frontier, self._retired
                            )[0]
                        if record.timestamp >= floor:
                            break
                        on_frontier += 1
                    queue.popleft()
                    self._held -= 1
                    account(record, exs_id, arrival, now, forced=overload)
                    append(record)
                    if overload:
                        overload = self._held > max_held
                if queue:
                    heap[0] = (queue[0][0].sort_key(), exs_id)
                    continue
                heap.pop()
            elif queue:
                heapq.heapreplace(heap, (queue[0][0].sort_key(), exs_id))
                continue
            else:
                heapq.heappop(heap)
            # This source's queue just drained: its frontier now gates.
            if floor is not None and exs_id not in self._retired:
                floor = min(floor, self._frontier[exs_id])
        self.stats.on_frontier += on_frontier
        return released

    def next_deadline(self) -> int | None:
        """ISM time at which the heap minimum's frame expires (None while
        nothing is parked) — when an idle caller must next :meth:`extract`."""
        if not self._heap:
            return None
        return self._heap[0][0][0] + int(self.frame_us)

    def gating_source(self) -> int:
        """The silent source the heap minimum is waiting on: the one
        whose frontier sets the release floor at or below it (0 = none)."""
        if not self._heap:
            return 0
        floor, exs_id = empty_floor(self._queues, self._frontier, self._retired)
        return exs_id if floor <= self._heap[0][0][0] else 0

    def extract_ready_batch(self, now: int) -> list[EventRecord]:
        """Alias for :meth:`extract` naming the staged-pipeline contract:
        one call releases the whole due batch with batch-level heap and
        frame-decay bookkeeping."""
        return self.extract(now)

    def flush(self, now: int) -> list[EventRecord]:
        """Release everything immediately (shutdown path)."""
        released: list[EventRecord] = []
        while self._heap:
            _, exs_id = heapq.heappop(self._heap)
            queue = self._queues[exs_id]
            record, arrival = queue.popleft()
            self._held -= 1
            if queue:
                heapq.heappush(self._heap, (queue[0][0].sort_key(), exs_id))
            self._account_release(record, exs_id, arrival, now, forced=False)
            released.append(record)
        self.stats.flushed += len(released)
        return released

    # ------------------------------------------------------------------
    # adaptation
    # ------------------------------------------------------------------
    def _account_release(
        self, record: EventRecord, exs_id: int, arrival: int, now: int, *, forced: bool
    ) -> None:
        self.stats.released += 1
        counts = self.released_by_source
        counts[exs_id] = counts.get(exs_id, 0) + 1
        if forced:
            self.stats.forced += 1
        self.stats.hold_time_us.add(now - arrival)
        last_ts = self._last_released_ts
        if (
            last_ts is not None
            and record.timestamp < last_ts
            and exs_id != self._last_released_source
        ):
            lateness = last_ts - record.timestamp
            self.stats.out_of_order += 1
            self.stats.lateness_us.add(lateness)
            if self.config.growth_signal == "watermark":
                self._grow(lateness)
        # Track the maximum released timestamp so one straggler's release
        # does not reset the high-water mark used for disorder detection.
        if last_ts is None or record.timestamp > last_ts:
            self._last_released_ts = record.timestamp
            self._last_released_source = exs_id

    def _grow(self, lateness_us: int) -> None:
        if lateness_us <= 0:
            return
        grown = lateness_us * self.config.growth_factor
        self.frame_us = min(
            float(self.config.max_frame_us), max(self.frame_us, grown)
        )

    def _decay(self, now: int) -> None:
        last = self._last_decay_now
        self._last_decay_now = now
        if last is None or now <= last or self.config.decay_lambda == 0:
            return
        dt_seconds = (now - last) / 1_000_000
        factor = math.exp(-self.config.decay_lambda * dt_seconds)
        floor = float(self.config.min_frame_us)
        self.frame_us = floor + (self.frame_us - floor) * factor
