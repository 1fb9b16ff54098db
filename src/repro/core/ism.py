"""The instrumentation system manager (ISM) — the central component (§3.5).

The ISM receives data batches from external sensors, keeps them in per-EXS
queues ("the in-order arrival of these batches is guaranteed by the socket
stream protocol"), merges the queues through the on-line sorter, runs the
causally-related-event matcher over the sorted stream, and delivers each
record to every configured consumer.

Like the EXS, the manager core is transport-agnostic: real deployments feed
it decoded :class:`~repro.wire.protocol.Message` objects from sockets
(:mod:`repro.runtime.ism_proc`), the simulator feeds it from simulated
links, and tests feed it directly.  ``now`` — ISM time in microseconds — is
always passed in, never read from a wall clock, so every pipeline stage is
deterministic under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

from repro.core.consumers import Consumer
from repro.core.cre import CausalMatcher, CreConfig
from repro.core.records import EventRecord
from repro.core.sorting import OnlineSorter, SorterConfig
from repro.wire import protocol


@dataclass(frozen=True, slots=True)
class IsmConfig:
    """Manager configuration: sorter and CRE knobs plus housekeeping.

    ``expire_interval_us`` throttles how often the CRE timeout scan runs;
    the scan is linear in parked events, so running it on every tick would
    tax the very resource (ISM CPU) the paper identifies as the bottleneck.
    """

    sorter: SorterConfig = SorterConfig()
    cre: CreConfig = CreConfig()
    expire_interval_us: int = 100_000
    #: Consecutive delivery failures before a consumer is detached.
    max_consumer_errors: int = 3
    #: Records handed to the consumer fan-out per delivery call — the
    #: staged pipeline's delivery batch size.  A tick that released more
    #: than this many records delivers them in slices so one huge merge
    #: cannot hand a consumer an unbounded list (memory) or starve a
    #: bounded-queue writer thread of steady work.
    delivery_batch: int = 1024

    def __post_init__(self) -> None:
        if self.expire_interval_us < 0:
            raise ValueError("expire_interval_us must be non-negative")
        if self.max_consumer_errors < 1:
            raise ValueError("max_consumer_errors must be >= 1")
        if self.delivery_batch < 1:
            raise ValueError("delivery_batch must be >= 1")


@dataclass
class IsmStats:
    """Manager-level counters (queue/merge counters live in the sorter)."""

    batches_received: int = 0
    records_received: int = 0
    records_delivered: int = 0
    #: Batch sequence gaps per EXS — should stay zero over healthy TCP.
    seq_gaps: int = 0
    #: Retransmitted batches dropped by the admission dedup (at-least-once
    #: wire converging to exactly-once delivery).
    duplicate_batches: int = 0
    #: Records inside those duplicate batches.
    records_deduped: int = 0
    #: Records from sources that never sent a Hello.
    unknown_source_records: int = 0
    #: Exceptions raised by consumers during delivery (isolated).
    consumer_errors: int = 0
    #: Consumers detached after repeated failures.
    consumers_detached: int = 0
    last_seq: dict[int, int] = field(default_factory=dict)


class InstrumentationManager:
    """Queues → on-line sort → causal ordering → consumers."""

    def __init__(
        self,
        config: IsmConfig = IsmConfig(),
        consumers: list[Consumer] | None = None,
        sync_master=None,
        metrics=None,
    ) -> None:
        self.config = config
        self.consumers: list[Consumer] = list(consumers or [])
        self.sorter = OnlineSorter(config.sorter)
        self.cre = CausalMatcher(config.cre, on_tachyon=self._on_tachyon)
        self.stats = IsmStats()
        #: Optional :class:`repro.obs.metrics.MetricsRegistry` wired over
        #: the manager, its sorter, CRE tables, and consumer list.  When
        #: None the pipeline pays nothing (one ``is not None`` per tick).
        self.metrics = metrics
        self._tick_timer = None
        if metrics is not None:
            from repro.obs import collect

            collect.wire_manager(metrics, self)
            self._tick_timer = metrics.timer("ism.tick_us")
        #: Optional :class:`repro.clocksync.BriskSyncMaster`; when present,
        #: tachyons trigger its extra-round request (§3.6).
        self.sync_master = sync_master
        self._known_sources: dict[int, int] = {}  # exs_id → node_id
        #: The Hello registry, live and read-only: what batch decode
        #: stamps each record's node from (``decode_message(node_id=)``).
        self.source_nodes: Mapping[int, int] = MappingProxyType(self._known_sources)
        # exs_id → highest admitted batch seq.  Retransmits at or below
        # this watermark are dropped before the sorter; the value is what
        # Ack/HelloReply carry back to the EXS, and what resume_state()
        # exports so a restarted ISM can keep validating the stream.
        self._admitted: dict[int, int] = {}
        self._last_expire_now: int | None = None
        self._consumer_strikes: dict[int, int] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def register_source(self, exs_id: int, node_id: int) -> None:
        """Handle an EXS Hello: create its queue."""
        self._known_sources[exs_id] = node_id
        self.sorter.add_source(exs_id)

    def retire_source(self, exs_id: int) -> None:
        """Handle an EXS Bye: the source stops gating the sorter's frontier
        once its queue drains.  A connection *lost* without Bye is not
        retired — the source may resume and retransmit."""
        self.sorter.retire_source(exs_id)

    @property
    def sources(self) -> dict[int, int]:
        """Registered sources, ``exs_id → node_id``."""
        return dict(self._known_sources)

    # ------------------------------------------------------------------
    # delivery-guarantee state
    # ------------------------------------------------------------------
    def admitted_seq(self, exs_id: int) -> int | None:
        """Highest admitted batch seq for *exs_id* (None = no state)."""
        return self._admitted.get(exs_id)

    def resume_state(self) -> dict[int, int]:
        """Snapshot of per-EXS admission watermarks.

        Feed it to :meth:`load_resume_state` on a replacement manager so a
        restarted ISM keeps deduplicating retransmits instead of treating
        the resumed stream as brand new.
        """
        return dict(self._admitted)

    def load_resume_state(self, state: dict[int, int]) -> None:
        """Adopt admission watermarks saved by a previous incarnation.

        Watermarks only ever move forward: an entry lower than what this
        manager has already admitted is ignored.
        """
        for exs_id, seq in state.items():
            current = self._admitted.get(exs_id)
            if current is None or seq > current:
                self._admitted[int(exs_id)] = int(seq)

    def on_message(self, msg: protocol.Message, now: int) -> None:
        """Dispatch one decoded protocol message at ISM time *now*."""
        if isinstance(msg, protocol.Batch):
            self.on_batch(msg, now)
        elif isinstance(msg, protocol.Hello):
            self.register_source(msg.exs_id, msg.node_id)
        elif isinstance(msg, protocol.Bye):
            pass  # the transport layer tears the connection down
        elif isinstance(msg, protocol.Heartbeat):
            pass  # liveness only; the transport layer tracks activity
        else:
            raise TypeError(
                f"ISM cannot handle {type(msg).__name__}; clock-sync "
                f"messages belong to the sync master loop"
            )

    def on_batch(self, batch: protocol.Batch, now: int) -> None:
        """Queue a batch's records for sorting.

        Batches at or below the admission watermark are retransmits of
        already-admitted data (the acked transfer protocol resends
        unacked batches after a reconnect); they are counted and dropped,
        which is what turns the at-least-once wire into exactly-once
        delivery.  Batch framing is atomic on the wire — the deframer
        never yields a partial batch — so whole-batch dedup suffices.
        A relay-coalesced frame covers ``first_seq..seq`` but is still
        one atomic unit: the relay's outbox retransmits the identical
        frame, so the same watermark test applies to its last seq.
        """
        self.stats.batches_received += 1
        admitted = self._admitted.get(batch.exs_id)
        if admitted is not None and batch.seq <= admitted:
            self.stats.duplicate_batches += 1
            self.stats.records_deduped += len(batch.records)
            return
        self.stats.records_received += len(batch.records)
        if batch.exs_id not in self._known_sources:
            # Tolerated (a Hello may have raced the first batch in tests),
            # but counted: a real deployment treats it as a config smell.
            self.stats.unknown_source_records += len(batch.records)
            self.register_source(batch.exs_id, 0)
        last = self.stats.last_seq.get(batch.exs_id)
        first = batch.seq if batch.first_seq is None else batch.first_seq
        if last is not None and first != last + 1:
            self.stats.seq_gaps += 1
        self.stats.last_seq[batch.exs_id] = batch.seq
        self._admitted[batch.exs_id] = batch.seq
        # The wire format does not carry node identity per record — the
        # stream implies it.  Decode stamps it from `source_nodes`; this
        # pass is the safety net for a batch decoded before its Hello was
        # routed: records already carrying the node pass through, the rest
        # are rebuilt through the trusted ``from_wire`` constructor (their
        # fields were validated structurally by the codec) instead of
        # re-validating every field per record via ``with_node``.
        node_id = self._known_sources[batch.exs_id]
        from_wire = EventRecord.from_wire
        records: Sequence[EventRecord] = [
            r
            if r.node_id == node_id
            else from_wire(r.event_id, r.timestamp, r.field_types, r.values, node_id)
            for r in batch.records
        ]
        self.sorter.push_many(batch.exs_id, records, now)

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def tick(self, now: int) -> int:
        """Advance the pipeline: release due records and deliver them.

        Returns the number of records delivered to consumers this tick.
        The whole tick is staged batch-wise: one bulk sorter extraction,
        one CRE pass over the released list, one bulk delivery fan-out.
        """
        timer = self._tick_timer
        t0 = timer.start() if timer is not None else 0
        ready = self.cre.process_many(self.sorter.extract_ready_batch(now), now)
        if self._expire_due(now):
            expired = self.cre.expire(now)
            if expired:
                ready.extend(expired)
        if ready:
            self._deliver_many(ready)
        # Idle ticks run at pump frequency; observing each would dominate
        # the tick itself, so only work is timed.
        if timer is not None and ready:
            timer.stop(t0)
        return len(ready)

    def next_deadline(self) -> int | None:
        """ISM time by which :meth:`tick` must next run (None = idle)."""
        return self.sorter.next_deadline()

    def flush(self, now: int) -> int:
        """Drain everything (shutdown): sorter, then parked CRE events."""
        ready = self.cre.process_many(self.sorter.flush(now), now)
        # Force the timeout on whatever is still parked.
        ready.extend(self.cre.expire(now + self.config.cre.timeout_us + 1))
        if ready:
            self._deliver_many(ready)
        return len(ready)

    def inject(self, record: EventRecord) -> None:
        """Deliver one manager-synthesized record to every consumer now.

        The monitor engine's alert records enter here: they carry the
        manager's own clock and must reach consumers (and the durable
        log) immediately rather than queue behind the sorter's time
        frame.  Failure isolation and the delivered-records accounting
        are identical to the normal path.
        """
        self._deliver(record)

    def close(self) -> None:
        """Close every consumer (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for consumer in self.consumers:
            consumer.close()

    # ------------------------------------------------------------------
    def _deliver(self, record: EventRecord) -> None:
        """Deliver to every consumer, isolating their failures.

        A consumer that raises must not take the pipeline (or its sibling
        consumers) down; after ``max_consumer_errors`` consecutive
        failures it is detached — the same posture
        :class:`~repro.core.consumers.VisualObjectConsumer` applies to its
        remote objects, applied one level up.
        """
        self.stats.records_delivered += 1
        dead: list[Consumer] = []
        for consumer in self.consumers:
            try:
                consumer.deliver(record)
                self._consumer_strikes.pop(id(consumer), None)
            except Exception:
                self.stats.consumer_errors += 1
                strikes = self._consumer_strikes.get(id(consumer), 0) + 1
                self._consumer_strikes[id(consumer)] = strikes
                if strikes >= self.config.max_consumer_errors:
                    dead.append(consumer)
        for consumer in dead:
            self.consumers.remove(consumer)
            self._consumer_strikes.pop(id(consumer), None)
            self.stats.consumers_detached += 1

    def _deliver_many(self, records: Sequence[EventRecord]) -> None:
        """Fan a released batch out to the consumers in delivery slices.

        Record-for-record equivalent to calling :meth:`_deliver` per
        record: every consumer sees the same records in the same order,
        and the consecutive-failure strike accounting is preserved — a
        consumer without :meth:`~repro.core.consumers.Consumer.
        deliver_many` still gets per-record ``deliver`` calls with
        per-record strikes, so an intermittent failure pattern detaches
        (or survives) exactly as it did on the per-record path.
        """
        batch = self.config.delivery_batch
        if len(records) <= batch:
            self._deliver_chunk(records)
            return
        for start in range(0, len(records), batch):
            self._deliver_chunk(records[start : start + batch])

    def _deliver_chunk(self, chunk: Sequence[EventRecord]) -> None:
        self.stats.records_delivered += len(chunk)
        strikes_map = self._consumer_strikes
        max_errors = self.config.max_consumer_errors
        dead: list[Consumer] = []
        for consumer in self.consumers:
            cid = id(consumer)
            deliver_many = getattr(consumer, "deliver_many", None)
            if deliver_many is not None:
                try:
                    deliver_many(chunk)
                    strikes_map.pop(cid, None)
                except Exception:
                    # One strike per failed chunk: a bulk consumer opts in
                    # to coarser failure granularity for the batching win.
                    self.stats.consumer_errors += 1
                    strikes = strikes_map.get(cid, 0) + 1
                    strikes_map[cid] = strikes
                    if strikes >= max_errors:
                        dead.append(consumer)
                continue
            deliver = consumer.deliver
            strikes = strikes_map.get(cid, 0)
            for record in chunk:
                try:
                    deliver(record)
                    strikes = 0
                except Exception:
                    self.stats.consumer_errors += 1
                    strikes += 1
                    if strikes >= max_errors:
                        dead.append(consumer)
                        break
            if strikes:
                strikes_map[cid] = strikes
            else:
                strikes_map.pop(cid, None)
        for consumer in dead:
            self.consumers.remove(consumer)
            strikes_map.pop(id(consumer), None)
            self.stats.consumers_detached += 1

    def _expire_due(self, now: int) -> bool:
        last = self._last_expire_now
        if last is None or now - last >= self.config.expire_interval_us:
            self._last_expire_now = now
            return True
        return False

    def _on_tachyon(self) -> None:
        if self.sync_master is not None:
            self.sync_master.request_extra_round()
