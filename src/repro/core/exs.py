"""The external sensor (EXS) — the shipping half of the LIS (§3.2, §3.4).

The EXS "runs as another process on the same node and may be assigned a
lower priority".  Each poll cycle it:

1. **drains** the ring buffer the internal sensors write into,
2. **transcodes** each native ring record straight to its XDR record,
   applying the **delta-ts** correction — the clock-synchronization
   correction value it maintains — to the record timestamp and every
   ``X_TS`` field on the way (the sensors stamp raw local
   ``gettimeofday`` time; the correction is added "before sending the
   record to the ISM"),
3. **batches** the record bytes under the configured latency control, and
4. writes a batch header over each closed batch's joined record bytes.

No record object is built: a record of a schema seen before takes its
plan's generated ``native_to_wire`` framing (:mod:`repro.core.plan`),
one ``struct`` unpack and one ``struct`` pack per run of fixed-size
fields.  The first record of a schema, and any record no plan takes, is
decoded and encoded by the reference codecs instead; a record those
reject too is skipped and counted (``records_rejected``), so one bad ring
record costs itself, not the drain or the batch around it.  The node
identity is not in the record bytes: the ISM stamps it from the Hello.

This class is transport- and scheduler-agnostic: :meth:`poll` consumes the
ring and returns encoded batch payloads; the caller (the real runtime's
process loop, or the simulator's EXS node) moves the bytes.  That split is
what lets benchmarks measure the EXS's pure CPU cost (E2) separately from
transport effects (E3/E4).

The EXS is also the clock-sync *slave* endpoint: :meth:`on_time_request`
answers Cristian probes with the corrected clock, and :meth:`on_adjust`
applies advance-only corrections.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import Sequence

from repro.clocksync.clocks import CorrectedClock
from repro.core import native
from repro.core.plan import SchemaPlan, native_transcode, plan_for
from repro.core.predicate import CompiledFilterState
from repro.core.ringbuffer import RingBuffer
from repro.wire import protocol
from repro.xdr import XdrError

#: What the reference codecs raise on a ring record they cannot ship.
_REJECTS = (ValueError, XdrError)


@dataclass(frozen=True, slots=True)
class ExsConfig:
    """External-sensor tuning knobs (§2: "batching, latency control").

    Attributes
    ----------
    batch_max_records:
        Ship a batch as soon as it holds this many records (throughput
        knob: bigger batches amortize headers and syscalls).
    batch_max_bytes:
        Approximate payload cap per batch; a batch closes when exceeded.
    flush_timeout_us:
        Latency control: a non-empty pending batch is shipped once its
        oldest record has waited this long, even if under-full.
    drain_limit:
        Max records pulled from the ring per poll, bounding the EXS's CPU
        burst so a lower-priority EXS stays preemptible.
    compress_meta / delta_ts:
        Wire-format knobs forwarded to the transfer protocol (A1/E8):
        a closed batch is re-framed in that spelling by the reference
        codec.  Batch boundaries fall where the spelling's sizes put them.
    """

    batch_max_records: int = 256
    batch_max_bytes: int = 32 * 1024
    flush_timeout_us: int = 40_000
    drain_limit: int = 4096
    compress_meta: bool = True
    delta_ts: bool = False

    def __post_init__(self) -> None:
        if self.batch_max_records < 1:
            raise ValueError("batch_max_records must be >= 1")
        if self.batch_max_bytes < 64:
            raise ValueError("batch_max_bytes must be >= 64")
        if self.flush_timeout_us < 0:
            raise ValueError("flush_timeout_us must be non-negative")
        if self.drain_limit < 1:
            raise ValueError("drain_limit must be >= 1")


@dataclass
class ExsStats:
    """Shipping counters."""

    records_drained: int = 0
    records_shipped: int = 0
    records_filtered: int = 0
    batches_shipped: int = 0
    bytes_shipped: int = 0
    timeout_flushes: int = 0
    #: Ring records neither a plan nor the reference decoder could ship.
    records_rejected: int = 0


def transcode(payload: bytes, correction: int) -> tuple[SchemaPlan | None, bytes]:
    """``(plan, wire record)`` for one native ring record under a clock
    correction: the bytes a default batch carries for it.

    A record no known plan takes (the first of its schema, or bytes that
    are irregular) goes through the reference codecs — decode, then
    encode — which compile the plan for the next one, or raise what they
    raise for a record they reject.
    """
    plan, wire = native_transcode(payload, correction)
    if wire is None:
        record = native.unpack_record_stamped(payload, 0, correction)
        wire = protocol.encode_record(record)
        plan = plan_for(record.field_types)
    return plan, wire


class ExternalSensor:
    """Drain → correct → batch → frame pipeline for one node.

    ``ring`` may be a single ring buffer or a sequence of them — the paper
    has "multiple user processes ... using internal sensors" on each node,
    each application process owning its own shared segment; the EXS drains
    them all and merges the drained records by timestamp before batching.
    """

    def __init__(
        self,
        exs_id: int,
        node_id: int,
        ring: RingBuffer | Sequence[RingBuffer],
        clock: CorrectedClock,
        config: ExsConfig = ExsConfig(),
        metrics=None,
    ) -> None:
        self.exs_id = exs_id
        self.node_id = node_id
        self.rings: list[RingBuffer] = (
            [ring] if isinstance(ring, RingBuffer) else list(ring)
        )
        if not self.rings:
            raise ValueError("external sensor needs at least one ring")
        self.clock = clock
        self.config = config
        self.stats = ExsStats()
        #: Source-side filter pushed down by the ISM (None = keep all),
        #: installed via :meth:`on_set_filter` as a compiled predicate.
        self.filter: CompiledFilterState | None = None
        #: Version of the installed filter (0 = none / legacy install).
        #: Epochs make the ISM's re-apply-on-reconnect idempotent: a
        #: re-sent spec neither resets sampling counters nor can an
        #: out-of-order older spec overwrite a newer one.
        self.filter_epoch = 0
        self._seq = 0
        #: Wire bytes of each pending record, as a default batch frames it.
        self._pending: list[bytes] = []
        self._pending_bytes = 0
        self._pending_oldest_local: int | None = None
        #: Optional :class:`repro.obs.metrics.MetricsRegistry`.  When None
        #: (the default) the data path carries zero observability cost —
        #: every hot-path hook is behind one ``is not None`` check.
        self.metrics = metrics
        self._poll_timer = None
        self._drain_hist = None
        if metrics is not None:
            from repro.obs import collect

            collect.wire_exs(metrics, self)
            # Self-time per poll (intrusion accounting) and per-drain
            # latency: how long records sat in the EXS before a batch
            # closed is visible in ``exs.drain_us``'s mean/max.
            self._poll_timer = metrics.timer("exs.poll_us")
            self._drain_hist = metrics.histogram("exs.drain_us")

    @property
    def ring(self) -> RingBuffer:
        """The first ring (single-ring deployments' natural accessor)."""
        return self.rings[0]

    @property
    def next_seq(self) -> int:
        """Sequence number the next closed batch will carry.

        The acked transfer protocol reads it right after :meth:`poll` to
        label the just-encoded payloads: a poll that produced ``k``
        batches used sequences ``next_seq - k .. next_seq - 1``.
        """
        return self._seq

    def resume_from(self, next_seq: int) -> None:
        """Fast-forward the batch sequence counter (never backwards).

        A restarted EXS resuming into an ISM that remembers a higher
        admitted seq adopts ``last_admitted + 1`` so its fresh batches
        are not mistaken for retransmits of delivered ones.
        """
        if next_seq > self._seq:
            self._seq = next_seq

    def add_ring(self, ring: RingBuffer) -> None:
        """Attach another application process's ring buffer."""
        self.rings.append(ring)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def hello(self) -> protocol.Hello:
        """The connection preamble this EXS sends first."""
        return protocol.Hello(exs_id=self.exs_id, node_id=self.node_id)

    def poll(self, now_local: int | None = None) -> list[bytes]:
        """Run one poll cycle; return encoded batch payloads ready to send.

        *now_local* is this node's corrected-clock reading; defaults to
        reading the clock (passed explicitly by the simulator so a poll is
        deterministic).
        """
        if now_local is None:
            now_local = self.clock.read()
        correction = self.clock.correction_us
        out: list[bytes] = []
        timer = self._poll_timer
        t0 = timer.start() if timer is not None else 0
        drained = self._drain_all()
        if timer is not None and drained:
            self._drain_hist.observe((time.perf_counter_ns() - t0) / 1_000.0)
        self.stats.records_drained += len(drained)
        payloads = drained
        if self.filter is not None:
            # The filter decides on the packed payloads *before*
            # transcoding: a dropped record never pays correction/encode.
            payloads = self.filter.admit_many(drained)
            self.stats.records_filtered += len(drained) - len(payloads)
        # Hot-loop hoists: attribute lookups and config reads happen once
        # per poll, not once per record.
        config = self.config
        ablated = not config.compress_meta or config.delta_ts
        batch_max_records = config.batch_max_records
        batch_max_bytes = config.batch_max_bytes
        pending = self._pending
        pending_bytes = self._pending_bytes
        # This poll's plan per payload length, tried before the lookup: a
        # fixed-size schema is one length, and a wrong guess costs one tag
        # compare.
        guesses: dict[int, SchemaPlan | None] = {}
        for payload in payloads:
            plan = guesses.get(len(payload))
            wire = None
            if plan is not None:
                try:
                    wire = plan.native_to_wire(payload, correction)
                except (struct.error, ValueError):
                    pass
            if wire is None:
                try:
                    plan, wire = transcode(payload, correction)
                except _REJECTS:
                    self._reject()
                    continue
                guesses[len(payload)] = plan
            size = len(wire)
            if ablated:
                # The spelling's size, as record_wire_size counts it.
                size += protocol.mode_size_delta(
                    wire[4],  # the meta word's field count
                    compress_meta=config.compress_meta,
                    delta_ts=config.delta_ts,
                )
            pending.append(wire)
            pending_bytes += size
            count = len(pending)
            if count == 1:
                self._pending_oldest_local = now_local
            if count >= batch_max_records or pending_bytes >= batch_max_bytes:
                out.append(self._close_batch())
                pending = self._pending
                pending_bytes = 0
        self._pending_bytes = pending_bytes
        # Latency control: ship a lingering partial batch.
        if (
            self._pending
            and self._pending_oldest_local is not None
            and now_local - self._pending_oldest_local >= self.config.flush_timeout_us
        ):
            self.stats.timeout_flushes += 1
            out.append(self._close_batch())
        # Record self-time only for polls that did work: empty polls run
        # at select-loop frequency, and observing each would cost more
        # than the poll itself (the metrics-off/on ≤5% benchmark guard
        # polices exactly this).
        if timer is not None and (drained or out):
            timer.stop(t0)
        return out

    def _reject(self) -> None:
        """Count a ring record nothing could ship; skip it."""
        self.stats.records_rejected += 1
        if self.stats.records_rejected == 1 and self.metrics is not None:
            from repro.obs import collect

            collect.wire_exs_rejects(self.metrics, self)

    def flush(self) -> list[bytes]:
        """Ship whatever is pending regardless of the knobs (shutdown)."""
        out: list[bytes] = []
        while any(self.rings):
            out.extend(self.poll())
        if self._pending:
            out.append(self._close_batch())
        return out

    def _drain_all(self) -> list[bytes]:
        """Pull up to the drain limit across all rings, merged by time.

        With several application rings the drained records interleave;
        sorting the drain by (embedded raw) timestamp keeps this EXS's
        outgoing stream per-source-ordered, which the ISM's per-queue
        merge relies on.  Native payloads carry the timestamp at a fixed
        offset, so the sort key is read without full decoding.
        """
        limit = self.config.drain_limit
        if len(self.rings) == 1:
            return self.rings[0].drain_bytes(limit)
        per_ring = max(1, limit // len(self.rings))
        drained: list[bytes] = []
        for ring in self.rings:
            drained.extend(ring.drain_bytes(per_ring))
        # Second pass: an even split starves a busy ring whenever its
        # siblings are idle — their unused quota went nowhere.  Hand the
        # leftover to rings that still hold records, in order, so the poll
        # always moves up to the full drain limit when the data exists.
        leftover = limit - len(drained)
        if leftover > 0:
            for ring in self.rings:
                more = ring.drain_bytes(leftover)
                if more:
                    drained.extend(more)
                    leftover -= len(more)
                    if leftover <= 0:
                        break
        drained.sort(key=native.timestamp_of)
        return drained

    def _close_batch(self) -> bytes:
        records = self._pending
        self._pending = []
        self._pending_bytes = 0
        self._pending_oldest_local = None
        encoded = protocol.frame_batch(self.exs_id, self._seq, records)
        config = self.config
        if not config.compress_meta or config.delta_ts:
            # The ablation spellings (A1/E8) are rare and cold: the
            # reference codec re-frames the default batch.
            encoded = protocol.encode_batch_records(
                self.exs_id,
                self._seq,
                protocol.decode_message(encoded).records,
                compress_meta=config.compress_meta,
                delta_ts=config.delta_ts,
            )
        self._seq += 1
        self.stats.records_shipped += len(records)
        self.stats.batches_shipped += 1
        self.stats.bytes_shipped += len(encoded)
        return encoded

    # ------------------------------------------------------------------
    # clock-sync slave endpoint
    # ------------------------------------------------------------------
    def on_time_request(self, msg: protocol.TimeRequest) -> protocol.TimeReply:
        """Answer a Cristian probe with the corrected clock reading."""
        return protocol.TimeReply(probe_id=msg.probe_id, slave_time=self.clock.read())

    def on_adjust(self, msg: protocol.Adjust) -> None:
        """Apply a master correction (advance-only, per §3.3)."""
        self.clock.advance(msg.correction)

    def on_set_filter(self, msg: "protocol.SetFilter") -> None:
        """Install (or clear) the ISM-pushed source-side filter.

        Epoch discipline (steering extension): a message older than the
        installed epoch is ignored (it was reordered past a newer spec),
        and a re-send of the installed epoch is a no-op — the ISM re-sends
        the desired spec after every reconnect, and the no-op is what
        keeps sampling counters (and therefore which records a
        ``sample_every`` keeps) stable across the resume.  Legacy frames
        (epoch 0) install unconditionally, as before.
        """
        epoch = msg.filter_epoch
        if epoch:
            if epoch <= self.filter_epoch:
                return
            self.filter_epoch = epoch
        spec = msg.to_spec()
        self.filter = None if spec.is_pass_through else CompiledFilterState(spec)
