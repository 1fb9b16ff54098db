"""Relay aggregation tier: many thin streams in, few fat streams out.

The ISM's remaining ingest ceiling is topological: one accept/route plane
touching every small frame from every node.  A relay breaks the fan-in by
speaking the EXS wire protocol on both sides — downstream it accepts many
EXS (or child-relay) connections; upstream it presents itself as a single
high-volume peer to the ISM or a parent relay — and acting as a
throughput multiplier on the way through:

* **Frame coalescing** — consecutive downstream batches from one source
  leave as one large frame near ``batch_max_bytes``: a new batch header
  plus their record bytes, joined (:func:`~repro.wire.protocol.
  splice_batch`).  Records are validated on the way in by one walk that
  accepts exactly what the ISM's decoder accepts, and never built: the
  ISM is the first and only place they become objects.  ``DELTA_TS``
  batches, whose timestamps are relative to their own base, travel
  verbatim as runs of one.  The coalesced frame preserves the *original*
  sequence numbers (``first_seq..seq``), so acks, dedup, and resume keep
  their end-to-end meaning; the splice is written for the upstream's
  advertised bits (``uplink.peer_caps``), so an upstream that cannot
  read the range receives a plain batch at the run's last seq.
* **In-flight pre-sorting** — batch envelopes ride a
  :class:`~repro.core.merge.OrderedMerger` keyed by each batch's first
  record, so the upstream receiver's sorter sees mostly-ordered input.
  The coalesce window, not watermarks, bounds the sort horizon: an idle
  sensor must never stall the tree, so the merger is flushed (full k-way
  heap order over everything held) once per window rather than gated.
* **Optional compression** — coalesced payloads at or above
  ``compress_min_bytes`` travel as ``MsgType.COMPRESSED`` envelopes when
  that makes them smaller and the upstream's reply advertised the bit
  (the uplink's :func:`~repro.wire.protocol.compress_frame` decides the
  latter).  Control frames are never compressed.
* **Metrics reduction** — self-observability snapshot records (event
  ``0xB0B5``) are cumulative: within one coalesced frame, a later record
  for the same ``(node, name)`` supersedes an earlier one (exactly the
  ``snapshot_from_records`` later-wins rule, the degenerate form of the
  associative ``HistogramSnapshot.merge``), so superseded snapshots are
  folded away instead of forwarded.  Only those records are decoded.

The relay tests no capability bit itself: what the upstream can read is
decided by the protocol writers, from the bits it passes along.

Delivery guarantees chain hop by hop.  Upstream, the relay is the second
owner of the EXS's :class:`~repro.runtime.uplink.Uplink`, carrying every
source with its own outbox of coalesced frames.  Downstream acks quote
only what the upstream confirmed, so a relay crash loses nothing an EXS
was told is safe (the EXS retransmits; the relay or the ISM dedups), and
a downstream ``Hello`` is answered only once the forwarded one got its
upstream reply.

Clock sync terminates at the relay: it answers upstream ``TimeRequest``
probes with its own corrected clock and drops ``Adjust`` rather than
fanning it out (relay-domain sync is a ROADMAP item, not silently wrong
behaviour — the drop is counted).  Steering passes *through*: an
upstream ``SetFilter`` is routed to the downstream source named by its
``target_exs_id`` (every source when 0), remembered per source, and
re-applied when that source reconnects — so runtime filter pushes keep
their exactly-once re-apply semantics across relay hops.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from repro.core.merge import OrderedMerger
from repro.obs.metrics import Counter
from repro.obs.reporter import METRICS_EVENT_ID
from repro.runtime.plane import PLANE_CAPS, ConnectionPlane
from repro.runtime.uplink import ExsOutbox, Uplink
from repro.util.timebase import monotonic_s, now_micros
from repro.wire import protocol
from repro.wire.tcp import MessageConnection, MessageListener
from repro.xdr import XdrDecodeError


#: Upstream redial backoff (jittered, from 50 ms up to 1 s): a relay
#: fronts a whole subtree, so it redials sooner than an EXS.  The uplink's
#: other timers are its defaults.
UPSTREAM_BACKOFF_S = 0.05
UPSTREAM_MAX_BACKOFF_S = 1.0


@dataclass(frozen=True, slots=True)
class RelayConfig:
    """Tuning knobs for one relay node."""

    #: Upstream peer (the ISM or a parent relay).
    upstream_host: str = "127.0.0.1"
    upstream_port: int = 0
    #: Downstream listening endpoint (port 0 = kernel-chosen).
    listen_host: str = "127.0.0.1"
    listen_port: int = 0
    #: Identity stamped on upstream heartbeats (diagnostic only).
    relay_id: int = 0
    #: The paper's 40 ms select bound, shared with the EXS/ISM loops.
    select_timeout_s: float = 0.040
    #: Coalesce window: how long downstream batches may accumulate before
    #: a forced upstream flush.  Smaller = lower added latency; larger =
    #: fatter frames and better sorting.
    flush_interval_s: float = 0.005
    #: Target upper bound for one coalesced frame's payload bytes.
    batch_max_bytes: int = 256 * 1024
    #: Per-source bound on coalesced-but-unacked upstream frames (soft,
    #: like :class:`~repro.runtime.uplink.ExsOutbox`).
    outbox_depth: int = 256
    #: Per-source bound on envelopes awaiting flush; beyond it the
    #: source's socket is excluded from select (read backpressure).
    pending_limit: int = 256
    #: Compress coalesced payloads at or above this many bytes (None =
    #: never).  Takes effect only once the upstream's reply advertised
    #: compression.
    compress_min_bytes: int | None = None
    #: Fold superseded 0xB0B5 metric snapshots inside coalesced frames.
    reduce_metrics: bool = False

    def __post_init__(self) -> None:
        if self.flush_interval_s <= 0:
            raise ValueError("flush_interval_s must be positive")
        if self.batch_max_bytes < 4096:
            raise ValueError("batch_max_bytes must be >= 4096")
        if self.pending_limit < 1:
            raise ValueError("pending_limit must be >= 1")


class _Envelope:
    """One validated downstream batch, ready to merge and splice."""

    __slots__ = ("exs_id", "first", "last", "batch", "wire_bytes")

    def __init__(self, batch: protocol.BatchView, wire_bytes: int) -> None:
        self.exs_id = batch.exs_id
        self.first = batch.seq if batch.first_seq is None else batch.first_seq
        self.last = batch.seq
        self.batch = batch
        self.wire_bytes = wire_bytes

    def sort_key(self) -> tuple[int, int, int]:
        # Empty (fully folded) batches sort first: they carry only a seq
        # advance and may leave immediately.
        return self.batch.key


@dataclass
class _Source:
    """Per-downstream-source relay state (keyed by exs id).  What the
    source's *connection* is, wants and can decode is the plane's."""

    exs_id: int
    #: Highest original seq accepted into the merge/outbox this upstream
    #: session: the relay owns delivery for seqs at or below it, so
    #: downstream retransmits of them are dropped (the outbox retransmits
    #: on upstream reconnect instead).
    enqueued: int = -1
    #: Highest watermark already quoted downstream (suppress no-op acks).
    acked_down: int = -1
    #: Envelopes awaiting the upstream HelloReply.
    prequeue: deque[_Envelope] = field(default_factory=deque)
    #: Envelopes currently held in the merger (backpressure accounting).
    queued: int = 0
    outbox: ExsOutbox = field(default_factory=ExsOutbox)


class RelayServer:
    """One relay node: accept downstream, multiply throughput upstream."""

    def __init__(
        self,
        config: RelayConfig,
        *,
        listener: MessageListener | None = None,
    ) -> None:
        self.config = config
        self.listener = listener if listener is not None else MessageListener(
            config.listen_host, config.listen_port
        )
        #: The downstream face.  No idle deadline: a quiet sensor is not a
        #: hung one, and the relay's own upstream heartbeat is what keeps
        #: the tree's liveness signal going.
        self.plane = ConnectionPlane(self.listener)
        #: The upstream face, its jitter seeded by this relay's identity
        #: and address so relays orphaned together redial apart.
        self.uplink = Uplink(
            PLANE_CAPS,
            heartbeat_id=config.relay_id,
            compress_min_bytes=config.compress_min_bytes,
            host=config.upstream_host,
            port=config.upstream_port,
            rng=random.Random(f"relay {config.relay_id} {self.listener.address}"),
            backoff_s=UPSTREAM_BACKOFF_S,
            max_backoff_s=UPSTREAM_MAX_BACKOFF_S,
        )
        self.sources: dict[int, _Source] = {}
        self.merger: OrderedMerger[_Envelope] = OrderedMerger()
        self._last_flush = monotonic_s()

        # -- counters (exported by repro.obs.collect.wire_relay) --------
        self.batches_in = Counter("relay.batches_in")
        self.records_in = Counter("relay.records_in")
        self.frames_out = Counter("relay.frames_out")
        self.records_out = Counter("relay.records_out")
        self.batches_coalesced = Counter("relay.batches_coalesced")
        self.duplicate_batches = Counter("relay.duplicate_batches")
        self.overlap_batches = Counter("relay.overlap_batches")
        self.compressed_frames = Counter("relay.compressed_frames")
        self.compressed_bytes_saved = Counter("relay.compressed_bytes_saved")
        self.metrics_records_folded = Counter("relay.metrics_records_folded")
        self.heartbeats_absorbed = Counter("relay.heartbeats_absorbed")
        self.dropped_control = Counter("relay.dropped_control")
        self.filters_forwarded = Counter("relay.filters_forwarded")
        self.filters_held = Counter("relay.filters_held")
        self.upstream_reconnects = Counter("relay.upstream_reconnects")
        self.acks_down_sent = Counter("relay.acks_down_sent")
        self.ack_frames_down = Counter("relay.ack_frames_down")

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The downstream listening (host, port)."""
        return self.listener.address

    def stop(self) -> None:
        """Ask the serve loop to exit after the current cycle."""
        self.plane.stop()

    def serve(self, duration_s: float | None = None) -> None:
        """Run the relay loop until stopped (or *duration_s* elapses)."""
        self.plane.arm(duration_s)
        try:
            while self.plane.next_cycle():
                self._pump_once()
        finally:
            self._shutdown()

    # -- the pump ------------------------------------------------------
    def _pump_once(self) -> None:
        uplink = self.uplink
        if uplink.conn is None and uplink.dial() and uplink.connections > 1:
            self.upstream_reconnects += 1
        # Read backpressure: stop reading a connection until acks free
        # outbox (or merge) room for every source it carries.
        limit = self.config.pending_limit
        exclude: set[MessageConnection] = set()
        for exs_id, conn in self.plane.connections.items():
            src = self.sources[exs_id]  # bound implies known: see the Hello
            if src.outbox.full or src.queued + len(src.prequeue) >= limit:
                exclude.add(conn)
        now = monotonic_s()
        until_flush = self.config.flush_interval_s - (now - self._last_flush)
        timeout = max(0.0, min(self.config.select_timeout_s, until_flush))
        extra = () if uplink.conn is None else (uplink.conn,)
        for conn, payloads in self.plane.pump(timeout, exclude, extra):
            if conn in extra:
                self._drain_upstream()
            else:
                self._on_downstream_frames(conn, payloads)
        if monotonic_s() - self._last_flush >= self.config.flush_interval_s:
            self._flush_upstream()
            self._last_flush = monotonic_s()
        uplink.tick()
        self._on_upstream_news()
        self._flush_downstream_acks()

    # -- downstream ----------------------------------------------------
    def _on_downstream_frames(
        self, conn: MessageConnection, payloads: list[bytes]
    ) -> None:
        for payload in payloads:
            try:
                self._on_downstream_frame(conn, payload)
            except XdrDecodeError:
                # Malformed or protocol-violating: the stream past it is
                # untrustworthy.
                self.plane.drop(conn)
                return

    def _on_downstream_frame(
        self, conn: MessageConnection, payload: bytes
    ) -> None:
        msg = protocol.view_message(payload)
        if isinstance(msg, protocol.BatchView):
            self._on_downstream_batch(conn, msg, len(payload))
        elif isinstance(msg, protocol.Hello):
            self._on_downstream_hello(conn, msg)
        elif isinstance(msg, protocol.Heartbeat):
            self.heartbeats_absorbed += 1
        elif isinstance(msg, protocol.Bye):
            self.plane.drop(conn)
        else:
            # Acks/replies/sync have no downstream-to-upstream meaning.
            self.dropped_control += 1

    def _on_downstream_hello(
        self, conn: MessageConnection, msg: protocol.Hello
    ) -> None:
        src = self.sources.get(msg.exs_id)
        if src is None:
            src = _Source(
                exs_id=msg.exs_id, outbox=ExsOutbox(self.config.outbox_depth)
            )
            self.sources[msg.exs_id] = src
            self.merger.add_shard(msg.exs_id)
        # The downstream HelloReply waits for the upstream's (see
        # _on_upstream_news); a held filter is re-applied now.
        self.plane.bind(conn, msg)
        self.uplink.add_source(msg, src.outbox)

    def _on_downstream_batch(
        self, conn: MessageConnection, batch: protocol.BatchView, wire_bytes: int
    ) -> None:
        src = self.sources.get(batch.exs_id)
        if src is None or self.plane.connections.get(batch.exs_id) is not conn:
            # Batch before Hello: protocol violation downstream.
            self.plane.drop(conn)
            return
        env = _Envelope(batch, wire_bytes)
        self.batches_in += 1
        self.records_in += batch.count
        if batch.exs_id in self.uplink.ready:
            self._admit_envelope(src, env)
        else:
            src.prequeue.append(env)

    def _admit_envelope(self, src: _Source, env: _Envelope) -> None:
        admitted = self.uplink.confirmed[src.exs_id]
        floor = admitted if admitted > src.enqueued else src.enqueued
        if env.last <= floor:
            # A retransmit of something the relay already owns: the
            # outbox (or the upstream commit) will cover it; ack when the
            # upstream watermark does.
            self.duplicate_batches += 1
            if env.last <= admitted:
                self._queue_down_ack(src)
            return
        if env.first <= floor:
            # Partial overlap: a downstream peer re-batched across our
            # watermark (no conforming sender does).  Forward whole and
            # count it; the upstream dedup stays whole-frame best-effort.
            self.overlap_batches += 1
        src.enqueued = env.last
        src.queued += 1
        self.merger.push(src.exs_id, (env,))

    # -- upstream ------------------------------------------------------
    def _drain_upstream(self) -> None:
        """Upstream messages, in arrival order with the uplink's news."""
        uplink = self.uplink
        for msg in uplink.receive():
            self._on_upstream_news()
            if isinstance(msg, protocol.TimeRequest):
                # Sync terminates here: answer with the relay's own clock.
                uplink.send_control(
                    protocol.TimeReply(probe_id=msg.probe_id, slave_time=now_micros())
                )
            elif isinstance(msg, protocol.SetFilter):
                self._on_upstream_set_filter(msg)
            elif isinstance(msg, protocol.Bye):
                uplink.drop()  # a Bye from above is a lost upstream: redial
            else:
                self.dropped_control += 1
        self._on_upstream_news()

    def _on_upstream_set_filter(self, msg: protocol.SetFilter) -> None:
        """Route a steering push to the downstream source it names.

        ``target_exs_id=0`` (a legacy or broadcast frame) fans out to
        every known source.  The plane remembers the frame per targeted
        source *unchanged*, so a reconnecting EXS gets it re-applied with
        the upstream's epoch — duplicate applies stay no-ops end to end.
        Each push counts once: forwarded if it reached the source now,
        held if the source is between connections.
        """
        targets = [msg.target_exs_id] if msg.target_exs_id else list(self.sources)
        for exs_id in targets:
            if exs_id not in self.sources:
                self.dropped_control += 1
            elif self.plane.hold_filter(exs_id, msg):
                self.filters_forwarded += 1
            else:
                self.filters_held += 1

    def _on_upstream_news(self) -> None:
        """Release the sources the upstream resumed, then quote what it
        confirmed downstream.  Runs right after each uplink call that can
        resume a source, so no later downstream batch overtakes the
        prequeue."""
        uplink = self.uplink
        for exs_id in uplink.resumed:
            src = self.sources[exs_id]
            admitted = uplink.confirmed[exs_id]
            if src.enqueued < admitted:
                src.enqueued = admitted
            while src.prequeue:
                self._admit_envelope(src, src.prequeue.popleft())
            if self.plane.hello_reply(exs_id, admitted):
                src.acked_down = admitted
        uplink.resumed.clear()
        for exs_id in uplink.advanced:
            self._queue_down_ack(self.sources[exs_id])
        uplink.advanced.clear()

    # -- the multiplier: coalesce, reduce, compress, ship --------------
    def _flush_upstream(self) -> None:
        if self.uplink.conn is None:
            return
        held = self.merger.flush()
        if not held:
            return
        batches: list[tuple[int, int, bytes]] = []
        run: list[_Envelope] = []
        run_bytes = 0

        def close_run() -> None:
            nonlocal run, run_bytes
            if not run:
                return
            batches.append((run[0].exs_id, run[-1].last, self._emit_run(run)))
            run = []
            run_bytes = 0

        for env in held:
            src = self.sources.get(env.exs_id)
            if src is None:
                continue
            src.queued -= 1
            if run and (
                env.exs_id != run[-1].exs_id
                or env.first != run[-1].last + 1
                or run_bytes + env.wire_bytes > self.config.batch_max_bytes
                or not run[-1].batch.splices_with(env.batch)
            ):
                close_run()
            run.append(env)
            run_bytes += env.wire_bytes
        close_run()
        # Parked in the outboxes first: a failed send loses nothing, the
        # reconnect handshake retransmits them.
        compressed, saved = self.uplink.send(batches)
        self.compressed_frames += compressed
        self.compressed_bytes_saved += saved
        self.frames_out += len(batches)

    def _emit_run(self, run: list[_Envelope]) -> bytes:
        """Splice one contiguous per-source run into a single upstream
        frame, written for the upstream's bits."""
        batches = [env.batch for env in run]
        kept = self._fold_metrics(batches) if self.config.reduce_metrics else None
        self.records_out += (
            sum(batch.count for batch in batches) if kept is None else len(kept)
        )
        if len(run) > 1:
            self.batches_coalesced += len(run)
        return protocol.splice_batch(
            batches,
            run[-1].last,
            caps=self.uplink.peer_caps,
            first_seq=run[0].first,
            records=kept,
        )

    def _fold_metrics(
        self, batches: list[protocol.BatchView]
    ) -> list[memoryview] | None:
        """Later-wins fold of a run's 0xB0B5 snapshot records per name:
        the record spans kept, or None when nothing folds.

        Snapshots are cumulative, so the latest record for a key is the
        (degenerate, associative — see ``HistogramSnapshot.merge``) merge
        of every earlier one; forwarding the earlier ones adds bytes, not
        information.  Mirrors ``reporter.snapshot_from_records``, whose
        key is ``(node, name)``: a run is one source, so one node.  Only
        snapshot records are decoded.
        """
        spans = [(batch, span) for batch in batches for span in batch.spans()]
        seen: set[object] = set()
        kept_rev: list[memoryview] = []
        folded = 0
        for batch, span in reversed(spans):
            if int.from_bytes(span[:4], "big") == METRICS_EVENT_ID:
                values = batch.decode_span(span).values
                if values:
                    if values[0] in seen:
                        folded += 1
                        continue
                    seen.add(values[0])
            kept_rev.append(span)
        if not folded:
            return None
        self.metrics_records_folded += folded
        kept_rev.reverse()
        return kept_rev

    # -- downstream acks -----------------------------------------------
    def _queue_down_ack(self, src: _Source) -> None:
        admitted = self.uplink.confirmed[src.exs_id]
        if admitted > src.acked_down:
            self.plane.queue_ack(src.exs_id, admitted)

    def _flush_downstream_acks(self) -> None:
        """Quote upstream-committed watermarks downstream, one control
        frame per connection per cycle (the plane picks bundle or
        vectored singles)."""
        frames, pairs = self.plane.flush_acks()
        self.ack_frames_down += frames
        for exs_id, seq in pairs:
            src = self.sources.get(exs_id)
            if src is not None and seq > src.acked_down:
                src.acked_down = seq
                self.acks_down_sent += 1

    # -- lifecycle / introspection --------------------------------------
    def _shutdown(self) -> None:
        self._flush_upstream()
        self.uplink.close("relay stop")
        # No Bye downstream: an EXS treats Bye as "stop", and a relay going
        # away must look like a lost connection it reconnects from.
        self.plane.close()
        self.listener.close()

    @property
    def unacked_frames(self) -> int:
        """Coalesced frames awaiting an upstream ack, over all sources."""
        return sum(src.outbox.unacked for src in self.sources.values())

    @property
    def held_envelopes(self) -> int:
        """Envelopes parked in the merge (pre-flush), over all sources."""
        return self.merger.held + sum(
            len(src.prequeue) for src in self.sources.values()
        )

    def stats_dump(self) -> dict[str, object]:
        """JSON-friendly counters for ``brisk-stats relay``."""
        return {
            "relay_id": self.config.relay_id,
            "sources": len(self.sources),
            "downstream_connections": len(self.plane.live()),
            "upstream_connected": self.uplink.conn is not None,
            "held_envelopes": self.held_envelopes,
            "unacked_frames": self.unacked_frames,
            "counters": {
                counter.name.removeprefix("relay."): int(counter)
                for counter in vars(self).values()
                if isinstance(counter, Counter)
            },
        }


def relay_process_main(
    listen_port: int,
    upstream_host: str,
    upstream_port: int,
    relay_id: int = 0,
    *,
    flush_interval_s: float = 0.005,
    batch_max_bytes: int = 256 * 1024,
    compress_min_bytes: int | None = None,
    reduce_metrics: bool = False,
    duration_s: float | None = None,
    stats_json: str | None = None,
) -> None:
    """``multiprocessing.Process`` target: run one relay node.

    *listen_port* is parent-chosen (and fixed) so a chaos harness can
    SIGKILL the relay and respawn it on the same address — downstream
    reconnecting senders and the chained resume handshake then prove
    exactly-once delivery through the tree.

    *stats_json*, when set, receives :meth:`RelayServer.stats_dump` as
    JSON on clean exit — the input of ``brisk-stats relay``.
    """
    config = RelayConfig(
        upstream_host=upstream_host,
        upstream_port=upstream_port,
        listen_port=listen_port,
        relay_id=relay_id,
        flush_interval_s=flush_interval_s,
        batch_max_bytes=batch_max_bytes,
        compress_min_bytes=compress_min_bytes,
        reduce_metrics=reduce_metrics,
    )
    server = RelayServer(config)
    try:
        server.serve(duration_s=duration_s)
    finally:
        if stats_json is not None:
            import json

            with open(stats_json, "w", encoding="ascii") as stream:
                json.dump(server.stats_dump(), stream, indent=2, sort_keys=True)
