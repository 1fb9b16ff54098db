"""Relay aggregation tier: many thin streams in, few fat streams out.

The ISM's remaining ingest ceiling is topological: one accept/route plane
touching every small frame from every node.  A relay breaks the fan-in by
speaking the EXS wire protocol on both sides — downstream it accepts many
EXS (or child-relay) connections; upstream it presents itself as a single
high-volume peer to the ISM or a parent relay — and acting as a
throughput multiplier on the way through:

* **Frame coalescing** — consecutive downstream batches from one source
  are re-emitted as one large frame near ``batch_max_bytes``, re-encoded
  through the fastcodec batch path (never field-by-field).  The coalesced
  frame preserves the *original* sequence numbers (``first_seq..seq``),
  so acks, dedup, and resume keep their end-to-end meaning.
* **In-flight pre-sorting** — decoded batch envelopes ride a
  :class:`~repro.core.merge.OrderedMerger` keyed by each batch's first
  record, so the upstream receiver's sorter sees mostly-ordered input.
  The coalesce window, not watermarks, bounds the sort horizon: an idle
  sensor must never stall the tree, so the merger is flushed (full k-way
  heap order over everything held) once per window rather than gated.
* **Optional compression** — coalesced payloads at or above
  ``compress_min_bytes`` travel as ``MsgType.COMPRESSED`` envelopes once
  the upstream peer has advertised :data:`~repro.wire.protocol.
  CAP_COMPRESS`.  Control frames are never compressed.
* **Metrics reduction** — self-observability snapshot records (event
  ``0xB0B5``) are cumulative: within one coalesced frame, a later record
  for the same ``(node, name)`` supersedes an earlier one (exactly the
  ``snapshot_from_records`` later-wins rule, the degenerate form of the
  associative ``HistogramSnapshot.merge``), so superseded snapshots are
  folded away instead of forwarded.

Delivery guarantees chain hop by hop.  Per source the relay keeps an
:class:`~repro.runtime.exs_proc.ExsOutbox` of coalesced upstream frames
and an *admitted* watermark seeded from the upstream ``HelloReply`` and
advanced by upstream acks; downstream acks quote only that watermark, so
a relay crash loses nothing an EXS was told is safe — the EXS retransmits
and the relay (or the ISM behind it) dedups.  A downstream ``Hello`` is
answered only after the relay's forwarded ``Hello`` got its upstream
reply, so resume points are always upstream-committed.

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

from collections import deque
from dataclasses import dataclass, field

from repro.core.merge import OrderedMerger
from repro.core.records import EventRecord
from repro.obs.metrics import Counter
from repro.obs.reporter import METRICS_EVENT_ID
from repro.runtime.exs_proc import _PEER_LOST, ExsOutbox
from repro.runtime.plane import PLANE_CAPS, ConnectionPlane
from repro.util.timebase import monotonic_s, now_micros
from repro.wire import protocol
from repro.wire.tcp import MessageConnection, MessageListener, connect
from repro.xdr import XdrDecodeError, XdrEncoder


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
    #: like :class:`~repro.runtime.exs_proc.ExsOutbox`).
    outbox_depth: int = 256
    #: Per-source bound on decoded envelopes awaiting flush; beyond it the
    #: source's socket is excluded from select (read backpressure).
    pending_limit: int = 256
    #: Compress coalesced payloads at or above this many bytes (None =
    #: never).  Takes effect only after upstream advertises CAP_COMPRESS.
    compress_min_bytes: int | None = None
    #: Fold superseded 0xB0B5 metric snapshots inside coalesced frames.
    reduce_metrics: bool = False
    #: Idle upstream heartbeat cadence (None disables).
    heartbeat_interval_s: float | None = 1.0
    #: Upstream reconnect backoff (deterministic doubling, capped).
    reconnect_backoff_s: float = 0.05
    max_backoff_s: float = 1.0
    #: One upstream connect attempt's timeout.
    connect_timeout_s: float = 0.5

    def __post_init__(self) -> None:
        if self.flush_interval_s <= 0:
            raise ValueError("flush_interval_s must be positive")
        if self.batch_max_bytes < 4096:
            raise ValueError("batch_max_bytes must be >= 4096")
        if self.pending_limit < 1:
            raise ValueError("pending_limit must be >= 1")


class _Envelope:
    """One decoded downstream batch, ready to merge and coalesce.

    ``raw`` keeps the original encoded payload so a run of one batch can
    be forwarded without re-encoding; it is dropped (None) for payloads
    that arrived compressed, forcing the re-encode path.
    """

    __slots__ = ("exs_id", "first", "last", "records", "raw", "wire_bytes", "_key")

    def __init__(
        self,
        exs_id: int,
        first: int,
        last: int,
        records: tuple[EventRecord, ...],
        raw: bytes | None,
        wire_bytes: int,
    ) -> None:
        self.exs_id = exs_id
        self.first = first
        self.last = last
        self.records = records
        self.raw = raw
        self.wire_bytes = wire_bytes
        # Empty (fully folded) batches sort first: they carry only a seq
        # advance and may leave immediately.
        self._key = records[0].sort_key() if records else (0, 0, 0)

    def sort_key(self) -> tuple[int, int, int]:
        return self._key


@dataclass
class _Source:
    """Per-downstream-source relay state (keyed by exs id).  What the
    source's *connection* is, wants and can decode is the plane's."""

    exs_id: int
    #: The source's latest Hello (node id, advertised rate), re-sent
    #: upstream on every upstream (re)connect.
    hello: protocol.Hello
    #: Upstream-committed watermark (from upstream HelloReply + acks);
    #: the only value ever quoted downstream.
    admitted: int = -1
    #: Highest original seq accepted into the merge/outbox this upstream
    #: session: the relay owns delivery for seqs at or below it, so
    #: downstream retransmits of them are dropped (the outbox retransmits
    #: on upstream reconnect instead).
    enqueued: int = -1
    #: Highest watermark already quoted downstream (suppress no-op acks).
    acked_down: int = -1
    #: Upstream handshake state: envelopes flush only once True.
    ready: bool = False
    #: Decoded batches awaiting the upstream HelloReply.
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
        self.upstream: MessageConnection | None = None
        self.sources: dict[int, _Source] = {}
        self.merger: OrderedMerger[_Envelope] = OrderedMerger()
        self._enc = XdrEncoder()
        self._upstream_caps = 0
        self._last_flush = monotonic_s()
        self._last_upstream_send = monotonic_s()
        self._next_connect_at = 0.0
        self._backoff_s = config.reconnect_backoff_s

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
        if self.upstream is None:
            self._maybe_connect_upstream()
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
        extra = () if self.upstream is None else (self.upstream,)
        for conn, payloads in self.plane.pump(timeout, exclude, extra):
            if conn is self.upstream:
                self._drain_upstream()
            else:
                self._on_downstream_frames(conn, payloads)
        if monotonic_s() - self._last_flush >= self.config.flush_interval_s:
            self._flush_upstream()
            self._last_flush = monotonic_s()
        self._flush_downstream_acks()
        self._maybe_heartbeat()

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
        # No node pre-stamp hint: the wire carries no node identity, the
        # fold key is per-run (single node) anyway, and the receiver
        # re-stamps every record from its own Hello registry.
        msg = protocol.decode_message(payload)
        if isinstance(msg, protocol.Batch):
            self._on_downstream_batch(conn, msg, payload)
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
                exs_id=msg.exs_id,
                hello=msg,
                outbox=ExsOutbox(self.config.outbox_depth),
            )
            self.sources[msg.exs_id] = src
            self.merger.add_shard(msg.exs_id)
        else:
            src.hello = msg
        src.ready = False
        # The downstream HelloReply waits for the upstream's (see
        # _on_upstream_hello_reply); a held filter is re-applied now.
        self.plane.bind(conn, msg)
        self._forward_hello(src)

    def _forward_hello(self, src: _Source) -> None:
        if self.upstream is None:
            return  # re-sent for every source on upstream (re)connect
        up_hello = protocol.Hello(
            exs_id=src.exs_id,
            node_id=src.hello.node_id,
            advertised_rate=src.hello.advertised_rate,
            wants_ack=True,
            capabilities=PLANE_CAPS,
        )
        try:
            self.upstream.send(up_hello)
            self._last_upstream_send = monotonic_s()
        except _PEER_LOST:
            self._lose_upstream()

    def _on_downstream_batch(
        self, conn: MessageConnection, msg: protocol.Batch, payload: bytes
    ) -> None:
        src = self.sources.get(msg.exs_id)
        if src is None or self.plane.connections.get(msg.exs_id) is not conn:
            # Batch before Hello: protocol violation downstream.
            self.plane.drop(conn)
            return
        first = msg.seq if msg.first_seq is None else msg.first_seq
        compressed_in = (
            len(payload) >= 8
            and int.from_bytes(payload[4:8], "big") == protocol.MsgType.COMPRESSED
        )
        env = _Envelope(
            exs_id=msg.exs_id,
            first=first,
            last=msg.seq,
            records=msg.records,
            raw=None if compressed_in else payload,
            wire_bytes=len(payload),
        )
        self.batches_in += 1
        self.records_in += len(msg.records)
        if src.ready:
            self._admit_envelope(src, env)
        else:
            src.prequeue.append(env)

    def _admit_envelope(self, src: _Source, env: _Envelope) -> None:
        floor = src.admitted if src.admitted > src.enqueued else src.enqueued
        if env.last <= floor:
            # A retransmit of something the relay already owns: the
            # outbox (or the upstream commit) will cover it; ack when the
            # upstream watermark does.
            self.duplicate_batches += 1
            if env.last <= src.admitted:
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
    def _maybe_connect_upstream(self) -> None:
        now = monotonic_s()
        if now < self._next_connect_at:
            return
        try:
            conn = connect(
                self.config.upstream_host,
                self.config.upstream_port,
                timeout=self.config.connect_timeout_s,
            )
        except OSError:
            self._next_connect_at = now + self._backoff_s
            self._backoff_s = min(
                self.config.max_backoff_s, self._backoff_s * 2
            )
            return
        self._backoff_s = self.config.reconnect_backoff_s
        self.upstream = conn
        self._upstream_caps = 0
        self._last_upstream_send = monotonic_s()
        # Chained resume: every known source re-handshakes; envelopes and
        # outbox retransmits wait for the per-source HelloReply.
        for src in self.sources.values():
            src.ready = False
            self._forward_hello(src)
            if self.upstream is None:
                return  # lost again mid-handshake; next cycle retries

    def _lose_upstream(self) -> None:
        if self.upstream is None:
            return
        self.upstream.close()
        self.upstream = None
        self.upstream_reconnects += 1
        self._next_connect_at = monotonic_s() + self._backoff_s
        for src in self.sources.values():
            src.ready = False

    def _drain_upstream(self) -> None:
        conn = self.upstream
        if conn is None:
            return
        try:
            for msg in conn.recv_available():
                self._on_upstream_message(msg)
                if self.upstream is not conn:
                    # A handler lost the upstream mid-drain (e.g. a
                    # failed retransmit): the socket under the iterator
                    # is already closed, so stop consuming it.
                    return
        except (ValueError, *_PEER_LOST):
            # ValueError: the fd was closed between select readiness
            # and the read (closed sockets select as fd -1).
            self._lose_upstream()

    def _on_upstream_message(self, msg: protocol.Message) -> None:
        if isinstance(msg, protocol.Ack):
            self._on_upstream_ack(msg.exs_id, msg.up_to_seq)
        elif isinstance(msg, protocol.AckBundle):
            for exs_id, up_to_seq in msg.acks:
                self._on_upstream_ack(exs_id, up_to_seq)
        elif isinstance(msg, protocol.HelloReply):
            self._on_upstream_hello_reply(msg)
        elif isinstance(msg, protocol.TimeRequest):
            # Sync terminates here: answer with the relay's own clock.
            if self.upstream is not None:
                try:
                    self.upstream.send(
                        protocol.TimeReply(
                            probe_id=msg.probe_id, slave_time=now_micros()
                        )
                    )
                    self._last_upstream_send = monotonic_s()
                except _PEER_LOST:
                    self._lose_upstream()
        elif isinstance(msg, protocol.SetFilter):
            self._on_upstream_set_filter(msg)
        elif isinstance(msg, protocol.Bye):
            self._lose_upstream()
        else:
            self.dropped_control += 1

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

    def _on_upstream_ack(self, exs_id: int, up_to_seq: int) -> None:
        src = self.sources.get(exs_id)
        if src is None:
            return
        src.outbox.ack(up_to_seq)
        if up_to_seq > src.admitted:
            src.admitted = up_to_seq
            self._queue_down_ack(src)

    def _on_upstream_hello_reply(self, msg: protocol.HelloReply) -> None:
        src = self.sources.get(msg.exs_id)
        if src is None:
            return
        self._upstream_caps |= msg.capabilities
        if msg.last_seq > src.admitted:
            src.admitted = msg.last_seq
        src.outbox.ack(src.admitted)
        if src.enqueued < src.admitted:
            src.enqueued = src.admitted
        # Within-session state survives a pure reconnect: frames still in
        # the outbox were coalesced once and retransmit byte-identically.
        pending = src.outbox.pending_payloads()
        if pending and self.upstream is not None:
            try:
                self.upstream.send_many(pending)
                self._last_upstream_send = monotonic_s()
                src.outbox.retransmitted_batches += len(pending)
            except _PEER_LOST:
                self._lose_upstream()
                return
        src.ready = True
        while src.prequeue:
            self._admit_envelope(src, src.prequeue.popleft())
        if self.plane.hello_reply(src.exs_id, src.admitted):
            src.acked_down = src.admitted

    # -- the multiplier: coalesce, reduce, compress, ship --------------
    def _flush_upstream(self) -> None:
        if self.upstream is None:
            return
        held = self.merger.flush()
        if not held:
            return
        payloads: list[bytes] = []
        run: list[_Envelope] = []
        run_bytes = 0

        def close_run() -> None:
            nonlocal run, run_bytes
            if not run:
                return
            src = self.sources[run[0].exs_id]
            payload = self._emit_run(run)
            src.outbox.append(run[-1].last, payload)
            payloads.append(payload)
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
            ):
                close_run()
            run.append(env)
            run_bytes += env.wire_bytes
        close_run()
        try:
            self.upstream.send_many(payloads)
            self._last_upstream_send = monotonic_s()
        except _PEER_LOST:
            # Already parked in the outboxes; the reconnect handshake
            # retransmits them, so a failed send loses nothing.
            self._lose_upstream()
        self.frames_out += len(payloads)

    def _emit_run(self, run: list[_Envelope]) -> bytes:
        """Encode one contiguous per-source run as a single upstream frame."""
        coalesce_ok = bool(self._upstream_caps & protocol.CAP_SEQ_RANGE)
        reduce_on = self.config.reduce_metrics
        if len(run) == 1 and not reduce_on and run[0].raw is not None:
            if run[0].first == run[0].last or coalesce_ok:
                # Verbatim fast path: the original encoded bytes.
                self.records_out += len(run[0].records)
                return self._maybe_compress(run[0].raw)
        if len(run) > 1:
            self.batches_coalesced += len(run)
        records: list[EventRecord] = [
            rec for env in run for rec in env.records
        ]
        if reduce_on:
            records = self._fold_metrics(records)
        first = run[0].first
        last = run[-1].last
        # FLAG_SEQ_RANGE may only go to peers that negotiated
        # CAP_SEQ_RANGE; toward a legacy upstream the coalesced run ships
        # as a plain batch at `last` (safe: runs are contiguous and start
        # past the outbox tail, so the peer's cumulative admitted
        # watermark either covers all of it or none of it).
        payload = protocol.encode_batch_records(
            run[0].exs_id,
            last,
            records,
            enc=self._enc,
            first_seq=first if coalesce_ok and first != last else None,
        )
        self.records_out += len(records)
        return self._maybe_compress(payload)

    def _maybe_compress(self, payload: bytes) -> bytes:
        threshold = self.config.compress_min_bytes
        if (
            threshold is None
            or not self._upstream_caps & protocol.CAP_COMPRESS
            or len(payload) < threshold
        ):
            return payload
        wrapped = protocol.compress_frame(payload)
        if len(wrapped) >= len(payload):
            return payload  # incompressible; ship the original
        self.compressed_frames += 1
        self.compressed_bytes_saved += len(payload) - len(wrapped)
        return wrapped

    def _fold_metrics(self, records: list[EventRecord]) -> list[EventRecord]:
        """Later-wins fold of 0xB0B5 snapshot records per (node, name).

        Snapshots are cumulative, so the latest record for a key is the
        (degenerate, associative — see ``HistogramSnapshot.merge``) merge
        of every earlier one; forwarding the earlier ones adds bytes, not
        information.  Mirrors ``reporter.snapshot_from_records``.
        """
        seen: set[tuple[int, object]] = set()
        kept_rev: list[EventRecord] = []
        folded = 0
        for rec in reversed(records):
            if rec.event_id == METRICS_EVENT_ID and rec.values:
                key = (rec.node_id, rec.values[0])
                if key in seen:
                    folded += 1
                    continue
                seen.add(key)
            kept_rev.append(rec)
        if not folded:
            return records
        self.metrics_records_folded += folded
        kept_rev.reverse()
        return kept_rev

    # -- downstream acks -----------------------------------------------
    def _queue_down_ack(self, src: _Source) -> None:
        if src.admitted > src.acked_down:
            self.plane.queue_ack(src.exs_id, src.admitted)

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

    def _maybe_heartbeat(self) -> None:
        interval = self.config.heartbeat_interval_s
        if interval is None or self.upstream is None:
            return
        now = monotonic_s()
        if now - self._last_upstream_send >= interval:
            try:
                self.upstream.send(
                    protocol.Heartbeat(exs_id=self.config.relay_id)
                )
                self._last_upstream_send = now
            except _PEER_LOST:
                self._lose_upstream()

    # -- lifecycle / introspection --------------------------------------
    def _shutdown(self) -> None:
        try:
            self._flush_upstream()
        except _PEER_LOST:
            pass
        if self.upstream is not None:
            try:
                self.upstream.send(protocol.Bye(reason="relay stop"))
            except _PEER_LOST:
                pass
            self.upstream.close()
            self.upstream = None
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
            "upstream_connected": self.upstream is not None,
            "held_envelopes": self.held_envelopes,
            "unacked_frames": self.unacked_frames,
            "counters": {
                "batches_in": int(self.batches_in),
                "records_in": int(self.records_in),
                "frames_out": int(self.frames_out),
                "records_out": int(self.records_out),
                "batches_coalesced": int(self.batches_coalesced),
                "duplicate_batches": int(self.duplicate_batches),
                "overlap_batches": int(self.overlap_batches),
                "compressed_frames": int(self.compressed_frames),
                "compressed_bytes_saved": int(self.compressed_bytes_saved),
                "metrics_records_folded": int(self.metrics_records_folded),
                "heartbeats_absorbed": int(self.heartbeats_absorbed),
                "dropped_control": int(self.dropped_control),
                "filters_forwarded": int(self.filters_forwarded),
                "filters_held": int(self.filters_held),
                "upstream_reconnects": int(self.upstream_reconnects),
                "acks_down_sent": int(self.acks_down_sent),
                "ack_frames_down": int(self.ack_frames_down),
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
