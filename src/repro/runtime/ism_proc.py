"""The ISM server process.

A ``select`` loop — the paper's ISM is likewise one process whose CPU
demand is the scalability bottleneck (E5).  What is done to a
*connection* lives in :class:`~repro.runtime.plane.ConnectionPlane`; this
module is what the two ISM flavors do with a drained payload list.  For
:class:`IsmServer`, per cycle:

1. **framing** — the plane's one ``select``; each readable socket is
   drained through its reusable ``recv_into`` buffer and every complete
   frame payload sliced out;
2. **decode** — each connection's payload list is batch-decoded inline
   on the pump thread;
3. **route** — decoded messages enter the
   :class:`~repro.core.ism.InstrumentationManager` in arrival order, per
   connection; then the manager ticks so sorted records flow to consumers.

This is byte- and order-identical to the per-message receive loop it
replaced.

The loop also periodically runs the BRISK clock-synchronization round over
the same connections (:class:`TcpSyncSlave` adapts a connection to the
:class:`~repro.clocksync.probes.SyncSlave` interface).  Probes are blocking
per slave (as in Cristian's algorithm); batches that arrive while the
master waits for a ``TimeReply`` are queued into the manager rather than
dropped or reordered.
"""

from __future__ import annotations

import multiprocessing as mp
import select
import struct
import time
from collections import deque

from repro.clocksync.brisk_sync import BriskSyncConfig, BriskSyncMaster
from repro.clocksync.probes import ProbeSample
from repro.core import native
from repro.core.ackgate import AckGate
from repro.core.consumers import Consumer
from repro.core.filtering import FilterSpec
from repro.core.ism import InstrumentationManager, IsmConfig
from repro.core.merge import OrderedMerger
from repro.core.records import EventRecord
from repro.monitor.engine import MonitorEngine
from repro.monitor.spec import MonitorSpec
from repro.obs import collect
from repro.obs.metrics import Counter, MetricsRegistry, MetricsSnapshot
from repro.obs.render import render_shard_breakdown, render_snapshot
from repro.runtime.plane import ConnectionPlane
from repro.runtime.shard import (
    CTRL_ACK,
    CTRL_COMMIT,
    CTRL_HELLO_REPLY,
    RPC_SNAPSHOT,
    RPC_STOP,
    ShardConfig,
    retire_frame,
    shard_worker_main,
)
from repro.runtime.shm import create_shared_ring
from repro.util.timebase import now_micros
from repro.wire import protocol
from repro.wire.tcp import ConnectionClosed, MessageConnection, MessageListener
from repro.xdr import XdrDecodeError


class TcpSyncSlave:
    """Clock-sync slave endpoint over a live EXS connection."""

    def __init__(self, server: "IsmServer", conn: MessageConnection, slave_id: int):
        self.server = server
        self.conn = conn
        self.slave_id = slave_id
        self._probe_seq = 0

    def probe(self, timeout_s: float = 1.0) -> ProbeSample:
        """One blocking Cristian probe over the connection."""
        self._probe_seq += 1
        probe_id = self._probe_seq
        t0 = now_micros()
        self.conn.send(protocol.TimeRequest(probe_id=probe_id))
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"probe {probe_id} to EXS {self.slave_id}")
            msg = self.conn.recv(timeout=remaining)
            if msg is None:
                continue
            if isinstance(msg, protocol.TimeReply) and msg.probe_id == probe_id:
                t1 = now_micros()
                rtt = t1 - t0
                skew = msg.slave_time + rtt / 2 - t1
                return ProbeSample(skew_us=skew, rtt_us=rtt)
            # A message raced the probe: give it the full routing
            # treatment, not bare dispatch — on a multiplexed relay
            # connection even a fresh Hello can land mid-probe, and it
            # must still get its ack registration and HelloReply.
            self.server._route(self.conn, msg)

    def adjust(self, correction_us: int) -> None:
        """Send the correction over the connection."""
        self.conn.send(protocol.Adjust(correction=correction_us))


class _IsmFront:
    """What both ISM flavors expose of their connection plane — the
    binding table, stop, steering, the monitor attachment (the server is
    the engine's actuator) — plus the lazily wired metrics registry and
    the stats-table timer."""

    consumers: list  # what an attached monitor engine joins

    def __init__(
        self,
        listener: MessageListener,
        ack_batches: bool,
        idle_deadline_s: float | None,
        stats_interval_s: float | None,
        stats_sink,
    ) -> None:
        if stats_interval_s is not None and stats_interval_s <= 0:
            raise ValueError("stats_interval_s must be positive or None")
        self.listener = listener
        self.plane = ConnectionPlane(
            listener, ack_batches=ack_batches, idle_deadline_s=idle_deadline_s
        )
        self.idle_drops = self.plane.idle_drops
        self.closed_connections = self.plane.closed_connections
        #: Self-observability registry; None until enabled.  Pass one in,
        #: set ``stats_interval_s`` (a registry is then created), or call
        #: ``metrics_snapshot()`` — the programmatic stats endpoint —
        #: which wires one lazily (see :meth:`_registry`).
        self.metrics: MetricsRegistry | None = None
        self.stats_interval_s = stats_interval_s
        #: Where the periodic stats table goes (callable taking one
        #: string); default prints to stdout.
        self.stats_sink = stats_sink if stats_sink is not None else print
        self._next_stats = (
            None
            if stats_interval_s is None
            else time.monotonic() + stats_interval_s
        )

    @property
    def connections(self) -> dict[int, MessageConnection]:
        """Source id → live connection (the plane's binding table)."""
        return self.plane.connections

    def stop(self) -> None:
        """Ask the serve loop to flush and exit."""
        self.plane.stop()

    def set_filter(self, exs_id: int, spec: FilterSpec) -> bool:
        """Push a source-side filter spec to one EXS (False = deferred
        until the source's next Hello, never dropped)."""
        return self.plane.set_filter(exs_id, spec)

    #: Actuator hook (:class:`repro.monitor.engine.Actuator`): same path
    #: as user steering.
    push_filter = set_filter

    def attach_monitor(self, spec: MonitorSpec) -> MonitorEngine:
        """Attach a monitor engine evaluating *spec* over the delivered
        stream, actuating through this server's control channel."""
        return self.plane.attach_monitor(spec, self, self.consumers)

    def _registry(self) -> MetricsRegistry:
        """The metrics registry, wired on first use so any running server
        can be inspected without prior setup."""
        if self.metrics is None:
            self._enable_metrics(MetricsRegistry())
        return self.metrics

    def _maybe_stats(self) -> None:
        if self._next_stats is None or time.monotonic() < self._next_stats:
            return
        self._next_stats = time.monotonic() + self.stats_interval_s
        self.stats_sink(self._stats_table())


class IsmServer(_IsmFront):
    """Accept EXS connections and pump them into the manager."""

    def __init__(
        self,
        manager: InstrumentationManager,
        listener: MessageListener,
        sync_config: BriskSyncConfig | None = None,
        sync_period_s: float = 5.0,
        ack_batches: bool = True,
        idle_deadline_s: float | None = None,
        metrics: MetricsRegistry | None = None,
        stats_interval_s: float | None = None,
        stats_sink=None,
        durable_sink=None,
    ) -> None:
        super().__init__(
            listener, ack_batches, idle_deadline_s, stats_interval_s, stats_sink
        )
        self.manager = manager
        self.consumers = manager.consumers
        self.sync_config = sync_config
        self.sync_period_s = sync_period_s
        self.sync_master: BriskSyncMaster | None = None
        #: The bindings the sync master's slaves were built from.
        self._sync_members: dict[int, MessageConnection] = {}
        #: Node each connection's Hello advertised — handed to the decode
        #: stage so batch records come out pre-stamped with their node
        #: (the manager's stamping pass then finds nothing to rebuild).
        #: Multi-node relay connections reset the hint to 0.  Kept in
        #: the plane's per-connection slot, so it goes with the connection.
        self._conn_node: dict[MessageConnection, int] = self.plane.conn_data
        # First round runs as soon as a slave connects (warmup), then on
        # the configured period.
        self._next_sync = time.monotonic()
        #: Sync rounds completed across all master rebuilds.
        self.sync_rounds_completed = Counter("sync.rounds_completed")
        self._pump_hist = None
        #: Durable mode (PR 8): when set — a commit-log sink exposing
        #: ``sync(sources)`` and ``source_watermarks()``, in practice a
        #: :class:`~repro.core.consumers.LogConsumer` that is *also* one
        #: of the manager's consumers — acks are gated on the log instead
        #: of on admission: a batch is acked only after every one of its
        #: records has been released to the consumers AND the log has
        #: fsynced past them (``sync`` checkpoints the acked watermarks in
        #: the same breath).  A SIGKILL'd ISM then never loses an acked
        #: record: recovery truncates the log to the checkpoint and the
        #: EXS outboxes retransmit exactly the unacked tail.
        self.durable_sink = durable_sink
        self._ack_gate: AckGate | None = None
        #: Failed durable sync attempts (log unwritable → acks withheld).
        self.durable_sync_errors = Counter("ism.durable_sync_errors")
        if durable_sink is not None:
            resume = durable_sink.source_watermarks()
            self.manager.load_resume_state(resume)
            self._ack_gate = AckGate(resume)
        if metrics is not None or stats_interval_s is not None:
            self._enable_metrics(metrics or MetricsRegistry())

    # ------------------------------------------------------------------
    # self-observability
    # ------------------------------------------------------------------
    def _enable_metrics(self, registry: MetricsRegistry) -> None:
        self.metrics = registry
        registry.adopt_counter(self.sync_rounds_completed)
        registry.adopt_counter(self.durable_sync_errors)
        if self.manager.metrics is not registry:
            collect.wire_manager(registry, self.manager)
        self.plane.wire_metrics(registry)
        #: Pump cycle duration includes the (bounded) select wait, so it
        #: is a latency metric, not a busy-time metric — intrusion
        #: accounting uses the manager's per-stage timers instead.
        self._pump_hist = registry.histogram("ism.pump_cycle_us")

    def metrics_snapshot(self) -> MetricsSnapshot:
        """The ISM stats endpoint: a merged snapshot of everything the
        server can see — manager counters, sorter/CRE depth, consumer
        queues, wire traffic."""
        return self._registry().snapshot()

    def _stats_table(self) -> str:
        return (
            "-- brisk-ism stats " + "-" * 24 + "\n"
            + render_snapshot(self.metrics_snapshot())
        )

    # ------------------------------------------------------------------
    def dispatch(self, msg: protocol.Message, now: int | None = None) -> None:
        """Feed one decoded message into the manager (clock-sync replies
        are consumed inside probes and never reach here).

        *now* is the arrival timestamp; the pump loop reads the clock once
        per cycle and passes it through rather than per message.
        """
        if isinstance(msg, (protocol.TimeReply,)):
            return  # stale probe reply; drop
        if isinstance(msg, protocol.Heartbeat):
            return  # liveness only; activity was noted at the socket
        if isinstance(msg, protocol.Batch):
            if self._ack_gate is not None:
                # Durable mode: acks go through the gate, not the
                # admission watermark.  The duplicate check must read the
                # admission watermark *before* on_message advances it.
                admitted = self.manager.admitted_seq(msg.exs_id)
                duplicate = admitted is not None and msg.seq <= admitted
                self.manager.on_message(msg, now_micros() if now is None else now)
                if duplicate:
                    # Re-ack the current watermark so a resumed EXS
                    # retransmitting acked batches converges.
                    if self.plane.acks_enabled(msg.exs_id):
                        self._ack_gate.mark_dirty(msg.exs_id)
                else:
                    self._ack_gate.on_admitted(
                        msg.exs_id, msg.seq, len(msg.records)
                    )
                return
            self.manager.on_message(msg, now_micros() if now is None else now)
            # Stage the ack whether or not the batch was new: a retransmit
            # of an already-admitted batch still re-sends the (evidently
            # lost) ack that would release it from the EXS outbox.
            admitted = self.manager.admitted_seq(msg.exs_id)
            if admitted is not None:
                self.plane.queue_ack(msg.exs_id, admitted)
            return
        self.manager.on_message(msg, now_micros() if now is None else now)

    # ------------------------------------------------------------------
    def serve(
        self,
        duration_s: float | None = None,
        until_records: int | None = None,
        expected_connections: int | None = None,
    ) -> None:
        """Run the server loop.

        Stops on :meth:`stop`, after *duration_s*, after the manager has
        received *until_records* records, or — when *expected_connections*
        is given — once every expected connection has come and gone.
        """
        self.plane.arm(duration_s, until_records, expected_connections)
        while self.plane.next_cycle(self.manager.stats.records_received):
            pump_hist = self._pump_hist
            t0 = time.perf_counter_ns() if pump_hist is not None else 0
            self._pump_connections()
            self.manager.tick(now_micros())
            # Durable acks flush *after* tick: only records the tick
            # released can have reached (and been fsynced by) the log.
            self._flush_durable_acks()
            if pump_hist is not None:
                pump_hist.observe((time.perf_counter_ns() - t0) / 1_000.0)
            self._maybe_sync()
            self._maybe_stats()
        # Drain in-flight data, then flush the pipeline.
        self._pump_connections()
        self.plane.bye("ism shutdown")
        self.manager.flush(now_micros())
        if self._ack_gate is not None:
            # The flush released everything still sortable; gate the
            # final acks on one last sync so a phase boundary leaves
            # the log checkpoint aligned with what was acked.
            self._flush_durable_acks()
            try:
                self.durable_sink.sync()
            except OSError:
                self.durable_sync_errors += 1

    # ------------------------------------------------------------------
    def _pump_connections(self) -> None:
        """One pump cycle: drain the plane, decode and route each
        connection's payloads in arrival order, then send the acks."""
        now = None
        conn_node = self._conn_node
        for conn, payloads in self.plane.pump(self._pump_timeout()):
            if now is None:
                now = now_micros()  # once per cycle, after the select wait
            # Messages a blocking probe already decoded come first so the
            # per-connection order is preserved.
            msgs = conn.drain_inbox()
            if msgs:
                self.plane.touch(conn)
            bad = False
            if payloads:
                decoded, bad = self._decode_payloads(
                    payloads, conn_node.get(conn, 0)
                )
                msgs.extend(decoded)
            for msg in msgs:
                self._route(conn, msg, now)
            if bad:
                self.plane.drop(conn)
        # Admission acks, staged by dispatch().  Durable mode stages none
        # here: an admission-time ack would let the EXS drop records that
        # are not on disk yet, so those go through _flush_durable_acks
        # after the tick instead.
        if self._ack_gate is None:
            self.plane.flush_acks()

    def _pump_timeout(self) -> float:
        """How long the pump may sleep in select: to the one timer left in
        the release path — the oldest parked record's frame deadline (it
        waits on a silent source) — capped at the 5 ms housekeeping tick
        and floored at 1 ms, so a stream waiting out T record by record
        costs at most 1 000 wake-ups a second."""
        deadline = self.manager.next_deadline()
        if deadline is None:
            return 0.005
        return min(0.005, max(0.001, (deadline - now_micros()) / 1e6))

    def _flush_durable_acks(self) -> None:
        """Durable-mode ack path: advance the gate over fully-released
        batches, fsync + checkpoint the log, and only then put the acked
        watermarks on the wire.

        The order is the whole guarantee: by the time an EXS hears an
        ack, its records have left the sorter, reached the consumers
        (the log among them), and been fsynced past — so dropping them
        from the outbox can no longer lose them.  A failing sync keeps
        the gate dirty and withholds the acks; the EXS outboxes absorb
        the stall and the server keeps serving.
        """
        gate = self._ack_gate
        if gate is None:
            return
        gate.advance(
            self.manager.sorter.released_by_source, self.manager.cre.parked_now
        )
        if not gate.has_dirty:
            return
        try:
            self.durable_sink.sync(gate.acked_watermarks())
        except OSError:
            # Log unwritable: no acks.  The dirty set survives, so the
            # next cycle retries; meanwhile nothing is promised upstream.
            self.durable_sync_errors += 1
            return
        gate.commit()
        for exs_id in gate.take_dirty():
            seq = gate.committed(exs_id)
            if seq is not None:
                self.plane.queue_ack(exs_id, seq)
        self.plane.flush_acks()

    @staticmethod
    def _decode_payloads(
        payloads: list[bytes], node_id: int = 0
    ) -> tuple[list[protocol.Message], bool]:
        """Decode stage: payloads → messages, in order.

        Stops at the first malformed payload — everything decoded before
        it is still delivered, and the flag tells the route stage to drop
        the connection (the stream past a bad payload is untrustworthy).

        *node_id* is the connection's Hello-advertised node, pre-stamped
        onto decoded batch records (a stale hint is corrected by the
        manager's stamping pass).
        """
        msgs: list[protocol.Message] = []
        append = msgs.append
        try:
            for payload in payloads:
                append(protocol.decode_message(payload, node_id=node_id))
        except XdrDecodeError:
            return msgs, True
        return msgs, False

    def _route(
        self, conn: MessageConnection, msg: protocol.Message, now: int | None = None
    ) -> None:
        if isinstance(msg, protocol.Hello):
            self.manager.register_source(msg.exs_id, msg.node_id)
            # Resume handshake: tell the EXS where this manager's history
            # ends so it can drop acked outbox entries and retransmit the
            # rest.  Durable mode quotes the *committed* (synced-to-log)
            # watermark, not the admission watermark: admitted-but-
            # unsynced batches die with the process, so the EXS must
            # keep them.
            if self._ack_gate is not None:
                last = self._ack_gate.committed(msg.exs_id)
            else:
                last = self.manager.admitted_seq(msg.exs_id)
            if not self.plane.bind(conn, msg, -1 if last is None else last):
                return
            # The decode-time node hint only holds while every source on
            # the connection agrees on it; a relay fronting several nodes
            # clears it and the manager's stamping pass does the work.
            if len(self.plane.sources_on(conn)) == 1:
                self._conn_node[conn] = msg.node_id
            elif self._conn_node.get(conn) != msg.node_id:
                self._conn_node[conn] = 0
            return
        if isinstance(msg, protocol.Bye):
            # A clean goodbye retires the sources still bound to this
            # socket; a connection lost without one keeps its frontier.
            for exs_id in self.plane.sources_on(conn):
                if self.connections.get(exs_id) is conn:
                    self.manager.retire_source(exs_id)
            self.plane.drop(conn)
            return
        self.dispatch(msg, now)

    # -- Actuator protocol (repro.monitor.engine.Actuator) -------------
    def request_sync_round(self) -> None:
        """Actuator hook: schedule an extra clock-sync round."""
        master = self.sync_master
        if master is not None:
            master.request_extra_round()

    def emit_alert(self, record: EventRecord) -> None:
        """Actuator hook: inject an alert record into the delivery path."""
        self.manager.inject(record)

    # ------------------------------------------------------------------
    def _rebuild_sync_master(self) -> None:
        self._sync_members = dict(self.connections)
        if not self.connections:
            self.sync_master = None
            self.manager.sync_master = None
            return
        slaves = [
            TcpSyncSlave(self, conn, exs_id)
            for exs_id, conn in self.connections.items()
        ]
        self.sync_master = BriskSyncMaster(slaves, self.sync_config)
        self.manager.sync_master = self.sync_master

    def _maybe_sync(self) -> None:
        if self.sync_config is None:
            return
        if self._sync_members != self.connections:
            # A source bound, moved to a new socket, or went away since
            # the slaves were built.
            self._rebuild_sync_master()
        master = self.sync_master
        if master is None:
            return
        due = time.monotonic() >= self._next_sync
        extra = master.consume_extra_round_request()
        if not due and not extra:
            return
        self._next_sync = time.monotonic() + self.sync_period_s
        try:
            master.run_round()
            self.sync_rounds_completed += 1
        except (TimeoutError, ConnectionClosed, ConnectionResetError):
            pass  # a slave vanished mid-round; the next pump sweeps it


# ----------------------------------------------------------------------
# the sharded ISM: one ingest plane, N sort/deliver workers
# ----------------------------------------------------------------------

#: Peek offsets into an undecoded wire frame (big-endian XDR payload):
#: message type at byte 4, and — for Batch frames — exs_id at byte 12.
_PEEK_U32 = struct.Struct(">I")
_MSG_TYPE_OFFSET = 4
_BATCH_EXS_OFFSET = 12

#: Message-type ints pre-resolved for the frame-routing hot loop (an
#: ``IntEnum`` attribute chain costs two lookups per comparison).
_MT_BATCH = int(protocol.MsgType.BATCH)
_MT_HELLO = int(protocol.MsgType.HELLO)
_MT_BYE = int(protocol.MsgType.BYE)
_MT_HEARTBEAT = int(protocol.MsgType.HEARTBEAT)
_MT_TIME_REPLY = int(protocol.MsgType.TIME_REPLY)
_MT_COMPRESSED = int(protocol.MsgType.COMPRESSED)


class _ShardHandle:
    """Dispatcher-side state for one shard worker process."""

    __slots__ = (
        "index",
        "shared_in",
        "shared_out",
        "process",
        "pipe",
        "staged",
        "overflow",
        "received",
        "delivered",
        "received_base",
        "delivered_base",
        "watermark",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.shared_in = None
        self.shared_out = None
        self.process = None
        self.pipe = None
        #: Drained-but-uncommitted output-ring items, in ring order:
        #: ("d", records) for data chunks, ("a", exs_id, seq) for acks.
        self.staged: list[tuple] = []
        #: Frames routed here that the input ring had no room for.
        self.overflow: deque[bytes] = deque()
        #: Cumulative counters from the latest commit record, plus the
        #: totals carried over from dead incarnations of this shard.
        self.received = 0
        self.delivered = 0
        self.received_base = 0
        self.delivered_base = 0
        self.watermark = 0


class ShardedIsmServer(_IsmFront):
    """The sharded ISM: a thin ingest dispatcher over N shard workers.

    The dispatcher owns the listener and every EXS socket, but does *no*
    decode, sort, or causal work: each frame is routed — by the node id
    (``partition_by="node"``, the default) or the EXS id
    (``partition_by="exs"``) its connection's Hello advertised — onto the
    owning shard's shared-memory input ring still encoded.  Shard workers
    (:mod:`repro.runtime.shard`) decode, sort, match, and push released
    records back over per-shard output rings, and the dispatcher fans the
    (optionally k-way merged, see :class:`~repro.core.merge.OrderedMerger`)
    stream out to the consumers.

    Delivery guarantees are per-shard and crash-safe via the commit
    protocol: output-ring items are *staged* here and released downstream
    only when the shard's COMMIT record arrives; ack records are likewise
    applied (resume cache + wire ``Ack``) only at commit.  When a worker
    dies, the uncommitted tail is discarded, the shard's connections are
    closed (forcing EXS resume), and a replacement worker is spawned with
    the committed ack watermarks as its dedup state — so a SIGKILL'd shard
    costs retransmission, never loss or duplication.

    Clock sync is not yet supported in sharded mode — the single-process
    :class:`IsmServer` remains the tool for deployments that need it.
    """

    def __init__(
        self,
        consumers: list[Consumer],
        listener: MessageListener,
        *,
        shards: int = 2,
        partition_by: str = "node",
        ism_config: IsmConfig | None = None,
        ordered_merge: bool = True,
        ack_batches: bool = True,
        idle_deadline_s: float | None = None,
        metrics: MetricsRegistry | None = None,
        stats_interval_s: float | None = None,
        stats_sink=None,
        input_ring_bytes: int = 4 << 20,
        output_ring_bytes: int = 8 << 20,
        overflow_limit: int = 10_000,
        drain_limit: int = 2_048,
        shard_idle_timeout_s: float = 0.002,
        commit_interval_s: float = 0.05,
        mp_context=None,
        durable_sink=None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if partition_by not in ("node", "exs"):
            raise ValueError("partition_by must be 'node' or 'exs'")
        super().__init__(
            listener, ack_batches, idle_deadline_s, stats_interval_s, stats_sink
        )
        self.consumers = list(consumers)
        self.shards = shards
        self.partition_by = partition_by
        self.ism_config = ism_config if ism_config is not None else IsmConfig()
        self.input_ring_bytes = input_ring_bytes
        self.output_ring_bytes = output_ring_bytes
        self.overflow_limit = overflow_limit
        self.drain_limit = drain_limit
        self.shard_idle_timeout_s = shard_idle_timeout_s
        self.commit_interval_s = commit_interval_s
        self._ctx = mp_context if mp_context is not None else mp.get_context("spawn")
        self._merger: OrderedMerger | None = OrderedMerger() if ordered_merge else None
        self._handles: list[_ShardHandle] = [_ShardHandle(i) for i in range(shards)]
        self._workers_running = False
        self._stopping = False
        #: Cached shard route per connection — present only while every
        #: source on the connection maps to the same shard, so the hot
        #: routing loop can skip the per-frame exs-id peek.  Kept in the
        #: plane's per-connection slot, so it goes with the connection.
        self._conn_shard: dict[MessageConnection, int] = self.plane.conn_data
        self._exs_shard: dict[int, int] = {}
        #: Committed ack watermarks per EXS — the shard-respawn resume
        #: state, and what survives a serve()/serve() phase boundary.
        self._resume: dict[int, int] = {}
        #: Durable mode (PR 8): acks a shard released at COMMIT are
        #: *held* here as ``(commit watermark, exs_id, seq)`` until the
        #: ordered merge has emitted every record at or below that
        #: watermark AND the commit log has fsynced past them — only a
        #: sync composes the shard commit protocol with on-disk
        #: durability.  The sink is the same duck type as
        #: :class:`IsmServer`'s (``sync`` / ``source_watermarks``).
        self.durable_sink = durable_sink
        self._held_acks: list[tuple[int, int, int]] = []
        #: Watermarks actually synced to the log — what a HelloReply may
        #: quote in durable mode (the shard's committed watermark can run
        #: ahead of the disk).
        self._durable_watermarks: dict[int, int] = {}
        self.durable_sync_errors = Counter("dispatch.durable_sync_errors")
        if durable_sink is not None:
            recovered = durable_sink.source_watermarks()
            self._resume.update(recovered)
            self._durable_watermarks.update(recovered)
        #: Shard metrics frozen just before worker shutdown, so the
        #: post-run stats view still has a per-shard breakdown.
        self._final_shard_snaps: list[tuple[int, MetricsSnapshot]] | None = None
        # Counters (int-like; adopted by the registry when metrics are on).
        self.shard_restarts = Counter("dispatch.shard_restarts")
        self.discarded_records = Counter("dispatch.discarded_records")
        self.frames_forwarded = Counter("dispatch.frames_forwarded")
        self.commits_processed = Counter("dispatch.commits")
        self.acks_forwarded = Counter("dispatch.acks_forwarded")
        self.ack_frames_sent = Counter("dispatch.ack_frames_sent")
        self.unrouted_batches = Counter("dispatch.unrouted_batches")
        self.unsupported_frames = Counter("dispatch.unsupported_frames")
        self.consumer_errors = Counter("dispatch.consumer_errors")
        self.records_delivered = Counter("dispatch.records_delivered")
        if metrics is not None or stats_interval_s is not None:
            self._enable_metrics(metrics or MetricsRegistry())

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _enable_metrics(self, registry: MetricsRegistry) -> None:
        self.metrics = registry
        self.plane.wire_metrics(registry)
        registry.adopt_counter(self.shard_restarts)
        registry.adopt_counter(self.discarded_records)
        registry.adopt_counter(self.frames_forwarded)
        registry.adopt_counter(self.commits_processed)
        registry.adopt_counter(self.acks_forwarded)
        registry.adopt_counter(self.ack_frames_sent)
        registry.adopt_counter(self.unrouted_batches)
        registry.adopt_counter(self.unsupported_frames)
        registry.adopt_counter(self.consumer_errors)
        registry.adopt_counter(self.records_delivered)
        registry.adopt_counter(self.durable_sync_errors)
        registry.gauge_fn(
            "dispatch.held_acks", lambda: len(self._held_acks)
        )
        registry.gauge_fn(
            "dispatch.overflow_frames",
            lambda: sum(len(h.overflow) for h in self._handles),
        )
        registry.gauge_fn(
            "dispatch.staged_chunks",
            lambda: sum(len(h.staged) for h in self._handles),
        )
        if self._merger is not None:
            merger = self._merger
            registry.gauge_fn("merge.held", lambda: merger.held)
            registry.gauge_fn("merge.emitted", lambda: merger.stats.emitted)
            registry.gauge_fn(
                "merge.regressions", lambda: merger.stats.regressions
            )

    @property
    def records_received(self) -> int:
        """Records admitted fleet-wide, per the latest shard commits
        (dead incarnations' committed totals included)."""
        return sum(h.received_base + h.received for h in self._handles)

    def shard_snapshots(
        self, timeout_s: float = 2.0
    ) -> list[tuple[int, MetricsSnapshot]]:
        """Fetch one metrics snapshot per live shard over the control
        pipes (the stats RPC the brisk-stats shard view is built on).
        After shutdown, returns the final pre-stop snapshots instead."""
        if not self._workers_running and self._final_shard_snaps is not None:
            return list(self._final_shard_snaps)
        out: list[tuple[int, MetricsSnapshot]] = []
        for h in self._handles:
            proc, pipe = h.process, h.pipe
            if proc is None or pipe is None or not proc.is_alive():
                continue
            try:
                pipe.send(RPC_SNAPSHOT)
                ready, _, _ = select.select([pipe], [], [], timeout_s)
                if not ready:
                    continue
                obj = pipe.recv()
            except (OSError, EOFError, BrokenPipeError):
                continue
            if isinstance(obj, MetricsSnapshot):
                out.append((h.index, obj))
        return out

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Fleet-merged snapshot: dispatcher registry + every shard."""
        snap = self._registry().snapshot()
        for _, shard_snap in self.shard_snapshots():
            snap = snap.merge(shard_snap)
        return snap

    def stats_dump(self) -> dict:
        """JSON-able stats: dispatcher scalars plus per-shard scalars —
        what ``brisk-ism --stats-json`` writes and ``brisk-stats shards``
        renders."""
        return {
            "dispatcher": dict(self._registry().snapshot().scalars()),
            "shards": {
                str(idx): dict(snap.scalars())
                for idx, snap in self.shard_snapshots()
            },
        }

    def _stats_table(self) -> str:
        return (
            "-- brisk-ism (sharded) stats " + "-" * 14 + "\n"
            + render_shard_breakdown(
                self.shard_snapshots(), self._registry().snapshot()
            )
        )

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_shard(self, handle: _ShardHandle) -> None:
        idx = handle.index
        handle.shared_in = create_shared_ring(self.input_ring_bytes)
        handle.shared_out = create_shared_ring(self.output_ring_bytes)
        parent, child = self._ctx.Pipe(duplex=True)
        resume = {
            exs_id: seq
            for exs_id, seq in self._resume.items()
            if self._exs_shard.get(exs_id) == idx
        }
        config = ShardConfig(
            shard_id=idx,
            input_ring=handle.shared_in.name,
            output_ring=handle.shared_out.name,
            ism=self.ism_config,
            resume_state=resume,
            idle_timeout_s=self.shard_idle_timeout_s,
            commit_interval_s=self.commit_interval_s,
        )
        handle.process = self._ctx.Process(
            target=shard_worker_main, args=(config, child), daemon=True
        )
        handle.process.start()
        child.close()
        handle.pipe = parent
        handle.received = 0
        handle.delivered = 0
        handle.staged.clear()
        if self._merger is not None:
            self._merger.reopen_shard(idx)

    def _ensure_workers(self) -> None:
        if self._workers_running:
            return
        self._final_shard_snaps = None
        for handle in self._handles:
            self._spawn_shard(handle)
        self._workers_running = True

    def start_workers(self) -> None:
        """Spawn the shard workers ahead of :meth:`serve` (idempotent).

        Useful when serve-loop latency matters from the first frame —
        benchmarks, and deployments that want the ~1 s/worker spawn cost
        paid before the listener is announced."""
        self._ensure_workers()

    def _teardown_shard(self, handle: _ShardHandle, join_timeout_s: float) -> None:
        if handle.pipe is not None:
            try:
                handle.pipe.close()
            except OSError:
                pass
            handle.pipe = None
        if handle.process is not None:
            handle.process.join(timeout=join_timeout_s)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            handle.process = None
        for shared in (handle.shared_in, handle.shared_out):
            if shared is not None:
                try:
                    shared.close()
                except (OSError, BufferError):
                    pass
        handle.shared_in = None
        handle.shared_out = None

    def _salvage(self, handle: _ShardHandle) -> None:
        """Apply what a dead or stopped worker left in its output ring up
        to the last commit; count and discard the uncommitted tail."""
        try:
            if handle.shared_out is not None:
                self._ingest_items(
                    handle, handle.shared_out.ring.drain_bytes()
                )
        except (OSError, ValueError):
            pass
        self.discarded_records += sum(
            len(item[1]) for item in handle.staged if item[0] == "d"
        )
        handle.staged.clear()

    def _check_shards(self) -> None:
        """Detect dead workers; salvage their committed prefix, drop
        their connections (forcing EXS resume), and respawn."""
        if not self._workers_running or self._stopping:
            return
        for handle in self._handles:
            proc = handle.process
            if proc is None or proc.is_alive():
                continue
            self.shard_restarts += 1
            idx = handle.index
            # Salvage: everything up to the last commit in the old output
            # ring is fully acked state and must be delivered; the
            # uncommitted tail is discarded — its EXSs were never acked
            # for it and will retransmit to the replacement worker.
            self._salvage(handle)
            # Frames stranded in the dead worker's input ring (and any
            # overflow queued behind them) are gone with the segment; the
            # forced reconnect below replays them from the EXS outbox.
            handle.overflow.clear()
            if self._merger is not None:
                self._merger.close_shard(idx)
            handle.received_base += handle.received
            handle.delivered_base += handle.delivered
            # Any connection with at least one source on the dead shard
            # is dropped whole (a multiplexed relay re-Hellos every
            # source on reconnect and retransmits from its outbox).
            for exs_id, shard in self._exs_shard.items():
                conn = self.connections.get(exs_id)
                if shard == idx and conn is not None:
                    self.plane.drop(conn)
            self._teardown_shard(handle, join_timeout_s=1.0)
            self._spawn_shard(handle)

    def _shutdown_workers(self, flush_timeout_s: float = 15.0) -> None:
        """Graceful worker stop: drain overflow in, commits out, merge."""
        if not self._workers_running:
            return
        self._stopping = True
        deadline = time.monotonic() + flush_timeout_s
        while (
            any(h.overflow for h in self._handles)
            and time.monotonic() < deadline
        ):
            self._flush_overflow()
            self._drain_shards()
            # brisk-lint: disable=BRK601 (shutdown drain: 1ms tick, deadline-bounded)
            time.sleep(0.001)
        # Freeze per-shard metrics while the workers still answer RPCs
        # (the post-run stats_dump/brisk-stats view reads this cache).
        self._final_shard_snaps = self.shard_snapshots(timeout_s=1.0)
        for handle in self._handles:
            if handle.pipe is not None:
                try:
                    handle.pipe.send(RPC_STOP)
                except (OSError, BrokenPipeError):
                    pass
        while time.monotonic() < deadline:
            self._drain_shards()
            if all(
                h.process is None or not h.process.is_alive()
                for h in self._handles
            ):
                break
            # brisk-lint: disable=BRK601 (worker-exit poll: 1ms tick, same shutdown deadline)
            time.sleep(0.001)
        # Workers have exited (or timed out): collect the shutdown
        # commits still in the rings, then tear everything down.
        for handle in self._handles:
            self._salvage(handle)
            self._teardown_shard(handle, join_timeout_s=2.0)
        if self.durable_sink is None:
            self._flush_cycle_acks()
            if self._merger is not None:
                self._deliver(self._merger.flush())
        else:
            # Durable order: final merge flush delivers everything still
            # held, then _release_durable_acks syncs the ack watermarks
            # and stages only the acks that sync covered — so they can go
            # on the wire before the trailing full-state sync, whose
            # failure must not gate (or be followed by) any ack release.
            if self._merger is not None:
                self._deliver(self._merger.flush())
            self._release_durable_acks(force=True)
            self._flush_cycle_acks()
            try:
                self.durable_sink.sync()
            except OSError:
                self.durable_sync_errors += 1
        self._workers_running = False
        self._stopping = False

    # ------------------------------------------------------------------
    # serve loop
    # ------------------------------------------------------------------
    def serve(
        self,
        duration_s: float | None = None,
        until_records: int | None = None,
        expected_connections: int | None = None,
    ) -> None:
        """Run the dispatcher loop (same stop conditions as
        :meth:`IsmServer.serve`).

        Each call spawns the shard workers and winds them down before
        returning: worker shutdown flushes every parked record through
        the commit protocol, so a phase boundary (duration/record bound)
        loses nothing and a later ``serve`` resumes from the committed
        ack watermarks.
        """
        self.plane.arm(duration_s, until_records, expected_connections)
        self._ensure_workers()
        while self.plane.next_cycle(self.records_received):
            self._pump_sockets()
            self._flush_overflow()
            self._drain_shards()
            self._check_shards()
            self._maybe_stats()
        self._pump_sockets()
        self.plane.bye("ism shutdown")
        self._shutdown_workers()

    def close(self) -> None:
        """Tear down workers and rings without flushing (idempotent)."""
        self._stopping = True
        for handle in self._handles:
            self._teardown_shard(handle, join_timeout_s=0.5)
        self._workers_running = False
        self._stopping = False

    # ------------------------------------------------------------------
    # ingest plane: sockets → input rings
    # ------------------------------------------------------------------
    def _pump_sockets(self) -> None:
        """One ingest cycle: drain the plane, route each frame.

        Read-backpressure: connections whose shard's overflow queue is
        past the bound are left out of the ``select`` set (and exempt
        from the idle sweep — their silence is the dispatcher's doing),
        so the kernel socket buffer (and ultimately the EXS outbox)
        absorbs the burst instead of dispatcher memory.
        """
        blocked = {
            h.index
            for h in self._handles
            if len(h.overflow) > self.overflow_limit
        }
        exclude = () if not blocked else {
            conn for conn, idx in self._conn_shard.items() if idx in blocked
        }
        for conn, payloads in self.plane.pump(0.005, exclude):
            self._route_frames(conn, payloads)

    def _route_frames(
        self, conn: MessageConnection, payloads: list[bytes]
    ) -> None:
        # The dispatcher's hottest loop: every inbound frame passes
        # through here.  Attribute and dict lookups are hoisted out of
        # the per-frame body, and batch frames ride the connection's
        # cached shard route when one is pinned — re-peeking the exs id
        # only for multiplexed connections whose sources span shards.
        unpack_from = _PEEK_U32.unpack_from
        exs_shard = self._exs_shard
        forward = self._forward
        conn_idx = self._conn_shard.get(conn)
        for payload in payloads:
            if len(payload) < 8:
                self.plane.drop(conn)
                return
            mtype = unpack_from(payload, _MSG_TYPE_OFFSET)[0]
            if mtype == _MT_BATCH:
                idx = conn_idx
                if idx is None:
                    if len(payload) < _BATCH_EXS_OFFSET + 4:
                        self.plane.drop(conn)
                        return
                    exs_id = unpack_from(payload, _BATCH_EXS_OFFSET)[0]
                    idx = exs_shard.get(exs_id)
                    if idx is None:
                        # Batch before Hello: route provisionally by the
                        # peeked exs id so nothing is dropped; the
                        # eventual Hello pins the assignment (same modulo
                        # for partition_by="exs"; for "node" a later
                        # Hello could disagree, so it is counted as a
                        # routing smell).
                        idx = exs_id % self.shards
                        self.unrouted_batches += 1
                forward(idx, payload)
            elif mtype == _MT_COMPRESSED:
                # Peek through the envelope without inflating the whole
                # payload; the owning shard decompresses at decode time.
                try:
                    inner, exs_id = protocol.peek_compressed(payload)
                except protocol.ProtocolError:
                    self.plane.drop(conn)
                    return
                if inner != _MT_BATCH:
                    self.unsupported_frames += 1
                    continue
                idx = conn_idx
                if idx is None:
                    idx = exs_shard.get(exs_id)
                    if idx is None:
                        idx = exs_id % self.shards
                        self.unrouted_batches += 1
                forward(idx, payload)
            elif mtype == _MT_HELLO:
                try:
                    msg = protocol.decode_message(payload)
                except (XdrDecodeError, ValueError):
                    self.plane.drop(conn)
                    return
                if isinstance(msg, protocol.Hello):
                    self._bind_hello(conn, msg, payload)
                    # The Hello may have pinned or unpinned the cached
                    # route for frames later in this same list.
                    conn_idx = self._conn_shard.get(conn)
            elif mtype == _MT_BYE:
                # A clean goodbye retires the sources still bound to this
                # socket from their shard's frontier (as IsmServer does).
                for exs_id in self.plane.sources_on(conn):
                    if self.connections.get(exs_id) is conn:
                        forward(exs_shard[exs_id], retire_frame(exs_id))
                self.plane.drop(conn)
                return
            elif mtype == _MT_HEARTBEAT:
                pass  # liveness only; activity was noted at the socket
            elif mtype == _MT_TIME_REPLY:
                pass  # stale probe reply; sharded mode runs no sync
            else:
                self.unsupported_frames += 1

    def _bind_hello(
        self, conn: MessageConnection, msg: protocol.Hello, payload: bytes
    ) -> None:
        key = msg.node_id if self.partition_by == "node" else msg.exs_id
        idx = key % self.shards
        self._exs_shard[msg.exs_id] = idx
        if not self.plane.bind(conn, msg):
            return
        sources = self.plane.sources_on(conn)
        # Pin the fast routing cache only while every source on this
        # connection lands on the same shard; a relay whose downstream
        # nodes span shards falls back to per-frame exs-id peeks.
        if all(self._exs_shard[e] == idx for e in sources):
            self._conn_shard[conn] = idx
        else:
            self._conn_shard.pop(conn, None)
        # The shard answers the resume handshake (HELLO_REPLY control
        # record) — it owns the watermark state, not the dispatcher.
        self._forward(idx, payload)

    def _forward(self, idx: int, payload: bytes) -> None:
        handle = self._handles[idx]
        if handle.overflow or not handle.shared_in.ring.push_bytes(payload):
            handle.overflow.append(payload)
        else:
            self.frames_forwarded += 1

    def _flush_overflow(self) -> None:
        for handle in self._handles:
            overflow = handle.overflow
            if not overflow:
                continue
            ring = handle.shared_in.ring
            while overflow and ring.push_bytes(overflow[0]):
                overflow.popleft()
                self.frames_forwarded += 1

    # -- Actuator protocol (repro.monitor.engine.Actuator) -------------
    def request_sync_round(self) -> None:
        """Actuator hook: no-op — sharded mode runs no clock sync."""

    def emit_alert(self, record: EventRecord) -> None:
        """Actuator hook: fan an alert record out to the consumers."""
        self._deliver([record])

    # ------------------------------------------------------------------
    # egress plane: output rings → commit → merge → consumers
    # ------------------------------------------------------------------
    def _drain_shards(self) -> None:
        for handle in self._handles:
            if handle.shared_out is None:
                continue
            try:
                items = handle.shared_out.ring.drain_bytes(self.drain_limit)
            except (OSError, ValueError):
                continue
            if items:
                self._ingest_items(handle, items)
        if self.durable_sink is None:
            self._flush_cycle_acks()
            if self._merger is not None:
                self._deliver(self._merger.emit())
            return
        # Durable mode inverts the order: records must reach the
        # consumers (the log among them) and be fsynced past *before*
        # the acks covering them go on the wire.
        if self._merger is not None:
            self._deliver(self._merger.emit())
        self._release_durable_acks()
        self._flush_cycle_acks()

    def _ingest_items(self, handle: _ShardHandle, items: list[bytes]) -> None:
        for item in items:
            if not item:
                continue
            view = memoryview(item)[1:]
            if item[0] == 0:  # TAG_DATA
                handle.staged.append(("d", native.unpack_all(view)))
            else:  # TAG_CONTROL
                record, _ = native.unpack_record(view)
                self._apply_control(handle, record)

    def _apply_control(self, handle: _ShardHandle, record: EventRecord) -> None:
        if record.event_id == CTRL_COMMIT:
            self._commit(handle, record)
        elif record.event_id == CTRL_ACK:
            exs_id, seq = record.values
            handle.staged.append(("a", int(exs_id), int(seq)))
        elif record.event_id == CTRL_HELLO_REPLY:
            # Safe to forward before its commit: the reply carries only
            # the *committed* ack watermark by construction.  In durable
            # mode even that is too optimistic — the shard's committed
            # watermark can run ahead of the fsynced log — so the reply
            # is clamped to the synced watermark (retransmits of the gap
            # dedup cleanly at the shard).
            exs_id, last_seq = record.values
            if self.durable_sink is not None:
                last_seq = self._durable_watermarks.get(int(exs_id), -1)
            self.plane.hello_reply(int(exs_id), int(last_seq))

    def _commit(self, handle: _ShardHandle, record: EventRecord) -> None:
        """A shard committed: release its staged prefix downstream.

        Ring pushes are atomic and FIFO, so everything staged from this
        shard precedes the commit record and is covered by it.
        """
        merger = self._merger
        commit_wm = max(handle.watermark, record.timestamp)
        for item in handle.staged:
            if item[0] == "d":
                records = item[1]
                if merger is not None:
                    merger.push(handle.index, records)
                else:
                    self._deliver(records)
            else:
                _, exs_id, seq = item
                prev = self._resume.get(exs_id)
                if prev is None or seq > prev:
                    self._resume[exs_id] = seq
                if self.durable_sink is not None:
                    # Hold until the merge has emitted everything at or
                    # below this commit's watermark (every record the ack
                    # covers is ≤ it) and the log has synced past them.
                    self._held_acks.append((commit_wm, exs_id, seq))
                else:
                    self.plane.queue_ack(exs_id, seq)
        handle.staged.clear()
        handle.watermark = commit_wm
        received, delivered = record.values
        handle.received = int(received)
        handle.delivered = int(delivered)
        if merger is not None:
            merger.advance(handle.index, handle.watermark)
        self.commits_processed += 1

    def _release_durable_acks(self, force: bool = False) -> None:
        """Release held acks whose records are provably on disk.

        An ack held at ``(wm, exs, seq)`` is releasable once the ordered
        merge has emitted every record with timestamp ≤ *wm* (merger
        drained, or its low watermark passed *wm*; *force* asserts this
        externally — the shutdown path calls it after the final merge
        flush).  Releasable acks are put on the wire only after one
        ``sync`` covers them; a failed sync re-holds them all.
        """
        if not self._held_acks:
            return
        merger = self._merger
        if force or merger is None or merger.held == 0:
            ready, self._held_acks = self._held_acks, []
        else:
            low = merger.low_watermark()
            if low is None:
                return  # a respawned shard has not declared yet
            ready = [item for item in self._held_acks if item[0] <= low]
            if not ready:
                return
            self._held_acks = [
                item for item in self._held_acks if item[0] > low
            ]
        marks: dict[int, int] = {}
        for _, exs_id, seq in ready:
            prev = marks.get(exs_id)
            if prev is None or seq > prev:
                marks[exs_id] = seq
        try:
            self.durable_sink.sync(marks)
        except OSError:
            # Log unwritable: withhold the acks (EXS outboxes hold the
            # stream) and keep serving; retried next cycle.
            self.durable_sync_errors += 1
            self._held_acks = ready + self._held_acks
            return
        for exs_id, seq in marks.items():
            prev = self._durable_watermarks.get(exs_id)
            if prev is None or seq > prev:
                self._durable_watermarks[exs_id] = seq
            self.plane.queue_ack(exs_id, seq)

    def _flush_cycle_acks(self) -> None:
        """Send the cycle's commit-released acks (staged on the plane by
        :meth:`_commit` / :meth:`_release_durable_acks`), one control
        frame per connection."""
        frames, pairs = self.plane.flush_acks()
        self.ack_frames_sent += frames
        self.acks_forwarded += len(pairs)

    def _deliver(self, records: list[EventRecord]) -> None:
        if not records:
            return
        self.records_delivered += len(records)
        for consumer in self.consumers:
            deliver_many = getattr(consumer, "deliver_many", None)
            try:
                if deliver_many is not None:
                    deliver_many(records)
                else:
                    deliver = consumer.deliver
                    for record in records:
                        deliver(record)
            except Exception:
                self.consumer_errors += 1
