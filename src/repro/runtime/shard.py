"""One ISM shard: a worker process running its own sort/match/deliver chain.

The sharded ISM splits the single-process manager into a thin **dispatcher**
(:class:`repro.runtime.ism_proc.ShardedIsmServer`) that owns the sockets and
N **shard workers** (this module) that own the CPU-heavy stages.  Per shard:

* an *input ring* (:mod:`repro.runtime.shm`) carries raw, undecoded wire
  frames from the dispatcher — decode happens here, in parallel across
  shards, not on the ingest plane;
* a full :class:`~repro.core.ism.InstrumentationManager` (sorter + causal
  matcher + delivery) processes the shard's sources exactly as the
  single-process ISM would;
* an *output ring* carries released records back, interleaved with
  **control records** (acks, hello-replies, commits) that let the
  dispatcher keep PR 3's end-to-end delivery guarantees per shard.

Exactly-once across a shard crash hinges on the **commit protocol**: the
dispatcher *stages* everything it drains from the output ring and releases
a staged prefix downstream only when a COMMIT control record arrives (ring
pushes are atomic and FIFO, so a commit covers every item before it).  A
shard killed between pushing data and pushing its commit therefore leaves
only an *uncommitted tail* that the dispatcher discards — and because the
shard advances its ack watermark under the same commit, the EXS was never
acked for that tail and retransmits it to the replacement worker.

Ack watermarks are deliberately lazier than admission watermarks: a batch
is acked only once every one of its records has *left* the sorter and the
causal matcher (nothing parked), i.e. once the records are physically on
the output ring.  Acking at admission would let the EXS drop its outbox
copy of records still parked in a shard that might die.
"""

from __future__ import annotations

import select
import struct
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Sequence

from repro.core import native
from repro.core.ackgate import AckGate
from repro.core.ism import InstrumentationManager, IsmConfig
from repro.core.records import EventRecord, FieldType
from repro.core.ringbuffer import RingBuffer
from repro.obs.metrics import MetricsRegistry
from repro.runtime.shm import attach_shared_ring
from repro.util.timebase import now_micros
from repro.wire import protocol

# ----------------------------------------------------------------------
# output-ring framing
# ----------------------------------------------------------------------
# Every item the shard pushes onto its output ring starts with a one-byte
# tag so the dispatcher never has to guess whether bytes are payload or
# protocol (an application is free to use any event id, including ours).
TAG_DATA = b"\x00"     #: native-packed records, back to back
TAG_CONTROL = b"\x01"  #: exactly one native-packed control record

# Control records are ordinary EventRecords (native layout) with reserved
# event ids; ``node_id`` carries the shard id.
CTRL_COMMIT = 0xB0C0       #: ts = watermark; values = (received, delivered)
CTRL_ACK = 0xB0C1          #: values = (exs_id, acked seq)
CTRL_HELLO_REPLY = 0xB0C2  #: values = (exs_id, last acked seq or -1)

_COMMIT_FIELDS = (FieldType.X_UHYPER, FieldType.X_UHYPER)
_ACK_FIELDS = (FieldType.X_UINT, FieldType.X_UINT)
_HELLO_REPLY_FIELDS = (FieldType.X_UINT, FieldType.X_INT)

# The input ring carries raw wire frames plus one frame the dispatcher
# makes itself and no socket ever sees: "this source said Bye" (the wire
# Bye names no source).  It rides the ring, not the pipe, so it stays
# behind the batches the source sent before leaving.
_RETIRE = struct.Struct(">4sI")
_RETIRE_TAG = b"RTIR"


def retire_frame(exs_id: int) -> bytes:
    """Pack the input-ring frame that retires *exs_id* from its shard's
    sorter frontier."""
    return _RETIRE.pack(_RETIRE_TAG, exs_id)


#: Control-RPC verbs on the dispatcher↔shard pipe.
RPC_SNAPSHOT = "snapshot"
RPC_STOP = "stop"


def commit_record(
    shard_id: int, watermark_ts: int, received: int, delivered: int
) -> bytes:
    """Pack a COMMIT control record (tagged, ready to push)."""
    rec = EventRecord.from_wire(
        CTRL_COMMIT, watermark_ts, _COMMIT_FIELDS, (received, delivered), shard_id
    )
    return TAG_CONTROL + native.pack_record(rec)


def ack_record(shard_id: int, exs_id: int, seq: int) -> bytes:
    """Pack an ACK control record (tagged, ready to push)."""
    rec = EventRecord.from_wire(
        CTRL_ACK, 0, _ACK_FIELDS, (exs_id, seq), shard_id
    )
    return TAG_CONTROL + native.pack_record(rec)


def hello_reply_record(shard_id: int, exs_id: int, last_seq: int) -> bytes:
    """Pack a HELLO_REPLY control record (tagged, ready to push)."""
    rec = EventRecord.from_wire(
        CTRL_HELLO_REPLY, 0, _HELLO_REPLY_FIELDS, (exs_id, last_seq), shard_id
    )
    return TAG_CONTROL + native.pack_record(rec)


@dataclass(frozen=True)
class ShardConfig:
    """Everything one worker needs, picklable for the spawn context.

    ``resume_state`` seeds both the admission watermarks (dedup) and the
    ack watermarks — on a respawn the dispatcher passes the committed ack
    state of the dead incarnation, so retransmits of acked batches are
    dropped while retransmits of unacked (possibly lost) ones re-admit.
    """

    shard_id: int
    input_ring: str
    output_ring: str
    ism: IsmConfig = IsmConfig()
    resume_state: dict[int, int] = field(default_factory=dict)
    #: Frames drained from the input ring per loop iteration.
    drain_limit: int = 512
    #: Select timeout while idle (seconds) — the loop's only sleep.
    idle_timeout_s: float = 0.002
    #: Idle-commit cadence (seconds): how often an idle shard refreshes
    #: its merge watermark so silent shards never stall the ordered merge.
    commit_interval_s: float = 0.05
    #: Records packed per output-ring item on the data path.
    push_chunk_records: int = 256
    #: How long a full output ring may stall a push before the worker
    #: gives up (the dispatcher is gone or wedged).
    push_deadline_s: float = 10.0


class _RingDelivery:
    """The shard-local consumer: packs released records onto the output ring.

    Unlike :class:`~repro.runtime.shm_consumer.SharedMemoryConsumer` this
    must never drop — a dropped record would break exactly-once — so a full
    ring blocks the worker (bounded; see ``push_deadline_s``) instead.
    """

    def __init__(self, worker: "ShardWorker", chunk: int) -> None:
        self._worker = worker
        self._chunk = chunk
        self.delivered = 0

    def deliver(self, record: EventRecord) -> None:
        self.deliver_many([record])

    def deliver_many(self, records: Sequence[EventRecord]) -> None:
        chunk = self._chunk
        worker = self._worker
        for start in range(0, len(records), chunk):
            piece = records[start : start + chunk]
            worker._push_with_retry(
                TAG_DATA + b"".join(map(native.pack_record, piece))
            )
            last_key = piece[-1].sort_key()
            if worker._high_water is None or last_key > worker._high_water:
                worker._high_water = last_key
        self.delivered += len(records)

    def close(self) -> None:
        """Nothing to release; the worker owns the ring."""


class ShardWorker:
    """The worker loop object (separable from the process for tests)."""

    def __init__(
        self,
        config: ShardConfig,
        input_ring: RingBuffer,
        output_ring: RingBuffer,
        control: Connection,
    ) -> None:
        self.config = config
        self.input_ring = input_ring
        self.output_ring = output_ring
        self.control = control
        self.metrics = MetricsRegistry()
        self._delivery = _RingDelivery(self, config.push_chunk_records)
        self.manager = InstrumentationManager(
            config.ism, [self._delivery], metrics=self.metrics
        )
        self.manager.load_resume_state(config.resume_state)
        # exs_id → node_id for decode-time stamping: the manager's live
        # Hello registry, so each record is built once.
        self._nodes = self.manager.source_nodes
        # Ack bookkeeping lives in the shared AckGate: acked watermarks
        # advance only once every record of a batch has left the pipeline,
        # and HelloReplies quote the *committed* watermark (an ack staged
        # at the dispatcher but not yet covered by a commit is discarded
        # if this worker dies, so telling the EXS about it would let the
        # outbox drop batches that could still need retransmission).
        self._ack_gate = AckGate(config.resume_state)
        self._wants_ack: set[int] = set()
        # Merge-watermark high water: the max sort key pushed downstream.
        self._high_water: tuple[int, int, int] | None = None
        self._pushed_since_commit = False
        self._last_commit_mono = time.monotonic()
        self._stop = False
        # Shard-local counters (merged into the fleet view by the
        # dispatcher; names are shard-relative, not prefixed).
        self.frames_in = self.metrics.counter("shard.frames_in")
        self.bad_frames = self.metrics.counter("shard.bad_frames")
        self.unsupported_msgs = self.metrics.counter("shard.unsupported_msgs")
        self.commits = self.metrics.counter("shard.commits")
        self.push_stalls = self.metrics.counter("shard.push_stalls")
        self.metrics.gauge_fn("shard.sorter_held", lambda: self.manager.sorter.held)
        self.metrics.gauge_fn("shard.cre_parked", lambda: self.manager.cre.parked_now)

    # ------------------------------------------------------------------
    # output-ring push (never drops; bounded stall)
    # ------------------------------------------------------------------
    def _push_with_retry(self, payload: bytes) -> None:
        ring = self.output_ring
        if ring.push_bytes(payload):
            return
        self.push_stalls += 1
        deadline = time.monotonic() + self.config.push_deadline_s
        while not ring.push_bytes(payload):
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"shard {self.config.shard_id}: output ring full for "
                    f"{self.config.push_deadline_s}s; dispatcher gone?"
                )
            time.sleep(0.0005)

    # ------------------------------------------------------------------
    # control pipe
    # ------------------------------------------------------------------
    def _poll_control(self, timeout: float) -> None:
        """Wait on the dispatcher pipe (this select is also the idle
        sleep) and service any RPCs that arrived."""
        pipe = self.control
        while True:
            ready, _, _ = select.select([pipe], [], [], timeout)
            if not ready:
                return
            timeout = 0.0
            try:
                verb = pipe.recv()
            except (EOFError, OSError):
                # Dispatcher died; there is nobody left to commit to.
                self._stop = True
                return
            if verb == RPC_SNAPSHOT:
                pipe.send(self.metrics.snapshot())
            elif verb == RPC_STOP:
                self._stop = True
                return

    # ------------------------------------------------------------------
    # frame handling
    # ------------------------------------------------------------------
    def _handle_frame(self, payload: bytes, now: int) -> None:
        if len(payload) == _RETIRE.size and payload[:4] == _RETIRE_TAG:
            self.manager.retire_source(_RETIRE.unpack(payload)[1])
            return
        try:
            msg = protocol.decode_message(payload, node_id=self._nodes)
        except Exception:
            self.bad_frames += 1
            return
        self.frames_in += 1
        if isinstance(msg, protocol.Batch):
            self._on_batch(msg, now)
        elif isinstance(msg, protocol.Hello):
            self._on_hello(msg)
        elif isinstance(msg, (protocol.Heartbeat, protocol.Bye)):
            pass  # liveness/teardown are dispatcher concerns
        else:
            # Clock-sync traffic never reaches a shard (the dispatcher
            # owns the sockets); anything else is a routing bug upstream.
            self.unsupported_msgs += 1

    def _on_hello(self, msg: protocol.Hello) -> None:
        self.manager.register_source(msg.exs_id, msg.node_id)
        if msg.wants_ack:
            self._wants_ack.add(msg.exs_id)
            last = self._ack_gate.committed(msg.exs_id)
            # The reply carries the *committed* ack watermark, not the
            # admission watermark: batches admitted but still parked in
            # this shard (or acked but uncommitted) must stay in the EXS
            # outbox, because a crash right now would lose them.  Their
            # retransmits dedup cleanly.
            self._push_with_retry(
                hello_reply_record(
                    self.config.shard_id,
                    msg.exs_id,
                    last if last is not None else -1,
                )
            )
            self._pushed_since_commit = True

    def _on_batch(self, msg: protocol.Batch, now: int) -> None:
        exs_id = msg.exs_id
        admitted = self.manager.admitted_seq(exs_id)
        duplicate = admitted is not None and msg.seq <= admitted
        self.manager.on_batch(msg, now)
        if duplicate:
            # Re-ack the current watermark so a resumed EXS retransmitting
            # acked batches converges instead of waiting for new data.
            if exs_id in self._wants_ack:
                self._ack_gate.mark_dirty(exs_id)
            return
        self._ack_gate.on_admitted(exs_id, msg.seq, len(msg.records))

    # ------------------------------------------------------------------
    # ack watermark advance
    # ------------------------------------------------------------------
    def _advance_acks(self) -> None:
        """Move ack watermarks over batches whose records all left the
        shard (the AckGate requires the causal matcher to be empty: a
        record parked in the CRE has left the sorter without reaching
        the output ring)."""
        self._ack_gate.advance(
            self.manager.sorter.released_by_source, self.manager.cre.parked_now
        )

    def _flush_acks(self) -> None:
        for exs_id in self._ack_gate.take_dirty():
            if exs_id not in self._wants_ack:
                continue
            seq = self._ack_gate.acked(exs_id)
            if seq is not None:
                self._push_with_retry(
                    ack_record(self.config.shard_id, exs_id, seq)
                )
                self._pushed_since_commit = True

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------
    def _watermark(self) -> int:
        high = self._high_water[0] if self._high_water is not None else 0
        if self.manager.sorter.held == 0 and self.manager.cre.parked_now == 0:
            # Idle pipeline: promise (best-effort, like the sorter's own
            # time frame) that nothing older than now − T will ever be
            # released, so a silent shard cannot stall the ordered merge.
            idle_mark = now_micros() - int(self.manager.sorter.frame_us)
            return max(high, idle_mark)
        return high

    def _maybe_commit(self, force: bool = False) -> None:
        mono = time.monotonic()
        due = mono - self._last_commit_mono >= self.config.commit_interval_s
        if not (self._pushed_since_commit or force or due):
            return
        stats = self.manager.stats
        self._push_with_retry(
            commit_record(
                self.config.shard_id,
                self._watermark(),
                stats.records_received,
                stats.records_delivered,
            )
        )
        self.commits += 1
        self._ack_gate.commit()
        self._pushed_since_commit = False
        self._last_commit_mono = mono

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Drain → decode → sort/match/deliver → ack → commit, forever."""
        drain_limit = self.config.drain_limit
        while not self._stop:
            frames = self.input_ring.drain_bytes(drain_limit)
            now = now_micros()
            for payload in frames:
                self._handle_frame(payload, now)
            self.manager.tick(now)
            self._advance_acks()
            # brisk-lint: disable=BRK601 (_push_with_retry: bounded 0.5ms x3 backpressure wait)
            self._flush_acks()
            self._maybe_commit()
            busy = len(frames) >= drain_limit
            self._poll_control(0.0 if busy else self.config.idle_timeout_s)
        self._shutdown()

    def _shutdown(self) -> None:
        """Flush everything, ack the tail, and commit one last time."""
        final = now_micros()
        # One last input drain: frames the dispatcher forwarded before
        # sending the stop RPC must not be stranded in shared memory.
        for payload in self.input_ring.drain_bytes():
            self._handle_frame(payload, final)
        self.manager.flush(final)
        self._advance_acks()
        self._flush_acks()
        self._maybe_commit(force=True)


def shard_worker_main(config: ShardConfig, control: Connection) -> None:
    """``multiprocessing.Process`` target: attach the rings and run."""
    shared_in = attach_shared_ring(config.input_ring)
    shared_out = attach_shared_ring(config.output_ring)
    try:
        worker = ShardWorker(config, shared_in.ring, shared_out.ring, control)
        worker.run()
    finally:
        shared_in.close()
        shared_out.close()
