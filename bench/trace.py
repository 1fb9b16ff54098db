"""Traced run: a single-process lock-step replay with spans at every layer.

The untraced run measures what a user sees; this run explains it.  The
same generated inputs go through the same layer objects the servers are
built from — sensor, ring, ExternalSensor, a real localhost socket pair,
the wire codec, InstrumentationManager with its sorter and CRE, the
consumers, the commit log, the ordered merger — one cycle at a time, and
every call into a layer is a span (name, start, end, parent, batch id).

Spans come from outside the program: :meth:`Tracer.wrap` replaces a
public method *on an instance this module built* with a timing proxy.
Module-level functions the program calls internally (``native.
unpack_record_stamped``, ``protocol.encode_batch_records``) cannot be
wrapped that way; they are timed standalone on the very payloads the
cycle just processed and the rows derived from them say so.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator

from repro.clocksync.clocks import CorrectedClock
from repro.core import native
from repro.core.consumers import LogConsumer
from repro.core.exs import ExsConfig, ExternalSensor
from repro.core.ism import InstrumentationManager, IsmConfig
from repro.core.merge import OrderedMerger
from repro.core.records import EventRecord
from repro.core.ringbuffer import HEADER_SIZE, OverflowPolicy, RingBuffer
from repro.core.sensor import Sensor, compile_notice
from repro.log import CommitLog, LogConfig
from repro.util.timebase import now_micros
from repro.wire import fastcodec, protocol
from repro.wire.tcp import MessageListener, connect
from repro.xdr import XdrEncoder

from bench.harness import log_parent
from bench.procs import TerminalConsumer
from bench.workloads import RING_BYTES_PER_RECORD, SourceInput, Workload, schemas_of

#: Records per source per lock-step cycle: a whole number of EXS batches.
CYCLE_RECORDS = 2048

#: Span names — each is also the stem of a per-layer metric.
NOTICE = "core.sensor.notice"
DRAIN = "core.ringbuffer.drain"
POLL = "core.exs.poll"
SEND = "wire.tcp.send"
RECV = "wire.tcp.recv"
DECODE = "wire.protocol.decode"
ON_MESSAGE = "core.ism.on_message"
SORT_PUSH = "core.sorting.push"
TICK = "core.ism.tick"
SORT_EXTRACT = "core.sorting.extract"
CRE = "core.cre.process"
DELIVER = "core.consumers.deliver"
LOG_APPEND = "log.commitlog.append"
LOG_SYNC = "log.commitlog.sync"
MERGE = "core.merge.push_pop"


class Tracer:
    """In-memory span recorder; dumped once, when the run ends."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent index or -1, batch id, cpu_ns]``
        #: — wall clock for start/end, this thread's CPU time for the last
        #: (a span that waits on the kernel is long but cheap).
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.batch = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, self.batch, 0])
        self._stack.append(index)
        cpu = time.thread_time_ns()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            span = self.spans[index]
            span[1], span[2], span[5] = start, end, time.thread_time_ns() - cpu

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Replace ``obj.attr`` (a bound public method) by a span proxy."""
        inner: Callable = getattr(obj, attr)
        span = self.span

        def proxy(*args, **kwargs):
            with span(name):
                return inner(*args, **kwargs)

        setattr(obj, attr, proxy)

    def totals(self) -> dict[str, int]:
        """Total inclusive wall ns per span name."""
        out: dict[str, int] = {}
        for name, start, end, *_ in self.spans:
            out[name] = out.get(name, 0) + end - start
        return out

    def cpu_totals(self) -> dict[str, int]:
        """Total inclusive CPU ns per span name."""
        out: dict[str, int] = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + span[5]
        return out

    def self_totals(self) -> dict[str, int]:
        """Total wall ns per span name, minus what its child spans cover."""
        out = self.totals()
        for _name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def dump(self, path: str, header: dict[str, Any]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as stream:
            json.dump({**header, "spans": self.spans}, stream)


class _NullTracer:
    """Stand-in for the plain (untraced) replay: no proxies, no spans."""

    batch = 0
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Leave the instance untouched."""


def _local_ring(records: int, mixed: bool) -> RingBuffer:
    return RingBuffer(
        bytearray(HEADER_SIZE + max(1 << 16, records * RING_BYTES_PER_RECORD[mixed])),
        OverflowPolicy.DROP_NEW,
    )


def replay(
    workload: Workload,
    inputs: list[SourceInput],
    cycles: int,
    tracer: Tracer | _NullTracer,
) -> dict[str, Any]:
    """Run *cycles* lock-step cycles; returns raw totals.

    With a :class:`Tracer` the standalone ("derived") timings are taken
    too; with a :class:`_NullTracer` only the cycle's CPU is measured —
    the two CPU figures differ by the tracing overhead.
    """
    traced = isinstance(tracer, Tracer)
    notices = [compile_notice(types) for types in schemas_of(workload)]
    rings = [_local_ring(CYCLE_RECORDS, workload.mixed) for _ in inputs]
    scratch_ring = _local_ring(CYCLE_RECORDS, workload.mixed)
    scratch_enc = XdrEncoder()
    sensors = [Sensor(ring, node_id=src.node_id) for ring, src in zip(rings, inputs)]
    exss = []
    for ring, src, offset in zip(rings, inputs, workload.clock_offsets_us):
        clock = CorrectedClock(now_micros)
        if offset:
            clock.advance(offset)
        exs = ExternalSensor(
            src.exs_id,
            src.node_id,
            ring,
            clock,
            ExsConfig(flush_timeout_us=workload.flush_timeout_us),
        )
        exss.append(exs)
    # The same sink the real run uses, so its cost lands in the same row.
    consumer = TerminalConsumer(with_due=not workload.saturated)
    sink = log_dir = None
    merger: OrderedMerger | None = None
    listener = MessageListener("127.0.0.1", 0)
    tx = connect(*listener.address)
    rx = listener.accept(timeout=5.0)
    try:
        if workload.durable:
            log_dir = tempfile.mkdtemp(prefix="brisk-bench-trace-", dir=log_parent())
            log = CommitLog(log_dir, LogConfig(fsync="batch"))
            sink = LogConsumer(log, close_log=True)
            tracer.wrap(log, "append_many", LOG_APPEND)
            tracer.wrap(sink, "sync", LOG_SYNC)
        manager = InstrumentationManager(
            IsmConfig(), ([sink] if sink else []) + [consumer]
        )
        if workload.relay:
            merger = OrderedMerger()
            for src in inputs:
                merger.add_shard(src.node_id)
        for exs in exss:
            manager.register_source(exs.exs_id, exs.node_id)
            tracer.wrap(exs, "poll", POLL)
        for ring in rings:
            tracer.wrap(ring, "drain_bytes", DRAIN)
        tracer.wrap(tx, "send_many", SEND)
        tracer.wrap(rx, "recv_frames", RECV)
        tracer.wrap(manager, "on_message", ON_MESSAGE)
        tracer.wrap(manager.sorter, "push_many", SORT_PUSH)
        tracer.wrap(manager, "tick", TICK)
        tracer.wrap(manager, "flush", TICK)
        tracer.wrap(manager.sorter, "extract_ready_batch", SORT_EXTRACT)
        tracer.wrap(manager.sorter, "flush", SORT_EXTRACT)
        tracer.wrap(manager.cre, "process_many", CRE)
        tracer.wrap(consumer, "deliver_many", DELIVER)
        if sink is not None:
            tracer.wrap(sink, "deliver_many", DELIVER)

        # The drain proxy sees what each poll took off the ring; the
        # standalone timings reuse exactly those payloads.
        drained: list[bytes] = []
        if traced:
            for ring in rings:
                inner = ring.drain_bytes

                def capture(limit=None, _inner=inner):
                    out = _inner(limit)
                    drained.extend(out)
                    return out

                ring.drain_bytes = capture

        derived = {"push": 0, "unpack": 0, "encode": 0}
        records_total = fast_records = syncs = 0
        last_seq: dict[int, int] = {}
        cpu_ns = 0
        for cycle in range(cycles):
            tracer.batch = cycle
            lo = cycle * CYCLE_RECORDS
            cpu0 = time.process_time_ns()
            with tracer.span(NOTICE):
                for sensor, src in zip(sensors, inputs):
                    for si, event_id, values in src.events[lo : lo + CYCLE_RECORDS]:
                        notices[si](sensor, event_id, *values)
            final = cycle == cycles - 1
            for exs in exss:
                batches = exs.poll()
                if final:
                    batches += exs.flush()
                if not batches:
                    continue
                tx.send_many(batches)
                payloads: list[bytes] = []
                while len(payloads) < len(batches):
                    payloads.extend(rx.recv_frames(timeout=5.0))
                with tracer.span(DECODE):
                    msgs = [
                        protocol.decode_message(p, node_id=exs.node_id) for p in payloads
                    ]
                now = now_micros()
                for msg in msgs:
                    manager.on_message(msg, now)
                    records_total += len(msg.records)
                    last_seq[msg.exs_id] = msg.seq
                    if traced:
                        fast_records += sum(
                            1
                            for r in msg.records
                            if fastcodec.codec_for_types(r.field_types) is not None
                        )
            before = len(consumer.seqs)
            if final:
                manager.flush(now_micros())
            else:
                manager.tick(now_micros())
            if sink is not None and len(consumer.seqs) > before:
                sink.sync(dict(last_seq))
                syncs += 1
            cpu_ns += time.process_time_ns() - cpu0

            if traced and drained:
                derived_cycle = _standalone(
                    drained, exss[0], scratch_ring, scratch_enc
                )
                for key, value in derived_cycle.items():
                    derived[key] += value
                drained.clear()
        if merger is not None:
            # The ordered merge is the relay's pre-sort: replay it over
            # the same records, one lane per relayed source.
            streams = _merge_streams(workload, inputs)
            cpu0 = time.process_time_ns()
            _replay_merge(tracer, merger, streams)
            cpu_ns += time.process_time_ns() - cpu0

        idle_poll_ns = 0.0
        if not traced:
            # What an idle EXS pays per loop turn: an empty poll, timed
            # on the plain pass so no span proxy sits in the way.
            samples = []
            poll = exss[0].poll
            for _ in range(200):
                t0 = time.perf_counter_ns()
                for _ in range(10):
                    poll()
                samples.append((time.perf_counter_ns() - t0) / 10)
            samples.sort()
            idle_poll_ns = samples[len(samples) // 2]
        manager.close()
        return {
            "records": records_total,
            "fast_records": fast_records,
            "cpu_ns": cpu_ns,
            "derived": derived,
            "syncs": syncs,
            "idle_poll_ns": idle_poll_ns,
        }
    finally:
        tx.close()
        if rx is not None:
            rx.close()
        listener.close()
        if log_dir is not None:
            shutil.rmtree(log_dir, ignore_errors=True)


def _standalone(
    payloads: list[bytes], exs: ExternalSensor, ring: RingBuffer, enc: XdrEncoder
) -> dict[str, int]:
    """Time the program-internal children of one cycle on its own data."""
    clock = time.perf_counter_ns
    push = ring.push_bytes
    t0 = clock()
    for payload in payloads:
        push(payload)
    t1 = clock()
    ring.drain_bytes()
    unpack = native.unpack_record_stamped
    node_id, correction = exs.node_id, exs.clock.correction_us
    t2 = clock()
    records = [unpack(payload, node_id, correction) for payload in payloads]
    t3 = clock()
    step = exs.config.batch_max_records
    t4 = clock()
    for start in range(0, len(records), step):
        protocol.encode_batch_records(
            exs.exs_id, 0, records[start : start + step], enc=enc
        )
    t5 = clock()
    return {"push": t1 - t0, "unpack": t3 - t2, "encode": t5 - t4}


def _merge_streams(
    workload: Workload, inputs: list[SourceInput]
) -> list[tuple[int, list[EventRecord]]]:
    """Per-lane record streams for the merge replay (built untimed)."""
    types = schemas_of(workload)
    base = now_micros()
    return [
        (
            src.node_id,
            [
                EventRecord.from_wire(
                    event_id, base + 2 * i + src.node_id, types[si], values, src.node_id
                )
                for i, (si, event_id, values) in enumerate(src.events)
            ],
        )
        for src in inputs
    ]


def _replay_merge(
    tracer: Tracer | _NullTracer,
    merger: OrderedMerger,
    streams: list[tuple[int, list[EventRecord]]],
) -> None:
    """Push each lane's stream through the ordered merger in chunks,
    advancing its watermark as the relay does per coalescing cycle."""
    n = len(streams[0][1])
    for lo in range(0, n, 256):
        tracer.batch = lo // 256
        with tracer.span(MERGE):
            for lane, records in streams:
                piece = records[lo : lo + 256]
                merger.push(lane, piece)
                merger.advance(lane, piece[-1].timestamp)
            merger.emit()
    with tracer.span(MERGE):
        merger.flush()


# ----------------------------------------------------------------------
# spans → per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(
    workload: Workload,
    inputs: list[SourceInput],
    cycles: int,
    process_cpu_ns_per_record: dict[str, float],
    dump_path: str | None,
    seed: int,
) -> dict[str, float]:
    """Plain + traced replay → every traced per-layer metric.

    *process_cpu_ns_per_record* comes from the untraced multi-process run
    (``exs_proc``/``relay_proc``/``ism_proc``): each process's
    residual row is that figure minus the spans attributed to it, so
    attributed + residual equals measured CPU per record by construction.
    """
    need = cycles * CYCLE_RECORDS
    if len(inputs[0].events) < need:
        raise ValueError(f"traced replay needs {need} records per source")
    inputs = [
        SourceInput(src.node_id, src.exs_id, src.events[:need]) for src in inputs
    ]
    # A short discarded pass first, so neither measured pass pays for
    # cold codec caches and the two differ by the tracing alone.
    replay(workload, inputs, min(2, cycles), _NullTracer())
    plain = replay(workload, inputs, cycles, _NullTracer())
    tracer = Tracer()
    raw = replay(workload, inputs, cycles, tracer)
    if dump_path is not None:
        tracer.dump(dump_path, {"workload": workload.name, "seed": seed, "cycles": cycles})

    n = max(1, raw["records"])
    totals = tracer.totals()

    def per_record(name: str) -> float:
        return totals.get(name, 0) / n

    derived = {key: value / n for key, value in raw["derived"].items()}
    poll_self = tracer.self_totals().get(POLL, 0) / n - derived["unpack"] - derived["encode"]
    merge_records = len(inputs) * len(inputs[0].events)
    out = {
        "core.sensor.notice_ns_per_record": per_record(NOTICE),
        # derived: notice minus the standalone ring write
        "core.native.pack_ns_per_record": per_record(NOTICE) - derived["push"],
        "core.ringbuffer.push_ns_per_record": derived["push"],
        "core.ringbuffer.drain_ns_per_record": per_record(DRAIN),
        "core.native.unpack_ns_per_record": derived["unpack"],
        "core.exs.poll_ns_per_record": per_record(POLL),
        # derived: poll minus its drain span minus the standalone children
        "core.exs.poll_self_ns_per_record": poll_self,
        "core.exs.idle_poll_ns": plain["idle_poll_ns"],
        "wire.protocol.encode_ns_per_record": derived["encode"],
        "wire.protocol.decode_ns_per_record": per_record(DECODE),
        "wire.protocol.fastpath_share": raw["fast_records"] / n,
        "wire.tcp.send_ns_per_record": per_record(SEND),
        "wire.tcp.recv_ns_per_record": per_record(RECV),
        "core.ism.on_message_ns_per_record": per_record(ON_MESSAGE),
        "core.ism.tick_ns_per_record": per_record(TICK),
        "core.sorting.push_ns_per_record": per_record(SORT_PUSH),
        "core.sorting.extract_ns_per_record": per_record(SORT_EXTRACT),
        "core.cre.process_ns_per_record": per_record(CRE),
        "core.consumers.deliver_ns_per_record": per_record(DELIVER),
        "log.commitlog.append_ns_per_record": per_record(LOG_APPEND),
        "log.commitlog.sync_ns_per_call": (
            totals.get(LOG_SYNC, 0) / raw["syncs"] if raw["syncs"] else 0.0
        ),
        "core.merge.push_pop_ns_per_record": totals.get(MERGE, 0) / merge_records,
    }

    # Which top-level spans run in which process of the real topology.
    # Residuals compare CPU with CPU: a span's own CPU time, not its
    # wall time (an fsync waits long and costs little).
    cpu = tracer.cpu_totals()

    def cpu_per_record(*names: str) -> float:
        return sum(cpu.get(name, 0) for name in names) / n

    hop = cpu_per_record(RECV, DECODE)
    merge = cpu.get(MERGE, 0) / merge_records
    attributed = {
        "exs_proc": cpu_per_record(POLL, SEND),
        # derived: the relay runs the same receive/decode/encode/send
        # functions over the same records (in fatter frames), and
        # pre-sorts them through its own OrderedMerger
        "relay_proc": (
            hop + derived["encode"] + cpu_per_record(SEND) + merge
            if workload.relay
            else 0.0
        ),
        "ism_proc": hop + cpu_per_record(ON_MESSAGE, TICK, LOG_SYNC),
    }
    measured = process_cpu_ns_per_record
    residual_total = 0.0
    for proc in ("exs_proc", "relay_proc", "ism_proc"):
        residual = measured.get(proc, 0.0) - attributed[proc]
        out[f"runtime.{proc}.loop_self_ns_per_record"] = residual
        residual_total += residual
    measured_total = sum(measured.values())
    out["trace.unattributed_share"] = (
        residual_total / measured_total if measured_total else 0.0
    )
    out["trace.overhead_share"] = (
        (raw["cpu_ns"] - plain["cpu_ns"]) / plain["cpu_ns"] if plain["cpu_ns"] else 0.0
    )
    return out
