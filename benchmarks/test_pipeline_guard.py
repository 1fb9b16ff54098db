"""Pipeline-regression guard: the staged ISM ingestion must never be slower.

A fast smoke benchmark (no pytest-benchmark fixture, plain best-of-N
timing; total runtime a few seconds) that fails if any stage of the
pipelined receive path — bulk ring drain, schema-specialized native
decode, batched sort/deliver, or the end-to-end TCP stream — loses to
the per-record path it replaced, or falls below the throughput floor
recorded on the benchmark host.  Equivalence is asserted in the same
breath: a stage that wins by changing records or bytes is also a
failure.

The absolute floors derive from ``benchmarks/results`` after PR 2
(E3 single-stream socket ≈ 87–123k ev/s, E5 8-EXS aggregate ≈ 100k ev/s,
seed ≈ 53k / 48k); they sit far enough under the measured numbers to
absorb host noise while still catching a regression back to seed-level
throughput.
"""

from __future__ import annotations

import threading
import time

from repro.clocksync.clocks import CorrectedClock
from repro.core import native
from repro.core.consumers import CallbackConsumer
from repro.core.exs import ExsConfig, ExternalSensor
from repro.core.ism import InstrumentationManager, IsmConfig
from repro.core.records import EventRecord, FieldType
from repro.core.ringbuffer import HEADER_SIZE, OverflowPolicy, RingBuffer
from repro.core.sensor import Sensor
from repro.core.sorting import SorterConfig
from repro.runtime.exs_proc import ExsProcess
from repro.runtime.ism_proc import IsmServer
from repro.util.timebase import now_micros
from repro.wire import protocol
from repro.wire.tcp import MessageListener, connect

_REPEATS = 7

#: Recorded floors (events/second on the benchmark host; see module
#: docstring).  Chosen ≈ 2x the seed's numbers and well under the
#: post-pipeline measurements so only a real regression trips them.
_E3_SOCKET_FLOOR_EV_S = 40_000
_E5_FANIN_FLOOR_EV_S = 100_000


def _best(fn, repeats: int = _REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _records(n: int, node_id: int = 0) -> list[EventRecord]:
    return [
        EventRecord(
            event_id=7,
            timestamp=1_000_000 + i,
            field_types=(FieldType.X_INT,) * 6,
            values=(i, 2, 3, 4, 5, 6),
            node_id=node_id,
        )
        for i in range(n)
    ]


def _filled_ring(n: int) -> RingBuffer:
    ring = RingBuffer(bytearray(HEADER_SIZE + (1 << 20)), OverflowPolicy.DROP_NEW)
    for record in _records(n):
        ring.push(record)
    return ring


# ----------------------------------------------------------------------
# stage guards: batch path vs the per-record path it replaced
# ----------------------------------------------------------------------

def test_bulk_drain_not_slower_than_per_record_pop():
    n = 2048
    bulk_ring = _filled_ring(n)
    bulk_payloads = bulk_ring.drain_bytes()
    pop_ring = _filled_ring(n)
    pop_payloads = []
    while (payload := pop_ring.pop_bytes()) is not None:
        pop_payloads.append(payload)
    assert bulk_payloads == pop_payloads  # identical bytes, or no deal

    # Time the drain alone: filling the ring is nine tenths of a
    # fill+drain pass, and since the ring header became a cast view a
    # per-record pop's three header accesses cost too little for the
    # difference to show through that.
    def best_drain(drain) -> float:
        best = float("inf")
        for _ in range(_REPEATS):
            ring = _filled_ring(n)
            t0 = time.perf_counter()
            drain(ring)
            best = min(best, time.perf_counter() - t0)
        return best

    def per_record(ring):
        while ring.pop_bytes() is not None:
            pass

    bulk = best_drain(lambda ring: ring.drain_bytes())
    assert bulk <= best_drain(per_record), "bulk drain lost to per-record pops"


def test_specialized_native_decode_not_slower_than_dynamic():
    payloads = [native.pack_record(r) for r in _records(512)]
    # Race the compiled plan against the per-field reference decoder (the
    # seed loop), after the first record compiled the plan.
    fast_records = [native.unpack_record(p)[0] for p in payloads]
    slow_records = [native.unpack_fields(p)[0] for p in payloads]
    assert fast_records == slow_records
    slow = _best(lambda: [native.unpack_fields(p) for p in payloads])
    fast = _best(lambda: [native.unpack_record(p) for p in payloads])
    assert fast <= slow, (
        f"specialized native decode ({fast * 1e6:.0f} µs) slower than "
        f"per-field loop ({slow * 1e6:.0f} µs)"
    )


def _pump(manager: InstrumentationManager, payloads: list[bytes]) -> None:
    now = 2_000_000_000
    for payload in payloads:
        manager.on_message(protocol.decode_message(payload), now)
        manager.tick(now)
        now += 1000
    manager.flush(now)


def test_batched_delivery_not_slower_than_per_record():
    records = _records(10_000)
    payloads = [
        protocol.encode_batch_records(1, seq, records[i : i + 250])
        for seq, i in enumerate(range(0, len(records), 250))
    ]

    def run(delivery_batch: int) -> tuple[list[EventRecord], float]:
        out: list[EventRecord] = []
        manager = InstrumentationManager(
            IsmConfig(
                sorter=SorterConfig(initial_frame_us=0),
                delivery_batch=delivery_batch,
            ),
            [CallbackConsumer(out.append)],
        )
        manager.register_source(1, 1)
        elapsed = _best(lambda: _pump(manager, payloads), repeats=1)
        return out, elapsed

    batched_out, _ = run(1024)
    per_record_out, _ = run(1)
    assert batched_out == per_record_out  # identical delivery, or no deal

    batched = _best(lambda: run(1024)[1], repeats=3)
    per_record = _best(lambda: run(1)[1], repeats=3)
    assert batched <= per_record * 1.10, (
        f"batched delivery ({batched * 1e3:.1f} ms) slower than "
        f"per-record ({per_record * 1e3:.1f} ms)"
    )


# ----------------------------------------------------------------------
# throughput floors: E3 single stream and E5-style 8-source fan-in
# ----------------------------------------------------------------------

def test_e3_socket_throughput_floor():
    n_events = 20_000
    received = [0]
    manager = InstrumentationManager(
        IsmConfig(sorter=SorterConfig(initial_frame_us=0)),
        [CallbackConsumer(lambda r: received.__setitem__(0, received[0] + 1))],
    )
    listener = MessageListener()
    host, port = listener.address
    server = IsmServer(manager, listener)
    ring = RingBuffer(bytearray(HEADER_SIZE + (1 << 22)), OverflowPolicy.DROP_NEW)
    sensor = Sensor(ring, node_id=1)
    exs = ExternalSensor(
        1, 1, ring, CorrectedClock(now_micros),
        ExsConfig(batch_max_records=250, flush_timeout_us=1_000,
                  drain_limit=100_000),
    )
    emitted = 0
    while emitted < n_events:
        if sensor.notice_ints(7, emitted, 2, 3, 4, 5, 6):
            emitted += 1
    proc = ExsProcess(exs, connect(host, port), select_timeout_s=0.001)
    thread = threading.Thread(target=proc.run, daemon=True)
    t0 = time.perf_counter()
    thread.start()
    server.serve(duration_s=30.0, until_records=n_events)
    elapsed = time.perf_counter() - t0
    proc.stop()
    thread.join(timeout=5)
    listener.close()
    assert received[0] == n_events
    rate = n_events / elapsed
    assert rate >= _E3_SOCKET_FLOOR_EV_S, (
        f"E3 single-stream socket throughput {rate:,.0f} ev/s fell below "
        f"the recorded floor {_E3_SOCKET_FLOOR_EV_S:,} ev/s"
    )


def _socket_stream_elapsed(
    n_events: int, acked: bool, metrics: bool = False
) -> float:
    """One fresh single-stream socket run; returns wall-clock seconds.

    ``acked=False`` reproduces the seed's fire-and-forget transport
    (no acks, no resume handshake, no heartbeats, an outbox deep enough
    to never backpressure); ``acked=True`` is the default guaranteed
    path.  ``metrics=True`` additionally wires a full
    :class:`~repro.obs.metrics.MetricsRegistry` over both ends — the
    EXS poll/drain timers and the ISM tick timer plus all pull gauges —
    to price the observability layer's hot-path cost.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime.exs_proc import ExsOutbox

    received = [0]
    manager = InstrumentationManager(
        IsmConfig(sorter=SorterConfig(initial_frame_us=0)),
        [CallbackConsumer(lambda r: received.__setitem__(0, received[0] + 1))],
        metrics=MetricsRegistry() if metrics else None,
    )
    listener = MessageListener()
    host, port = listener.address
    server = IsmServer(manager, listener, ack_batches=acked)
    ring = RingBuffer(bytearray(HEADER_SIZE + (1 << 22)), OverflowPolicy.DROP_NEW)
    sensor = Sensor(ring, node_id=1)
    exs = ExternalSensor(
        1, 1, ring, CorrectedClock(now_micros),
        ExsConfig(batch_max_records=250, flush_timeout_us=1_000,
                  drain_limit=100_000),
        metrics=MetricsRegistry() if metrics else None,
    )
    emitted = 0
    while emitted < n_events:
        if sensor.notice_ints(7, emitted, 2, 3, 4, 5, 6):
            emitted += 1
    if acked:
        proc = ExsProcess(exs, connect(host, port), select_timeout_s=0.001)
    else:
        proc = ExsProcess(
            exs,
            connect(host, port),
            select_timeout_s=0.001,
            outbox=ExsOutbox(depth=1_000_000),
            resume=False,
            ack_timeout_s=None,
            heartbeat_interval_s=None,
        )
    thread = threading.Thread(target=proc.run, daemon=True)
    t0 = time.perf_counter()
    thread.start()
    server.serve(duration_s=30.0, until_records=n_events)
    elapsed = time.perf_counter() - t0
    proc.stop()
    thread.join(timeout=5)
    listener.close()
    assert received[0] == n_events
    return elapsed


def test_acked_path_within_ten_percent_of_fire_and_forget():
    """The delivery guarantees must be nearly free at steady state: one
    cumulative Ack per pump cycle and an outbox append per batch.  Race
    the default acked path against the seed's fire-and-forget transport
    and fail if the guaranteed path costs more than 10%."""
    n_events = 20_000
    acked = _best(lambda: _socket_stream_elapsed(n_events, acked=True), repeats=3)
    bare = _best(lambda: _socket_stream_elapsed(n_events, acked=False), repeats=3)
    assert acked <= bare * 1.10, (
        f"acked path ({n_events / acked:,.0f} ev/s) more than 10% slower "
        f"than fire-and-forget ({n_events / bare:,.0f} ev/s)"
    )


def test_metrics_enabled_within_five_percent_of_metrics_off():
    """Self-observability must be nearly free on the hot path: stage
    timers are two ``perf_counter_ns`` calls per EXS poll / ISM tick, and
    every occupancy metric is a pull gauge that costs nothing until a
    snapshot is taken.  Race the E3 single-stream run with a fully wired
    registry on both ends against the metrics-off default.

    Run-to-run variance of the socket pipeline (scheduler, TCP, GC) is
    far larger than the effect under test, so the arms are sampled as
    back-to-back pairs and judged on the *cleanest* pair: a real hot-path
    regression slows every pair, while a load spike dirties only some."""
    n_events = 20_000
    ratios = []
    for _ in range(5):
        off = _socket_stream_elapsed(n_events, acked=True)
        on = _socket_stream_elapsed(n_events, acked=True, metrics=True)
        ratios.append(on / off)
    assert min(ratios) <= 1.05, (
        f"metrics-enabled pipeline more than 5% slower than metrics-off "
        f"in every paired run (on/off ratios: "
        f"{', '.join(f'{r:.3f}' for r in ratios)})"
    )


def test_e5_fanin_sort_deliver_floor():
    # The E5-specific risk is the 8-way merge: per-record heap traffic
    # across 8 FIFO queues.  Feed 8 interleaved sources straight into the
    # manager (no transport — process spawn noise has no place in a
    # guard) and floor the aggregate decode+sort+deliver rate.
    n_sources = 8
    per_source = 5_000
    payloads: list[bytes] = []
    for src in range(1, n_sources + 1):
        records = _records(per_source, node_id=src)
        payloads.extend(
            protocol.encode_batch_records(src, seq, records[i : i + 250])
            for seq, i in enumerate(range(0, per_source, 250))
        )
    # Interleave sources the way concurrent streams arrive.
    batches_per_source = per_source // 250
    order = [
        payloads[src * batches_per_source + b]
        for b in range(batches_per_source)
        for src in range(n_sources)
    ]

    def run() -> int:
        delivered = [0]
        manager = InstrumentationManager(
            IsmConfig(sorter=SorterConfig(initial_frame_us=0, max_held=10**6)),
            [CallbackConsumer(lambda r: delivered.__setitem__(0, delivered[0] + 1))],
        )
        for src in range(1, n_sources + 1):
            manager.register_source(src, src)
        _pump(manager, order)
        return delivered[0]

    assert run() == n_sources * per_source
    elapsed = _best(run, repeats=3)
    rate = n_sources * per_source / elapsed
    assert rate >= _E5_FANIN_FLOOR_EV_S, (
        f"8-source fan-in rate {rate:,.0f} ev/s fell below the recorded "
        f"floor {_E5_FANIN_FLOOR_EV_S:,} ev/s"
    )


def test_log_append_within_fifteen_percent_of_buffered_picl(tmp_path):
    """The durable commit log's price of admission (PR 8): with
    ``fsync=off`` — the policy whose per-append work is purely CPU, the
    same as the baseline's — appending the delivery stream must stay
    within 15% of the buffered PICL trace writer it sits beside.  Binary
    framing + CRC racing text formatting; equivalence is asserted first
    (the log must read back the identical records)."""
    from repro.core.consumers import PiclFileConsumer
    from repro.log import CommitLog, LogConfig
    from repro.picl.format import TimestampMode

    records = _records(10_000)
    chunks = [records[i : i + 250] for i in range(0, len(records), 250)]
    fresh = iter(range(10_000))

    def log_run() -> None:
        log = CommitLog(
            tmp_path / f"log{next(fresh)}", LogConfig(fsync="off")
        )
        for chunk in chunks:
            log.append_many(chunk)
        log_run.last = log  # noqa: B010 - handed to the equivalence check

    def picl_run() -> None:
        stream = open(
            tmp_path / f"trace{next(fresh)}.picl", "w", encoding="ascii"
        )
        consumer = PiclFileConsumer(
            stream, TimestampMode.UTC_MICROS, close_stream=True
        )
        for chunk in chunks:
            consumer.deliver_many(chunk)
        consumer.close()

    log_run()
    assert list(log_run.last.iter_from(0)) == records  # identical, or no deal
    log_run.last.close()

    log_best = _best(log_run, repeats=3)
    picl_best = _best(picl_run, repeats=3)
    assert log_best <= picl_best * 1.15, (
        f"fsync=off log appends ({10_000 / log_best:,.0f} ev/s) fell more "
        f"than 15% behind the buffered PICL writer "
        f"({10_000 / picl_best:,.0f} ev/s)"
    )


def test_e5b_sharded_scaling_floor():
    """The sharded-ISM acceptance floor: 8 shards >= 3x 1 shard.

    Runs on the deterministic finite-server sim model (seeded workload,
    virtual time), so the guard holds regardless of how many physical
    cores the CI host happens to have; the socket-path counterpart in
    ``test_e5b_sharded_scaling.py`` asserts the same floor on wall-clock
    time when cores allow.
    """
    from repro.sim.deployment import DeploymentConfig, SimDeployment
    from repro.sim.engine import Simulator
    from repro.sim.workload import PoissonWorkload

    def capacity(shards: int) -> float:
        sim = Simulator(seed=5)
        dep = SimDeployment(
            sim,
            DeploymentConfig(
                ism_service_time_us=500.0,
                ism_shards=shards,
                exs_poll_interval_us=10_000,
            ),
            [CallbackConsumer(lambda r: None)],
        )
        # 4x the per-shard capacity offered per node: every shard stays
        # saturated at both scale points.
        for node in dep.add_nodes(8, max_offset_us=100, max_drift_ppm=1):
            dep.attach_workload(node, PoissonWorkload(rate_hz=4_000))
        dep.run(2.0)
        return dep.ism.stats.records_received / 2.0

    single, sharded = capacity(1), capacity(8)
    assert sharded >= 3.0 * single, (
        f"sharded scaling floor broken: 8 shards {sharded:,.0f} ev/s "
        f"< 3x 1-shard {single:,.0f} ev/s"
    )
