"""Orchestrator: one repetition = spawn the SUT, feed it, time it, check it.

The driver process is the *application*: it owns the shared rings, calls
the specialised ``notice`` functions (preloading a backlog for saturated
workloads, pacing an open-loop schedule otherwise), signals the start of
the timed window, and afterwards judges what the terminal consumer saw
against the generator's journal.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import shutil
import statistics
import tempfile
import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, NamedTuple, Sequence

from repro.core.sensor import Sensor, compile_notice
from repro.log import iter_log
from repro.runtime.shm import SharedRing, create_shared_ring

from bench import procs
from bench.oracle import Verdict, check_delivery
from bench.workloads import (
    RING_BYTES_PER_RECORD,
    SourceInput,
    Workload,
    journal_of,
    schemas_of,
)

#: ``notice`` calls per timing chunk (the unit ``notice_ns`` is a median of).
NOTICE_CHUNK = 10_000
#: Records (all sources together) every saturated repetition writes live
#: during its set-up; the rest of the backlog is copied in (see
#: :class:`Backlog`).  Ten timing chunks per repetition.
LIVE_TAIL = 10 * NOTICE_CHUNK
#: Preload alternates rings this often so two sources' timestamps interleave.
_INTERLEAVE = 32
#: The timed window is cut into slices this long, and a repetition's rate,
#: CPU cost and latency are read off the slices (see :func:`steady`), not
#: off the whole window.
SLICE_NS = 250_000_000
#: Below this many full slices (``--quick``) the whole window is one slice.
_MIN_SLICES = 4


class HarnessError(RuntimeError):
    """A child crashed, hung, or broke the control conversation."""


def log_parent() -> str:
    """Where commit logs go: tmpfs when the box has one, so that
    ``durable_stream`` measures framing/append/checkpoint/ack-gating and
    not the sandbox disk; the fingerprint records which."""
    return "/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir()


@dataclass
class Repetition:
    """Raw outcome of one repetition; see :func:`run_repetition`."""

    verdict: Verdict
    #: End-to-end metric name → value for this repetition.
    end_to_end: dict[str, float]
    #: Per-layer values available from outside the processes.
    layers: dict[str, float]
    #: Validity checks and sample counts (not metrics).
    notes: dict[str, float]
    payload_mismatches: int
    #: The per-slice (``notice_ns``: per-chunk) values ``end_to_end`` was
    #: read off with :func:`steady`.
    series: dict[str, list[float]] = field(default_factory=dict)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


def steady(metric: str, values: Sequence[float]) -> float:
    """One number from per-slice (``notice_ns``: per-chunk) values.

    The reference box is a small guest on a busy host: for seconds to a
    minute at a time the host gives it less CPU, and while both vCPUs are
    busy that only ever makes a slice *slower* — a mean or a median over
    slices moves with how much of the window the host took (10-30 % from
    one invocation to the next), the fastest slices hardly at all (3-4 %
    on a quiet box, 13 % on a bad one).  So the slice metrics report what
    the pipeline does when it is left alone: the rate of the fastest tenth
    of slices, and the cost/latency of the cheapest tenth.  ``notice_ns``
    is timed with one vCPU idle, where the host also hands out *faster*
    spells; its median over chunks is the steadier statistic.
    """
    if metric == "notice_ns":
        return statistics.median(values) if values else 0.0
    return percentile(sorted(values), 0.90 if metric == "delivered_ev_s" else 0.10)


# ----------------------------------------------------------------------
# the application side: emitting records
# ----------------------------------------------------------------------
class _Emitter:
    """Sensors + specialised notices for every source of a workload."""

    def __init__(self, workload: Workload, inputs: list[SourceInput], rings) -> None:
        self.inputs = inputs
        self.sensors = [
            Sensor(shared.ring, node_id=src.node_id) for shared, src in zip(rings, inputs)
        ]
        self.notices = [compile_notice(types) for types in schemas_of(workload)]
        #: ns per ``notice`` call, one value per NOTICE_CHUNK calls.
        self.chunk_ns: list[float] = []
        self._calls = 0
        self._spent = 0

    def _account(self, calls: int, spent_ns: int) -> None:
        self._calls += calls
        self._spent += spent_ns
        if self._calls >= NOTICE_CHUNK:
            self.chunk_ns.append(self._spent / self._calls)
            self._calls = self._spent = 0

    def preload(self, lo: int, hi: int) -> None:
        """Write records ``lo..hi`` of every source, interleaving the rings."""
        notices = self.notices
        clock = time.perf_counter_ns
        for start in range(lo, hi, _INTERLEAVE):
            stop = min(hi, start + _INTERLEAVE)
            for sensor, src in zip(self.sensors, self.inputs):
                piece = src.events[start:stop]
                t0 = clock()
                for si, event_id, values in piece:
                    notices[si](sensor, event_id, *values)
                self._account(len(piece), clock() - t0)

    def pace(self, go_ns: int, interval_ns: int, rings, ring_lock) -> dict[str, Any]:
        """Open-loop schedule: record *i* of every source is due at
        ``go + i * interval``; emit whatever is due, then sleep.

        Each burst is written under *ring_lock*, which the lis child's
        drains take too — see :func:`run_repetition`.  The wait for the
        lock is outside the ``notice`` timing and reported on its own.
        """
        notice = self.notices[0]
        pairs = list(zip(self.sensors, [src.events for src in self.inputs]))
        n = len(self.inputs[0].events)
        mono = time.monotonic_ns
        lag_ns = array("q")
        lock_wait_ns = array("q")
        peak_used = 0
        i = 0
        # The generator must not stall itself: no collector pauses in the
        # application thread while it is on a schedule.
        gc.disable()
        try:
            while i < n:
                now = mono()
                due_count = min(n, (now - go_ns) // interval_ns + 1)
                if due_count <= i:
                    time.sleep((go_ns + i * interval_ns - now) / 1e9)
                    continue
                with ring_lock:
                    locked = mono()
                    for j in range(i, due_count):
                        for sensor, events in pairs:
                            _, event_id, values = events[j]
                            notice(sensor, event_id, *values)
                    after = mono()
                    peak_used = max(peak_used, max(shared.ring.used for shared in rings))
                self._account((due_count - i) * len(pairs), after - locked)
                lock_wait_ns.append(locked - now)
                lag_ns.extend(
                    [after - (go_ns + j * interval_ns) for j in range(i, due_count)]
                )
                i = due_count
        finally:
            gc.enable()
        return {"lag_ns": lag_ns, "lock_wait_ns": lock_wait_ns, "peak_used": peak_used}

    @property
    def dropped(self) -> int:
        return sum(sensor.dropped for sensor in self.sensors)


def _ring_capacity(workload: Workload, n: int) -> int:
    if not workload.saturated:
        return 4 << 20
    return max(1 << 20, n * RING_BYTES_PER_RECORD[workload.mixed])


@dataclass
class Backlog:
    """A saturated workload's preloaded rings, written once per invocation.

    Every record enters a ring through ``notice``, once: the segments are
    then kept as byte images, and each repetition copies them into its own
    fresh rings and writes only the last :data:`LIVE_TAIL` records live.
    Re-noticing the whole backlog in every repetition would spend a third
    of an invocation in the benchmark's own generator (1.2 M records for a
    four-second ``stream_fixed`` window).
    """

    #: One whole-segment image per source (empty = nothing preloaded).
    images: list[bytes] = field(default_factory=list)
    #: Records per source the images hold.
    preloaded: int = 0
    #: ns per ``notice`` call while the images were written.
    chunk_ns: list[float] = field(default_factory=list)

    @classmethod
    def build(cls, workload: Workload, inputs: list[SourceInput]) -> "Backlog":
        n = len(inputs[0].events)
        preloaded = max(0, n - LIVE_TAIL // len(inputs))
        if not workload.saturated or not preloaded:
            return cls()
        rings = [create_shared_ring(_ring_capacity(workload, n)) for _ in inputs]
        try:
            emitter = _Emitter(workload, inputs, rings)
            emitter.preload(0, preloaded)
            return cls([bytes(shared.shm.buf) for shared in rings], preloaded, emitter.chunk_ns)
        finally:
            for shared in rings:
                shared.close()


# ----------------------------------------------------------------------
# talking to children
# ----------------------------------------------------------------------
def _recv(pipe, proc, who: str, timeout_s: float):
    """Next message from a child, or a named error: never a hang."""
    deadline = time.monotonic() + timeout_s
    while True:
        if pipe.poll(0.05):
            try:
                return pipe.recv()
            except (EOFError, OSError) as exc:
                proc.join(timeout=1.0)
                raise HarnessError(
                    f"{who}: pipe closed, exited with code {proc.exitcode}"
                ) from exc
        if not proc.is_alive():
            if pipe.poll(0):
                continue
            raise HarnessError(f"{who}: exited with code {proc.exitcode}")
        if time.monotonic() > deadline:
            raise HarnessError(f"{who}: no answer within {timeout_s:.0f}s")


def _expect(pipe, proc, who: str, tag: str, timeout_s: float):
    msg = _recv(pipe, proc, who, timeout_s)
    if not (isinstance(msg, tuple) and msg[0] == tag):
        raise HarnessError(f"{who}: expected {tag!r}, got {msg!r}")
    return msg[1]


def _send(pipe, proc, who: str, message) -> None:
    """Send a verb to a child; a child that died since its last answer is
    a named error, not a ``BrokenPipeError`` traceback."""
    try:
        pipe.send(message)
    except (OSError, ValueError) as exc:
        proc.join(timeout=1.0)
        raise HarnessError(
            f"{who}: gone before {message!r} (exit code {proc.exitcode})"
        ) from exc


def _reap(children: list[tuple[str, Any, Any]]) -> None:
    """Stop every child that is still around, then wait for it."""
    for _, proc, pipe in children:
        if proc.is_alive():
            try:
                pipe.send("abort")
            except (OSError, ValueError):
                pass
    for _, proc, _ in children:
        proc.join(timeout=3.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=3.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    for _, _, pipe in children:
        pipe.close()


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------
def run_repetition(
    workload: Workload, inputs: list[SourceInput], backlog: Backlog, rep_seconds: float
) -> Repetition:
    """Set up, run one timed window, tear down, judge.

    Raises :class:`HarnessError` when a child crashes or times out; every
    process, shared segment and scratch file is released either way.
    """
    n = len(inputs[0].events)
    run_timeout_s = max(20.0, 6.0 * rep_seconds)
    hard_timeout_s = run_timeout_s + 30.0
    ctx = mp.get_context("spawn")
    children: list[tuple[str, Any, Any]] = []
    rings: list[SharedRing] = []
    log_dir = None
    setup_t0 = time.monotonic()
    try:
        if workload.durable:
            log_dir = tempfile.mkdtemp(prefix="brisk-bench-log-", dir=log_parent())
        for _ in inputs:
            rings.append(create_shared_ring(_ring_capacity(workload, n)))
        for shared, image in zip(rings, backlog.images):
            shared.shm.buf[: len(image)] = image
        # RingBuffer writes its head/tail words with struct.pack_into,
        # which zeroes the word before filling it in byte by byte; a peer
        # process reading at that instant sees 0 and the drain runs off
        # into unwritten memory (about one paced repetition in twelve on
        # the reference box).  The program cannot be changed from here,
        # so while producer and consumer run concurrently the benchmark
        # serialises their ring access with a lock of its own.  Preloaded
        # rings have no concurrent writer and need none.
        ring_lock = None if workload.saturated else ctx.Lock()

        def spawn(who: str, target, spec: dict[str, Any]):
            parent, child = ctx.Pipe(duplex=True)
            spec["hard_timeout_s"] = hard_timeout_s
            proc = ctx.Process(
                target=target, args=(spec, child), name=f"bench-{who}", daemon=True
            )
            proc.start()
            child.close()
            children.append((who, proc, parent))
            return proc, parent

        ism, ism_pipe = spawn(
            "ism",
            procs.ism_main,
            {
                "with_due": not workload.saturated,
                "log_dir": log_dir,
                "expected_connections": 1 if workload.relay else workload.sources,
            },
        )
        relay = relay_pipe = None
        if workload.relay:
            relay, relay_pipe = spawn("relay", procs.relay_main, {"compress_min_bytes": 4096})
        lis, lis_pipe = spawn(
            "lis",
            procs.lis_main,
            {
                "rings": [shared.name for shared in rings],
                "sources": [
                    {
                        "exs_id": src.exs_id,
                        "node_id": src.node_id,
                        "clock_offset_us": offset,
                        "target": n,
                    }
                    for src, offset in zip(inputs, workload.clock_offsets_us)
                ],
                "exs": workload.exs,
                "select_timeout_s": workload.select_timeout_s,
                "flush_timeout_us": workload.flush_timeout_us,
                "run_timeout_s": run_timeout_s,
                "ring_lock": ring_lock,
            },
        )
        port = _expect(ism_pipe, ism, "ism", "ready", 30.0)
        if relay is not None:
            _send(relay_pipe, relay, "relay", ("connect", port))
            port = _expect(relay_pipe, relay, "relay", "ready", 30.0)
        _send(lis_pipe, lis, "lis", ("connect", port))
        _expect(lis_pipe, lis, "lis", "ready", 30.0)
        # The live part of the preload comes only now, with every child
        # up and idle: the application thread's notice cost is measured
        # on a quiet machine.
        emitter = _Emitter(workload, inputs, rings)
        peak_used = 0
        if workload.saturated:
            emitter.preload(backlog.preloaded, n)
            peak_used = max(shared.ring.used for shared in rings)
        setup_s = time.monotonic() - setup_t0

        go_ns = time.monotonic_ns()
        for who, proc, pipe in children:
            _send(pipe, proc, who, "go")
        paced: dict[str, Any] = {}
        if not workload.saturated:
            interval_ns = 1_000_000_000 // workload.rate_per_source
            paced = emitter.pace(go_ns, interval_ns, rings, ring_lock)
            peak_used = paced["peak_used"]
        lis_stats = _expect(lis_pipe, lis, "lis", "done", run_timeout_s + 15.0)
        relay_stats = None
        if relay is not None:
            _send(relay_pipe, relay, "relay", "stop")
            relay_stats = _expect(relay_pipe, relay, "relay", "done", 20.0)
        ism_stats = _expect(ism_pipe, ism, "ism", "done", 40.0)
        # The ism child closes the log on its way out; read it after.
        for _, proc, _ in children:
            proc.join(timeout=10.0)
        logged = None
        if log_dir is not None:
            logged = [(r.node_id, tuple(r.values)) for r in iter_log(log_dir)]
    finally:
        _reap(children)
        for shared in rings:
            shared.close()
        if log_dir is not None:
            shutil.rmtree(log_dir, ignore_errors=True)

    return _judge(
        workload,
        inputs,
        go_ns=go_ns,
        setup_s=setup_s,
        emitter=emitter,
        peak_used=peak_used,
        paced=paced,
        lis=lis_stats,
        relay=relay_stats,
        ism=ism_stats,
        logged=logged,
    )


# ----------------------------------------------------------------------
# judging
# ----------------------------------------------------------------------
def _cpu_at(samples: list[tuple[int, int]], t_ns: int) -> float:
    """A child's CPU ns at *t_ns*, interpolated between its own samples."""
    at = bisect_right(samples, (t_ns, 1 << 62))
    if at == 0:
        return samples[0][1]
    if at == len(samples):
        return samples[-1][1]
    (t0, c0), (t1, c1) = samples[at - 1], samples[at]
    return c0 + (c1 - c0) * (t_ns - t0) / (t1 - t0)


class _Slice(NamedTuple):
    """One slice of the timed window: delivered-record index range and
    the monotonic ns it spans."""

    lo: int
    hi: int
    t0: int
    t1: int

    @property
    def records(self) -> int:
        return self.hi - self.lo

    @property
    def seconds(self) -> float:
        return (self.t1 - self.t0) / 1e9


def _judge(
    workload: Workload,
    inputs: list[SourceInput],
    *,
    go_ns: int,
    setup_s: float,
    emitter: _Emitter,
    peak_used: int,
    paced: dict[str, Any],
    lis: dict[str, Any],
    relay: dict[str, Any] | None,
    ism: dict[str, Any],
    logged: list[tuple[int, tuple]] | None,
) -> Repetition:
    """Turn the children's raw observations into metrics and a verdict."""
    seen = ism["consumer"]
    journal = journal_of(inputs)
    verdict = check_delivery(journal, zip(seen["nodes"], seen["seqs"]))
    expected = {src.node_id: src.events for src in inputs}
    sample = seen["payload_sample"]
    if logged is not None:
        # Durable mode: the re-read log is the delivered stream of record.
        log_verdict = check_delivery(journal, ((node, v[0]) for node, v in logged))
        if log_verdict.failed > verdict.failed:
            verdict = log_verdict
        sample = logged
    mismatches = sum(
        1
        for node, values in sample
        if node not in expected
        or not 0 <= values[0] < len(expected[node])
        or expected[node][values[0]][2] != values
    )

    delivered = max(1, verdict.ok)
    chunk_ns, chunk_len = seen["chunk_ns"], seen["chunk_len"]
    last_ns = chunk_ns[-1] if chunk_ns else go_ns + 1
    if "log" in ism:
        last_ns = max(last_ns, ism["log"]["last_sync_ns"])
    window_s = (last_ns - go_ns) / 1e9

    # Slice the window; rate, CPU cost and latency are read off the slices.
    # A slice runs from the first chunk to arrive at or after one edge to
    # the first at or after the next, so it holds whole chunks and its
    # rate is not quantised by the chunk size (4096 records when saturated).
    arrived = [0, *accumulate(chunk_len)]  # records delivered before chunk i
    full = (last_ns - go_ns) // SLICE_NS
    if full >= _MIN_SLICES:  # the ragged end after the last edge is left out
        marks = {bisect_left(chunk_ns, go_ns + k * SLICE_NS) for k in range(full + 1)}
    else:
        marks = {0, len(chunk_ns) - 1}
    marks = sorted(mark for mark in marks if 0 <= mark < len(chunk_ns))
    slices = [
        _Slice(arrived[a + 1], arrived[b + 1], chunk_ns[a], chunk_ns[b])
        for a, b in zip(marks, marks[1:])
    ] or [_Slice(0, delivered, go_ns, last_ns)]
    rates = [s.records / s.seconds for s in slices]

    cpu_series = {
        "exs_proc": lis["cpu_samples"],
        "relay_proc": relay["cpu_samples"] if relay else None,
        "ism_proc": ism["cpu_samples"],
    }

    def cpu_ns(proc: str, s: _Slice) -> float:
        series = cpu_series[proc]
        return _cpu_at(series, s.t1) - _cpu_at(series, s.t0) if series else 0.0

    # CPU ns per delivered record / 1000 = CPU-s per 10^6 records
    cpu_costs = {
        proc: [cpu_ns(proc, s) / s.records / 1e3 for s in slices] for proc in cpu_series
    }
    busy = {
        proc: statistics.median(cpu_ns(proc, s) / (s.t1 - s.t0) for s in slices)
        for proc in cpu_series
    }

    if workload.saturated:
        # Every preloaded record is due when the window opens, so its
        # latency is how long the backlog took to reach it: its place in
        # the backlog over the delivery rate.  Printed because every
        # invocation prints every metric; claimed nowhere (ledger.SCOPE).
        offered = len(journal)
        p50s = [0.50 * offered / rate * 1e3 for rate in rates]
        p99s = [0.99 * offered / rate * 1e3 for rate in rates]
        latency_samples = beyond_p99 = 0
    else:
        # Open loop: delivery time minus due time, per record.
        dues = seen["dues"]
        latency_us = array("d")
        for t_ns, lo, hi in zip(chunk_ns, arrived, arrived[1:]):
            since_go_us = (t_ns - go_ns) / 1e3
            latency_us.extend([since_go_us - due for due in dues[lo:hi]])
        by_slice = [sorted(latency_us[s.lo : s.hi]) for s in slices]
        p50s = [percentile(lat, 0.50) / 1e3 for lat in by_slice]
        p99s = [percentile(lat, 0.99) / 1e3 for lat in by_slice]
        latency_samples = sum(len(lat) for lat in by_slice)
        beyond_p99 = min(len(lat) - int(0.99 * len(lat)) for lat in by_slice)
    series = {
        "delivered_ev_s": rates,
        "cpu_s_per_mrec": [sum(costs) for costs in zip(*cpu_costs.values())],
        "latency_p50_ms": p50s,
        "latency_p99_ms": p99s,
        "notice_ns": list(emitter.chunk_ns),
    }
    acks = sorted(lis["ack_latency_ns"])
    ack_p50_ms = percentile(acks, 0.50) / 1e6

    rss_mb = lis["rss_mb"] + ism["rss_mb"] + (relay["rss_mb"] if relay else 0.0)
    scalars = ism["scalars"]
    wire_bytes = scalars.get("wire.bytes_received", 0)
    end_to_end = {key: steady(key, values) for key, values in series.items()}
    end_to_end.update(
        {
            "setup_s": setup_s,
            "wire_bytes_per_record": wire_bytes / delivered,
            "peak_rss_mb": rss_mb,
        }
    )

    layers: dict[str, float] = {}
    for proc in cpu_series:
        # The median, not the cheapest decile: these rows are set against
        # the traced replay's span totals, which are typical costs too.
        layers[f"runtime.{proc}.cpu_s_per_mrec"] = statistics.median(cpu_costs[proc])
        layers[f"runtime.{proc}.busy_share"] = busy[proc]
    batches = lis["batches_shipped"]
    layers.update(
        {
            "runtime.exs_proc.outbox_peak_unacked": lis["outbox_peak_unacked"],
            "runtime.exs_proc.reconnects": lis["reconnects"],
            "runtime.exs_proc.acks_received": lis["acks_received"],
            "runtime.exs_proc.ack_latency_p50_ms": ack_p50_ms,
            "core.ringbuffer.peak_used_bytes": peak_used,
            "core.ringbuffer.dropped": lis["ring_dropped"],
            "wire.tcp.frames": scalars.get("wire.frames_received", 0),
            "wire.tcp.bytes": wire_bytes,
            "core.exs.batches": batches,
            "core.exs.records_per_batch": lis["records_shipped"] / max(1, batches),
            "core.exs.timeout_flushes": lis["timeout_flushes"],
            "core.ism.duplicate_batches": scalars.get("ism.duplicate_batches", 0),
            "core.ism.records_deduped": scalars.get("ism.records_deduped", 0),
            "core.sorting.peak_held": ism["peak_held"],
            "core.sorting.frame_us_final": scalars.get("sorter.frame_us", 0),
            "core.sorting.out_of_order_released": scalars.get("sorter.out_of_order", 0),
            "core.cre.matches": ism["cre_matches"],
            "core.cre.tachyons": scalars.get("cre.tachyons_fixed", 0),
            "core.cre.peak_parked": ism["peak_parked"],
        }
    )
    log = ism.get("log")
    layers.update(
        {
            "log.commitlog.syncs": log["syncs"] if log else 0,
            "log.commitlog.segments": log["segments"] if log else 0,
            "log.commitlog.bytes_per_record": (
                log["bytes"] / max(1, log["records"]) if log else 0.0
            ),
        }
    )
    counters = relay["counters"] if relay else {}
    frames_out = counters.get("frames_out", 0)
    layers.update(
        {
            "runtime.relay_proc.frames_in_per_frame_out": (
                counters.get("batches_in", 0) / frames_out if frames_out else 0.0
            ),
            # Bytes the coalesced frames would have cost uncompressed,
            # over the bytes the ISM listener actually received.
            "runtime.relay_proc.compress_ratio": (
                (wire_bytes + counters.get("compressed_bytes_saved", 0)) / wire_bytes
                if relay and wire_bytes
                else 0.0
            ),
        }
    )

    notes = {
        "window_s": window_s,
        "slices": len(slices),
        "whole_window_ev_s": delivered / window_s,
        "latency_samples": latency_samples,
        "latency_samples_beyond_p99_in_a_slice": beyond_p99,
        # also a per-layer metric; here so every untraced table shows it
        "ack_latency_p50_ms": ack_p50_ms,
        "ack_samples": len(acks),
        "notice_chunks": len(emitter.chunk_ns),
        "sensor_dropped": emitter.dropped,
        # also a per-layer metric; kept here so untraced A/A runs can
        # check that it repeats exactly
        "core.exs.batches": batches,
    }
    if paced:
        notes["generator_lag_p99_ms"] = percentile(sorted(paced["lag_ns"]), 0.99) / 1e6
        # validity of notice_ns/latency on this workload: how long the
        # producer waited for the benchmark's own ring lock
        notes["ring_lock_wait_p99_ms"] = (
            percentile(sorted(paced["lock_wait_ns"]), 0.99) / 1e6
        )
    return Repetition(verdict, end_to_end, layers, notes, mismatches, series)
