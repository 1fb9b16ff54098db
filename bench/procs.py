"""Child processes of a benchmark run: ``lis`` (EXS side), ``relay``, ``ism``.

Each is a ``multiprocessing`` spawn target taking a plain-dict spec and
one end of a duplex pipe.  The conversation is the same for all three::

    child  -> ("ready", port-or-None)     set-up finished
    parent -> ("connect", port)           lis only, before "ready"
    parent -> "go"                        the timed window opens
    parent -> "stop"                      relay only: flush and say Bye
    parent -> "abort"                     give up (failure path)
    child  -> ("done", stats-dict)        the child's part is over

The children host the program's own servers unmodified; the only
benchmark code on the data path is :class:`TimedOutbox` (two clock reads
per *batch*) and :class:`TerminalConsumer` (one clock read per delivered
*chunk* plus the ``(source, seq)`` capture the oracle needs).
"""

from __future__ import annotations

import os
import resource
import threading
import time
from array import array
from typing import Any, Sequence

from repro.clocksync.clocks import CorrectedClock
from repro.core.consumers import LogConsumer
from repro.core.exs import ExsConfig, ExternalSensor
from repro.core.ism import InstrumentationManager, IsmConfig
from repro.log import CommitLog, LogConfig
from repro.runtime.exs_proc import ExsOutbox, ExsProcess, ReconnectingExs
from repro.runtime.ism_proc import IsmServer
from repro.runtime.relay_proc import RelayConfig, RelayServer
from repro.runtime.shm import attach_shared_ring
from repro.util.timebase import now_micros
from repro.wire.tcp import MessageListener, connect

HOST = "127.0.0.1"
#: How many delivered records the terminal consumer keeps whole for the
#: payload-integrity spot check.
PAYLOAD_SAMPLE = 512
#: Seconds between two CPU samples a child takes of itself while the
#: timed window is open; the driver cuts the window into longer slices
#: and interpolates (see ``harness._judge``).
SAMPLE_S = 0.050


def cpu_sample() -> tuple[int, int]:
    """``(monotonic ns, CPU ns this process — all threads — has used)``."""
    return time.monotonic_ns(), time.process_time_ns()


def peak_rss_mb() -> float:
    """This process's high-water resident set.

    Read from ``/proc`` rather than ``ru_maxrss``: the latter survives
    ``exec``, so a spawned child would report the (much larger) driver's
    footprint at spawn time as its own peak.
    """
    with open("/proc/self/status", "rb") as stream:
        for line in stream:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _arm_watchdog(seconds: float) -> None:
    """Hard per-child timeout: a wedged child kills itself."""
    timer = threading.Timer(seconds, os._exit, args=(70,))
    timer.daemon = True
    timer.start()


class _Control(threading.Thread):
    """A server child's side of the conversation after "ready".

    Waits for the parent's verbs and, once the window is open, samples
    this process's CPU every :data:`SAMPLE_S` (and calls *on_tick*, the
    ISM's occupancy probe) until told to stop.
    """

    def __init__(self, pipe, on_stop, on_tick=None) -> None:
        super().__init__(daemon=True)
        self.pipe = pipe
        self.on_stop = on_stop
        self.on_tick = on_tick
        #: ``(monotonic ns, process CPU ns)``, the first taken at "go".
        self.cpu_samples: list[tuple[int, int]] = []
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.is_set():
            try:
                verb = self.pipe.recv() if self.pipe.poll(SAMPLE_S) else None
            except (EOFError, OSError):
                verb = "abort"  # parent died: nobody is left to report to
            if verb == "go" or (verb is None and self.cpu_samples):
                self.cpu_samples.append(cpu_sample())
                if self.on_tick is not None:
                    self.on_tick()
            elif verb is not None:
                self.on_stop()
                return

    def finish(self) -> list[tuple[int, int]]:
        """Stop sampling; the series, closed by one last sample."""
        self.done.set()
        self.join(timeout=2.0)
        return self.cpu_samples + [cpu_sample()]


# ----------------------------------------------------------------------
# lis: the EXS side
# ----------------------------------------------------------------------
class TimedOutbox(ExsOutbox):
    """An outbox that also records append→ack time per batch."""

    def __init__(self, depth: int = 64) -> None:
        super().__init__(depth)
        self._sent: list[tuple[int, int]] = []
        self._next = 0
        #: ns between a batch's append and the ack that released it.
        self.ack_latency_ns = array("q")
        self.peak_unacked = 0

    def append(self, seq: int, payload: bytes) -> None:
        super().append(seq, payload)
        self._sent.append((seq, time.monotonic_ns()))
        if len(self) > self.peak_unacked:
            self.peak_unacked = len(self)

    def ack(self, up_to_seq: int) -> int:
        now = time.monotonic_ns()
        sent, i = self._sent, self._next
        while i < len(sent) and sent[i][0] <= up_to_seq:
            self.ack_latency_ns.append(now - sent[i][1])
            i += 1
        self._next = i
        return super().ack(up_to_seq)


def _serialise_drain(ring, lock) -> None:
    """Make *ring*'s drains take *lock* (see ``run_repetition``)."""
    inner = ring.drain_bytes

    def drain_bytes(limit=None):
        with lock:
            return inner(limit)

    ring.drain_bytes = drain_bytes


def lis_main(spec: dict[str, Any], pipe) -> None:
    """Host one ExternalSensor + ExsProcess/ReconnectingExs per ring."""
    _arm_watchdog(spec["hard_timeout_s"])
    rings = [attach_shared_ring(name) for name in spec["rings"]]
    conns = []
    try:
        if spec["ring_lock"] is not None:
            for shared in rings:
                _serialise_drain(shared.ring, spec["ring_lock"])
        sensors = []
        for shared, src in zip(rings, spec["sources"]):
            clock = CorrectedClock(now_micros)
            if src["clock_offset_us"]:
                clock.advance(src["clock_offset_us"])
            sensors.append(
                ExternalSensor(
                    src["exs_id"],
                    src["node_id"],
                    shared.ring,
                    clock,
                    ExsConfig(flush_timeout_us=spec["flush_timeout_us"]),
                )
            )
        _, port = pipe.recv()
        runners: list[ExsProcess | ReconnectingExs] = []
        for exs in sensors:
            if spec["exs"] == "reconnecting":
                runner = ReconnectingExs(
                    exs, HOST, port, select_timeout_s=spec["select_timeout_s"]
                )
                runner.outbox = TimedOutbox(runner.outbox.depth)
            else:
                conn = connect(HOST, port)
                conns.append(conn)
                runner = ExsProcess(
                    exs, conn, spec["select_timeout_s"], outbox=TimedOutbox()
                )
            runners.append(runner)
        pipe.send(("ready", None))
        if pipe.recv() != "go":
            return
        cpu_samples = [cpu_sample()]
        threads = [threading.Thread(target=r.run, daemon=True) for r in runners]
        for t in threads:
            t.start()
        targets = [src["target"] for src in spec["sources"]]
        deadline = time.monotonic() + spec["run_timeout_s"]
        next_sample = time.monotonic() + SAMPLE_S
        # Done = every record shipped and every batch acked.  A source
        # that can never get there (ring drop, dead EXS thread) runs into
        # the deadline instead, and the oracle counts what is missing.
        while time.monotonic() < deadline and any(t.is_alive() for t in threads):
            if all(
                exs.stats.records_shipped >= target and r.outbox.unacked == 0
                for exs, r, target in zip(sensors, runners, targets)
            ):
                break
            time.sleep(0.010)
            if time.monotonic() >= next_sample:
                cpu_samples.append(cpu_sample())
                next_sample += SAMPLE_S
        cpu_samples.append(cpu_sample())
        for r in runners:
            r.stop()
        for t in threads:
            t.join(timeout=10.0)
        stats = {
            "cpu_samples": cpu_samples,
            "rss_mb": peak_rss_mb(),
            "ack_latency_ns": array("q"),
            "outbox_peak_unacked": max(r.outbox.peak_unacked for r in runners),
            "acks_received": sum(len(r.outbox.ack_latency_ns) for r in runners),
            "reconnects": sum(
                int(r.connections) - 1
                for r in runners
                if isinstance(r, ReconnectingExs)
            ),
            "ring_dropped": sum(shared.ring.dropped for shared in rings),
        }
        for r in runners:
            stats["ack_latency_ns"].extend(r.outbox.ack_latency_ns)
        for field in ("records_shipped", "batches_shipped", "timeout_flushes"):
            stats[field] = sum(getattr(exs.stats, field) for exs in sensors)
        pipe.send(("done", stats))
    finally:
        for conn in conns:
            conn.close()
        for shared in rings:
            shared.close()


# ----------------------------------------------------------------------
# relay
# ----------------------------------------------------------------------
def relay_main(spec: dict[str, Any], pipe) -> None:
    """Host one RelayServer between the lis and the ISM."""
    _arm_watchdog(spec["hard_timeout_s"])
    _, upstream_port = pipe.recv()
    server = RelayServer(
        RelayConfig(
            upstream_host=HOST,
            upstream_port=upstream_port,
            compress_min_bytes=spec["compress_min_bytes"],
        )
    )
    control = _Control(pipe, server.stop)
    pipe.send(("ready", server.address[1]))
    control.start()
    server.serve()
    pipe.send(
        (
            "done",
            {
                "cpu_samples": control.finish(),
                "rss_mb": peak_rss_mb(),
                "counters": server.stats_dump()["counters"],
            },
        )
    )


# ----------------------------------------------------------------------
# ism
# ----------------------------------------------------------------------
class TerminalConsumer:
    """The benchmark's sink: when each chunk arrived, and what was in it.

    Per delivered chunk one monotonic clock read; per record its source
    (node id), sequence number and — for schemas that carry one — due
    time.  The last :data:`PAYLOAD_SAMPLE` records are kept whole so the
    parent can compare full payloads against the generator's.
    """

    def __init__(self, with_due: bool) -> None:
        self.with_due = with_due
        self.chunk_ns = array("q")
        self.chunk_len = array("q")
        self.nodes = array("q")
        self.seqs = array("q")
        self.dues = array("q")
        self._tail: Sequence = ()

    def deliver(self, record) -> None:
        self.deliver_many((record,))

    def deliver_many(self, records: Sequence) -> None:
        self.chunk_ns.append(time.monotonic_ns())
        self.chunk_len.append(len(records))
        self.nodes.extend([r.node_id for r in records])
        self.seqs.extend([r.values[0] for r in records])
        if self.with_due:
            self.dues.extend([r.values[1] for r in records])
        self._tail = records

    def close(self) -> None:
        """Nothing to release."""

    def payload_sample(self) -> list[tuple[int, tuple]]:
        return [(r.node_id, tuple(r.values)) for r in self._tail[-PAYLOAD_SAMPLE:]]


class TimedLogSink(LogConsumer):
    """A LogConsumer that notes when its last durability barrier ended."""

    def __init__(self, log) -> None:
        super().__init__(log, close_log=True)
        self.last_sync_ns = 0

    def sync(self, sources=None) -> int:
        end = super().sync(sources)
        self.last_sync_ns = time.monotonic_ns()
        return end


class _Peaks:
    """Sorter/CRE occupancy high-water marks, probed at every control
    tick (the program keeps current values only, and a peak is what
    bounds ISM memory)."""

    def __init__(self, manager: InstrumentationManager) -> None:
        self.manager = manager
        self.held = 0
        self.parked = 0

    def probe(self) -> None:
        self.held = max(self.held, self.manager.sorter.held)
        self.parked = max(self.parked, self.manager.cre.parked_now)


def ism_main(spec: dict[str, Any], pipe) -> None:
    """Host an IsmServer feeding a TerminalConsumer (and, in durable
    mode, a commit log that gates the acks)."""
    _arm_watchdog(spec["hard_timeout_s"])
    listener = MessageListener(HOST, 0)
    consumer = TerminalConsumer(spec["with_due"])
    sink = None
    if spec["log_dir"]:
        sink = TimedLogSink(CommitLog(spec["log_dir"], LogConfig(fsync="batch")))
    # The log goes first so a chunk's arrival time is read after its
    # append (and, under fsync="batch", its fsync) returned.
    manager = InstrumentationManager(IsmConfig(), ([sink] if sink else []) + [consumer])
    server = IsmServer(manager, listener, sync_config=None, durable_sink=sink)
    peaks = _Peaks(manager)
    control = _Control(pipe, server.stop, peaks.probe)
    try:
        pipe.send(("ready", listener.address[1]))
        control.start()
        server.serve(expected_connections=spec["expected_connections"])
        cre = manager.cre.stats
        stats: dict[str, Any] = {
            "cpu_samples": control.finish(),
            "scalars": dict(server.metrics_snapshot().scalars()),
            "peak_held": peaks.held,
            "peak_parked": peaks.parked,
            # consequences whose reasons were already on the table
            "cre_matches": cre.consequences_seen - cre.parked,
        }
        manager.close()
        if sink is not None:
            log = sink.log
            stats["log"] = {
                "syncs": int(log.fsyncs),
                "segments": log.segment_count,
                "bytes": int(log.bytes_appended),
                "records": int(log.records_appended),
                "last_sync_ns": sink.last_sync_ns,
            }
        stats["rss_mb"] = peak_rss_mb()
        stats["consumer"] = {
            "chunk_ns": consumer.chunk_ns,
            "chunk_len": consumer.chunk_len,
            "nodes": consumer.nodes,
            "seqs": consumer.seqs,
            "dues": consumer.dues,
            "payload_sample": consumer.payload_sample(),
        }
        pipe.send(("done", stats))
    finally:
        listener.close()
