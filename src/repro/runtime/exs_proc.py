"""The external-sensor process.

One EXS per node: attaches the node's shared ring, connects to the ISM,
and loops — drain/batch/ship on the data path, answer ``TimeRequest`` and
apply ``Adjust`` on the control path.  The loop structure mirrors the
paper's EXS: a ``select`` wait bounded at 40 ms is both the idle sleep and
the control-message poll, which is exactly why the paper's worst-case
record latency bottoms out at the select timeout (benchmark E4).

The delivery guarantees the runtime adds — outbox, ack, resume and
retransmit, the ack deadline — are the
:class:`~repro.runtime.uplink.Uplink`'s; the ring stays the buffer behind
them (a full outbox stops the drain).  Pointing *host*/*port* at a relay
(:mod:`repro.runtime.relay_proc`) instead of the ISM needs no change.

``exs_process_main`` is the ``multiprocessing.Process`` target used by the
examples and the real-socket benchmarks; :class:`ExsProcess` is the same
loop as an object for in-process use (threads, tests).
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable

from repro.clocksync.clocks import CorrectedClock
from repro.core.exs import ExsConfig, ExternalSensor
from repro.runtime.shm import attach_shared_ring
from repro.runtime.uplink import ExsOutbox, Uplink
from repro.util.timebase import now_micros
from repro.wire import protocol
from repro.wire.tcp import MessageConnection, connect


class _ExsSender:
    """What an EXS does with its uplink: drain and ship, answer sync
    probes, install pushed filters, stop on ``Bye``, shut down cleanly.
    The runners below differ only in where connections come from.
    """

    def __init__(
        self,
        exs: ExternalSensor,
        uplink: Uplink,
        select_timeout_s: float,
        outbox: ExsOutbox,
        reporter=None,
    ) -> None:
        self.exs = exs
        self.uplink = uplink
        self.select_timeout_s = select_timeout_s
        #: In-flight batches, shared by every session the runner opens.
        self.outbox = outbox
        #: Optional MetricsReporter writing into this EXS's ring (ticked per loop).
        self.reporter = reporter
        self._stop = threading.Event()

    def stop(self) -> None:
        """Ask the loop to flush and exit."""
        self._stop.set()

    def _session(self) -> None:
        """One connection's life, until peer loss or stop (then shutdown)."""
        uplink = self.uplink
        exs_id = self.exs.exs_id
        reporter = self.reporter
        while not self._stop.is_set() and uplink.conn is not None:
            if reporter is not None:
                reporter.maybe_emit(now_micros())
            # Nothing ships before the source's resume.
            shipped = exs_id in uplink.ready and self._pump_data()
            # Idle or not, poll the control path; when idle this is also
            # the 40 ms select sleep.
            self._control(0.0 if shipped else self.select_timeout_s)
        if uplink.conn is not None:
            self._shutdown()

    def _pump_data(self) -> bool:
        if self.outbox.full:
            return False  # backpressure: records wait in the ring
        batches = self.exs.poll()
        if batches:
            self._ship(batches)
        return bool(batches)

    def _ship(self, payloads: list[bytes]) -> None:
        first_seq = self.exs.next_seq - len(payloads)
        self.uplink.send(
            [(self.exs.exs_id, first_seq + i, p) for i, p in enumerate(payloads)]
        )

    def _control(self, timeout_s: float) -> None:
        uplink = self.uplink
        exs = self.exs
        uplink.tick()
        for msg in uplink.receive(timeout_s):
            if isinstance(msg, protocol.TimeRequest):
                uplink.send_control(exs.on_time_request(msg))
            elif isinstance(msg, protocol.Adjust):
                exs.on_adjust(msg)
            elif isinstance(msg, protocol.SetFilter):
                exs.on_set_filter(msg)
            elif isinstance(msg, protocol.Bye):
                self._stop.set()
                break
        if uplink.resumed:
            uplink.resumed.clear()
            # Adopt the peer's watermark, so fresh batches are not taken
            # for retransmits of delivered ones after a restart.
            exs.resume_from(uplink.confirmed[exs.exs_id] + 1)

    def _shutdown(self) -> None:
        """Flush the ring, wait for the acks, then say Bye: a clean stop
        is loss-free end to end.  The flushed batches wait for the
        source's resume like any others; the reply timeout, then the ack
        deadline, bound the wait."""
        payloads = self.exs.flush()
        if payloads:
            self._ship(payloads)
        uplink = self.uplink
        exs_id = self.exs.exs_id
        while uplink.conn is not None and (
            exs_id not in uplink.ready
            or (uplink.ack_timeout_s is not None and self.outbox.unacked)
        ):
            self._control(self.select_timeout_s)
        uplink.close("exs stop")


class ExsProcess(_ExsSender):
    """Drive one external sensor over one live ISM connection.

    *outbox* holds batches until acked (fresh when not given).  *resume*
    waits for the ``HelloReply`` (at most *hello_reply_timeout_s*) before
    shipping; without it batches flow at once.  *ack_timeout_s* declares a
    peer that stopped acking hung, *heartbeat_interval_s* keeps an idle
    connection alive for the ISM's idle sweep (None disables either).
    *compress_min_bytes* compresses batches at or above it once the peer's
    reply advertised ``CAP_COMPRESS``.
    """

    def __init__(
        self,
        exs: ExternalSensor,
        conn: MessageConnection,
        select_timeout_s: float = 0.040,
        *,
        outbox: ExsOutbox | None = None,
        resume: bool = True,
        ack_timeout_s: float | None = 5.0,
        heartbeat_interval_s: float | None = 1.0,
        hello_reply_timeout_s: float = 2.0,
        compress_min_bytes: int | None = None,
        reporter=None,
    ) -> None:
        caps = protocol.CAP_STEERING  # compression bits only when asked for
        if compress_min_bytes is not None:
            caps |= protocol.CAP_COMPRESS | protocol.CAP_ACK_BUNDLE
        uplink = Uplink(
            caps,
            heartbeat_id=exs.exs_id,
            ack_timeout_s=ack_timeout_s,
            heartbeat_interval_s=heartbeat_interval_s,
            hello_reply_timeout_s=hello_reply_timeout_s if resume else 0.0,
            compress_min_bytes=compress_min_bytes,
        )
        outbox = outbox if outbox is not None else ExsOutbox()
        super().__init__(exs, uplink, select_timeout_s, outbox, reporter)
        self.conn = conn
        if reporter is not None and exs.metrics is not None:
            from repro.obs import collect

            collect.wire_outbox(exs.metrics, outbox)
            collect.wire_connection(exs.metrics, conn)

    def run(self) -> None:
        """The EXS main loop; returns after a stop request or peer close."""
        self.uplink.add_source(self.exs.hello(), self.outbox)
        self.uplink.open(self.conn)
        self._session()


class ReconnectingExs(_ExsSender):
    """Run an EXS with automatic reconnection and resumable delivery.

    While the ISM is unreachable the ring keeps what is written (until it
    fills and drops, counted) and the outbox what was drained but not
    acked.  Redials back off by decorrelated jitter from *jitter_rng*,
    between *backoff_s* and *max_backoff_s*; *max_attempts* consecutive
    failures (a session shorter than *backoff_s* is one) end :meth:`run`.
    """

    def __init__(
        self,
        exs: ExternalSensor,
        host: str,
        port: int,
        select_timeout_s: float = 0.040,
        max_attempts: int = 10,
        backoff_s: float = 0.2,
        max_backoff_s: float = 5.0,
        *,
        outbox_depth: int = 64,
        ack_timeout_s: float | None = 5.0,
        heartbeat_interval_s: float | None = 1.0,
        jitter_rng: random.Random | None = None,
    ) -> None:
        uplink = Uplink(
            protocol.CAP_STEERING,
            heartbeat_id=exs.exs_id,
            ack_timeout_s=ack_timeout_s,
            heartbeat_interval_s=heartbeat_interval_s,
            host=host,
            port=port,
            rng=jitter_rng if jitter_rng is not None else random.Random(),
            backoff_s=backoff_s,
            max_backoff_s=max_backoff_s,
            max_attempts=max_attempts,
        )
        # The outbox may be replaced until run() hands it to the uplink.
        super().__init__(exs, uplink, select_timeout_s, ExsOutbox(outbox_depth))
        self.connections = uplink.connections
        self.failed_attempts = uplink.failed_attempts

    def run(self) -> None:
        """Connect-run-reconnect until stopped or attempts exhausted."""
        uplink = self.uplink
        uplink.add_source(self.exs.hello(), self.outbox)
        while not self._stop.is_set() and not uplink.exhausted:
            if uplink.dial():
                self._session()
            else:
                self._stop.wait(uplink.dial_in())  # the backoff; stop() cuts it


def exs_process_main(
    ring_name: str,
    host: str,
    port: int,
    exs_id: int,
    node_id: int,
    stop_when_drained_records: int | None = None,
    config: ExsConfig = ExsConfig(),
    select_timeout_s: float = 0.040,
) -> None:
    """``multiprocessing.Process`` target: run an EXS until told to stop.

    When *stop_when_drained_records* is given, the loop exits after having
    shipped that many records (benchmark harness use); otherwise it runs
    until the ISM closes the connection.
    """
    shared = attach_shared_ring(ring_name)
    try:
        clock = CorrectedClock(now_micros)
        exs = ExternalSensor(exs_id, node_id, shared.ring, clock, config)
        proc = ExsProcess(exs, connect(host, port), select_timeout_s)
        target = stop_when_drained_records
        if target is not None:
            _stop_when(proc, lambda: exs.stats.records_shipped >= target)
        proc.run()
    finally:
        shared.close()


def resilient_exs_main(
    ring_name: str,
    host: str,
    port: int,
    exs_id: int,
    node_id: int,
    stop_when_acked_records: int | None = None,
    config: ExsConfig = ExsConfig(),
    select_timeout_s: float = 0.040,
    max_attempts: int = 1_000,
    backoff_s: float = 0.02,
    max_backoff_s: float = 0.5,
    outbox_depth: int = 64,
    ack_timeout_s: float = 2.0,
) -> None:
    """``multiprocessing.Process`` target with full delivery guarantees.

    Runs a :class:`ReconnectingExs` (outbox + resume + retransmit) and —
    when *stop_when_acked_records* is given — exits only once that many
    records have been shipped *and every in-flight batch is acked*, so a
    chaos harness can kill connections at will and still assert
    exactly-once delivery of the whole workload.
    """
    shared = attach_shared_ring(ring_name)
    try:
        clock = CorrectedClock(now_micros)
        exs = ExternalSensor(exs_id, node_id, shared.ring, clock, config)
        runner = ReconnectingExs(
            exs,
            host,
            port,
            select_timeout_s=select_timeout_s,
            max_attempts=max_attempts,
            backoff_s=backoff_s,
            max_backoff_s=max_backoff_s,
            outbox_depth=outbox_depth,
            ack_timeout_s=ack_timeout_s,
        )
        target = stop_when_acked_records
        if target is not None:
            _stop_when(
                runner,
                lambda: exs.stats.records_shipped >= target
                and not runner.outbox.unacked,
            )
        runner.run()
    finally:
        shared.close()


def _stop_when(runner: _ExsSender, done: Callable[[], bool]) -> None:
    """Stop *runner* from a watcher thread once *done* holds."""

    def watch() -> None:
        while not done():
            time.sleep(0.005)
        runner.stop()

    threading.Thread(target=watch, daemon=True).start()
