"""The connection plane: what a server tier does to a *connection*.

The paper's ISM is one process with one ``select`` loop over one FIFO per
EXS and one transfer protocol.  Three tiers here terminate that protocol
— :class:`~repro.runtime.ism_proc.IsmServer`,
:class:`~repro.runtime.ism_proc.ShardedIsmServer` and
:class:`~repro.runtime.relay_proc.RelayServer` — and they differ only in
what they do with a drained *batch*: decode and sort it, forward it to a
shard ring, or merge it and ship it upstream.  What they do to the
connection lives here, once: accept and the pending list, the one
``select`` with its dead-fd probe and backpressure exclude set, frame
draining with activity stamps and the idle sweep, Hello binding and the
``HelloReply``, per-cycle ack coalescing, the desired-filter store, the
idempotent drop with the ``wire.*`` gauges, the serve-loop bounds with
the Bye on stop, and the monitor attachment (DESIGN.md §5.11 lists where
the three former copies disagreed and what was kept).

Each source's capability bits are learnt from its Hello, held while it is
bound, and handed to :func:`~repro.wire.protocol.encode_for`, which
downgrades acks and filters for them; the plane tests no bit itself.

The owner enters the plane once per select cycle (:meth:`pump`) and once
per control event; the per-frame and per-record loops stay in the owner.
Time is read only through :mod:`repro.util.timebase`.
"""

from __future__ import annotations

import select
import threading
from typing import Any, Collection, Iterator, Sequence

from repro.core.filtering import FilterSpec
from repro.monitor.engine import Actuator, MonitorEngine
from repro.monitor.spec import MonitorSpec
from repro.obs.metrics import Counter, MetricsRegistry
from repro.util.timebase import monotonic_s, now_micros
from repro.wire import protocol
from repro.wire.tcp import ConnectionClosed, MessageConnection, MessageListener
from repro.xdr import XdrDecodeError

#: Capability bits every tier honors on its receive side, advertised in
#: ``HelloReply`` — but only toward peers whose own Hello carried
#: capability bits (legacy peers keep byte-identical replies) — and by
#: the relay in the Hellos it forwards upstream.
PLANE_CAPS = (
    protocol.CAP_COMPRESS
    | protocol.CAP_ACK_BUNDLE
    | protocol.CAP_SEQ_RANGE
    | protocol.CAP_STEERING
)


class ConnectionPlane:
    """Connection state and control traffic shared by the server tiers.

    *ack_batches* off reproduces the seed's fire-and-forget transport.
    The plane holds no reference back to its owner (no hooks): dropping
    the last reference to a server frees it, and with it the sockets, at
    once.  What an owner keys on a connection goes in :attr:`conn_data`.
    """

    def __init__(
        self,
        listener: MessageListener,
        *,
        ack_batches: bool = True,
        idle_deadline_s: float | None = None,
    ) -> None:
        if idle_deadline_s is not None and idle_deadline_s <= 0:
            raise ValueError("idle_deadline_s must be positive or None")
        self.listener = listener
        self.ack_batches = ack_batches
        #: Drop a connection whose peer has been silent this long
        #: (heartbeats count as activity).  None disables the sweep.
        self.idle_deadline_s = idle_deadline_s
        #: Source (EXS) id → the connection its latest Hello arrived on.
        self.connections: dict[int, MessageConnection] = {}
        #: Sources that spoke a Hello on each connection.  Usually one,
        #: but a relay multiplexes every sensor it fronts over one socket.
        self._conn_sources: dict[MessageConnection, set[int]] = {}
        #: Capability bits each bound source's Hello advertised.
        self._peer_caps: dict[int, int] = {}
        #: Sources whose latest Hello advertised ``wants_ack`` — the only
        #: peers ever written to outside the clock-sync path.  A
        #: fire-and-forget sender that never reads must never be written
        #: to: once it closes, our write draws an RST that can discard
        #: its still-buffered batches in our own receive queue.
        self._ack_enabled: set[int] = set()
        #: One owner-defined datum per connection (the ISM's decode node
        #: hint, the dispatcher's pinned shard), forgotten on drop.
        self.conn_data: dict[MessageConnection, Any] = {}
        #: monotonic seconds of each connection's last inbound traffic.
        self._last_activity: dict[MessageConnection, float] = {}
        #: Accepted connections whose Hello has not been read yet.
        self._pending: list[MessageConnection] = []
        #: Steering state of record: the last ``SetFilter`` per source,
        #: re-applied whenever that source (re)connects — a spec set
        #: while a source is down or mid-reconnect is never lost, and the
        #: epoch makes the re-apply idempotent at the EXS.
        self._desired_filters: dict[int, protocol.SetFilter] = {}
        self._filter_epoch = 0
        #: Highest ack staged per source this cycle (see :meth:`flush_acks`).
        self._cycle_acks: dict[int, int] = {}
        #: Attached monitor engine, ticked by :meth:`next_cycle`.
        self.monitor: MonitorEngine | None = None
        self._stop = threading.Event()
        self._accepted = 0
        self._deadline: float | None = None
        self._until_records: int | None = None
        self._expected: int | None = None
        #: Connections that closed (normally or not) since start.
        self.closed_connections = Counter("wire.closed_connections")
        #: Connections dropped by the idle-deadline sweep.
        self.idle_drops = Counter("ism.idle_drops")
        # Wire traffic of connections already closed (live connections
        # are summed at snapshot time; these keep the totals monotonic).
        self._closed_bytes = 0
        self._closed_frames = 0

    # ------------------------------------------------------------------
    # serve-loop conditions
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Ask the owner's serve loop to exit after the current cycle."""
        self._stop.set()

    def arm(
        self,
        duration_s: float | None = None,
        until_records: int | None = None,
        expected_connections: int | None = None,
    ) -> None:
        """Set the bounds :meth:`next_cycle` enforces for one ``serve``."""
        self._deadline = (
            None if duration_s is None else monotonic_s() + duration_s
        )
        self._until_records = until_records
        self._expected = (
            None
            if expected_connections is None
            else self._accepted + expected_connections
        )

    def next_cycle(self, records_received: int = 0) -> bool:
        """Tick the monitor, then say whether another cycle should run:
        not after :meth:`stop`, past the deadline, once *records_received*
        meets the record bound, or once every expected connection has come
        and gone (accepted ones whose Hello is still unread have come)."""
        if self.monitor is not None:
            self.monitor.tick(now_micros())
        if self._stop.is_set():
            return False
        if self._deadline is not None and monotonic_s() >= self._deadline:
            return False
        if (
            self._until_records is not None
            and records_received >= self._until_records
        ):
            return False
        return not (
            self._expected is not None
            and self._accepted >= self._expected
            and not self.connections
            and not self._pending
        )

    def bye(self, reason: str) -> None:
        """Tell every bound peer to stop — only after an explicit
        :meth:`stop`; a duration/record bound may just be a phase
        boundary, with ``serve`` called again."""
        if not self._stop.is_set():
            return
        for conn in dict.fromkeys(self.connections.values()):
            try:
                conn.send(protocol.Bye(reason=reason))
            except OSError:
                pass  # peer already gone; the next pump sweeps it

    # ------------------------------------------------------------------
    # the pump: accept, select, drain
    # ------------------------------------------------------------------
    def live(self) -> list[MessageConnection]:
        """Every open connection, pending ones first.  Deduped by
        identity: a relay connection is bound once per source it fronts,
        and a duplicate entry would make the drain call recv on an
        already-drained socket — which blocks the whole loop."""
        return self._pending + list(dict.fromkeys(self.connections.values()))

    def sources_on(self, conn: MessageConnection) -> set[int]:
        """Sources bound on *conn* (empty once it has been dropped)."""
        return self._conn_sources.get(conn, set())

    def pump(
        self,
        timeout_s: float,
        exclude: Collection[MessageConnection] = (),
        extra: Sequence[MessageConnection] = (),
    ) -> Iterator[tuple[MessageConnection, list[bytes]]]:
        """One select cycle; yields ``(conn, payloads)`` per readable
        connection, in readiness order.

        The listener shares the ``select``, so a new peer interrupts the
        wait instead of queueing behind it.  Connections in *exclude* are
        left out (read backpressure: the kernel buffer, and ultimately
        the sender's outbox, absorbs the burst) and exempt from the idle
        sweep — their silence is the owner's doing.  *extra* sockets (the
        relay's upstream) ride the same ``select`` but are the owner's to
        read: they are yielded with no payloads.  A connection that
        closed is dropped when the generator resumes, i.e. after the
        owner handled the frames that preceded the EOF.
        """
        conns = [c for c in self.live() if c not in exclude]
        ready: list[Any]
        try:
            ready, _, _ = select.select(
                [self.listener, *conns, *extra], [], [], timeout_s
            )
        except (OSError, ValueError):
            # One bad fd poisons the whole batched select.  Probe each
            # socket individually and evict the broken ones now — waiting
            # for a lucky sweep would starve every healthy connection for
            # as long as the bad fd sticks around.
            ready = self._probe(conns, extra)
        if self.listener in ready:
            # The newcomers' Hellos are read by the next cycle's select,
            # which their buffered bytes make return at once.
            ready.remove(self.listener)
            self._accept_ready()
        mono_now = monotonic_s()
        for sock in ready:
            if sock in extra:
                yield sock, []
                continue
            payloads: list[bytes] = []
            closed = False
            try:
                payloads = sock.recv_frames(timeout=0.0, assume_ready=True)
            except (ConnectionClosed, OSError, XdrDecodeError):
                # OSError covers resets and EBADF: a connection dropped
                # earlier in this cycle may still sit in the ready list.
                closed = True
            if payloads:
                self._last_activity[sock] = mono_now
            yield sock, payloads
            if closed:
                self.drop(sock)
        self._sweep_idle(mono_now, exclude)

    def touch(self, conn: MessageConnection) -> None:
        """Count traffic the owner read around the pump (messages a
        blocking clock-sync probe decoded) as activity."""
        if conn in self._last_activity:
            self._last_activity[conn] = monotonic_s()

    def _accept_ready(self) -> None:
        while True:
            conn = self.listener.accept(timeout=0.0)
            if conn is None:
                return
            # Source id unknown until its Hello arrives.
            self._pending.append(conn)
            self._last_activity[conn] = monotonic_s()
            self._accepted += 1

    def _probe(
        self,
        conns: list[MessageConnection],
        extra: Sequence[MessageConnection],
    ) -> list[Any]:
        """Per-socket 0-timeout probes; evict connections whose fd is
        broken.  A broken *extra* socket is reported readable so its
        owner's read fails and takes its own loss path; a broken listener
        is skipped (the serve bounds end the loop)."""
        ready: list[Any] = []
        for sock in (self.listener, *conns, *extra):
            try:
                r, _, _ = select.select([sock], [], [], 0.0)
            except (OSError, ValueError):
                if sock in extra:
                    ready.append(sock)
                elif sock is not self.listener:
                    self.drop(sock)
            else:
                ready.extend(r)
        return ready

    def _sweep_idle(
        self, mono_now: float, exclude: Collection[MessageConnection]
    ) -> None:
        """Drop connections silent past the idle deadline (hung peers,
        and peers that never said Hello)."""
        if self.idle_deadline_s is None:
            return
        stale = [
            conn
            for conn, last in self._last_activity.items()
            if mono_now - last > self.idle_deadline_s and conn not in exclude
        ]
        for conn in stale:
            self.idle_drops += 1
            self.drop(conn)

    # ------------------------------------------------------------------
    # binding and teardown
    # ------------------------------------------------------------------
    def bind(
        self,
        conn: MessageConnection,
        hello: protocol.Hello,
        resume_seq: int | None = None,
    ) -> bool:
        """Bind *hello*'s source to *conn*; False if the connection did
        not survive the handshake.

        An owner that knows the resume point now passes *resume_seq* and
        the ``HelloReply`` goes out here; one that must ask a shard or
        the upstream first calls :meth:`hello_reply` later.  Either way
        the stored filter is re-applied: one pushed while the source was
        down (or lost to a crash) lands with the handshake, and its epoch
        makes a duplicate apply a no-op at the EXS.
        """
        exs_id = hello.exs_id
        if conn in self._pending:
            self._pending.remove(conn)
        stale = self.connections.get(exs_id)
        if stale is not None and stale is not conn:
            # Reconnect raced the EOF of the old socket: retire the stale
            # connection *before* binding the new one, so the drop cannot
            # evict the fresh binding.
            self.drop(stale)
        self.connections[exs_id] = conn
        self._conn_sources.setdefault(conn, set()).add(exs_id)
        self._last_activity.setdefault(conn, monotonic_s())
        self._peer_caps[exs_id] = hello.capabilities
        if self.ack_batches and hello.wants_ack:
            self._ack_enabled.add(exs_id)
        else:
            self._ack_enabled.discard(exs_id)
        if resume_seq is not None:
            self.hello_reply(exs_id, resume_seq)
        desired = self._desired_filters.get(exs_id)
        if desired is not None:
            self._send_filter(exs_id, desired)
        return self.connections.get(exs_id) is conn

    def hello_reply(self, exs_id: int, last_seq: int) -> bool:
        """Answer a source's resume handshake: where this tier's history
        of it ends (-1 = no state, the whole outbox is unconfirmed).
        Sent only to sources that consume acks; True when it went out."""
        conn = self.connections.get(exs_id)
        if conn is None or exs_id not in self._ack_enabled:
            return False
        reply = protocol.HelloReply(
            exs_id=exs_id,
            last_seq=last_seq,
            capabilities=PLANE_CAPS if self._peer_caps.get(exs_id) else 0,
        )
        try:
            conn.send(reply)
        except OSError:
            self.drop(conn)
            return False
        return True

    def drop(self, conn: MessageConnection) -> None:
        """Unbind and close *conn*.

        Idempotent by membership, not a tombstone set: a connection with
        no activity stamp (every open one has one, from accept or bind)
        was already dropped (e.g. Bye routed, then EOF seen in the same
        cycle).
        """
        if self._last_activity.pop(conn, None) is None:
            return
        self.conn_data.pop(conn, None)
        sources = self._conn_sources.pop(conn, set())
        for exs_id in sources:
            # Only evict a source→conn binding that still points at
            # *this* connection: after a reconnect the id maps to the new
            # socket, and reaping the stale socket must not tear the live
            # one out of the ack set.
            if self.connections.get(exs_id) is conn:
                del self.connections[exs_id]
                del self._peer_caps[exs_id]
                self._ack_enabled.discard(exs_id)
        if conn in self._pending:
            self._pending.remove(conn)
        self.closed_connections += 1
        self._closed_bytes += conn.bytes_received
        self._closed_frames += conn.frames_received
        conn.close()

    def close(self) -> None:
        """Drop every connection (the listener stays the owner's)."""
        for conn in self.live():
            self.drop(conn)

    # ------------------------------------------------------------------
    # acks
    # ------------------------------------------------------------------
    def acks_enabled(self, exs_id: int) -> bool:
        """Whether *exs_id*'s latest Hello asked for acks (and the tier
        sends them at all)."""
        return exs_id in self._ack_enabled

    def queue_ack(self, exs_id: int, up_to_seq: int) -> None:
        """Stage a cumulative ack for the cycle's :meth:`flush_acks`
        (highest wins; sources that do not consume acks are skipped)."""
        if exs_id not in self._ack_enabled:
            return
        if up_to_seq > self._cycle_acks.get(exs_id, -1):
            self._cycle_acks[exs_id] = up_to_seq

    def flush_acks(self) -> tuple[int, list[tuple[int, int]]]:
        """Send the cycle's staged acks in one write per connection: an
        ``AckBundle`` toward a multiplexing peer, written for the bits
        every source on the connection advertised (so per-source ``Ack``
        frames unless all of them can read a bundle).  Acks ride once per
        cycle, not per batch, so the acked path adds O(cycles) sends.
        Returns the ``(frames, pairs)`` that reached the wire, so the
        owner's counters and quoted watermarks stay exact.
        """
        if not self._cycle_acks:
            return 0, []
        staged, self._cycle_acks = self._cycle_acks, {}
        per_conn: dict[MessageConnection, list[tuple[int, int]]] = {}
        for exs_id, seq in sorted(staged.items()):
            conn = self.connections.get(exs_id)
            if conn is None:
                continue  # source vanished before its ack; resume covers it
            per_conn.setdefault(conn, []).append((exs_id, seq))
        frames = 0
        sent: list[tuple[int, int]] = []
        for conn, pairs in per_conn.items():
            caps = ~0
            for exs_id, _ in pairs:
                caps &= self._peer_caps[exs_id]
            msg: protocol.ControlMessage = (
                protocol.AckBundle(acks=tuple(pairs))
                if len(pairs) > 1
                else protocol.Ack(*pairs[0])
            )
            acks = protocol.encode_for(caps, msg)
            try:
                conn.send_many(acks)
            except OSError:
                self.drop(conn)
                continue
            frames += len(acks)
            sent.extend(pairs)
        return frames, sent

    # ------------------------------------------------------------------
    # steering
    # ------------------------------------------------------------------
    def set_filter(self, exs_id: int, spec: FilterSpec) -> bool:
        """Push a :class:`~repro.core.filtering.FilterSpec` down to one
        source (§2: the user says what to monitor; the EXS drops the rest
        before transfer), stamped with this tier's monotone epoch.  False
        = not sendable *right now*; it lands with the source's next Hello.
        """
        self._filter_epoch += 1
        return self.hold_filter(
            exs_id,
            protocol.SetFilter.from_spec(
                spec, epoch=self._filter_epoch, target_exs_id=exs_id
            ),
        )

    def hold_filter(self, exs_id: int, msg: protocol.SetFilter) -> bool:
        """Record *msg* unchanged as *exs_id*'s desired filter and try to
        send it (the relay's path: the upstream's epoch rides through)."""
        self._desired_filters[exs_id] = msg
        return self._send_filter(exs_id, msg)

    def _send_filter(self, exs_id: int, msg: protocol.SetFilter) -> bool:
        """Put one SetFilter on the wire, written for the source's bits."""
        conn = self.connections.get(exs_id)
        if conn is None:
            return False
        try:
            conn.send_many(protocol.encode_for(self._peer_caps[exs_id], msg))
        except OSError:
            self.drop(conn)
            return False
        return True

    # ------------------------------------------------------------------
    # monitor and metrics
    # ------------------------------------------------------------------
    def attach_monitor(
        self, spec: MonitorSpec, actuator: Actuator, consumers: list[Any]
    ) -> MonitorEngine:
        """Attach a monitor engine evaluating *spec*: it joins *consumers*
        (so it sees exactly what every tool sees), is ticked once per
        cycle, and actuates through *actuator* — the owner."""
        engine = MonitorEngine(spec, actuator=actuator)
        consumers.append(engine)
        self.monitor = engine
        return engine

    def wire_metrics(self, registry: MetricsRegistry) -> None:
        """Register the plane's counters and the ``wire.*`` gauges."""
        registry.adopt_counter(self.closed_connections)
        registry.adopt_counter(self.idle_drops)
        registry.gauge_fn("wire.connections", lambda: len(self.connections))
        registry.gauge_fn(
            "wire.pending_connections", lambda: len(self._pending)
        )
        registry.gauge_fn(
            "wire.bytes_received",
            lambda: self._closed_bytes
            + sum(c.bytes_received for c in self.live()),
        )
        registry.gauge_fn(
            "wire.frames_received",
            lambda: self._closed_frames
            + sum(c.frames_received for c in self.live()),
        )
