"""The uplink: what a sending tier does to its *upstream connection*.

The EXS (:mod:`repro.runtime.exs_proc`) and the relay
(:mod:`repro.runtime.relay_proc`, many sources over one connection) both
open the transfer protocol's stream toward the ISM and differ only in what
they do with a batch or a control message.  What is done to the
connection lives here, once (DESIGN.md §5.12).  Like the server side's
:class:`~repro.runtime.plane.ConnectionPlane`, the uplink holds no
reference back to its owner, reads time only through
:mod:`repro.util.timebase`, and hands the messages it does not own back
through a generator the owner iterates in its own loop
(:meth:`Uplink.receive`); what the owner must react to among the rest is
left in :attr:`Uplink.resumed` and :attr:`Uplink.advanced`.

The peer's capability bits are learnt from its ``HelloReply``
(:attr:`Uplink.peer_caps`) and handed to the protocol writers, which
downgrade for them; the uplink tests no bit itself.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import replace
from typing import Callable, Iterator, Sequence

from repro.obs.metrics import Counter
from repro.util.timebase import monotonic_s
from repro.wire import protocol
from repro.wire.tcp import MessageConnection, connect
from repro.xdr import XdrDecodeError

#: One connect attempt's bound: short, because the relay dials from inside
#: its serve loop; an unreachable peer is retried under the backoff.
CONNECT_TIMEOUT_S = 0.5


class ExsOutbox:
    """Bounded window of encoded-but-unacknowledged batches.

    Entries are ``(seq, payload)`` in strictly increasing seq order; acks
    are cumulative, so :meth:`ack` pops a prefix.  The outbox outlives any
    one connection: what is left in it is retransmitted on the next.
    ``depth`` is a soft bound — the owner stops draining its input once
    the outbox is full, so one poll may overshoot it.
    """

    def __init__(self, depth: int = 64) -> None:
        if depth < 1:
            raise ValueError("outbox depth must be >= 1")
        self.depth = depth
        self._entries: deque[tuple[int, bytes]] = deque()
        #: Batches released by acks since start (int-like counter).
        self.acked_batches = Counter("outbox.acked_batches")
        #: Payloads re-sent by resume retransmission (int-like counter).
        self.retransmitted_batches = Counter("outbox.retransmitted_batches")

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def unacked(self) -> int:
        """Batches currently in flight (sent, not yet acked)."""
        return len(self._entries)

    @property
    def full(self) -> bool:
        """Whether the owner should stop draining its input."""
        return len(self._entries) >= self.depth

    def append(self, seq: int, payload: bytes) -> None:
        """Park one just-sent batch until an ack covers it."""
        if self._entries and seq <= self._entries[-1][0]:
            raise ValueError(
                f"outbox seqs must increase: {seq} after {self._entries[-1][0]}"
            )
        self._entries.append((seq, payload))

    def ack(self, up_to_seq: int) -> int:
        """Release every entry with ``seq <= up_to_seq``; returns count."""
        released = 0
        entries = self._entries
        while entries and entries[0][0] <= up_to_seq:
            entries.popleft()
            released += 1
        self.acked_batches += released
        return released

    def pending_payloads(self) -> list[bytes]:
        """Unacked payloads in seq order (the retransmission set)."""
        return [payload for _, payload in self._entries]

    def pending_seqs(self) -> list[int]:
        """Unacked batch sequence numbers, in order."""
        return [seq for seq, _ in self._entries]


class Uplink:
    """One resumable, acked upstream connection for one or more sources.

    Every ``Hello`` advertises *caps*; idle heartbeats carry
    *heartbeat_id*.  Frames in flight with no ack progress for
    *ack_timeout_s* mean a hung peer; a source whose ``HelloReply`` has not
    come within *hello_reply_timeout_s* (0 = do not wait) is resumed as
    toward a legacy peer; *compress_min_bytes* opts into compression,
    which :func:`~repro.wire.protocol.compress_frame` applies only once a
    reply advertised it.  With a *host* the uplink also dials:
    delays drawn from *rng* in ``[backoff_s, 3 × previous]``, capped at
    *max_backoff_s* (decorrelated jitter: peers orphaned together do not
    come back in lockstep), until *max_attempts* consecutive failures.
    """

    def __init__(
        self,
        caps: int,
        *,
        heartbeat_id: int = 0,
        ack_timeout_s: float | None = 5.0,
        heartbeat_interval_s: float | None = 1.0,
        hello_reply_timeout_s: float = 2.0,
        compress_min_bytes: int | None = None,
        host: str | None = None,
        port: int = 0,
        rng: random.Random | None = None,
        backoff_s: float = 0.2,
        max_backoff_s: float = 5.0,
        max_attempts: int | None = None,
    ) -> None:
        if ack_timeout_s is not None and ack_timeout_s <= 0:
            raise ValueError("ack_timeout_s must be positive or None")
        if heartbeat_interval_s is not None and heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive or None")
        if max_attempts is not None and max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.caps = caps
        self.heartbeat_id = heartbeat_id
        self.ack_timeout_s = ack_timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.hello_reply_timeout_s = hello_reply_timeout_s
        self.compress_min_bytes = compress_min_bytes
        self.host = host
        self.port = port
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self.max_attempts = max_attempts
        self._rng = rng
        self.conn: MessageConnection | None = None
        #: Capability bits this connection's replies advertised.
        self.peer_caps = 0
        self._hellos: dict[int, protocol.Hello] = {}
        self._outboxes: dict[int, ExsOutbox] = {}
        #: Per source, the highest seq the peer confirmed holding (resume
        #: points and acks, across connections; -1 = none).
        self.confirmed: dict[int, int] = {}
        #: Sources resumed on this connection: only their frames are sent.
        self.ready: set[int] = set()
        #: News for the owner, who clears it: sources resumed, and sources
        #: whose :attr:`confirmed` watermark rose.
        self.resumed: set[int] = set()
        self.advanced: set[int] = set()
        #: Sources awaiting their reply → legacy-fallback deadline.
        self._reply_due: dict[int, float] = {}
        self._opened_at = self._last_send = self._last_progress = 0.0
        self._delay = backoff_s
        self._attempts = 0
        self._next_dial_at = 0.0
        #: Connections established and attempts failed (int-like counters).
        self.connections = Counter("wire.connections_established")
        self.failed_attempts = Counter("wire.failed_attempts")

    # -- sources and sessions ------------------------------------------
    def add_source(self, hello: protocol.Hello, outbox: ExsOutbox) -> None:
        """Carry *hello*'s source, its frames parked in *outbox*; on a live
        connection the Hello goes out now and the frames wait for the reply."""
        exs_id = hello.exs_id
        self._hellos[exs_id] = replace(hello, wants_ack=True, capabilities=self.caps)
        self._outboxes[exs_id] = outbox
        self.confirmed.setdefault(exs_id, -1)
        self.ready.discard(exs_id)
        if self.conn is not None:
            self._greet([exs_id])

    def open(self, conn: MessageConnection) -> None:
        """Start a session on *conn*: one Hello per source."""
        self.conn = conn
        self.peer_caps = 0
        self._opened_at = self._last_send = self._last_progress = monotonic_s()
        self._greet(list(self._hellos))

    def _greet(self, sources: list[int]) -> None:
        due = monotonic_s() + self.hello_reply_timeout_s
        self._reply_due.update(dict.fromkeys(sources, due))
        self._transmit([protocol.encode_message(self._hellos[e]) for e in sources])

    def close(self, reason: str) -> None:
        """Say Bye and close (the owner's shutdown)."""
        if self.conn is not None:
            try:
                self.conn.send(protocol.Bye(reason=reason))
            except OSError:
                pass  # already gone; closing is all that is left
            self.drop()

    def drop(self) -> None:
        """Close without a word (peer loss, a hung peer, or an owner that
        reads the peer's ``Bye`` as loss) and schedule the redial."""
        if self.conn is None:
            return
        self.conn.close()
        self.conn = None
        self.ready.clear()
        self.resumed.clear()
        self._reply_due.clear()
        now = monotonic_s()
        if self.host is None:
            return  # an owner-supplied connection: nothing to redial
        if now - self._opened_at < self.backoff_s:
            self._fail(now)  # a short session is a failed attempt: no spin
        else:
            self._attempts = 0
            self._delay = self.backoff_s
            self._next_dial_at = now

    # -- dialing -------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """Whether *max_attempts* consecutive attempts have failed."""
        return self.max_attempts is not None and self._attempts >= self.max_attempts

    def dial_in(self) -> float:
        """Seconds until the backoff allows the next :meth:`dial`."""
        return max(0.0, self._next_dial_at - monotonic_s())

    def dial(self) -> bool:
        """Connect if no session is open and the backoff allows; True
        when a session opened."""
        if self.conn is not None or self.host is None or self.dial_in() > 0:
            return False
        try:
            conn = connect(self.host, self.port, timeout=CONNECT_TIMEOUT_S)
        except OSError:
            self.failed_attempts += 1
            self._fail(monotonic_s())
            return False
        self.connections += 1
        self.open(conn)
        return self.conn is not None

    def _fail(self, now: float) -> None:
        self._attempts += 1
        self._next_dial_at = now + min(self._delay, self.max_backoff_s)
        self._delay = self._next_backoff(self._delay)

    def _next_backoff(self, delay: float) -> float:
        """Decorrelated jitter (AWS style): uniform in [base, 3·prev], capped."""
        assert self._rng is not None, "a dialing uplink needs a jitter rng"
        base = self.backoff_s
        return min(self.max_backoff_s, self._rng.uniform(base, max(base, delay * 3)))

    # -- sending -------------------------------------------------------
    def send(self, batches: Sequence[tuple[int, int, bytes]]) -> tuple[int, int]:
        """Ship ``(exs_id, seq, payload)`` batches: each is compressed if
        negotiated and parked in its source's outbox as sent (so a
        retransmit is byte-identical); the ready sources' frames leave in
        one vectored send, the others with their source's resume.
        Returns the frames compressed and the bytes that saved."""
        frames: list[bytes] = []
        compressed = saved = 0
        for exs_id, seq, payload in batches:
            frame = self._compress(payload)
            if frame is not payload:
                compressed += 1
                saved += len(payload) - len(frame)
            self._outboxes[exs_id].append(seq, frame)
            if exs_id in self.ready:
                frames.append(frame)
        self._transmit(frames)
        return compressed, saved

    def _compress(self, payload: bytes) -> bytes:
        threshold = self.compress_min_bytes
        if threshold is None or len(payload) < threshold:
            return payload
        wrapped = protocol.compress_frame(payload, caps=self.peer_caps)
        return wrapped if len(wrapped) < len(payload) else payload

    def send_control(self, msg: protocol.Message) -> None:
        """One control message (a ``TimeReply``, a ``Heartbeat``)."""
        self._write(lambda conn: conn.send(msg))

    def _transmit(self, frames: list[bytes]) -> bool:
        if not frames:
            return self.conn is not None
        return self._write(lambda conn: conn.send_many(frames))

    def _write(self, put: Callable[[MessageConnection], None]) -> bool:
        if self.conn is None:
            return False
        try:
            put(self.conn)
        except OSError:
            self.drop()
            return False
        self._last_send = monotonic_s()
        return True

    # -- receiving and timers ------------------------------------------
    def receive(self, timeout_s: float = 0.0) -> Iterator[protocol.Message]:
        """Handle what the peer sent (waiting up to *timeout_s* for the
        first message) and yield what the uplink does not own.  Stops once
        the connection is lost — by the read, a malformed frame, or what
        the owner did with a yielded message."""
        conn = self.conn
        if conn is None:
            return
        try:
            for msg in _messages(conn, timeout_s):
                if isinstance(msg, protocol.Ack):
                    self._release(msg.exs_id, msg.up_to_seq)
                elif isinstance(msg, protocol.AckBundle):
                    for exs_id, up_to_seq in msg.acks:
                        self._release(exs_id, up_to_seq)
                elif isinstance(msg, protocol.HelloReply):
                    self._on_reply(msg)
                else:
                    yield msg
                if self.conn is not conn:
                    return
        except (OSError, ValueError, XdrDecodeError):
            # ValueError: the fd was closed between select readiness and
            # the read (closed sockets select as fd -1).
            if self.conn is conn:
                self.drop()

    def _release(self, exs_id: int, up_to_seq: int) -> None:
        outbox = self._outboxes.get(exs_id)
        if outbox is None:
            return
        if outbox.ack(up_to_seq):
            self._last_progress = monotonic_s()
        if up_to_seq > self.confirmed[exs_id]:
            self.confirmed[exs_id] = up_to_seq
            self.advanced.add(exs_id)

    def _on_reply(self, msg: protocol.HelloReply) -> None:
        if msg.exs_id not in self._outboxes:
            return
        self.peer_caps |= msg.capabilities
        if msg.exs_id in self._reply_due:  # else a late duplicate: caps only
            self._release(msg.exs_id, msg.last_seq)
            self._resume(msg.exs_id)

    def _resume(self, exs_id: int) -> None:
        """Retransmit the source's outbox in seq order; let its frames flow."""
        del self._reply_due[exs_id]
        outbox = self._outboxes[exs_id]
        pending = outbox.pending_payloads()
        if not self._transmit(pending):
            return
        outbox.retransmitted_batches += len(pending)
        self.ready.add(exs_id)
        self.resumed.add(exs_id)
        self._last_progress = monotonic_s()

    def tick(self) -> None:
        """The timers: legacy-peer fallback, ack deadline, idle heartbeat."""
        if self.conn is None:
            return
        now = monotonic_s()
        if self._reply_due:
            for exs_id, due in list(self._reply_due.items()):
                if now >= due and exs_id in self._reply_due:
                    # No reply: a legacy peer.  Retransmit everything (at
                    # least once; an upgraded peer's dedup: exactly once).
                    self._resume(exs_id)
        if self.ack_timeout_s is not None:
            # In flight = sent on this connection; a source still awaiting
            # its reply is the reply timeout's business.
            for exs_id in self.ready:
                if self._outboxes[exs_id].unacked:
                    if now - self._last_progress > self.ack_timeout_s:
                        self.drop()  # connected but no longer admitting: hung
                    break
            else:
                self._last_progress = now
        interval = self.heartbeat_interval_s
        if interval is not None and now - self._last_send >= interval:
            self.send_control(protocol.Heartbeat(exs_id=self.heartbeat_id))


def _messages(conn: MessageConnection, timeout_s: float) -> Iterator[protocol.Message]:
    """The first message within *timeout_s*, then whatever else is buffered."""
    if timeout_s > 0.0:
        first = conn.recv(timeout=timeout_s)
        if first is None:
            return
        yield first
    yield from conn.recv_available()
