"""One scripted upstream peer, played against both senders.

The transfer protocol's client side has one implementation,
:class:`repro.runtime.uplink.Uplink`, with two owners: the EXS
(:class:`ReconnectingExs`) and the relay's upstream face
(:class:`RelayServer`, fed here by one local EXS).  A hand-driven
:class:`MessageListener` plays the ISM and checks that both show it the
same exchange — anything the peer above can see must not depend on which
tier is sending.  The uplinks' timers are shortened on the object so the
exchange runs in seconds.

Against the relay's separate upstream code at the parent commit, the last
three cases fail: it had no ack-progress deadline (a hung-but-connected
peer kept its outboxes full for good), a source whose ``HelloReply``
never came was never released, and it redialled a peer that accepts and
closes every ≈50 ms for ever (its backoff reset on every connect).
"""

import random
import threading
import time
from collections import deque

import pytest
from tests.conftest import wait_until

from repro.clocksync.clocks import CorrectedClock
from repro.core.exs import ExsConfig, ExternalSensor
from repro.core.ringbuffer import ring_for_records
from repro.core.sensor import Sensor
from repro.runtime.exs_proc import ExsProcess, ReconnectingExs
from repro.runtime.plane import PLANE_CAPS
from repro.runtime.relay_proc import (
    UPSTREAM_BACKOFF_S,
    UPSTREAM_MAX_BACKOFF_S,
    RelayConfig,
    RelayServer,
)
from repro.util.timebase import now_micros
from repro.wire import protocol
from repro.wire.tcp import ConnectionClosed, MessageListener, connect

#: One burst of records is exactly one batch, and so one upstream frame.
BURST = 16
HELLO_REPLY_TIMEOUT_S = 1.0
ACK_TIMEOUT_S = 0.8
HEARTBEAT_S = 0.3


def _source():
    """A ring with its sensor, drained by an EXS that closes a batch on
    count only."""
    ring = ring_for_records(10_000)
    exs = ExternalSensor(
        1, 1, ring, CorrectedClock(now_micros),
        ExsConfig(batch_max_records=BURST, flush_timeout_us=10_000_000),
    )
    return Sensor(ring, node_id=1), exs


class ExsSender:
    """A reconnecting EXS talking to the peer directly."""

    caps = protocol.CAP_STEERING
    heartbeat_id = 1

    def __init__(self, address) -> None:
        self.sensor, exs = _source()
        self.runner = ReconnectingExs(
            exs, *address, select_timeout_s=0.002, max_attempts=1_000,
            backoff_s=UPSTREAM_BACKOFF_S, max_backoff_s=UPSTREAM_MAX_BACKOFF_S,
            jitter_rng=random.Random(7),
        )
        self.uplink = self.runner.uplink
        self.uplink.compress_min_bytes = 64
        self.threads = [threading.Thread(target=self.runner.run, daemon=True)]

    def outbox(self):
        return self.runner.outbox

    def stop(self) -> None:
        self.runner.stop()


class RelaySender:
    """A relay whose one downstream source ships without waiting for it."""

    caps = PLANE_CAPS
    heartbeat_id = 0

    def __init__(self, address) -> None:
        host, port = address
        self.relay = RelayServer(
            RelayConfig(upstream_host=host, upstream_port=port, compress_min_bytes=64)
        )
        self.sensor, exs = _source()
        self.proc = ExsProcess(
            exs, connect(*self.relay.address), select_timeout_s=0.002,
            resume=False, ack_timeout_s=None, heartbeat_interval_s=None,
        )
        self.uplink = self.relay.uplink
        self.threads = [
            threading.Thread(target=self.relay.serve, daemon=True),
            threading.Thread(target=self.proc.run, daemon=True),
        ]

    def outbox(self):
        return self.relay.sources[1].outbox

    def stop(self) -> None:
        self.proc.stop()
        self.relay.stop()


class Wire:
    """The peer's end of one accepted connection."""

    def __init__(self, conn) -> None:
        self.conn = conn
        self.pending: deque = deque()
        self.closed = False

    def _fill(self, timeout: float) -> None:
        try:
            frames = self.conn.recv_frames(timeout)
        except (ConnectionClosed, ConnectionResetError):
            self.closed = True
            return
        self.pending.extend((p, protocol.decode_message(p)) for p in frames)

    def next(self, timeout: float = 10.0, skip=(protocol.Heartbeat,)):
        """The next message not of a *skip* type, with its raw payload."""
        deadline = time.monotonic() + timeout
        while True:
            while self.pending:
                payload, msg = self.pending.popleft()
                if not isinstance(msg, skip):
                    return payload, msg
            if self.closed:
                raise ConnectionClosed("sender closed the connection")
            remaining = deadline - time.monotonic()
            assert remaining > 0, "no message from the sender"
            self._fill(min(0.05, remaining))

    def batch(self, timeout: float = 10.0) -> bytes:
        payload, msg = self.next(timeout)
        assert isinstance(msg, protocol.Batch), msg
        return payload

    def quiet(self, seconds: float) -> None:
        """Nothing but heartbeats for *seconds*."""
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            self._fill(0.02)
            assert all(
                isinstance(m, protocol.Heartbeat) for _, m in self.pending
            ), list(self.pending)

    def wait_closed(self, timeout: float = 10.0) -> None:
        with pytest.raises(ConnectionClosed):
            while True:
                self.next(timeout)

    def send(self, msg) -> None:
        self.conn.send(msg)


class Upstream:
    """The ISM, played by hand."""

    def __init__(self) -> None:
        self.listener = MessageListener()
        self.wires: list[Wire] = []

    def accept(self, timeout: float = 10.0) -> Wire:
        conn = wait_until(lambda: self.listener.accept(timeout=0.02), timeout=timeout)
        self.wires.append(Wire(conn))
        return self.wires[-1]

    def close(self) -> None:
        for wire in self.wires:
            wire.conn.close()
        self.listener.close()


def seq(payload: bytes) -> int:
    return protocol.decode_message(payload).seq


def compressed(payload: bytes) -> bool:
    return int.from_bytes(payload[4:8], "big") == protocol.MsgType.COMPRESSED


@pytest.mark.timeout(120)
@pytest.mark.parametrize("kind", ["exs", "relay"])
def test_scripted_upstream_sees_the_same_exchange_from_both_senders(kind):
    peer = Upstream()
    sender = (ExsSender if kind == "exs" else RelaySender)(peer.listener.address)
    sender.uplink.hello_reply_timeout_s = HELLO_REPLY_TIMEOUT_S
    sender.uplink.ack_timeout_s = ACK_TIMEOUT_S
    sender.uplink.heartbeat_interval_s = HEARTBEAT_S
    k = 0

    def burst() -> None:
        nonlocal k
        for _ in range(BURST):
            sender.sensor.notice_ints(1, k, 0, 0, 0, 0)
            k += 1

    for thread in sender.threads:
        thread.start()
    try:
        # 1. The first Hello wants acks and carries the owner's caps.
        first = peer.accept()
        _, hello = first.next()
        assert hello == protocol.Hello(
            exs_id=1, node_id=1, wants_ack=True, capabilities=sender.caps
        )
        # 2. No batch before the HelloReply, though one is ready to go.
        burst()
        first.quiet(0.3)
        first.send(protocol.HelloReply(exs_id=1, last_seq=-1))
        sent = [first.batch()]
        for _ in range(3):
            burst()
            sent.append(first.batch())
        assert [seq(p) for p in sent] == [0, 1, 2, 3]
        # 4a. No capability echo, no compression.
        assert not any(compressed(p) for p in sent)
        # 5. An AckBundle releases exactly the sources it names.
        first.send(protocol.AckBundle(acks=((1, 0), (99, 5))))
        wait_until(lambda: sender.outbox().pending_seqs() == [1, 2, 3])

        # 3. Resume: the peer holds more than it acked; exactly the
        # entries above its resume point come back, byte-identical and
        # in order.
        first.conn.close()
        second = peer.accept()
        assert second.next()[1] == hello
        second.send(protocol.HelloReply(exs_id=1, last_seq=1, capabilities=PLANE_CAPS))
        assert [second.batch(), second.batch()] == sent[2:]
        # 4b. Compressed once the reply echoed CAP_COMPRESS.
        burst()
        fresh = second.batch()
        assert compressed(fresh) and seq(fresh) == 4
        # 6. An idle interval is followed by a heartbeat.
        _, beat = second.next(skip=())
        assert beat == protocol.Heartbeat(exs_id=sender.heartbeat_id)

        # 7. Frames in flight and no ack past the deadline: the sender
        # gives the connection up and resumes on a new one.
        second.wait_closed()
        third = peer.accept()
        assert third.next()[1] == hello
        third.send(protocol.HelloReply(exs_id=1, last_seq=2, capabilities=PLANE_CAPS))
        assert [third.batch(), third.batch()] == [sent[3], fresh]
        third.send(protocol.Ack(exs_id=1, up_to_seq=3))
        wait_until(lambda: sender.outbox().pending_seqs() == [4])

        # 8. A peer that never replies gets everything retransmitted once
        # the reply timeout passes.
        third.conn.close()
        fourth = peer.accept()
        opened = time.monotonic()
        assert fourth.next()[1] == hello
        assert fourth.batch() == fresh
        assert time.monotonic() - opened >= 0.8 * HELLO_REPLY_TIMEOUT_S
        fourth.send(protocol.Ack(exs_id=1, up_to_seq=4))
        wait_until(lambda: not sender.outbox().unacked)

        # 9. A peer that accepts and closes sees growing reconnect gaps.
        fourth.conn.close()
        accepted = []
        while len(accepted) < 13:
            wire = peer.accept()
            accepted.append(time.monotonic())
            wire.conn.close()
            gaps = [b - a for a, b in zip(accepted, accepted[1:])]
            if gaps and max(gaps) >= 2.5 * UPSTREAM_BACKOFF_S:
                break
        assert max(gaps) >= 2.5 * UPSTREAM_BACKOFF_S, gaps
        assert sorted(gaps)[len(gaps) // 2] >= 0.8 * UPSTREAM_BACKOFF_S, gaps
    finally:
        sender.stop()
        for thread in sender.threads:
            thread.join(timeout=10)
        peer.close()
