"""The connection plane, bare and under each of its three owners.

Part one drives a :class:`ConnectionPlane` with a ten-line owner over
real localhost sockets.  Part two plays one scripted peer against
``IsmServer``, ``ShardedIsmServer`` and ``RelayServer`` and asserts the
same observable exchange from each — the tiers speak one protocol, so
anything a peer can see must not depend on which tier it talks to.
"""

import threading
import time

import pytest
from tests.conftest import make_record, wait_until

from repro.core.consumers import CollectingConsumer
from repro.core.filtering import FilterSpec
from repro.core.ism import InstrumentationManager, IsmConfig
from repro.core.sorting import SorterConfig
from repro.runtime.ism_proc import IsmServer, ShardedIsmServer
from repro.runtime.plane import PLANE_CAPS, ConnectionPlane
from repro.runtime.relay_proc import RelayConfig, RelayServer
from repro.wire import protocol
from repro.util.timebase import now_micros
from repro.wire.tcp import ConnectionClosed, MessageListener, connect


# ----------------------------------------------------------------------
# part one: a bare plane
# ----------------------------------------------------------------------
class Owner:
    """The least an owner does: bind Hellos, remember everything else."""

    def __init__(self, **plane_kwargs) -> None:
        self.listener = MessageListener()
        self.plane = ConnectionPlane(self.listener, **plane_kwargs)
        self.seen: list[protocol.Message] = []
        self.clients = []

    def connect(self):
        conn = connect(*self.listener.address)
        self.clients.append(conn)
        return conn

    def cycle(self, timeout_s: float = 0.01) -> None:
        for conn, payloads in self.plane.pump(timeout_s):
            for payload in payloads:
                msg = protocol.decode_message(payload)
                if isinstance(msg, protocol.Hello):
                    self.plane.bind(conn, msg, resume_seq=-1)
                else:
                    self.seen.append(msg)

    def cycle_until(self, predicate, timeout: float = 5.0) -> None:
        def step():
            self.cycle()
            return predicate()

        wait_until(step, timeout=timeout)

    def close(self) -> None:
        self.plane.close()
        for conn in self.clients:
            conn.close()
        self.listener.close()


@pytest.fixture
def owner():
    owners = []

    def make(**plane_kwargs) -> Owner:
        owners.append(Owner(**plane_kwargs))
        return owners[-1]

    yield make
    for made in owners:
        made.close()


def hello(exs_id: int, caps: int = 0, wants_ack: bool = True) -> protocol.Hello:
    return protocol.Hello(
        exs_id=exs_id, node_id=exs_id, wants_ack=wants_ack, capabilities=caps
    )


def read(conn, count: int, timeout: float = 5.0) -> list[protocol.Message]:
    """The next *count* messages the server sent on *conn*."""
    msgs: list[protocol.Message] = []

    def more():
        msg = conn.recv(timeout=0.05)
        if msg is not None:
            msgs.append(msg)
        return len(msgs) >= count

    wait_until(more, timeout=timeout, message=f"wanted {count} messages, got {msgs}")
    return msgs


class TestBarePlane:
    def test_never_hello_connection_is_swept_and_counted(self, owner):
        o = owner(idle_deadline_s=0.05)
        o.connect()  # says nothing, ever
        o.cycle_until(lambda: o.plane.idle_drops >= 1)
        assert o.plane.idle_drops == 1
        assert o.plane.closed_connections == 1
        assert o.plane.live() == []

    def test_rehello_retires_the_old_socket_not_the_new_binding(self, owner):
        o = owner()
        first = o.connect()
        first.send(hello(7))
        o.cycle_until(lambda: 7 in o.plane.connections)
        old_binding = o.plane.connections[7]

        second = o.connect()
        second.send(hello(7))
        o.cycle_until(lambda: o.plane.connections.get(7) not in (None, old_binding))
        assert o.plane.acks_enabled(7)  # the drop did not reach the fresh binding
        assert o.plane.closed_connections == 1
        assert len(o.plane.live()) == 1
        read(first, 1)  # its HelloReply, then EOF: the server closed it
        with pytest.raises(ConnectionClosed):
            wait_until(lambda: first.recv(timeout=0.05), timeout=2.0)
        assert isinstance(read(second, 1)[0], protocol.HelloReply)

    def test_bundle_only_when_every_source_on_the_connection_can(self, owner):
        o = owner()
        mux = o.connect()  # one socket fronting several sources, relay-style
        mux.send(hello(1, protocol.CAP_ACK_BUNDLE))
        mux.send(hello(2, protocol.CAP_ACK_BUNDLE))
        o.cycle_until(lambda: {1, 2} <= set(o.plane.connections))
        read(mux, 2)  # two HelloReplies
        o.plane.queue_ack(1, 4)
        o.plane.queue_ack(2, 9)
        o.plane.queue_ack(2, 8)  # highest wins
        assert o.plane.flush_acks() == (1, [(1, 4), (2, 9)])
        assert read(mux, 1) == [protocol.AckBundle(acks=((1, 4), (2, 9)))]

        mux.send(hello(3))  # a source that never advertised bundles
        o.cycle_until(lambda: 3 in o.plane.connections)
        read(mux, 1)
        for exs_id in (1, 2, 3):
            o.plane.queue_ack(exs_id, 10)
        frames, pairs = o.plane.flush_acks()
        assert (frames, pairs) == (3, [(1, 10), (2, 10), (3, 10)])
        assert read(mux, 3) == [protocol.Ack(e, 10) for e in (1, 2, 3)]
        assert o.plane.flush_acks() == (0, [])

    def test_source_that_wants_no_acks_is_never_written_to(self, owner):
        o = owner()
        quiet = o.connect()
        quiet.send(hello(4, wants_ack=False))
        o.cycle_until(lambda: 4 in o.plane.connections)
        o.plane.queue_ack(4, 1)
        assert o.plane.flush_acks() == (0, [])
        assert not o.plane.hello_reply(4, -1)
        assert quiet.recv(timeout=0.1) is None

    def test_legacy_peer_gets_byte_identical_hello_reply(self, owner):
        o = owner()
        legacy, capable = o.connect(), o.connect()
        legacy.send(hello(1, caps=0))
        capable.send(hello(2, caps=protocol.CAP_STEERING))
        o.cycle_until(lambda: {1, 2} <= set(o.plane.connections))
        (raw,) = wait_until(lambda: legacy.recv_frames(timeout=0.05))
        assert raw == protocol.encode_message(protocol.HelloReply(exs_id=1, last_seq=-1))
        assert read(capable, 1) == [
            protocol.HelloReply(exs_id=2, last_seq=-1, capabilities=PLANE_CAPS)
        ]

    def test_filter_set_while_down_lands_with_the_next_hello(self, owner):
        o = owner()
        spec = FilterSpec(blocked_events=frozenset({2}), sample_every=3)
        assert o.plane.set_filter(5, spec) is False  # deferred, not dropped
        assert o.plane.set_filter(6, spec) is False

        legacy = o.connect()
        legacy.send(hello(5, caps=0))
        steering = o.connect()
        steering.send(hello(6, caps=protocol.CAP_STEERING))
        o.cycle_until(lambda: {5, 6} <= set(o.plane.connections))

        reply, pushed = read(legacy, 2)
        assert isinstance(reply, protocol.HelloReply)
        assert pushed == protocol.SetFilter.from_spec(spec)  # downgraded: no epoch
        reply, pushed = read(steering, 2)
        assert isinstance(reply, protocol.HelloReply)
        assert pushed == protocol.SetFilter.from_spec(spec, epoch=2, target_exs_id=6)
        # A live source gets the next push at once.
        assert o.plane.set_filter(6, FilterSpec()) is True
        assert read(steering, 1)[0].filter_epoch == 3

    def test_poisoned_fd_is_probed_out_without_starving_the_rest(self, owner):
        o = owner()
        sick, healthy = o.connect(), o.connect()
        sick.send(hello(1))
        healthy.send(hello(2))
        o.cycle_until(lambda: {1, 2} <= set(o.plane.connections))
        # A closed socket's fileno() is -1, which makes select.select raise.
        o.plane.connections[1]._sock.close()
        healthy.send(protocol.Heartbeat(exs_id=2))
        wait_until(lambda: o.cycle() or o.seen, timeout=5.0)
        assert o.seen == [protocol.Heartbeat(exs_id=2)]
        assert set(o.plane.connections) == {2}
        assert o.plane.closed_connections == 1

    def test_excluded_connection_is_neither_read_nor_swept(self, owner):
        o = owner(idle_deadline_s=0.05)
        peer = o.connect()
        peer.send(hello(1))
        o.cycle_until(lambda: 1 in o.plane.connections)
        held = o.plane.connections[1]
        peer.send(protocol.Heartbeat(exs_id=1))

        def backpressured_cycles():
            list(o.plane.pump(0.01, exclude={held}))
            return True

        for _ in range(20):  # 0.2 s >> the idle deadline
            backpressured_cycles()
        assert o.plane.idle_drops == 0 and o.seen == []
        o.cycle_until(lambda: o.seen)  # released: the heartbeat is still there
        assert o.seen == [protocol.Heartbeat(exs_id=1)]

    def test_serve_bounds(self, owner):
        o = owner()
        o.plane.arm(until_records=5)
        assert o.plane.next_cycle(records_received=4)
        assert not o.plane.next_cycle(records_received=5)
        o.plane.arm(expected_connections=1)
        assert o.plane.next_cycle()  # nobody has come yet
        peer = o.connect()
        peer.send(hello(1))
        o.cycle_until(lambda: 1 in o.plane.connections)
        assert o.plane.next_cycle()  # come, not gone
        peer.send(protocol.Bye())
        peer.close()
        o.cycle_until(lambda: not o.plane.live())
        assert not o.plane.next_cycle()
        o.plane.arm()
        assert o.plane.next_cycle()
        o.plane.stop()
        assert not o.plane.next_cycle()

    def test_dropped_sources_leave_no_capability_entry(self, owner):
        """A peer that opens exs ids without end must not grow the plane:
        a source's advertised bits go with its binding."""

        class Socketless:
            bytes_received = frames_received = 0

            def close(self):
                pass

        o = owner()
        live = Socketless()
        o.plane.bind(live, protocol.Hello(exs_id=0, node_id=0, capabilities=PLANE_CAPS))
        for exs_id in range(1, 1001):
            conn = Socketless()
            o.plane.bind(conn, protocol.Hello(exs_id=exs_id, node_id=1, capabilities=1))
            o.plane.drop(conn)
        assert list(o.plane.connections) == [0]
        assert o.plane._peer_caps == {0: PLANE_CAPS}


# ----------------------------------------------------------------------
# part two: one scripted peer, three servers
# ----------------------------------------------------------------------
def _ism(kind: str, listener: MessageListener):
    config = IsmConfig(sorter=SorterConfig(initial_frame_us=0))
    if kind == "sharded":
        return ShardedIsmServer(
            [CollectingConsumer()], listener, shards=2, ism_config=config
        )
    return IsmServer(InstrumentationManager(config, [CollectingConsumer()]), listener)


class Tier:
    """One server tier under test: where a peer connects, and how the
    operator steers a source through it."""

    def __init__(self, kind: str) -> None:
        self.listener = MessageListener()
        # A relay is tested in front of a plain ISM; steering enters there.
        self.ism = _ism("single" if kind == "relay" else kind, self.listener)
        self.servers = [self.ism]
        self.address = self.listener.address
        if kind == "relay":
            host, port = self.listener.address
            relay = RelayServer(RelayConfig(upstream_host=host, upstream_port=port))
            self.servers.append(relay)
            self.address = relay.address
        self.threads = [
            threading.Thread(target=server.serve, daemon=True)
            for server in self.servers
        ]
        for thread in self.threads:
            thread.start()

    def set_filter(self, exs_id: int, spec: FilterSpec) -> None:
        wait_until(lambda: exs_id in self.ism.connections, timeout=10.0)
        assert self.ism.set_filter(exs_id, spec)

    def close(self) -> None:
        for server in reversed(self.servers):
            server.stop()
        for thread in self.threads:
            thread.join(timeout=30)
        if isinstance(self.ism, ShardedIsmServer):
            self.ism.close()
        self.listener.close()


@pytest.mark.parametrize("kind", ["single", "sharded", "relay"])
def test_scripted_peer_sees_the_same_exchange_from_every_tier(kind):
    tier = Tier(kind)
    spec = FilterSpec(blocked_events=frozenset({9}), sample_every=4)
    peers = []

    def dial():
        peers.append(connect(*tier.address))
        return peers[-1]

    def batch(seq: int) -> protocol.Batch:
        records = tuple(
            make_record(event_id=1, node_id=1, timestamp=1_000 * seq + i)
            for i in range(3)
        )
        return protocol.Batch(exs_id=1, seq=seq, records=records)

    try:
        # 1. Handshake: no history, and the full capability echo.
        first = dial()
        first.send(hello(1, caps=protocol.CAP_STEERING))
        assert read(first, 1, timeout=20.0) == [
            protocol.HelloReply(exs_id=1, last_seq=-1, capabilities=PLANE_CAPS)
        ]
        # 2. A batch is acked, cumulatively, as a plain Ack.
        first.send(batch(0))
        assert read(first, 1, timeout=10.0) == [protocol.Ack(exs_id=1, up_to_seq=0)]
        # 3. A steering push arrives whole: stamped, targeted, not downgraded.
        tier.set_filter(1, spec)
        (pushed,) = read(first, 1, timeout=10.0)
        assert isinstance(pushed, protocol.SetFilter)
        assert pushed.filter_epoch >= 1 and pushed.target_exs_id == 1
        assert pushed.to_spec() == spec

        # 4. The same source reconnects as a legacy peer.  The old socket
        # is retired; the new one hears where history ends (no capability
        # word) and gets the filter back, downgraded.
        second = dial()
        second.send(hello(1, caps=0))
        got_filter = protocol.SetFilter.from_spec(spec)
        got = read(second, 2, timeout=10.0)
        assert sorted(got, key=lambda m: type(m).__name__) == [
            protocol.HelloReply(exs_id=1, last_seq=0),
            got_filter,
        ]
        with pytest.raises(ConnectionClosed):
            wait_until(lambda: first.recv(timeout=0.05), timeout=5.0)
        # 5. The stream continues where it left off.  (Behind a relay the
        # re-applied filter may arrive twice — the relay's own store and
        # the upstream's both answer the Hello; a repeat is idempotent.)
        second.send(batch(1))
        answer = wait_until(
            lambda: (m := second.recv(timeout=0.05)) not in (None, got_filter) and m,
            timeout=10.0,
        )
        assert answer == protocol.Ack(exs_id=1, up_to_seq=1)
        # 6. A frame too short to be a message costs the peer its connection.
        second.send_raw(b"\x00\x00\x00\x01")
        with pytest.raises(ConnectionClosed):
            wait_until(lambda: second.recv(timeout=0.05), timeout=5.0)
    finally:
        for peer in peers:
            peer.close()
        tier.close()


# ----------------------------------------------------------------------
# Bye retires a source from the sorter's frontier; a lost socket does not
# ----------------------------------------------------------------------
#: A frame that never expires in these tests: only the frontier releases.
_NEVER = IsmConfig(sorter=SorterConfig(initial_frame_us=600_000_000, decay_lambda=0.0))


class Sources:
    """Scripted EXS peers of one live server, one record per batch."""

    def __init__(self, server, listener: MessageListener) -> None:
        self.server, self.listener = server, listener
        self.peers: list = []
        self.seqs: dict[int, int] = {}

    def dial(self, exs_id: int):
        self.peers.append(connect(*self.listener.address))
        self.peers[-1].send(hello(exs_id, wants_ack=False))
        wait_until(
            lambda: self.server.connections.get(exs_id) is not None, timeout=10.0
        )
        return self.peers[-1]

    def send(self, conn, exs_id: int, timestamp: int) -> None:
        record = make_record(event_id=exs_id, node_id=exs_id, timestamp=timestamp)
        seq = self.seqs.get(exs_id, 0)
        conn.send(protocol.Batch(exs_id=exs_id, seq=seq, records=(record,)))
        self.seqs[exs_id] = seq + 1

    def close(self) -> None:
        for peer in self.peers:
            peer.close()


def test_bye_retires_a_source_from_the_frontier_and_loss_does_not():
    listener = MessageListener()
    sink = CollectingConsumer()
    server = IsmServer(InstrumentationManager(_NEVER, [sink]), listener)
    sorter = server.manager.sorter
    thread = threading.Thread(target=server.serve, daemon=True)
    thread.start()
    sources = Sources(server, listener)
    dial, send = sources.dial, sources.send

    def delivered() -> list[int]:
        return [r.timestamp for r in sink.records]

    try:
        t0 = now_micros()
        one, two = dial(1), dial(2)
        # Source 2 is registered and silent: source 1's record waits on it.
        send(one, 1, t0 + 10)
        wait_until(lambda: sorter.held == 1 and sorter.gating_source() == 2)
        assert delivered() == []
        # A clean goodbye retires it, and the wait is over.
        two.send(protocol.Bye(reason="done"))
        wait_until(lambda: delivered() == [t0 + 10], timeout=10.0)
        # A re-Hello brings it back into the gate ...
        two = dial(2)
        send(one, 1, t0 + 30)
        wait_until(lambda: sorter.held == 1 and sorter.gating_source() == 2)
        # ... until its frontier passes the record.
        send(two, 2, t0 + 40)
        wait_until(lambda: delivered() == [t0 + 10, t0 + 30], timeout=10.0)
        send(one, 1, t0 + 50)
        wait_until(lambda: delivered()[-1] == t0 + 40, timeout=10.0)
        # A connection lost without Bye keeps its frozen frontier (the
        # source may resume and retransmit): the time frame still applies.
        two.close()
        wait_until(lambda: 2 not in server.connections, timeout=10.0)
        send(one, 1, t0 + 60)
        wait_until(lambda: sorter.held == 2 and sorter.gating_source() == 2)
        assert delivered() == [t0 + 10, t0 + 30, t0 + 40]
    finally:
        sources.close()
        server.stop()
        thread.join(timeout=30)
        listener.close()
    # Shutdown flushes what the lost source was still holding back.
    assert delivered() == [t0 + 10, t0 + 30, t0 + 40, t0 + 50, t0 + 60]


def test_bye_retires_a_source_on_its_shard():
    # The sorter lives in the shard worker: the dispatcher turns the Bye
    # into an in-band retire frame behind the source's batches.
    listener = MessageListener()
    sink = CollectingConsumer()
    server = ShardedIsmServer([sink], listener, shards=1, ism_config=_NEVER)
    thread = threading.Thread(target=server.serve, daemon=True)
    thread.start()
    sources = Sources(server, listener)

    def delivered() -> list[int]:
        return [r.timestamp for r in sink.records]

    try:
        t0 = now_micros()
        one, two = sources.dial(1), sources.dial(2)
        # Source 2 is registered and silent: source 1's record waits on it.
        sources.send(one, 1, t0 + 10)
        time.sleep(0.5)
        assert delivered() == []
        two.send(protocol.Bye(reason="done"))
        wait_until(lambda: delivered() == [t0 + 10], timeout=10.0)
    finally:
        sources.close()
        server.stop()
        thread.join(timeout=30)
        listener.close()
