"""The relay aggregation tier: wire extensions, equivalence, chaos.

Covers the capability-negotiated protocol extensions (AckBundle,
compressed frames, coalesced seq ranges), the relay's multiplier
behaviour (coalescing, compression, metrics reduction), the satellite
guarantee that relayed delivery is indistinguishable from direct
delivery (same record multiset, same per-node order), wire-level frame
counting for the coalesced ack path, and the chaos proof that a
SIGKILL'd relay still yields exactly-once delivery through the tree.
"""

import multiprocessing as mp
import os
import signal
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests.conftest import make_record, wait_until
from tests.test_properties import records

from repro.clocksync.clocks import CorrectedClock
from repro.core.consumers import CollectingConsumer
from repro.core.exs import ExsConfig, ExternalSensor
from repro.core.ism import InstrumentationManager, IsmConfig
from repro.core.records import EventRecord, FieldType
from repro.core.ringbuffer import ring_for_records
from repro.core.sensor import Sensor
from repro.obs.reporter import METRICS_EVENT_ID, snapshot_from_records
from repro.runtime.exs_proc import ExsProcess, ReconnectingExs
from repro.runtime.ism_proc import IsmServer, ShardedIsmServer
from repro.runtime.relay_proc import RelayConfig, RelayServer, relay_process_main
from repro.util.timebase import now_micros
from repro.wire import protocol
from repro.wire.tcp import MessageListener, connect


# ----------------------------------------------------------------------
# wire extensions: capabilities, bundles, seq ranges, compression
# ----------------------------------------------------------------------

class TestCapabilityWire:
    def test_hello_capabilities_roundtrip(self):
        msg = protocol.Hello(
            exs_id=1, node_id=2, wants_ack=True,
            capabilities=protocol.CAP_COMPRESS | protocol.CAP_ACK_BUNDLE,
        )
        assert protocol.decode_message(protocol.encode_message(msg)) == msg

    def test_hello_capabilities_without_wants_ack(self):
        # XDR is positional: the wants_ack word must still be emitted
        # when only the capability word is set.
        msg = protocol.Hello(exs_id=1, node_id=2, capabilities=protocol.CAP_SEQ_RANGE)
        decoded = protocol.decode_message(protocol.encode_message(msg))
        assert decoded.wants_ack is False
        assert decoded.capabilities == protocol.CAP_SEQ_RANGE

    def test_hello_stays_legacy_bytes_without_capabilities(self):
        legacy = protocol.encode_message(protocol.Hello(exs_id=1, node_id=2))
        flagged = protocol.encode_message(
            protocol.Hello(exs_id=1, node_id=2, wants_ack=True, capabilities=0x7)
        )
        assert len(flagged) == len(legacy) + 8  # wants_ack + caps words
        assert protocol.decode_message(legacy).capabilities == 0

    def test_hello_reply_capabilities_roundtrip(self):
        msg = protocol.HelloReply(exs_id=3, last_seq=99, capabilities=0x7)
        assert protocol.decode_message(protocol.encode_message(msg)) == msg
        legacy = protocol.encode_message(protocol.HelloReply(exs_id=3, last_seq=99))
        assert len(protocol.encode_message(msg)) == len(legacy) + 4
        assert protocol.decode_message(legacy).capabilities == 0

    def test_ack_bundle_roundtrip(self):
        msg = protocol.AckBundle(acks=((1, 10), (2, 20), (7, 0)))
        assert protocol.decode_message(protocol.encode_message(msg)) == msg
        empty = protocol.AckBundle(acks=())
        assert protocol.decode_message(protocol.encode_message(empty)) == empty

    def test_batch_first_seq_roundtrip(self):
        recs = [make_record(timestamp=t) for t in (10, 20, 30)]
        payload = protocol.encode_batch_records(5, 12, recs, first_seq=9)
        decoded = protocol.decode_message(payload)
        assert decoded.exs_id == 5
        assert decoded.seq == 12
        assert decoded.first_seq == 9
        assert list(decoded.records) == recs

    def test_batch_without_first_seq_stays_legacy_bytes(self):
        recs = [make_record()]
        plain = protocol.encode_batch_records(1, 4, recs)
        ranged = protocol.encode_batch_records(1, 4, recs, first_seq=2)
        assert len(ranged) == len(plain) + 4
        assert protocol.decode_message(plain).first_seq is None


class TestCompressedFrames:
    def test_roundtrip(self):
        recs = [make_record(timestamp=t) for t in range(50)]
        payload = protocol.encode_batch_records(3, 7, recs)
        wrapped = protocol.compress_frame(payload)
        assert len(wrapped) < len(payload)
        decoded = protocol.decode_message(wrapped)
        assert decoded == protocol.decode_message(payload)

    def test_peek_compressed(self):
        payload = protocol.encode_batch_records(
            42, 9, [make_record(timestamp=t) for t in range(20)]
        )
        mtype, exs_id = protocol.peek_compressed(protocol.compress_frame(payload))
        assert mtype == protocol.MsgType.BATCH
        assert exs_id == 42

    def test_nested_compressed_rejected(self):
        payload = protocol.encode_batch_records(1, 1, [make_record()])
        nested = protocol.compress_frame(protocol.compress_frame(payload))
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(nested)

    def test_corrupt_compressed_rejected(self):
        wrapped = bytearray(
            protocol.compress_frame(
                protocol.encode_batch_records(1, 1, [make_record()])
            )
        )
        wrapped[-3] ^= 0xFF
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(bytes(wrapped))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(records(), max_size=12), st.integers(0, 2**31))
    def test_any_batch_roundtrips_compressed(self, recs, seq):
        payload = protocol.encode_batch_records(7, seq, recs)
        direct = protocol.decode_message(payload)
        via_zlib = protocol.decode_message(protocol.compress_frame(payload))
        assert via_zlib == direct


# ----------------------------------------------------------------------
# hosted reduction: the metrics fold
# ----------------------------------------------------------------------

def _metric(name_id: int, value: float, ts: int, node: int = 1) -> EventRecord:
    return EventRecord(
        event_id=METRICS_EVENT_ID,
        timestamp=ts,
        field_types=(FieldType.X_STRING, FieldType.X_DOUBLE),
        values=(str(name_id), value),
        node_id=node,
    )


class TestMetricsFold:
    def fold(self, recs):
        relay = RelayServer(RelayConfig(reduce_metrics=True))
        try:
            return relay._fold_metrics(recs), relay
        finally:
            relay.listener.close()

    def test_later_sample_supersedes(self):
        recs = [
            _metric(1, 1.0, ts=10),
            _metric(2, 5.0, ts=11),
            _metric(1, 3.0, ts=12),
            make_record(timestamp=13),
        ]
        folded, relay = self.fold(recs)
        assert folded == [recs[1], recs[2], recs[3]]
        assert int(relay.metrics_records_folded) == 1

    def test_distinct_nodes_never_fold(self):
        recs = [_metric(1, 1.0, ts=10, node=1), _metric(1, 2.0, ts=11, node=2)]
        folded, _ = self.fold(recs)
        assert folded == recs

    def test_snapshot_equivalence(self):
        # The fold must be invisible to the metrics consumer: decoding
        # the folded stream yields the same final scalar map.
        recs = [_metric(k % 3, float(ts), ts=ts) for ts, k in enumerate(range(20))]
        folded, _ = self.fold(list(recs))
        assert snapshot_from_records(folded) == snapshot_from_records(recs)
        assert len(folded) == 3

    def test_no_metrics_passthrough_is_same_object(self):
        recs = [make_record(timestamp=t) for t in range(4)]
        folded, relay = self.fold(recs)
        assert folded is recs
        assert int(relay.metrics_records_folded) == 0


class TestRelayObservability:
    def test_wire_relay_registers_everything(self):
        from repro.obs.collect import wire_relay
        from repro.obs.metrics import MetricsRegistry

        relay = RelayServer(RelayConfig())
        try:
            registry = MetricsRegistry()
            wire_relay(registry, relay)
            relay.batches_in += 7
            snap = registry.snapshot()
            assert snap.get("relay.batches_in") == 7.0
            assert snap.get("relay.sources") == 0.0
            assert snap.get("relay.held_envelopes") == 0.0
            assert snap.get("relay.unacked_frames") == 0.0
            assert snap.get("relay.upstream_connected") == 0.0
            dump = relay.stats_dump()
            assert dump["counters"]["batches_in"] == 7
        finally:
            relay.listener.close()

    def test_stats_cli_relay_mode(self, tmp_path, capsys):
        import json

        from repro.tools.stats_cli import main as stats_main

        relay = RelayServer(RelayConfig(relay_id=4))
        try:
            relay.batches_in += 30
            relay.frames_out += 3
            dump = relay.stats_dump()
        finally:
            relay.listener.close()
        path = tmp_path / "relay.json"
        path.write_text(json.dumps(dump))
        assert stats_main(["relay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "relay 4" in out
        assert "relay.batches_in" in out
        assert "coalesce ratio: 10.0 batches/frame" in out

    def test_stats_cli_relay_mode_empty_dump(self, tmp_path, capsys):
        from repro.tools.stats_cli import main as stats_main

        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert stats_main(["relay", str(path)]) == 1
        assert "no relay stats" in capsys.readouterr().err


# ----------------------------------------------------------------------
# relayed delivery ≡ direct delivery
# ----------------------------------------------------------------------

N_RECORDS = 300


def _run_pipeline(
    *, relayed: bool, compress_min_bytes=None, reduce_metrics=False, n_exs=2
):
    """One EXS→[relay]→ISM run; returns (records, relay, manager)."""
    collected = CollectingConsumer()
    manager = InstrumentationManager(IsmConfig(), consumers=[collected])
    listener = MessageListener()
    server = IsmServer(manager, listener)
    host, port = listener.address
    server_thread = threading.Thread(
        target=server.serve,
        kwargs={"duration_s": 20.0, "until_records": n_exs * N_RECORDS},
        daemon=True,
    )
    server_thread.start()

    relay = None
    relay_thread = None
    if relayed:
        relay = RelayServer(
            RelayConfig(
                upstream_host=host,
                upstream_port=port,
                compress_min_bytes=compress_min_bytes,
                reduce_metrics=reduce_metrics,
            )
        )
        relay_thread = threading.Thread(
            target=relay.serve, kwargs={"duration_s": 19.0}, daemon=True
        )
        relay_thread.start()
        host, port = relay.address

    procs = []
    try:
        for i in range(n_exs):
            exs_id, node = i + 1, 10 * (i + 1)
            ring = ring_for_records(4 * N_RECORDS)
            sensor = Sensor(ring, node_id=node)
            for k in range(N_RECORDS):
                sensor.notice_ints(1, k)
            exs = ExternalSensor(
                exs_id, node, ring, CorrectedClock(now_micros),
                ExsConfig(batch_max_records=16, flush_timeout_us=1_000),
            )
            proc = ExsProcess(exs, connect(host, port), select_timeout_s=0.002)
            t = threading.Thread(target=proc.run, daemon=True)
            t.start()
            procs.append((proc, t))
        wait_until(
            lambda: len(collected.records) >= n_exs * N_RECORDS
            and all(p.outbox.unacked == 0 for p, _ in procs),
            timeout=15.0,
            message="relayed pipeline did not drain",
        )
    finally:
        for proc, t in procs:
            proc.stop()
            t.join(timeout=5)
        if relay is not None:
            relay.stop()
            relay_thread.join(timeout=5)
        server.stop()
        server_thread.join(timeout=5)
    return collected.records, relay, manager


def _per_node(recs):
    out: dict[int, list[int]] = {}
    for r in recs:
        out.setdefault(r.node_id, []).append(r.values[0])
    return out


class TestUpstreamDrainHardening:
    """Losing the upstream *while draining it* must not crash the pump.

    A handler reached from ``_drain_upstream`` can itself close the
    upstream socket (failed retransmit, failed TimeReply, upstream Bye).
    The ``recv_available`` iterator underneath is then sitting on a
    closed fd: pulling the next message would select on fd -1 and raise
    ValueError straight out of the serve loop.
    """

    def _relay(self):
        relay = RelayServer(RelayConfig())
        relay.listener.close()
        return relay

    def test_handler_losing_upstream_stops_the_drain(self):
        relay = self._relay()
        overdrained = []

        class FakeConn:
            def recv_available(self):
                # The TimeReply send below fails -> _lose_upstream runs
                # with this iterator still live.
                yield protocol.TimeRequest(probe_id=1)
                overdrained.append(True)
                yield protocol.Heartbeat(exs_id=0)

            def send(self, msg):
                raise ConnectionResetError

            def close(self):
                pass

        relay.upstream = FakeConn()
        relay._drain_upstream()
        assert relay.upstream is None
        assert overdrained == []

    def test_closed_fd_select_error_counts_as_peer_loss(self):
        relay = self._relay()

        class FakeConn:
            def recv_available(self):
                yield protocol.Heartbeat(exs_id=0)
                raise ValueError(
                    "file descriptor cannot be a negative integer (-1)"
                )

            def close(self):
                pass

        relay.upstream = FakeConn()
        relay._drain_upstream()
        assert relay.upstream is None


class TestRelayedEqualsDirect:
    def test_direct_baseline(self):
        recs, _, manager = _run_pipeline(relayed=False)
        assert _per_node(recs) == {10: list(range(N_RECORDS)), 20: list(range(N_RECORDS))}
        assert manager.stats.seq_gaps == 0

    @pytest.mark.parametrize("compress", [None, 200], ids=["plain", "compressed"])
    def test_relayed_matches_direct(self, compress):
        recs, relay, manager = _run_pipeline(relayed=True, compress_min_bytes=compress)
        # Same multiset and same per-node order as the direct topology.
        assert _per_node(recs) == {10: list(range(N_RECORDS)), 20: list(range(N_RECORDS))}
        assert manager.stats.duplicate_batches == 0
        assert manager.stats.seq_gaps == 0
        stats = relay.stats_dump()["counters"]
        assert stats["records_in"] == stats["records_out"] == 2 * N_RECORDS
        # The multiplier actually multiplied: far fewer frames out than in.
        assert stats["frames_out"] < stats["batches_in"]
        if compress is not None:
            assert stats["compressed_frames"] > 0
            assert stats["compressed_bytes_saved"] > 0
        else:
            assert stats["compressed_frames"] == 0

    def test_relay_into_sharded_ism(self):
        collected = CollectingConsumer()
        listener = MessageListener()
        server = ShardedIsmServer([collected], listener, shards=2)
        host, port = listener.address
        st_thread = threading.Thread(
            target=server.serve,
            kwargs={"duration_s": 30.0, "until_records": 2 * N_RECORDS},
            daemon=True,
        )
        st_thread.start()
        relay = RelayServer(
            RelayConfig(upstream_host=host, upstream_port=port, compress_min_bytes=200)
        )
        relay_thread = threading.Thread(
            target=relay.serve, kwargs={"duration_s": 29.0}, daemon=True
        )
        relay_thread.start()
        rhost, rport = relay.address
        procs = []
        try:
            # Nodes 10 and 21 land on different shards: the relay's one
            # upstream socket exercises per-frame peek routing.
            for exs_id, node in ((1, 10), (2, 21)):
                ring = ring_for_records(4 * N_RECORDS)
                sensor = Sensor(ring, node_id=node)
                for k in range(N_RECORDS):
                    sensor.notice_ints(1, k)
                exs = ExternalSensor(
                    exs_id, node, ring, CorrectedClock(now_micros),
                    ExsConfig(batch_max_records=16, flush_timeout_us=1_000),
                )
                proc = ExsProcess(exs, connect(rhost, rport), select_timeout_s=0.002)
                t = threading.Thread(target=proc.run, daemon=True)
                t.start()
                procs.append((proc, t))
            wait_until(
                lambda: len(collected.records) >= 2 * N_RECORDS
                and all(p.outbox.unacked == 0 for p, _ in procs),
                timeout=25.0,
                message="sharded relayed pipeline did not drain",
            )
            # The ingest plane fronts 2 sensors over exactly 1 socket.
            assert len(server.plane._conn_sources) == 1
            assert set(server.connections) == {1, 2}
        finally:
            for proc, t in procs:
                proc.stop()
                t.join(timeout=5)
            relay.stop()
            relay_thread.join(timeout=5)
            server.stop()
            st_thread.join(timeout=10)
        assert _per_node(collected.records) == {
            10: list(range(N_RECORDS)),
            21: list(range(N_RECORDS)),
        }
        assert int(server.unrouted_batches) == 0


# ----------------------------------------------------------------------
# wire-level frame counting: coalesced acks
# ----------------------------------------------------------------------

def _pump_client(conn, inbound):
    """Read one message; answer sync probes (like a real EXS), keep the
    rest for the test's assertions."""
    msg = conn.recv(timeout=0.05)
    if msg is None:
        return
    if isinstance(msg, protocol.TimeRequest):
        conn.send(
            protocol.TimeReply(probe_id=msg.probe_id, slave_time=now_micros())
        )
    else:
        inbound.append(msg)


class TestAckCoalescing:
    def test_multiplexed_sources_get_one_bundle_frame(self):
        """Three sources on one socket → their cycle acks arrive as a
        single AckBundle control frame, not three Ack frames."""
        collected = CollectingConsumer()
        manager = InstrumentationManager(IsmConfig(), consumers=[collected])
        listener = MessageListener()
        server = IsmServer(manager, listener)
        host, port = listener.address
        server_thread = threading.Thread(
            target=server.serve, kwargs={"duration_s": 10.0}, daemon=True
        )
        server_thread.start()
        conn = connect(host, port)
        try:
            for exs_id in (1, 2, 3):
                conn.send(
                    protocol.Hello(
                        exs_id=exs_id,
                        node_id=exs_id,
                        wants_ack=True,
                        capabilities=protocol.CAP_ACK_BUNDLE,
                    )
                )
            inbound: list[protocol.Message] = []

            def drain():
                _pump_client(conn, inbound)
                return [m for m in inbound if isinstance(m, protocol.HelloReply)]

            wait_until(lambda: len(drain()) == 3, timeout=5.0)
            replies = [m for m in inbound if isinstance(m, protocol.HelloReply)]
            assert all(r.capabilities for r in replies)
            # One write → one dispatcher read → one ack-flush cycle.
            conn.send_many(
                [
                    protocol.encode_batch_records(
                        exs_id, 0, [make_record(node_id=exs_id)]
                    )
                    for exs_id in (1, 2, 3)
                ]
            )

            def acked_sources():
                _pump_client(conn, inbound)
                got: set[int] = set()
                for m in inbound:
                    if isinstance(m, protocol.AckBundle):
                        got.update(e for e, _ in m.acks)
                    elif isinstance(m, protocol.Ack):
                        got.add(m.exs_id)
                return got == {1, 2, 3}

            wait_until(acked_sources, timeout=5.0)
            bundles = [m for m in inbound if isinstance(m, protocol.AckBundle)]
            singles = [m for m in inbound if isinstance(m, protocol.Ack)]
            assert len(bundles) == 1 and not singles
            assert sorted(e for e, _ in bundles[0].acks) == [1, 2, 3]
        finally:
            conn.close()
            server.stop()
            server_thread.join(timeout=5)

    def test_legacy_peer_still_gets_plain_acks(self):
        """Sources that advertised no capabilities never see AckBundle."""
        collected = CollectingConsumer()
        manager = InstrumentationManager(IsmConfig(), consumers=[collected])
        listener = MessageListener()
        server = IsmServer(manager, listener)
        host, port = listener.address
        server_thread = threading.Thread(
            target=server.serve, kwargs={"duration_s": 10.0}, daemon=True
        )
        server_thread.start()
        conn = connect(host, port)
        try:
            for exs_id in (1, 2):
                conn.send(
                    protocol.Hello(exs_id=exs_id, node_id=exs_id, wants_ack=True)
                )
                conn.send_raw(
                    protocol.encode_batch_records(
                        exs_id, 0, [make_record(node_id=exs_id)]
                    )
                )
            inbound: list[protocol.Message] = []

            def acked():
                _pump_client(conn, inbound)
                return {
                    m.exs_id for m in inbound if isinstance(m, protocol.Ack)
                } == {1, 2}

            wait_until(acked, timeout=5.0)
            assert not any(isinstance(m, protocol.AckBundle) for m in inbound)
            replies = [m for m in inbound if isinstance(m, protocol.HelloReply)]
            assert all(r.capabilities == 0 for r in replies)
        finally:
            conn.close()
            server.stop()
            server_thread.join(timeout=5)


# ----------------------------------------------------------------------
# chaos: SIGKILL the relay mid-stream, respawn, exactly-once holds
# ----------------------------------------------------------------------

class TestRelayChaos:
    @pytest.mark.timeout(120)
    def test_relay_kill_restart_is_exactly_once(self):
        n_records = 600
        collected = CollectingConsumer()
        manager = InstrumentationManager(IsmConfig(), consumers=[collected])
        listener = MessageListener()
        server = IsmServer(manager, listener)
        ism_host, ism_port = listener.address
        # Serve on duration alone (stopped explicitly below), never on
        # until_records: that bound stops the server the instant the last
        # record lands, and on a loaded host the whole stream can clear
        # before the kill below even fires — the respawned relay's resume
        # handshake then goes unanswered and one EXS outbox can never
        # drain, even though delivery itself was exactly-once.
        server_thread = threading.Thread(
            target=server.serve,
            kwargs={"duration_s": 90.0},
            daemon=True,
        )
        server_thread.start()

        # Parent-chosen fixed port so the respawned relay reuses it.
        probe = MessageListener()
        relay_port = probe.address[1]
        probe.close()
        ctx = mp.get_context("spawn")

        def spawn_relay():
            proc = ctx.Process(
                target=relay_process_main,
                args=(relay_port, ism_host, ism_port),
                kwargs={"duration_s": 80.0},
                daemon=True,
            )
            proc.start()
            return proc

        relay_proc = spawn_relay()
        runners = []
        try:
            for exs_id, node in ((1, 10), (2, 20)):
                ring = ring_for_records(4 * n_records)
                sensor = Sensor(ring, node_id=node)
                for k in range(n_records):
                    sensor.notice_ints(1, k)
                exs = ExternalSensor(
                    exs_id, node, ring, CorrectedClock(now_micros),
                    ExsConfig(batch_max_records=8, flush_timeout_us=1_000),
                )
                runner = ReconnectingExs(
                    exs,
                    "127.0.0.1",
                    relay_port,
                    select_timeout_s=0.002,
                    max_attempts=1_000,
                    backoff_s=0.02,
                    max_backoff_s=0.25,
                    ack_timeout_s=2.0,
                )
                t = threading.Thread(target=runner.run, daemon=True)
                t.start()
                runners.append((runner, t))

            # Let the stream establish, then murder the relay mid-flight.
            wait_until(lambda: len(collected.records) > 50, timeout=30.0)
            os.kill(relay_proc.pid, signal.SIGKILL)
            relay_proc.join(timeout=10)
            relay_proc = spawn_relay()

            wait_until(
                lambda: len(collected.records) >= 2 * n_records
                and all(r.outbox.unacked == 0 for r, _ in runners),
                timeout=60.0,
                message="chaos pipeline did not drain after relay respawn",
            )
        finally:
            for runner, t in runners:
                runner.stop()
                t.join(timeout=10)
            if relay_proc.is_alive():
                relay_proc.terminate()
            relay_proc.join(timeout=10)
            server.stop()
            server_thread.join(timeout=10)

        # Exactly-once through the tree: every record once, in order.
        assert _per_node(collected.records) == {
            10: list(range(n_records)),
            20: list(range(n_records)),
        }
