"""Integration tests for the real runtime: shared memory and TCP loops.

Socket tests run EXS and ISM on threads inside one process — the transport
is the real kernel TCP stack; only the process boundary is collapsed.  The
true multi-process path (spawned interpreter, shared-memory attach) is
exercised by ``test_runtime_multiprocess.py``.
"""

import threading
import time

import pytest
from tests.conftest import make_record

from repro.clocksync.brisk_sync import BriskSyncConfig
from repro.clocksync.clocks import CorrectedClock
from repro.core.consumers import CollectingConsumer
from repro.core.exs import ExsConfig, ExternalSensor
from repro.core.ism import InstrumentationManager, IsmConfig
from repro.core.sensor import Sensor
from repro.core.sorting import SorterConfig
from repro.runtime import ExsProcess, IsmServer, attach_shared_ring, create_shared_ring
from repro.util.timebase import now_micros
from repro.wire import protocol
from repro.wire.tcp import MessageListener, connect


class TestSharedRing:
    def test_create_and_attach_share_data(self):
        owner = create_shared_ring(64 * 1024)
        try:
            other = attach_shared_ring(owner.name)
            try:
                owner.ring.push(make_record(event_id=5))
                assert other.ring.pop().event_id == 5
                assert owner.ring.used == 0  # consumption visible to owner
            finally:
                other.close()
        finally:
            owner.close()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            create_shared_ring(10)

    def test_close_releases_segment(self):
        owner = create_shared_ring(4096)
        name = owner.name
        owner.close()
        with pytest.raises(FileNotFoundError):
            attach_shared_ring(name)

    def test_context_manager(self):
        with create_shared_ring(4096) as shared:
            shared.ring.push(make_record())
            assert shared.ring.used > 0


class TestTcpTransport:
    def test_message_roundtrip_over_socket(self):
        listener = MessageListener()
        host, port = listener.address
        client = connect(host, port)
        server_conn = listener.accept(timeout=1.0)
        try:
            client.send(protocol.Hello(exs_id=1, node_id=2))
            msg = server_conn.recv(timeout=1.0)
            assert msg == protocol.Hello(exs_id=1, node_id=2)
            server_conn.send(protocol.Adjust(correction=5))
            assert client.recv(timeout=1.0) == protocol.Adjust(correction=5)
        finally:
            client.close()
            server_conn.close()
            listener.close()

    def test_recv_timeout_returns_none(self):
        listener = MessageListener()
        host, port = listener.address
        client = connect(host, port)
        server_conn = listener.accept(timeout=1.0)
        try:
            t0 = time.monotonic()
            assert server_conn.recv(timeout=0.05) is None
            assert time.monotonic() - t0 < 1.0
        finally:
            client.close()
            server_conn.close()
            listener.close()

    def test_batch_over_socket(self):
        listener = MessageListener()
        host, port = listener.address
        client = connect(host, port)
        server_conn = listener.accept(timeout=1.0)
        try:
            records = [make_record(event_id=i, timestamp=i) for i in range(100)]
            client.send(protocol.Batch(exs_id=1, seq=0, records=tuple(records)))
            msg = server_conn.recv(timeout=2.0)
            assert isinstance(msg, protocol.Batch)
            assert len(msg.records) == 100
        finally:
            client.close()
            server_conn.close()
            listener.close()

    def test_accept_timeout(self):
        listener = MessageListener()
        try:
            assert listener.accept(timeout=0.05) is None
        finally:
            listener.close()


def run_lis_against_server(
    n_records: int,
    sync_config: BriskSyncConfig | None = None,
    sync_period_s: float = 10.0,
) -> tuple[InstrumentationManager, IsmServer]:
    """One LIS (local ring + sensor + EXS thread) against a live IsmServer."""
    consumer = CollectingConsumer()
    manager = InstrumentationManager(
        IsmConfig(sorter=SorterConfig(initial_frame_us=1_000)), [consumer]
    )
    listener = MessageListener()
    host, port = listener.address
    server = IsmServer(manager, listener, sync_config, sync_period_s)

    shared = create_shared_ring(1 << 20)
    sensor = Sensor(shared.ring, node_id=1)
    exs = ExternalSensor(
        1, 1, shared.ring, CorrectedClock(now_micros),
        ExsConfig(batch_max_records=64, flush_timeout_us=5_000),
    )
    proc = ExsProcess(exs, connect(host, port), select_timeout_s=0.005)

    exs_thread = threading.Thread(target=proc.run, daemon=True)
    exs_thread.start()
    for i in range(n_records):
        sensor.notice_ints(7, i, 2, 3, 4, 5, 6)
    server.serve(duration_s=20.0, until_records=n_records)
    proc.stop()
    exs_thread.join(timeout=5.0)
    listener.close()
    shared.close()
    manager.consumer = consumer  # expose for assertions
    return manager, server


class TestExsIsmLoop:
    def test_records_flow_end_to_end(self):
        n = 5_000
        manager, server = run_lis_against_server(n)
        assert manager.stats.records_received == n
        assert manager.stats.seq_gaps == 0
        values = [r.values[0] for r in manager.consumer.records]
        assert values == sorted(values)
        assert len(values) == n

    def test_clock_sync_rounds_execute(self):
        manager, server = run_lis_against_server(
            2_000, sync_config=BriskSyncConfig(), sync_period_s=0.05
        )
        assert server.sync_rounds_completed >= 1

    def test_connection_teardown_counted(self):
        manager = InstrumentationManager(consumers=[CollectingConsumer()])
        listener = MessageListener()
        host, port = listener.address
        server = IsmServer(manager, listener)
        client = connect(host, port)
        client.send(protocol.Hello(exs_id=9, node_id=9))
        client.send(protocol.Bye(reason="done"))
        server.serve(duration_s=5.0, expected_connections=1)
        assert server.closed_connections == 1
        assert manager.sources == {9: 9}
        client.close()
        listener.close()

    def test_pump_sleeps_to_the_next_frame_deadline(self):
        config = IsmConfig(sorter=SorterConfig(initial_frame_us=3_000, decay_lambda=0.0))
        manager = InstrumentationManager(config, [CollectingConsumer()])
        listener = MessageListener()
        server = IsmServer(manager, listener)
        try:
            assert server._pump_timeout() == 0.005  # nothing parked: the tick
            manager.register_source(1, 1)
            manager.register_source(2, 2)  # silent: 1's record waits out T
            now = now_micros()
            record = make_record(timestamp=now, node_id=1)
            manager.on_batch(protocol.Batch(exs_id=1, seq=0, records=(record,)), now)
            assert manager.tick(now) == 0
            assert manager.next_deadline() == now + 3_000
            assert 0.001 <= server._pump_timeout() <= 0.003
            # An overdue deadline still sleeps the 1 ms floor (no spinning).
            manager.sorter.frame_us = 0.0
            assert server._pump_timeout() == 0.001
        finally:
            listener.close()
