"""Integration tests for EXS automatic reconnection."""

import threading
import time

import pytest
from tests.conftest import wait_until

from repro.clocksync.clocks import CorrectedClock
from repro.core.consumers import CollectingConsumer
from repro.core.exs import ExsConfig, ExternalSensor
from repro.core.ism import InstrumentationManager, IsmConfig
from repro.core.ringbuffer import ring_for_records
from repro.core.sensor import Sensor
from repro.core.sorting import SorterConfig
from repro.runtime.exs_proc import ReconnectingExs
from repro.runtime.ism_proc import IsmServer
from repro.util.timebase import now_micros
from repro.wire.tcp import MessageListener


def make_lis():
    ring = ring_for_records(50_000)
    sensor = Sensor(ring, node_id=1)
    exs = ExternalSensor(
        1, 1, ring, CorrectedClock(now_micros),
        ExsConfig(batch_max_records=32, flush_timeout_us=2_000),
    )
    return sensor, exs


def serve_phase(listener, manager, until_records):
    server = IsmServer(manager, listener)
    server.serve(duration_s=20.0, until_records=until_records)
    return server


class TestReconnectingExs:
    def test_survives_ism_restart(self):
        sensor, exs = make_lis()
        manager = InstrumentationManager(
            IsmConfig(sorter=SorterConfig(initial_frame_us=0)),
            [CollectingConsumer()],
        )
        listener = MessageListener()
        host, port = listener.address

        runner = ReconnectingExs(
            exs, host, port,
            select_timeout_s=0.002,
            max_attempts=50,
            backoff_s=0.02,
            max_backoff_s=0.1,
        )
        thread = threading.Thread(target=runner.run, daemon=True)
        thread.start()
        try:
            # Phase 1: normal flow.
            for k in range(100):
                sensor.notice_ints(1, k)
            serve_phase(listener, manager, until_records=100)
            assert manager.stats.records_received == 100

            # "Crash" the ISM: close the listener and all its accepted
            # connections by letting the server object go; reopen on the
            # SAME port so the EXS's retry loop can find it again.
            listener.close()
            # Wait for the runner to notice the dead connection: its
            # first reconnect attempt against the closed port fails.
            wait_until(lambda: runner.failed_attempts >= 1)
            # Records written during the outage buffer in the ring.
            for k in range(100, 200):
                sensor.notice_ints(1, k)
            listener = MessageListener(host, port)

            serve_phase(listener, manager, until_records=200)
            assert manager.stats.records_received == 200
            assert runner.connections >= 2
        finally:
            runner.stop()
            thread.join(timeout=10)
            listener.close()

    def test_gives_up_after_max_attempts(self):
        sensor, exs = make_lis()
        # Nothing listens on this port.
        probe = MessageListener()
        host, port = probe.address
        probe.close()
        runner = ReconnectingExs(
            exs, host, port, max_attempts=3, backoff_s=0.01, max_backoff_s=0.02
        )
        t0 = time.monotonic()
        runner.run()  # returns instead of spinning forever
        assert time.monotonic() - t0 < 5.0
        assert runner.failed_attempts == 3
        assert runner.connections == 0

    def test_stop_interrupts_retries(self):
        sensor, exs = make_lis()
        probe = MessageListener()
        host, port = probe.address
        probe.close()
        runner = ReconnectingExs(
            exs, host, port, max_attempts=10_000, backoff_s=0.05
        )
        thread = threading.Thread(target=runner.run, daemon=True)
        thread.start()
        # Ensure the runner is inside its retry loop before stopping it.
        wait_until(lambda: runner.failed_attempts >= 1)
        runner.stop()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_validation(self):
        sensor, exs = make_lis()
        with pytest.raises(ValueError):
            ReconnectingExs(exs, "127.0.0.1", 1, max_attempts=0)

    def test_backoff_uses_decorrelated_jitter(self):
        """Backoff delays are drawn from [base, 3·previous] (capped), and
        two runners with different RNGs diverge — no reconnect lockstep
        after a shared ISM outage."""
        import random

        sensor, exs = make_lis()
        runner = ReconnectingExs(
            exs,
            "127.0.0.1",
            1,
            backoff_s=0.1,
            max_backoff_s=2.0,
            jitter_rng=random.Random(1),
        )
        delay = runner.uplink.backoff_s
        for _ in range(100):
            nxt = runner.uplink._next_backoff(delay)
            assert runner.uplink.backoff_s <= nxt <= min(2.0, max(0.1, delay * 3))
            delay = nxt

        sensor2, exs2 = make_lis()
        other = ReconnectingExs(
            exs2,
            "127.0.0.1",
            1,
            backoff_s=0.1,
            max_backoff_s=2.0,
            jitter_rng=random.Random(2),
        )
        mine = [runner.uplink._next_backoff(0.1) for _ in range(10)]
        theirs = [other.uplink._next_backoff(0.1) for _ in range(10)]
        assert mine != theirs

    def test_shared_outbox_survives_sessions(self):
        """The outbox is owned by the runner, not a session: batches left
        unacked when one connection dies are retransmitted on the next."""
        sensor, exs = make_lis()
        runner = ReconnectingExs(exs, "127.0.0.1", 1, max_attempts=1)
        runner.outbox.append(0, b"payload")
        runner.run()  # no listener: the attempt fails
        assert runner.outbox.unacked == 1  # nothing silently dropped
