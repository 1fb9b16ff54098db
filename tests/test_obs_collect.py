"""Wiring the metrics registry over real pipeline objects, and the
``brisk-stats`` tool end to end."""



from repro.core.ringbuffer import HEADER_SIZE, OverflowPolicy, RingBuffer
from repro.obs import collect
from repro.obs.metrics import MetricsRegistry
from repro.runtime.exs_proc import ExsOutbox, ReconnectingExs
from repro.tools import stats_cli


class TestCollectWiring:
    def test_wire_ring_reports_occupancy(self):
        registry = MetricsRegistry()
        ring = RingBuffer(
            bytearray(HEADER_SIZE + 4096), OverflowPolicy.DROP_NEW
        )
        collect.wire_ring(registry, ring, prefix="ring")
        snap = registry.snapshot()
        assert snap.get("ring.capacity_bytes") == ring.capacity
        assert snap.get("ring.used_bytes") == 0.0
        assert snap.get("ring.fill_fraction") == 0.0
        assert snap.get("ring.dropped") == 0.0

    def test_wire_outbox_tracks_depth_and_acks(self):
        registry = MetricsRegistry()
        outbox = ExsOutbox(depth=8)
        outbox.append(0, b"batch-0")
        outbox.append(1, b"batch-1")
        collect.wire_outbox(registry, outbox)
        snap = registry.snapshot()
        assert snap.get("outbox.unacked") == 2.0
        assert snap.get("outbox.depth") == 8.0
        assert snap.get("outbox.acked_batches") == 0.0

    def test_wire_reconnector_adopts_counters(self):
        from repro.clocksync.clocks import CorrectedClock
        from repro.core.exs import ExternalSensor
        from repro.core.ringbuffer import ring_for_records
        from repro.util.timebase import now_micros

        ring = ring_for_records(1_000)
        exs = ExternalSensor(1, 1, ring, CorrectedClock(now_micros))
        runner = ReconnectingExs(exs, "127.0.0.1", 1, max_attempts=1)
        registry = MetricsRegistry()
        collect.wire_reconnector(registry, runner)
        runner.run()  # nothing listens: one failed attempt
        snap = registry.snapshot()
        assert snap.get("wire.failed_attempts") == 1.0
        assert snap.get("wire.connections") == 0.0
        assert snap.get("outbox.unacked") == 0.0

    def test_wire_sorter_splits_releases_by_path_and_names_the_gate(self):
        from tests.conftest import make_record

        from repro.core.sorting import OnlineSorter, SorterConfig
        from repro.obs.render import render_snapshot

        sorter = OnlineSorter(SorterConfig(initial_frame_us=100, decay_lambda=0.0))
        registry = MetricsRegistry()
        collect.wire_sorter(registry, sorter)
        sorter.add_source(7)  # registered, silent
        sorter.push(1, make_record(timestamp=10), now=10)
        sorter.extract(now=20)
        assert registry.snapshot().get("sorter.gating_source") == 7.0
        sorter.extract(now=110)  # waited out the frame
        sorter.push(7, make_record(timestamp=200), now=200)
        sorter.push(1, make_record(timestamp=150), now=201)
        sorter.push(1, make_record(timestamp=140), now=202)  # stepped back
        sorter.extract(now=203)  # 150, 140: 7's frontier has passed them
        snap = registry.snapshot()
        assert snap.get("sorter.released_on_frame") == 1.0
        assert snap.get("sorter.released_on_frontier") == 2.0
        assert snap.get("sorter.frontier_regressions") == 1.0
        assert snap.get("sorter.gating_source") == 1.0  # 200 waits on 1
        table = render_snapshot(snap)
        assert "released_on_frontier" in table and "gating_source" in table
        # The shutdown flush releases the parked 200 on neither path.
        assert len(sorter.flush(now=204)) == 1
        assert registry.snapshot().get("sorter.released_on_frame") == 1.0

    def test_dead_gauge_is_skipped_not_fatal(self):
        registry = MetricsRegistry()

        class Dying:
            @property
            def used(self):
                raise OSError("segment detached")

            free = 0
            capacity = 0
            dropped = 0
            overwritten = 0

        collect.wire_ring(registry, Dying(), prefix="dead")
        snap = registry.snapshot()
        assert "dead.used_bytes" not in snap
        assert snap.get("dead.free_bytes") == 0.0


class TestStatsCli:
    def test_sim_mode_round_trips(self, capsys):
        rc = stats_cli.main(
            ["sim", "--nodes", "2", "--duration", "2", "--rate", "50",
             "--seed", "3", "--quiet"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "final snapshot" in out
        assert "sorter.pushed" in out
        assert "self-emitted metrics decoded" in out

    def test_sim_mode_periodic_tables(self, capsys):
        rc = stats_cli.main(
            ["sim", "--nodes", "1", "--duration", "1", "--rate", "20"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "t=1.0s" in out

    def test_picl_mode_decodes_golden_trace(self, capsys):
        from tests.test_golden_pipeline import GOLDEN_PATH

        rc = stats_cli.main(["picl", str(GOLDEN_PATH)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sorter.pushed" in out

    def test_picl_mode_without_metrics_fails(self, tmp_path, capsys):
        trace = tmp_path / "plain.picl"
        trace.write_text("-3 1 1000 1 1 4 7\n", encoding="ascii")
        rc = stats_cli.main(["picl", str(trace)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "no metric records" in err

    def test_shm_mode_reads_live_segment(self, capsys):
        from repro.core.sensor import Sensor
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.reporter import MetricsReporter
        from repro.runtime.shm_consumer import SharedMemoryConsumer

        shm = SharedMemoryConsumer(capacity_bytes=1 << 16)
        try:
            # Self-emitted metric records land in the shared segment the
            # way an ISM --shm-out consumer would put them there.
            ring = RingBuffer(
                bytearray(HEADER_SIZE + (1 << 16)), OverflowPolicy.DROP_NEW
            )
            sensor = Sensor(ring, node_id=1, clock=lambda: 7)
            registry = MetricsRegistry()
            registry.counter("demo.count").inc(5)
            MetricsReporter(registry, sensor).emit_now(now=0)
            for record in ring.drain():
                shm.deliver(record)
            rc = stats_cli.main(["shm", shm.name])
            out = capsys.readouterr().out
            assert rc == 0
            assert "demo.count" in out
        finally:
            shm.close()


class TestIsmServerStatsSink:
    def test_periodic_stats_print(self):
        from repro.core.ism import InstrumentationManager
        from repro.runtime.ism_proc import IsmServer
        from repro.wire.tcp import MessageListener

        lines = []
        listener = MessageListener("127.0.0.1", 0)
        try:
            server = IsmServer(
                InstrumentationManager(),
                listener,
                stats_interval_s=0.001,
                stats_sink=lines.append,
            )
            server._next_stats = 0.0  # force: the interval has elapsed
            server._maybe_stats()
            assert lines, "stats sink never invoked"
            assert "brisk-ism stats" in lines[0]
            assert "sorter" in lines[0]
        finally:
            listener.close()
