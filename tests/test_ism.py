"""Unit tests for the instrumentation system manager."""

import pytest
from tests.conftest import make_record
from tests.test_clocksync import ExactSlave

from repro.clocksync.brisk_sync import BriskSyncMaster
from repro.core.consumers import CollectingConsumer
from repro.core.cre import CreConfig
from repro.core.ism import InstrumentationManager, IsmConfig
from repro.core.records import EventRecord, FieldType
from repro.core.sorting import SorterConfig
from repro.wire import protocol


def batch(exs_id: int, seq: int, records) -> protocol.Batch:
    return protocol.Batch(exs_id=exs_id, seq=seq, records=tuple(records))


def manager(**sorter_kwargs) -> tuple[InstrumentationManager, CollectingConsumer]:
    consumer = CollectingConsumer()
    config = IsmConfig(sorter=SorterConfig(**sorter_kwargs))
    return InstrumentationManager(config, [consumer]), consumer


class TestIntake:
    def test_hello_registers_source(self):
        mgr, _ = manager()
        mgr.on_message(protocol.Hello(exs_id=3, node_id=7), now=0)
        assert mgr.sources == {3: 7}

    def test_batch_records_stamped_with_node(self):
        mgr, consumer = manager(initial_frame_us=0)
        mgr.register_source(3, node_id=7)
        mgr.on_batch(batch(3, 0, [make_record()]), now=0)
        mgr.tick(now=10**9)
        assert consumer.records[0].node_id == 7

    def test_unknown_source_tolerated_and_counted(self):
        mgr, _ = manager()
        mgr.on_batch(batch(99, 0, [make_record()]), now=0)
        assert mgr.stats.unknown_source_records == 1
        assert 99 in mgr.sources

    def test_seq_gap_detected(self):
        mgr, _ = manager()
        mgr.register_source(1, 1)
        mgr.on_batch(batch(1, 0, [make_record()]), now=0)
        mgr.on_batch(batch(1, 2, [make_record()]), now=0)  # 1 skipped
        assert mgr.stats.seq_gaps == 1

    def test_contiguous_seq_no_gap(self):
        mgr, _ = manager()
        mgr.register_source(1, 1)
        for seq in range(5):
            mgr.on_batch(batch(1, seq, [make_record()]), now=0)
        assert mgr.stats.seq_gaps == 0

    def test_sync_messages_rejected(self):
        mgr, _ = manager()
        with pytest.raises(TypeError):
            mgr.on_message(protocol.TimeReply(probe_id=1, slave_time=0), now=0)

    def test_bye_is_accepted_quietly(self):
        mgr, _ = manager()
        mgr.on_message(protocol.Bye(), now=0)


class TestPipeline:
    def test_cross_source_merge_order(self):
        mgr, consumer = manager(initial_frame_us=0)
        mgr.register_source(1, 1)
        mgr.register_source(2, 2)
        mgr.on_batch(
            batch(1, 0, [make_record(timestamp=10), make_record(timestamp=30)]),
            now=0,
        )
        mgr.on_batch(
            batch(2, 0, [make_record(timestamp=20), make_record(timestamp=40)]),
            now=0,
        )
        mgr.tick(now=10**9)
        assert [r.timestamp for r in consumer.records] == [10, 20, 30, 40]

    def test_tick_respects_time_frame(self):
        mgr, consumer = manager(initial_frame_us=1000, decay_lambda=0.0)
        mgr.register_source(1, 1)
        mgr.register_source(2, 2)  # silent peer: the frame is the wait for it
        mgr.on_batch(batch(1, 0, [make_record(timestamp=500)]), now=500)
        assert mgr.tick(now=1_000) == 0
        assert mgr.tick(now=1_501) == 1
        assert len(consumer.records) == 1

    def test_causal_ordering_applied_after_sort(self):
        mgr, consumer = manager(initial_frame_us=0)
        mgr.register_source(1, 1)
        conseq = EventRecord(
            event_id=2,
            timestamp=100,
            field_types=(FieldType.X_CONSEQ,),
            values=(5,),
        )
        reason = EventRecord(
            event_id=1,
            timestamp=200,
            field_types=(FieldType.X_REASON,),
            values=(5,),
        )
        mgr.on_batch(batch(1, 0, [conseq, reason]), now=0)
        mgr.tick(now=10**9)
        assert [r.event_id for r in consumer.records] == [1, 2]
        # The tachyonic consequence was pushed past its reason.
        assert consumer.records[1].timestamp == 201

    def test_tachyon_requests_sync_round(self):
        consumer = CollectingConsumer()
        master = BriskSyncMaster([ExactSlave(1, 0.0)])
        mgr = InstrumentationManager(
            IsmConfig(sorter=SorterConfig(initial_frame_us=0)),
            [consumer],
            sync_master=master,
        )
        mgr.register_source(1, 1)
        reason = EventRecord(
            event_id=1, timestamp=500,
            field_types=(FieldType.X_REASON,), values=(5,),
        )
        conseq = EventRecord(
            event_id=2, timestamp=100,
            field_types=(FieldType.X_CONSEQ,), values=(5,),
        )
        mgr.on_batch(batch(1, 0, [conseq, reason]), now=0)
        mgr.tick(now=10**9)
        assert master.extra_round_requested

    def test_cre_timeout_handled_by_tick(self):
        consumer = CollectingConsumer()
        config = IsmConfig(
            sorter=SorterConfig(initial_frame_us=0),
            cre=CreConfig(timeout_us=1_000),
            expire_interval_us=0,
        )
        mgr = InstrumentationManager(config, [consumer])
        mgr.register_source(1, 1)
        orphan = EventRecord(
            event_id=2, timestamp=100,
            field_types=(FieldType.X_CONSEQ,), values=(5,),
        )
        mgr.on_batch(batch(1, 0, [orphan]), now=0)
        mgr.tick(now=200)  # parked
        assert consumer.records == []
        mgr.tick(now=2_000)  # past the timeout
        assert len(consumer.records) == 1

    def test_flush_drains_sorter_and_parked(self):
        mgr, consumer = manager(initial_frame_us=10**7)
        mgr.register_source(1, 1)
        orphan = EventRecord(
            event_id=2, timestamp=100,
            field_types=(FieldType.X_CONSEQ,), values=(5,),
        )
        mgr.on_batch(batch(1, 0, [make_record(timestamp=50), orphan]), now=0)
        delivered = mgr.flush(now=100)
        assert delivered == 2
        assert len(consumer.records) == 2

    def test_delivery_counters(self):
        mgr, _ = manager(initial_frame_us=0)
        mgr.register_source(1, 1)
        mgr.on_batch(batch(1, 0, [make_record()] * 3), now=0)
        mgr.tick(now=10**9)
        assert mgr.stats.batches_received == 1
        assert mgr.stats.records_received == 3
        assert mgr.stats.records_delivered == 3

    def test_multiple_consumers_all_receive(self):
        a, b = CollectingConsumer(), CollectingConsumer()
        mgr = InstrumentationManager(
            IsmConfig(sorter=SorterConfig(initial_frame_us=0)), [a, b]
        )
        mgr.register_source(1, 1)
        mgr.on_batch(batch(1, 0, [make_record()]), now=0)
        mgr.tick(now=10**9)
        assert len(a.records) == len(b.records) == 1

    def test_close_closes_consumers_once(self):
        class Closeable(CollectingConsumer):
            def __init__(self):
                super().__init__()
                self.closed = 0

            def close(self):
                self.closed += 1

        consumer = Closeable()
        mgr = InstrumentationManager(consumers=[consumer])
        mgr.close()
        mgr.close()
        assert consumer.closed == 1

    def test_expire_interval_throttles_scans(self):
        config = IsmConfig(
            sorter=SorterConfig(initial_frame_us=0),
            cre=CreConfig(timeout_us=100),
            expire_interval_us=1_000_000,
        )
        consumer = CollectingConsumer()
        mgr = InstrumentationManager(config, [consumer])
        mgr.register_source(1, 1)
        orphan = EventRecord(
            event_id=2, timestamp=10,
            field_types=(FieldType.X_CONSEQ,), values=(5,),
        )
        mgr.on_batch(batch(1, 0, [orphan]), now=0)
        mgr.tick(now=0)  # first tick runs a scan and arms the throttle
        mgr.tick(now=500_000)  # within the interval: no scan, still parked
        assert consumer.records == []
        mgr.tick(now=1_100_000)
        assert len(consumer.records) == 1
