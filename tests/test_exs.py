"""Unit tests for the external sensor (drain/correct/batch/encode)."""

import pytest
from tests.test_clocks import FakeTime

from repro.clocksync.clocks import CorrectedClock, DriftingClock
from repro.core import native
from repro.core.exs import ExsConfig, ExternalSensor
from repro.core.records import EventRecord, FieldType
from repro.core.ringbuffer import ring_for_records
from repro.core.sensor import Sensor
from repro.obs.metrics import MetricsRegistry
from repro.util.timebase import MAX_TIMESTAMP
from repro.wire import protocol


def make_lis(
    config: ExsConfig = ExsConfig(), offset_us: int = 0
) -> tuple[FakeTime, Sensor, ExternalSensor]:
    t = FakeTime(1_000_000)
    hw = DriftingClock(t, offset_us=offset_us)
    ring = ring_for_records(10_000)
    sensor = Sensor(ring, node_id=4, clock=hw.read)
    exs = ExternalSensor(
        exs_id=4, node_id=4, ring=ring, clock=CorrectedClock(hw), config=config
    )
    return t, sensor, exs


def decode_batches(payloads: list[bytes]) -> list[protocol.Batch]:
    return [protocol.decode_message(p) for p in payloads]


class TestDataPath:
    def test_hello_identifies_the_exs(self):
        _, _, exs = make_lis()
        hello = exs.hello()
        assert hello == protocol.Hello(exs_id=4, node_id=4)

    def test_poll_empty_ring_ships_nothing(self):
        _, _, exs = make_lis()
        assert exs.poll() == []

    def test_full_batch_shipped_at_max_records(self):
        config = ExsConfig(batch_max_records=10, flush_timeout_us=10**9)
        _, sensor, exs = make_lis(config)
        for i in range(25):
            sensor.notice_ints(1, i)
        batches = decode_batches(exs.poll())
        assert [len(b.records) for b in batches] == [10, 10]
        assert exs.stats.records_shipped == 20
        # Five records pend for the next batch.
        assert exs.stats.records_drained == 25

    def test_byte_cap_closes_batch(self):
        config = ExsConfig(
            batch_max_records=10_000, batch_max_bytes=100, flush_timeout_us=10**9
        )
        _, sensor, exs = make_lis(config)
        for i in range(20):
            sensor.notice_ints(1, i, 2, 3, 4, 5, 6)  # 40 wire bytes each
        batches = decode_batches(exs.poll())
        assert batches
        for batch in batches:
            size = sum(protocol.record_wire_size(r) for r in batch.records)
            assert size >= 100  # closed at/after the cap

    def test_latency_flush_ships_partial_batch(self):
        config = ExsConfig(batch_max_records=1000, flush_timeout_us=40_000)
        t, sensor, exs = make_lis(config)
        sensor.notice_ints(1, 42)
        assert exs.poll() == []  # batch under-full, timeout not reached
        t.value += 40_000
        batches = decode_batches(exs.poll())
        assert len(batches) == 1
        assert len(batches[0].records) == 1
        assert exs.stats.timeout_flushes == 1

    def test_sequence_numbers_increment(self):
        config = ExsConfig(batch_max_records=1)
        _, sensor, exs = make_lis(config)
        for i in range(3):
            sensor.notice_ints(1, i)
        batches = decode_batches(exs.poll())
        assert [b.seq for b in batches] == [0, 1, 2]

    def test_flush_ships_everything(self):
        config = ExsConfig(batch_max_records=1000, flush_timeout_us=10**9)
        _, sensor, exs = make_lis(config)
        for i in range(7):
            sensor.notice_ints(1, i)
        batches = decode_batches(exs.flush())
        assert sum(len(b.records) for b in batches) == 7

    def test_drain_limit_bounds_poll(self):
        config = ExsConfig(drain_limit=5, batch_max_records=100, flush_timeout_us=0)
        _, sensor, exs = make_lis(config)
        for i in range(12):
            sensor.notice_ints(1, i)
        exs.poll()
        assert exs.stats.records_drained == 5


class TestTimestampCorrection:
    def test_correction_applied_to_shipped_records(self):
        config = ExsConfig(batch_max_records=1)
        _, sensor, exs = make_lis(config)
        exs.clock.advance(500)
        sensor.notice_ints(1, 1)
        batch = decode_batches(exs.poll())[0]
        assert batch.records[0].timestamp == 1_000_000 + 500

    def test_correction_read_at_drain_time(self):
        # Records written before a correction still get the newest value:
        # the paper's correction is applied "before sending", not at write.
        config = ExsConfig(batch_max_records=1)
        _, sensor, exs = make_lis(config)
        sensor.notice_ints(1, 1)
        exs.clock.advance(250)
        batch = decode_batches(exs.poll())[0]
        assert batch.records[0].timestamp == 1_000_250

    def test_embedded_ts_fields_shifted_too(self):
        config = ExsConfig(batch_max_records=1)
        t, sensor, exs = make_lis(config)
        exs.clock.advance(100)
        sensor.notice(1, (FieldType.X_TS, t.value), (FieldType.X_INT, 5))
        batch = decode_batches(exs.poll())[0]
        record = batch.records[0]
        assert record.values[0] == record.timestamp

    def test_node_stamped(self):
        config = ExsConfig(batch_max_records=1)
        _, sensor, exs = make_lis(config)
        sensor.notice_ints(1, 1)
        encoded = exs.poll()[0]
        # Encoded batches do not carry node ids: the ISM stamps each
        # batch's node from the source's Hello.
        assert exs.stats.records_shipped == 1


class TestSyncEndpoint:
    def test_time_request_answered_from_corrected_clock(self):
        _, _, exs = make_lis(offset_us=-300)
        exs.clock.advance(100)
        reply = exs.on_time_request(protocol.TimeRequest(probe_id=9))
        assert reply.probe_id == 9
        assert reply.slave_time == 1_000_000 - 300 + 100

    def test_adjust_advances_clock(self):
        _, _, exs = make_lis()
        exs.on_adjust(protocol.Adjust(correction=750))
        assert exs.clock.correction_us == 750

    def test_adjust_rejects_negative(self):
        _, _, exs = make_lis()
        with pytest.raises(ValueError):
            exs.on_adjust(protocol.Adjust(correction=-1))


class TestWireKnobs:
    def test_delta_ts_batches_decode(self):
        config = ExsConfig(batch_max_records=5, delta_ts=True)
        t, sensor, exs = make_lis(config)
        for i in range(5):
            sensor.notice_ints(1, i)
            t.value += 100
        batch = decode_batches(exs.poll())[0]
        assert [r.values[0] for r in batch.records] == [0, 1, 2, 3, 4]
        assert batch.records[1].timestamp - batch.records[0].timestamp == 100

    def test_uncompressed_meta_costs_more_bytes(self):
        big_config = ExsConfig(batch_max_records=100, compress_meta=False)
        small_config = ExsConfig(batch_max_records=100, compress_meta=True)
        results = []
        for config in (big_config, small_config):
            _, sensor, exs = make_lis(config)
            for i in range(50):
                sensor.notice_ints(1, i, 2, 3, 4, 5, 6)
            payloads = exs.flush()
            results.append(sum(len(p) for p in payloads))
        assert results[0] > results[1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExsConfig(batch_max_records=0)
        with pytest.raises(ValueError):
            ExsConfig(batch_max_bytes=10)
        with pytest.raises(ValueError):
            ExsConfig(flush_timeout_us=-1)
        with pytest.raises(ValueError):
            ExsConfig(drain_limit=0)


class TestBadRingRecords:
    """A ring record nothing can ship costs that record only: the records
    drained around it, and the batch it would have joined, still ship."""

    def _ship_around(self, exs, sensor, bad: bytes) -> list[int]:
        for i in range(10):
            if i == 4:
                exs.ring.push_bytes(bad)
            else:
                sensor.notice_ints(1, i)
        shipped = [r.values[0] for b in decode_batches(exs.poll() + exs.flush()) for r in b.records]
        assert exs.stats.records_rejected == 1
        assert exs.stats.records_drained == 10
        return shipped

    def test_unknown_field_tag(self):
        _, sensor, exs = make_lis(ExsConfig(batch_max_records=3))
        bad = bytearray(native.pack_record(EventRecord(1, 1_000_000, (FieldType.X_INT,), (4,))))
        bad[native.HEADER_SIZE] = 0xC8  # no such field type
        assert self._ship_around(exs, sensor, bytes(bad)) == [0, 1, 2, 3, 5, 6, 7, 8, 9]

    @pytest.mark.parametrize("ts_field", [False, True])
    def test_corrected_timestamp_leaves_int64(self, ts_field):
        _, sensor, exs = make_lis(ExsConfig(batch_max_records=100))
        exs.clock.advance(10)
        if ts_field:  # the record timestamp fits; its X_TS field does not
            bad = EventRecord(1, 1_000_000, (FieldType.X_TS,), (MAX_TIMESTAMP - 5,))
        else:
            bad = EventRecord(1, MAX_TIMESTAMP - 5, (FieldType.X_INT,), (4,))
        shipped = self._ship_around(exs, sensor, native.pack_record(bad))
        assert shipped == [0, 1, 2, 3, 5, 6, 7, 8, 9]

    def test_rejects_are_exported_once_nonzero(self):
        t = FakeTime(1_000_000)
        ring = ring_for_records(100)
        metrics = MetricsRegistry(time_fn=lambda: 0.0)
        exs = ExternalSensor(1, 1, ring, CorrectedClock(t), metrics=metrics)
        exs.ring.push_bytes(native.pack_record(EventRecord(1, 5, (FieldType.X_INT,), (4,))))
        exs.flush()
        assert "exs.records_rejected" not in metrics.snapshot().values
        exs.ring.push_bytes(b"\x00" * 30)  # a header claiming zero bytes
        exs.flush()
        assert metrics.snapshot().values["exs.records_rejected"] == 1.0
