"""Unit tests for the BRISK wire protocol (batches + control messages)."""

import pytest
from hypothesis import given, settings
from tests.conftest import make_mixed_record, make_record
from tests.strategies import control_messages

from repro.core.records import EventRecord, FieldType
from repro.wire import protocol
from repro.wire.protocol import (
    MAGIC,
    Adjust,
    Batch,
    Bye,
    Hello,
    ProtocolError,
    TimeReply,
    TimeRequest,
    decode_message,
    encode_batch_records,
    encode_message,
    record_wire_size,
)


def roundtrip_batch(records, **opts) -> Batch:
    encoded = encode_batch_records(7, 3, records, **opts)
    msg = decode_message(encoded)
    assert isinstance(msg, Batch)
    return msg


class TestBatchRoundtrip:
    def test_six_int_records(self):
        records = [make_record(event_id=i, timestamp=1000 + i) for i in range(5)]
        batch = roundtrip_batch(records)
        assert batch.exs_id == 7
        assert batch.seq == 3
        assert list(batch.records) == records

    def test_empty_batch(self):
        batch = roundtrip_batch([])
        assert batch.records == ()

    def test_all_field_types(self):
        batch = roundtrip_batch([make_mixed_record()])
        # node_id travels out of band (see test_node_id_not_transmitted).
        assert batch.records[0] == make_mixed_record().with_node(0)

    def test_wide_record_meta_extension_words(self):
        record = EventRecord(
            event_id=1,
            timestamp=5,
            field_types=(FieldType.X_INT,) * 23,
            values=tuple(range(23)),
        )
        batch = roundtrip_batch([record])
        assert batch.records[0] == record

    def test_uncompressed_meta(self):
        records = [make_record()]
        batch = roundtrip_batch(records, compress_meta=False)
        assert list(batch.records) == records

    def test_delta_ts(self):
        records = [
            make_record(timestamp=1_000_000),
            make_record(timestamp=1_000_500),
            make_record(timestamp=999_000),  # negative delta
        ]
        batch = roundtrip_batch(records, delta_ts=True)
        assert [r.timestamp for r in batch.records] == [
            1_000_000,
            1_000_500,
            999_000,
        ]

    def test_delta_ts_escape_for_large_delta(self):
        records = [
            make_record(timestamp=0),
            make_record(timestamp=2**40),  # delta exceeds int32
        ]
        batch = roundtrip_batch(records, delta_ts=True)
        assert batch.records[1].timestamp == 2**40

    def test_node_id_not_transmitted(self):
        # Node identity is implied by the connection; the ISM stamps it.
        batch = roundtrip_batch([make_record(node_id=9)])
        assert batch.records[0].node_id == 0


class TestWireSize:
    def test_paper_figure_40_bytes_for_six_ints(self):
        record = make_record()
        assert record_wire_size(record) == 40

    def test_size_matches_actual_encoding(self):
        for opts in (
            {},
            {"compress_meta": False},
            {"delta_ts": True},
        ):
            record = make_record(timestamp=1000)
            one = len(encode_batch_records(1, 0, [record], **opts))
            two = len(encode_batch_records(1, 0, [record, record], **opts))
            assert two - one == record_wire_size(record, **opts)

    def test_compression_saves_bytes(self):
        record = make_record()
        assert record_wire_size(record, compress_meta=False) == 40 + 6 * 4
        assert record_wire_size(record) == 40

    def test_delta_ts_saves_four_bytes(self):
        record = make_record()
        assert record_wire_size(record, delta_ts=True) == 36

    def test_wide_record_meta_size(self):
        record = EventRecord(
            event_id=1,
            timestamp=0,
            field_types=(FieldType.X_INT,) * 14,
            values=(0,) * 14,
        )
        # 6 codes in word 0, 8 in one extension word.
        assert record_wire_size(record) == 4 + 8 + 8 + 14 * 4


class TestControlMessages:
    @pytest.mark.parametrize(
        "msg",
        [
            Hello(exs_id=1, node_id=2, advertised_rate=38_000),
            TimeRequest(probe_id=5),
            TimeReply(probe_id=5, slave_time=123_456_789),
            Adjust(correction=250, round_id=3),
            Bye(reason="done"),
            Bye(),
        ],
    )
    def test_roundtrip(self, msg):
        assert decode_message(encode_message(msg)) == msg

    @settings(deadline=None)
    @given(control_messages())
    def test_roundtrip_every_message(self, msg):
        # Every control message, every field random and in range, plain
        # and inside a COMPRESSED envelope.
        wire = encode_message(msg)
        assert decode_message(wire) == msg
        assert decode_message(protocol.compress_frame(wire)) == msg

    def test_adjust_negative_correction_roundtrip(self):
        # Cristian baseline sends signed corrections.
        msg = Adjust(correction=-1000)
        assert decode_message(encode_message(msg)) == msg

    def test_unknown_object_rejected(self):
        with pytest.raises(TypeError):
            encode_message(object())


class TestProtocolErrors:
    def test_bad_magic(self):
        encoded = bytearray(encode_message(TimeRequest(probe_id=1)))
        encoded[0] ^= 0xFF
        with pytest.raises(ProtocolError):
            decode_message(bytes(encoded))

    def test_unknown_message_type(self):
        from repro.xdr import XdrEncoder

        enc = XdrEncoder()
        enc.pack_uint(MAGIC)
        enc.pack_uint(99)
        with pytest.raises(ProtocolError):
            decode_message(enc.getvalue())

    def test_truncated_batch(self):
        encoded = encode_batch_records(1, 0, [make_record()])
        with pytest.raises(Exception):
            decode_message(encoded[:-4])

    def test_trailing_garbage_rejected(self):
        encoded = encode_message(TimeRequest(probe_id=1)) + b"\x00\x00\x00\x00"
        with pytest.raises(Exception):
            decode_message(encoded)

    def test_absurd_field_count_rejected(self):
        from repro.xdr import XdrEncoder

        enc = XdrEncoder()
        enc.pack_uint(MAGIC)
        enc.pack_uint(protocol.MsgType.BATCH)
        enc.pack_uint(protocol._FLAG_COMPRESS_META)
        enc.pack_uint(1)  # exs
        enc.pack_uint(0)  # seq
        enc.pack_uint(1)  # one record
        enc.pack_hyper(0)  # base ts
        enc.pack_uint(5)  # event id
        enc.pack_uint(0xFF << 24)  # 255 fields claimed, no codes follow
        with pytest.raises(Exception):
            decode_message(enc.getvalue())
