"""Byte-identity and round-trip properties of the schema-specialized codec.

The fast codec (:mod:`repro.wire.fastcodec`) must be invisible on the
wire: for every field type, record width, and knob combination, the bytes
it emits are identical to the seed dynamic codec's, and decoding either
output yields equal records.  These tests sweep that whole matrix.
"""

from __future__ import annotations

import pytest

from repro.core.records import EventRecord, FieldType, intern_schema
from repro.wire import fastcodec, protocol
from repro.xdr import XdrDecodeError

# Cycles of valid, round-trip-exact values per field type (floats restricted
# to exactly f32-representable values so equality survives the 4-byte trip).
_VALUE_CYCLES = {
    FieldType.X_BYTE: (-128, 0, 127, -1),
    FieldType.X_UBYTE: (0, 1, 255, 128),
    FieldType.X_SHORT: (-(2**15), 0, 2**15 - 1, 42),
    FieldType.X_USHORT: (0, 2**16 - 1, 7, 512),
    FieldType.X_INT: (-(2**31), 2**31 - 1, 0, -12345),
    FieldType.X_UINT: (0, 2**32 - 1, 99, 2**31),
    FieldType.X_HYPER: (-(2**63), 2**63 - 1, 0, -(2**40)),
    FieldType.X_UHYPER: (0, 2**64 - 1, 2**63, 17),
    FieldType.X_FLOAT: (1.5, -0.25, 0.0, 1024.0),
    FieldType.X_DOUBLE: (3.141592653589793, -1e300, 0.0, 2.5),
    FieldType.X_STRING: ("", "hello", "héllo wörld", "x" * 17),
    FieldType.X_OPAQUE: (b"", b"\x00\xff", b"abc", b"\x01" * 9),
    FieldType.X_TS: (0, 1_000_000, -(2**62), 2**62),
    FieldType.X_REASON: (0, 1, 2**32 - 1, 77),
    FieldType.X_CONSEQ: (0, 3, 2**32 - 1, 8),
}

_MODES = [
    pytest.param(True, False, id="compressed-absolute"),
    pytest.param(True, True, id="compressed-delta"),
    pytest.param(False, False, id="plain-absolute"),
    pytest.param(False, True, id="plain-delta"),
]


def _records(ftype: FieldType, width: int) -> list[EventRecord]:
    cycle = _VALUE_CYCLES[ftype]
    return [
        EventRecord(
            event_id=100 + r,
            timestamp=1_000_000 + 10 * r,
            field_types=(ftype,) * width,
            values=tuple(cycle[(r + i) % len(cycle)] for i in range(width)),
        )
        for r in range(3)
    ]


@pytest.mark.parametrize("compress_meta,delta_ts", _MODES)
@pytest.mark.parametrize("width", range(13))
@pytest.mark.parametrize("ftype", list(FieldType))
def test_fast_codec_byte_identical_and_round_trips(ftype, width, compress_meta, delta_ts):
    records = _records(ftype, width)
    fast = protocol.encode_batch_records(
        5, 9, records, compress_meta=compress_meta, delta_ts=delta_ts
    )
    seed = protocol.encode_batch_records(
        5, 9, records,
        compress_meta=compress_meta, delta_ts=delta_ts, use_fastpath=False,
    )
    assert fast == seed

    decoded_fast = protocol.decode_message(fast)
    decoded_seed = protocol.decode_message(seed, use_fastpath=False)
    assert decoded_fast == decoded_seed
    assert list(decoded_fast.records) == records


def test_mixed_schema_batch_byte_identical():
    """Interleaved schema runs — fixed, variable-length, wide — stay
    byte-identical and round-trip through the mixed fast/dynamic loop."""
    records = []
    for i in range(4):
        records.append(
            EventRecord(
                event_id=i, timestamp=1_000_000 + i,
                field_types=(FieldType.X_INT,) * 6, values=(i, 2, 3, 4, 5, 6),
            )
        )
        records.append(
            EventRecord(
                event_id=50 + i, timestamp=1_000_100 + i,
                field_types=(FieldType.X_STRING, FieldType.X_UINT),
                values=(f"s{i}", i),
            )
        )
        records.append(
            EventRecord(
                event_id=90 + i, timestamp=1_000_200 + i,
                field_types=(FieldType.X_HYPER,) * 9,
                values=tuple(range(9)),
            )
        )
    fast = protocol.encode_batch_records(1, 0, records)
    seed = protocol.encode_batch_records(1, 0, records, use_fastpath=False)
    assert fast == seed
    assert list(protocol.decode_message(fast).records) == records


def test_delta_escape_stays_on_dynamic_path():
    far = EventRecord(
        event_id=1, timestamp=2**40,
        field_types=(FieldType.X_INT,), values=(1,),
    )
    near = EventRecord(
        event_id=2, timestamp=100,
        field_types=(FieldType.X_INT,), values=(2,),
    )
    fast = protocol.encode_batch_records(1, 0, [near, far], delta_ts=True)
    seed = protocol.encode_batch_records(
        1, 0, [near, far], delta_ts=True, use_fastpath=False
    )
    assert fast == seed
    assert list(protocol.decode_message(fast).records) == [near, far]


def test_decoded_records_share_interned_field_types():
    records = [
        EventRecord(
            event_id=i, timestamp=1_000_000 + i,
            field_types=(FieldType.X_INT,) * 6, values=(i, 2, 3, 4, 5, 6),
        )
        for i in range(5)
    ]
    batch = protocol.decode_message(protocol.encode_batch_records(1, 0, records))
    first = batch.records[0].field_types
    assert all(r.field_types is first for r in batch.records)
    # ...and the tuple is the canonical interned one.
    assert intern_schema(first).field_types is first


def test_truncated_batch_raises_through_fast_path():
    records = [
        EventRecord(
            event_id=1, timestamp=1_000_000,
            field_types=(FieldType.X_INT,) * 6, values=(1, 2, 3, 4, 5, 6),
        )
        for _ in range(4)
    ]
    payload = protocol.encode_batch_records(1, 0, records)
    for cut in (len(payload) - 3, len(payload) - 21, 40):
        with pytest.raises(XdrDecodeError):
            protocol.decode_message(payload[:cut])


def test_corrupt_meta_nibble_raises_through_fast_path():
    record = EventRecord(
        event_id=1, timestamp=1_000_000,
        field_types=(FieldType.X_INT,) * 6, values=(1, 2, 3, 4, 5, 6),
    )
    payload = bytearray(protocol.encode_batch_records(1, 0, [record]))
    meta_offset = 4 * 6 + 8 + 4  # header words + base ts + event id
    payload[meta_offset + 1] = 0xFF  # END sentinels where types belong
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_message(bytes(payload))


def test_extra_trailing_bytes_raise_through_fast_path():
    record = EventRecord(
        event_id=1, timestamp=1_000_000,
        field_types=(FieldType.X_INT,) * 6, values=(1, 2, 3, 4, 5, 6),
    )
    payload = protocol.encode_batch_records(1, 0, [record]) + b"\x00\x00\x00\x00"
    with pytest.raises(XdrDecodeError):
        protocol.decode_message(payload)


def test_codec_cache_is_shared_between_encode_and_decode():
    ft = (FieldType.X_DOUBLE, FieldType.X_UINT)
    codec = fastcodec.codec_for_types(ft)
    assert codec is not None
    mv = memoryview(
        protocol.encode_batch_records(
            1, 0,
            [EventRecord(event_id=1, timestamp=0, field_types=ft, values=(1.5, 2))],
        )
    )
    peeked = fastcodec.peek_codec(mv, 32, len(mv))  # 32 = batch header size
    assert peeked is codec


def test_variable_length_schema_has_a_compiled_codec():
    assert fastcodec.codec_for_types((FieldType.X_STRING,)) is not None
    assert fastcodec.codec_for_types((FieldType.X_OPAQUE, FieldType.X_INT)) is not None
    assert fastcodec.codec_for_types(()) is not None  # empty record is fixed
