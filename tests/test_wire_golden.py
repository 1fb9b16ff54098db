"""Golden-vector tests locking the wire format.

The byte layout is a protocol contract: implementations on other
platforms (or future versions of this one) must produce these exact
bytes.  If one of these tests fails, the wire format changed — that is
a compatibility break, not a refactor.
"""

import pytest
from tests.conftest import make_record

from repro.core.filtering import FieldTest
from repro.core.records import EventRecord, FieldType
from repro.wire import protocol


def test_six_int_batch_golden():
    record = EventRecord(
        event_id=0x07,
        timestamp=0x0102030405060708,
        field_types=(FieldType.X_INT,) * 6,
        values=(1, 2, 3, 4, 5, 6),
    )
    encoded = protocol.encode_batch_records(0x0A, 0x0B, [record])
    expected = bytes.fromhex(
        "b215c001"          # magic
        "00000001"          # msg type BATCH
        "00000001"          # flags: compressed meta
        "0000000a"          # exs id
        "0000000b"          # seq
        "00000001"          # one record
        "0102030405060708"  # base ts (first record's)
        "00000007"          # event id
        "06444444"          # meta: n=6, six X_INT (4) nibbles
        "0102030405060708"  # timestamp
        "000000010000000200000003"
        "000000040000000500000006"
    )
    assert encoded == expected
    assert len(encoded) - 32 == 40  # the paper's 40-byte record


def test_meta_nibble_packing_golden():
    record = EventRecord(
        event_id=1,
        timestamp=0,
        field_types=(FieldType.X_BYTE, FieldType.X_DOUBLE, FieldType.X_STRING),
        values=(0, 0.0, ""),
    )
    encoded = protocol.encode_batch_records(1, 0, [record])
    # meta word: count 3 in top byte, codes 0 (X_BYTE), 9 (X_DOUBLE),
    # 10 (X_STRING) in successive nibbles, zero-padded low bits.
    meta_offset = 4 * 6 + 8 + 4  # header words + base ts + event id
    assert encoded[meta_offset : meta_offset + 4] == bytes.fromhex("030 9a000".replace(" ", ""))


def test_control_messages_golden():
    assert protocol.encode_message(
        protocol.TimeRequest(probe_id=0x1234)
    ) == bytes.fromhex("b215c001" "00000003" "00001234")
    assert protocol.encode_message(
        protocol.TimeReply(probe_id=1, slave_time=-1)
    ) == bytes.fromhex("b215c001" "00000004" "00000001" "ffffffffffffffff")
    assert protocol.encode_message(
        protocol.Adjust(correction=0x10, round_id=2)
    ) == bytes.fromhex("b215c001" "00000005" "0000000000000010" "00000002")
    assert protocol.encode_message(protocol.Bye(reason="ok")) == bytes.fromhex(
        "b215c001" "00000006" "00000002" "6f6b0000"
    )
    assert protocol.encode_message(protocol.Hello(exs_id=1, node_id=2)) == (
        bytes.fromhex("b215c001" "00000002" "00000001" "00000002" "00000000")
    )


def test_set_filter_golden():
    msg = protocol.SetFilter(
        allow_all_events=False,
        allowed_events=(7,),
        blocked_events=(),
        sample_every=3,
    )
    assert protocol.encode_message(msg) == bytes.fromhex(
        "b215c001"  # magic
        "00000007"  # SET_FILTER
        "00000000"  # allow_all_events = False
        "00000001" "00000007"  # allowed: [7]
        "00000000"  # blocked: []
        "00000003"  # sample_every
    )


def test_delta_ts_golden():
    records = [
        make_record(timestamp=1_000_000),
        make_record(timestamp=1_000_100),
    ]
    encoded = protocol.encode_batch_records(1, 0, records, delta_ts=True)
    # First record delta 0, second delta 100 — four bytes each.
    assert bytes.fromhex("00000000") in encoded
    assert bytes.fromhex("00000064") in encoded
    # And the full-width timestamps appear only once (base_ts).
    assert encoded.count((1_000_000).to_bytes(8, "big")) == 1


def test_string_padding_golden():
    record = EventRecord(
        event_id=1,
        timestamp=0,
        field_types=(FieldType.X_STRING,),
        values=("abc",),
    )
    encoded = protocol.encode_batch_records(1, 0, [record])
    # length 3, "abc", one zero pad byte.
    assert encoded.endswith(bytes.fromhex("00000003" "61626300"))


# Control-message vectors: each pins one message's bytes in both
# directions, including the trailing capability-gated words (present only
# up to the last one that is set) and their absence on legacy frames.
_CONTROL_VECTORS = [
    (
        protocol.Ack(exs_id=3, up_to_seq=0x10),
        "b215c001" "00000008" "00000003" "00000010",
    ),
    (protocol.AckBundle(acks=()), "b215c001" "0000000c" "00000000"),
    (
        protocol.AckBundle(acks=((1, 2), (3, 4))),
        "b215c001" "0000000c" "00000002"
        "00000001" "00000002"  # (exs 1, up to 2)
        "00000003" "00000004",  # (exs 3, up to 4)
    ),
    (protocol.Heartbeat(exs_id=5), "b215c001" "0000000a" "00000005"),
    (
        protocol.HelloReply(exs_id=1),
        "b215c001" "00000009" "00000001" "ffffffff",  # last_seq -1, no caps
    ),
    (
        protocol.HelloReply(
            exs_id=1,
            last_seq=7,
            capabilities=protocol.CAP_COMPRESS | protocol.CAP_ACK_BUNDLE,
        ),
        "b215c001" "00000009" "00000001" "00000007" "00000003",
    ),
    (
        protocol.Hello(exs_id=1, node_id=2, advertised_rate=38_000, wants_ack=True),
        "b215c001" "00000002" "00000001" "00000002" "00009470"
        "00000001",  # wants_ack word only
    ),
    (
        protocol.Hello(exs_id=1, node_id=2, capabilities=0xF),
        "b215c001" "00000002" "00000001" "00000002" "00000000"
        "00000000"  # wants_ack False, forced out by the word after it
        "0000000f",  # capabilities
    ),
    (
        protocol.SetFilter(filter_epoch=5),
        "b215c001" "00000007"
        "00000001"  # allow_all_events
        "00000000" "00000000"  # allowed: [], blocked: []
        "00000001"  # sample_every
        "00000005",  # filter_epoch only
    ),
    (
        protocol.SetFilter(target_exs_id=9),
        "b215c001" "00000007" "00000001" "00000000" "00000000" "00000001"
        "00000000"  # filter_epoch 0, forced out by the target
        "00000009",  # target_exs_id
    ),
    (
        protocol.SetFilter(
            allow_all_events=False,
            allowed_events=(7,),
            blocked_events=(3,),
            sample_every=2,
            filter_epoch=4,
            target_exs_id=9,
            field_tests=(FieldTest(0, "ge", 100), FieldTest(2, "lt", 1.5)),
        ),
        "b215c001" "00000007"
        "00000000"  # allow_all_events = False
        "00000001" "00000007"  # allowed: [7]
        "00000001" "00000003"  # blocked: [3]
        "00000002" "00000004" "00000009"  # sample_every, epoch, target
        "00000002"  # two field tests
        "00000000" "00000005" "00000000" "0000000000000064"  # f0 ge 100
        "00000002" "00000002" "00000001" "3ff8000000000000",  # f2 lt 1.5
    ),
]


@pytest.mark.parametrize(
    "msg, hex_bytes",
    _CONTROL_VECTORS,
    ids=[
        "ack",
        "ack_bundle_empty",
        "ack_bundle_two",
        "heartbeat",
        "hello_reply",
        "hello_reply_caps",
        "hello_wants_ack",
        "hello_caps",
        "set_filter_epoch",
        "set_filter_target",
        "set_filter_field_tests",
    ],
)
def test_control_message_vectors(msg, hex_bytes):
    wire = bytes.fromhex(hex_bytes)
    assert protocol.encode_message(msg) == wire
    assert protocol.decode_message(wire) == msg


def test_compressed_control_envelope_golden():
    # zlib output is not pinned across zlib builds, so the envelope is
    # pinned on the decode side; the header words are pinned both ways.
    wire = bytes.fromhex(
        "b215c001" "0000000b"  # magic, COMPRESSED
        "00000010"  # raw length: the 16-byte Ack inside
        "00000015" "7801db247a809181818103889981580000175f01a4000000"
    )
    ack = protocol.Ack(exs_id=3, up_to_seq=0x10)
    assert protocol.decode_message(wire) == ack
    framed = protocol.compress_frame(protocol.encode_message(ack))
    assert framed[:12] == wire[:12]
    assert protocol.decode_message(framed) == ack
