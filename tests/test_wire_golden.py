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
from repro.runtime.plane import ConnectionPlane
from repro.runtime.relay_proc import RelayConfig, RelayServer, _Envelope, _Source
from repro.runtime.uplink import ExsOutbox, Uplink
from repro.wire import protocol
from repro.wire.tcp import MessageListener


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
    framed = protocol.compress_frame(
        protocol.encode_message(ack), caps=protocol.CAP_COMPRESS
    )
    assert framed[:12] == wire[:12]
    assert protocol.decode_message(framed) == ack


# ----------------------------------------------------------------------
# what a peer receives, by the capability bits it advertised
# ----------------------------------------------------------------------
# Each extension bit has a pair of vectors, both produced by the runtime's
# own send paths: the bytes a peer that advertised the bit receives, and
# the bytes a legacy peer without it receives instead.


class _Peer:
    """A peer's socket as the sending tier sees it: keeps each frame."""

    bytes_received = frames_received = 0

    def __init__(self):
        self.frames = []

    def send(self, msg):
        self.frames.append(protocol.encode_message(msg))

    def send_many(self, payloads):
        self.frames.extend(bytes(p) for p in payloads)

    def close(self):
        pass


def _plane_frames(caps, act):
    """What a connection plane sends a peer multiplexing sources 1 and 2,
    both advertising *caps*, while *act* drives the plane."""
    listener = MessageListener()
    try:
        plane = ConnectionPlane(listener)
        peer = _Peer()
        for exs_id in (1, 2):
            plane.bind(
                peer,
                protocol.Hello(
                    exs_id=exs_id, node_id=exs_id, wants_ack=True, capabilities=caps
                ),
            )
        act(plane)
        return [frame.hex() for frame in peer.frames]
    finally:
        listener.close()


def _two_int_record(ts):
    return EventRecord(7, ts, (FieldType.X_INT,) * 2, (1, 2))


#: ``_two_int_record``'s wire bytes: event id, meta, timestamp, values.
_RECORD_AT_10 = "00000007" "02440000" "0000000000000010" "00000001" "00000002"
_RECORD_AT_20 = "00000007" "02440000" "0000000000000020" "00000001" "00000002"

_STEERED = protocol.SetFilter(
    allow_all_events=False,
    allowed_events=(7,),
    blocked_events=(3,),
    sample_every=2,
    filter_epoch=4,
    target_exs_id=1,
    field_tests=(FieldTest(0, "ge", 100),),
)
_SET_FILTER_HEAD = (
    "b215c001" "00000007"
    "00000000"  # allow_all_events = False
    "00000001" "00000007"  # allowed: [7]
    "00000001" "00000003"  # blocked: [3]
    "00000002"  # sample_every
)


@pytest.mark.parametrize(
    "caps, expected",
    [
        (0, [_SET_FILTER_HEAD]),  # no trailing words: the legacy frame
        (
            protocol.CAP_STEERING,
            [
                _SET_FILTER_HEAD + "00000004" "00000001"  # epoch, target
                "00000001" "00000000" "00000005" "00000000" "0000000000000064"
            ],
        ),
    ],
    ids=["legacy", "steering"],
)
def test_set_filter_by_capability(caps, expected):
    assert _plane_frames(caps, lambda plane: plane.hold_filter(1, _STEERED)) == expected


def _flush_two_acks(plane):
    plane.queue_ack(2, 9)
    plane.queue_ack(1, 5)
    plane.flush_acks()


@pytest.mark.parametrize(
    "caps, expected",
    [
        (  # one Ack per pair, in pair order
            0,
            [
                "b215c001" "00000008" "00000001" "00000005",
                "b215c001" "00000008" "00000002" "00000009",
            ],
        ),
        (
            protocol.CAP_ACK_BUNDLE,
            [
                "b215c001" "0000000c" "00000002"
                "00000001" "00000005" "00000002" "00000009"
            ],
        ),
    ],
    ids=["legacy", "ack_bundle"],
)
def test_ack_bundle_by_capability(caps, expected):
    assert _plane_frames(caps, _flush_two_acks) == expected


def _relay_frames(caps):
    """What a relay sends upstream for two consecutive batches of source
    1 (seqs 4 and 5), toward an upstream that replied *caps*."""
    relay = RelayServer(RelayConfig())
    try:
        relay.uplink.peer_caps = caps
        relay.uplink.conn = object()  # connected: the flush ships
        sent = []
        relay.uplink.send = lambda out: (sent.extend(out), (0, 0))[1]
        relay.sources[1] = _Source(1)
        relay.merger.add_shard(1)
        for seq, ts in ((4, 0x10), (5, 0x20)):
            frame = protocol.encode_batch_records(1, seq, [_two_int_record(ts)])
            relay.sources[1].queued += 1
            relay.merger.push(1, (_Envelope(protocol.view_message(frame), len(frame)),))
        relay._flush_upstream()
        return [(exs_id, seq, bytes(payload).hex()) for exs_id, seq, payload in sent]
    finally:
        relay.listener.close()


@pytest.mark.parametrize(
    "caps, header",
    [
        (0, "00000001" "00000001" "00000005"),  # a plain batch at the last seq
        (
            protocol.CAP_SEQ_RANGE,
            "00000005" "00000001" "00000005" "00000004",  # FLAG_SEQ_RANGE, 4..5
        ),
    ],
    ids=["legacy", "seq_range"],
)
def test_spliced_run_by_capability(caps, header):
    expected = (
        "b215c001" "00000001" + header
        + "00000002" "0000000000000010" + _RECORD_AT_10 + _RECORD_AT_20
    )
    assert _relay_frames(caps) == [(1, 5, expected)]


_COMPRESSIBLE = (
    "b215c001" "00000001" "00000001" "00000001" "00000003"
    "00000008" "0000000000000010" + _RECORD_AT_10 * 8
)


def _uplink_frames(caps):
    """What an uplink compressing from 64 bytes sends a peer that replied
    *caps*, for one 224-byte batch of eight equal records."""
    uplink = Uplink(0, compress_min_bytes=64)
    uplink.add_source(protocol.Hello(exs_id=1, node_id=1), ExsOutbox())
    peer = _Peer()
    uplink.conn = peer
    uplink.ready.add(1)
    uplink.peer_caps = caps
    uplink.send([(1, 3, bytes.fromhex(_COMPRESSIBLE))])
    return peer.frames


def test_compressible_batch_to_legacy_peer_is_itself():
    assert [frame.hex() for frame in _uplink_frames(0)] == [_COMPRESSIBLE]


def test_compressible_batch_to_compress_peer_is_an_envelope():
    # zlib output is not pinned across zlib builds (see above): the header
    # words are pinned, the rest on the decode side.
    (frame,) = _uplink_frames(protocol.CAP_COMPRESS)
    assert frame[:12].hex() == "b215c001" "0000000b" "000000e0"  # 224 raw bytes
    assert len(frame) < len(_COMPRESSIBLE) // 2
    payload = bytes.fromhex(_COMPRESSIBLE)
    assert protocol.decode_message(frame) == protocol.decode_message(payload)
