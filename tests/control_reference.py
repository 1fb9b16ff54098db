"""Reference control-message codec: the hand-written branches the table
in :mod:`repro.wire.protocol` replaced, kept verbatim as a test oracle.

Each message had one ``isinstance`` branch to encode it and one ``kind``
branch to decode it.  ``tests/test_control_codec.py`` checks the generic
codec against these branches: same bytes on encode, and on decode the
same message or the same exception class for any input.
"""

from __future__ import annotations

from repro.core.filtering import FIELD_TEST_OPS, FieldTest
from repro.wire.protocol import (
    MAGIC,
    Ack,
    AckBundle,
    Adjust,
    Bye,
    Heartbeat,
    Hello,
    HelloReply,
    MsgType,
    ProtocolError,
    SetFilter,
    TimeReply,
    TimeRequest,
    _open,
    decode_message,
)
from repro.xdr import XdrDecoder, XdrEncoder

MAX_FIELD_TESTS = 64


def encode(msg) -> bytes:
    enc = XdrEncoder()
    enc.pack_uint(MAGIC)
    if isinstance(msg, Hello):
        enc.pack_uint(MsgType.HELLO)
        enc.pack_uint(msg.exs_id)
        enc.pack_uint(msg.node_id)
        enc.pack_uint(msg.advertised_rate)
        if msg.wants_ack or msg.capabilities:
            enc.pack_uint(1 if msg.wants_ack else 0)
        if msg.capabilities:
            enc.pack_uint(msg.capabilities)
    elif isinstance(msg, Ack):
        enc.pack_uint(MsgType.ACK)
        enc.pack_uint(msg.exs_id)
        enc.pack_uint(msg.up_to_seq)
    elif isinstance(msg, AckBundle):
        enc.pack_uint(MsgType.ACK_BUNDLE)
        enc.pack_uint(len(msg.acks))
        for ack_exs_id, up_to_seq in msg.acks:
            enc.pack_uint(ack_exs_id)
            enc.pack_uint(up_to_seq)
    elif isinstance(msg, HelloReply):
        enc.pack_uint(MsgType.HELLO_REPLY)
        enc.pack_uint(msg.exs_id)
        enc.pack_int(msg.last_seq)
        if msg.capabilities:
            enc.pack_uint(msg.capabilities)
    elif isinstance(msg, Heartbeat):
        enc.pack_uint(MsgType.HEARTBEAT)
        enc.pack_uint(msg.exs_id)
    elif isinstance(msg, TimeRequest):
        enc.pack_uint(MsgType.TIME_REQ)
        enc.pack_uint(msg.probe_id)
    elif isinstance(msg, TimeReply):
        enc.pack_uint(MsgType.TIME_REPLY)
        enc.pack_uint(msg.probe_id)
        enc.pack_hyper(msg.slave_time)
    elif isinstance(msg, Adjust):
        enc.pack_uint(MsgType.ADJUST)
        enc.pack_hyper(msg.correction)
        enc.pack_uint(msg.round_id)
    elif isinstance(msg, Bye):
        enc.pack_uint(MsgType.BYE)
        enc.pack_string(msg.reason)
    elif isinstance(msg, SetFilter):
        enc.pack_uint(MsgType.SET_FILTER)
        enc.pack_bool(msg.allow_all_events)
        enc.pack_array(msg.allowed_events, enc.pack_uint)
        enc.pack_array(msg.blocked_events, enc.pack_uint)
        enc.pack_uint(msg.sample_every)
        if msg.filter_epoch or msg.target_exs_id or msg.field_tests:
            enc.pack_uint(msg.filter_epoch)
        if msg.target_exs_id or msg.field_tests:
            enc.pack_uint(msg.target_exs_id)
        if msg.field_tests:
            enc.pack_uint(len(msg.field_tests))
            for test in msg.field_tests:
                enc.pack_uint(test.field_index)
                enc.pack_uint(FIELD_TEST_OPS.index(test.op))
                if isinstance(test.value, float):
                    enc.pack_uint(1)
                    enc.pack_double(test.value)
                else:
                    enc.pack_uint(0)
                    enc.pack_hyper(test.value)
    else:
        raise TypeError(f"not a protocol message: {msg!r}")
    return enc.getvalue()


def _decode_field_tests(dec: XdrDecoder) -> tuple[FieldTest, ...]:
    count = dec.unpack_uint()
    if count > MAX_FIELD_TESTS:
        raise ProtocolError(f"SetFilter claims {count} field tests")
    tests = []
    for _ in range(count):
        field_index = dec.unpack_uint()
        op_code = dec.unpack_uint()
        if op_code >= len(FIELD_TEST_OPS):
            raise ProtocolError(f"unknown field-test op code {op_code}")
        value_kind = dec.unpack_uint()
        if value_kind == 1:
            value: int | float = dec.unpack_double()
        elif value_kind == 0:
            value = dec.unpack_hyper()
        else:
            raise ProtocolError(f"unknown field-test value kind {value_kind}")
        try:
            tests.append(FieldTest(field_index, FIELD_TEST_OPS[op_code], value))
        except ValueError as exc:
            raise ProtocolError(f"invalid field test: {exc}") from exc
    return tuple(tests)


def decode(payload):
    """Decode one message (a ``COMPRESSED`` one unwrapped); a batch goes
    through the batch decoder, which the table did not replace."""
    dec, kind = _open(payload)
    if kind == MsgType.BATCH:
        return decode_message(payload)
    if kind == MsgType.HELLO:
        msg = Hello(
            exs_id=dec.unpack_uint(),
            node_id=dec.unpack_uint(),
            advertised_rate=dec.unpack_uint(),
            wants_ack=dec.remaining >= 4 and bool(dec.unpack_uint()),
            capabilities=dec.unpack_uint() if dec.remaining >= 4 else 0,
        )
    elif kind == MsgType.ACK:
        msg = Ack(exs_id=dec.unpack_uint(), up_to_seq=dec.unpack_uint())
    elif kind == MsgType.ACK_BUNDLE:
        count = dec.unpack_uint()
        if count > 65536:
            raise ProtocolError(f"ack bundle claims {count} entries")
        msg = AckBundle(
            acks=tuple(
                (dec.unpack_uint(), dec.unpack_uint()) for _ in range(count)
            ),
        )
    elif kind == MsgType.HELLO_REPLY:
        msg = HelloReply(
            exs_id=dec.unpack_uint(),
            last_seq=dec.unpack_int(),
            capabilities=dec.unpack_uint() if dec.remaining >= 4 else 0,
        )
    elif kind == MsgType.HEARTBEAT:
        msg = Heartbeat(exs_id=dec.unpack_uint())
    elif kind == MsgType.TIME_REQ:
        msg = TimeRequest(probe_id=dec.unpack_uint())
    elif kind == MsgType.TIME_REPLY:
        msg = TimeReply(probe_id=dec.unpack_uint(), slave_time=dec.unpack_hyper())
    elif kind == MsgType.ADJUST:
        msg = Adjust(correction=dec.unpack_hyper(), round_id=dec.unpack_uint())
    elif kind == MsgType.BYE:
        msg = Bye(reason=dec.unpack_string(max_length=4096))
    elif kind == MsgType.SET_FILTER:
        msg = SetFilter(
            allow_all_events=dec.unpack_bool(),
            allowed_events=tuple(
                dec.unpack_array(dec.unpack_uint, max_length=65536)
            ),
            blocked_events=tuple(
                dec.unpack_array(dec.unpack_uint, max_length=65536)
            ),
            sample_every=dec.unpack_uint(),
            filter_epoch=dec.unpack_uint() if dec.remaining >= 4 else 0,
            target_exs_id=dec.unpack_uint() if dec.remaining >= 4 else 0,
            field_tests=_decode_field_tests(dec) if dec.remaining >= 4 else (),
        )
    else:
        raise ProtocolError(f"unknown message type {kind}")
    dec.done()
    return msg
