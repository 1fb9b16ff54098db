"""The control-message table against the codec it replaced, and its own
properties.

Every control message is declared once, as its dataclass
(:mod:`repro.wire.protocol`); one generic encode/decode pair interprets
the declarations.  ``tests/control_reference.py`` keeps the hand-written
per-message branches that came before.  Here the two must agree: the same
bytes for any in-range message, and for any input (golden vectors, every
truncation and single-byte flip of them, random word strings) the same
message or the same exception class.  The table's own invariants — the
ones a lint rule used to police — are properties too:

* field order is declaration order: round-trips and the golden vectors;
* the type-id registry is a bijection (checked at import, tested here);
* only trailing fields are optional: every prefix cut at a trailing-field
  boundary decodes with defaults, and unset trailing fields encode to the
  legacy bytes;
* no field goes unencoded: a field without a codec fails at import, and
  random values in every field round-trip.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st
from tests import control_reference as reference
from tests.strategies import control_messages
from tests.test_wire_golden import _CONTROL_VECTORS

from repro.wire import protocol
from repro.wire.protocol import CONTROL_MESSAGES, MAGIC, MsgType
from repro.xdr import XdrDecodeError, XdrEncoder

pytestmark = pytest.mark.property

_TRAILING_CLASSES = tuple(
    cls
    for cls in CONTROL_MESSAGES.values()
    if any(f.metadata["trailing"] for f in dataclasses.fields(cls))
)


def _words(*words: int) -> bytes:
    return b"".join(w.to_bytes(4, "big") for w in words)


#: Hostile frames on top of the golden vectors: every bound and every
#: rejection the hand-written decoder had.
_HOSTILE = [
    _words(MAGIC, MsgType.HELLO, 1, 2, 3, 2),  # wants_ack word 2 -> True
    _words(MAGIC, MsgType.SET_FILTER, 2, 0, 0, 1),  # strict bool: 2 is an error
    _words(MAGIC, MsgType.ACK_BUNDLE, 65537),
    _words(MAGIC, MsgType.SET_FILTER, 1, 65537),
    _words(MAGIC, MsgType.SET_FILTER, 1, 0, 0, 1, 0, 0, 65),  # > MAX_FIELD_TESTS
    _words(MAGIC, MsgType.SET_FILTER, 1, 0, 0, 1, 0, 0, 1, 0, 6, 0, 0, 0),  # op 6
    _words(MAGIC, MsgType.SET_FILTER, 1, 0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0),  # kind 2
    _words(MAGIC, MsgType.SET_FILTER, 1, 0, 0, 1, 0, 0, 1, 255, 0, 0, 0, 0),  # index
    _words(MAGIC, MsgType.BYE, 4097) + b"\x00" * 4100,  # reason over 4,096 bytes
    _words(MAGIC, MsgType.BYE, 1) + b"a\x01\x00\x00",  # non-zero padding
    _words(MAGIC, MsgType.BYE, 2) + b"\xff\xfe\x00\x00",  # invalid UTF-8
    _words(MAGIC, MsgType.HELLO_REPLY, 1, 2) + b"\x00\x00",  # half a trailing word
    _words(MAGIC, MsgType.COMPRESSED, 4) + b"\x00" * 8,
    _words(MAGIC, 99),
    _words(MAGIC, MsgType.ACK, 1, 2, 3),  # trailing garbage
]

_GOLDEN = [bytes.fromhex(hex_bytes) for _, hex_bytes in _CONTROL_VECTORS] + [
    reference.encode(msg)
    for msg in (
        protocol.TimeRequest(probe_id=0x1234),
        protocol.TimeReply(probe_id=1, slave_time=-1),
        protocol.Adjust(correction=-1000, round_id=2),
        protocol.Bye(reason="ok"),
        protocol.Bye(),
        protocol.Hello(exs_id=1, node_id=2),
        protocol.SetFilter(
            allow_all_events=False, allowed_events=(7,), sample_every=3
        ),
    )
]
_SEEDS = _GOLDEN + _HOSTILE + [protocol.compress_frame(p) for p in _GOLDEN]


def _outcome(decode, payload):
    """The decoded message, or the class of what decoding raised."""
    try:
        return decode(payload)
    except Exception as exc:  # the class is the outcome
        return type(exc)


def _assert_same_decode(payload: bytes) -> None:
    new = _outcome(protocol.decode_message, payload)
    old = _outcome(reference.decode, payload)
    assert new == old, payload.hex()


# ----------------------------------------------------------------------
# differential: the table against the hand-written branches
# ----------------------------------------------------------------------


def test_seeds_truncations_and_byte_flips_decode_alike():
    for payload in _SEEDS:
        for cut in range(len(payload) + 1):
            _assert_same_decode(payload[:cut])
        for pos in range(len(payload)):
            for mask in (0x01, 0x80, 0xFF):
                flipped = bytearray(payload)
                flipped[pos] ^= mask
                _assert_same_decode(bytes(flipped))


_word = st.one_of(
    st.integers(0, 3),
    st.sampled_from([64, 65, 4096, 4097, 65536, 65537, 2**31, 2**32 - 1]),
    st.integers(0, 2**32 - 1),
)


@settings(deadline=None)
@given(
    kind=st.one_of(st.sampled_from(sorted(CONTROL_MESSAGES)), st.integers(0, 20)),
    words=st.lists(_word, max_size=16),
    tail=st.binary(max_size=3),
)
def test_random_word_strings_decode_alike(kind, words, tail):
    _assert_same_decode(_words(MAGIC, kind, *words) + tail)


@settings(deadline=None)
@given(control_messages())
def test_encode_matches_the_hand_written_branches(msg):
    assert protocol.encode_message(msg) == reference.encode(msg)
    assert bytes(protocol.encode_message_view(msg)) == reference.encode(msg)


def test_lenient_wants_ack_and_strict_allow_all_events_do_not_drift():
    hello = protocol.decode_message(_words(MAGIC, MsgType.HELLO, 1, 2, 3, 2))
    assert hello == protocol.Hello(1, 2, 3, wants_ack=True)
    with pytest.raises(XdrDecodeError):
        protocol.decode_message(_words(MAGIC, MsgType.SET_FILTER, 2, 0, 0, 1))


# ----------------------------------------------------------------------
# the table's own properties
# ----------------------------------------------------------------------


def _field_bytes(msg) -> tuple[bytes, list[int]]:
    """*msg*'s fields, trailing ones included, all written; and the offset
    at which the required fields end, then each trailing field."""
    _, layout, required = protocol._ENCODE_LAYOUT[type(msg)]
    enc = XdrEncoder()
    ends = []
    for i, (name, pack) in enumerate(layout):
        if i >= required:
            ends.append(len(enc))
        pack(enc, getattr(msg, name))
    return enc.getvalue(), ends + [len(enc)]


@settings(deadline=None)
@given(control_messages(_TRAILING_CLASSES))
def test_prefix_cut_at_a_trailing_boundary_decodes_with_defaults(msg):
    trailing = [f for f in dataclasses.fields(msg) if f.metadata["trailing"]]
    body, ends = _field_bytes(msg)
    head = protocol.encode_message(msg)[:8]
    for kept, end in enumerate(ends):
        expected = dataclasses.replace(
            msg, **{f.name: f.default for f in trailing[kept:]}
        )
        assert protocol.decode_message(head + body[:end]) == expected


@settings(deadline=None)
@given(control_messages())
def test_unset_trailing_fields_encode_to_the_legacy_bytes(msg):
    legacy = dataclasses.replace(
        msg,
        **{f.name: f.default for f in dataclasses.fields(msg) if f.metadata["trailing"]},
    )
    wire = protocol.encode_message(legacy)
    body, ends = _field_bytes(legacy)
    assert wire == wire[:8] + body[: ends[0]]  # the required fields only
    assert wire == reference.encode(legacy)


@settings(deadline=None)
@given(control_messages())
def test_every_class_is_written_with_its_registry_type_id(msg):
    (type_id,) = [k for k, cls in CONTROL_MESSAGES.items() if cls is type(msg)]
    wire = protocol.encode_message(msg)
    assert int.from_bytes(wire[4:8], "big") == type_id
    assert type(protocol.decode_message(wire)) is type(msg)


def test_registry_is_a_bijection_onto_the_control_type_ids():
    assert set(CONTROL_MESSAGES) == set(MsgType) - {MsgType.BATCH, MsgType.COMPRESSED}
    assert len(set(CONTROL_MESSAGES.values())) == len(CONTROL_MESSAGES)


@dataclasses.dataclass(frozen=True)
class _NotTrailingLast:
    a: int = dataclasses.field(default=0, metadata=protocol._trailing(protocol.UINT))
    b: int = dataclasses.field(default=0, metadata=protocol.UINT)


@dataclasses.dataclass(frozen=True)
class _NonzeroDefault:
    a: int = dataclasses.field(default=1, metadata=protocol._trailing(protocol.UINT))


@dataclasses.dataclass(frozen=True)
class _Dark:
    a: int = dataclasses.field(default=0, metadata=protocol.UINT)
    unencoded: int = 0


def _with(type_id, cls):
    return {**CONTROL_MESSAGES, type_id: cls}


@pytest.mark.parametrize(
    "registry",
    [
        {k: v for k, v in CONTROL_MESSAGES.items() if k != MsgType.HEARTBEAT},
        _with(MsgType.HEARTBEAT, protocol.Ack),
        {**CONTROL_MESSAGES, MsgType.BATCH: _Dark},
        _with(MsgType.HEARTBEAT, _NotTrailingLast),
        _with(MsgType.HEARTBEAT, _NonzeroDefault),
        _with(MsgType.HEARTBEAT, _Dark),
    ],
    ids=[
        "missing_id",
        "two_ids_one_class",
        "batch_id",
        "trailing_not_last",
        "nonzero_trailing_default",
        "field_without_codec",
    ],
)
def test_bad_declarations_are_rejected(registry):
    with pytest.raises(TypeError):
        protocol._read_declarations(registry)
