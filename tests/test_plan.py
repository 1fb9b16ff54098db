"""Differential properties: every compiled framing against its reference.

A schema's plan (:mod:`repro.core.plan`) compiles six framings; the
per-field codecs they replaced on the hot path stay as the reference.  For
arbitrary schemas — fixed and variable-length, wider than six fields,
``X_TS`` under a clock correction, causal markers — each framing must
agree with the reference byte for byte (encode) or record for record
(decode), and truncated or bit-flipped input must fail the same way on
both paths.  Example counts come from the active hypothesis profile
(``tests/conftest.py``).
"""

from __future__ import annotations

import re
import struct

import pytest
from hypothesis import given, settings, strategies as st
from tests.strategies import batches, records

from repro.core import native, plan
from repro.core.exs import transcode
from repro.core.plan import plan_for
from repro.core.records import EventRecord, FieldType
from repro.core.ringbuffer import HEADER_SIZE, OverflowPolicy, RingBuffer
from repro.core.sensor import Sensor, compile_notice
from repro.wire import protocol
from repro.xdr import XdrError

#: Batch header bytes before the first record (six words + base_ts).
_BATCH_HEADER = 32


@pytest.fixture(autouse=True)
def _fresh_plans(monkeypatch):
    """Empty plan caches per test: however many schemas earlier tests
    minted, the cache cap never turns the compiled path off here."""
    for cache in ("_by_types", "_by_meta", "_native_fixed", "_native_var"):
        monkeypatch.setattr(plan, cache, {})


def _outcome(fn, *args, **kwargs):
    """``("ok", repr(result))`` or ``("error", exception type)`` — repr so
    that NaNs a bit flip produced compare equal to themselves."""
    try:
        return "ok", repr(fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the type *is* the observation
        return "error", type(exc)


@pytest.mark.property
@settings(deadline=None)
@given(batches())
def test_wire_encode_matches_dynamic(recs):
    assert protocol.encode_batch_records(3, 7, recs) == protocol.encode_batch_records(
        3, 7, recs, use_fastpath=False
    )
    for record in recs:
        one = protocol.encode_batch_records(0, 0, [record], use_fastpath=False)
        assert plan_for(record.field_types).wire_pack(record) == one[_BATCH_HEADER:]


@pytest.mark.property
@settings(deadline=None)
@given(batches(), st.integers(0, 2**32 - 1))
def test_wire_decode_matches_dynamic(recs, node_id):
    payload = protocol.encode_batch_records(3, 7, recs)
    compiled = protocol.decode_message(payload, node_id=node_id)
    assert compiled == protocol.decode_message(payload, node_id=node_id, use_fastpath=False)
    assert list(compiled.records) == [r.with_node(node_id) for r in recs]
    types = [r.field_types for r in compiled.records]
    assert all(t is plan_for(t).field_types for t in types)  # interned, plan-owned


@pytest.mark.property
@settings(deadline=None)
@given(records(max_fields=16))
def test_wire_size_matches_encoded_bytes(record):
    payload = protocol.encode_batch_records(0, 0, [record])
    assert protocol.record_wire_size(record) == len(payload) - _BATCH_HEADER


@pytest.mark.property
@settings(deadline=None)
@given(records(max_fields=16))
def test_native_pack_matches_per_field(record):
    packed = plan_for(record.field_types).native_pack(
        record.event_id, record.node_id, record.timestamp, record.values
    )
    assert packed == native.pack_fields(record)
    assert native.pack_record(record) == packed


@pytest.mark.property
@settings(deadline=None)
@given(records(max_fields=16), st.integers(0, 2**32 - 1), st.integers(0, 2**62))
def test_notice_matches_per_field(record, node_id, now):
    ring = RingBuffer(bytearray(HEADER_SIZE + (1 << 16)), OverflowPolicy.DROP_NEW)
    sensor = Sensor(ring, node_id=node_id, clock=lambda: now)
    assert compile_notice(record.field_types)(sensor, record.event_id, *record.values)
    expected = EventRecord(record.event_id, now, record.field_types, record.values, node_id)
    assert ring.drain_bytes() == [native.pack_fields(expected)]


@pytest.mark.property
@settings(deadline=None)
@given(st.lists(records(max_fields=16), max_size=6))
def test_native_unpack_matches_per_field(recs):
    buf = b"".join(native.pack_fields(r) for r in recs)
    offset = 0
    for record in recs:
        reference, end = native.unpack_fields(buf, offset)
        assert reference == record
        values = plan_for(record.field_types).native_unpack(
            buf, offset + native.HEADER_SIZE, end
        )
        assert values == record.values
        assert native.unpack_record(buf, offset) == (reference, end)
        offset = end


@pytest.mark.property
@settings(deadline=None)
@given(
    records(max_fields=16),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**40),
)
def test_native_unpack_stamped_matches_reference(record, node_id, correction):
    payload = native.pack_fields(record)
    native.unpack_record(payload)  # the first of a schema compiles its plan
    stamped = native.unpack_record_stamped(payload, node_id, correction)
    reference = record.with_timestamp(record.timestamp + correction).with_node(node_id)
    assert stamped == reference


def _corruptions(payload: bytes, flip: int):
    """Every truncation of *payload*, then every single byte XORed with *flip*."""
    for cut in range(len(payload)):
        yield payload[:cut]
    for position in range(len(payload)):
        flipped = bytearray(payload)
        flipped[position] ^= flip
        yield bytes(flipped)


@pytest.mark.property
@settings(deadline=None)
@given(batches(max_fields=8), st.integers(1, 255))
def test_corrupt_wire_batch_fails_alike(recs, flip):
    payload = protocol.encode_batch_records(1, 0, recs)
    for corrupt in _corruptions(payload, flip):
        assert _outcome(protocol.decode_message, corrupt) == _outcome(
            protocol.decode_message, corrupt, use_fastpath=False
        )


@pytest.mark.property
@settings(deadline=None)
@given(records(max_fields=16), st.integers(1, 255))
def test_corrupt_native_record_fails_alike(record, flip):
    payload = native.pack_fields(record)
    native.unpack_record(payload)  # compile the plan the corrupt copies meet
    for corrupt in _corruptions(payload, flip):
        assert _outcome(native.unpack_record, corrupt) == _outcome(
            native.unpack_fields, corrupt
        )


# ----------------------------------------------------------------------
# native -> wire: the EXS's transcoder against decode + encode
# ----------------------------------------------------------------------

#: Clock corrections: none, realistic, and far enough to leave int64.
corrections = st.one_of(
    st.just(0), st.integers(-(2**40), 2**40), st.integers(-(2**64), 2**64)
)


def _reference_wire(payload, correction):
    """What the EXS shipped for one ring record before it transcoded:
    the decoded, corrected record, encoded as one default-batch record."""
    record = native.unpack_record_stamped(payload, 0, correction)
    return protocol.encode_batch_records(0, 0, [record])[_BATCH_HEADER:]


def _disagreements(payload: bytes, correction: int, flip: int) -> list[bytes]:
    """Corruptions of *payload* on which the transcoder path and the
    reference differ — in acceptance, or in the bytes they produce.  The
    compiled lookup is asked first, before the reference can compile a
    plan for a schema the corruption spelled."""
    bad = []
    for corrupt in _corruptions(payload, flip):
        _, compiled = plan.native_transcode(corrupt, correction)
        path = _outcome(lambda: transcode(corrupt, correction)[1])
        reference = _outcome(_reference_wire, corrupt, correction)
        if path != reference or compiled is not None and ("ok", repr(compiled)) != reference:
            bad.append(corrupt)
    return bad


@pytest.mark.property
@settings(deadline=None)
@given(records(max_fields=16), corrections)
def test_native_to_wire_matches_reference(record, correction):
    payload = native.pack_fields(record)
    compiled = plan_for(record.field_types)
    try:
        reference = _reference_wire(payload, correction)
    except (ValueError, XdrError):  # the correction left int64
        with pytest.raises((struct.error, ValueError)):
            compiled.native_to_wire(payload, correction)
    else:
        assert compiled.native_to_wire(payload, correction) == reference
        assert plan.native_transcode(payload, correction) == (compiled, reference)


@pytest.mark.property
@settings(deadline=None)
@given(records(max_fields=8), corrections, st.integers(1, 255))
def test_corrupt_native_record_transcodes_alike(record, correction, flip):
    payload = native.pack_fields(record)
    native.unpack_record(payload)  # compile the plan the corrupt copies meet
    assert _disagreements(payload, correction, flip) == []


def _mutant(schema, drop: str):
    """*schema*'s plan with one check cut out of its transcoder."""
    compiled = plan_for(schema)
    source, ns = plan._generate(compiled)
    head, body = source.split("def native_to_wire")
    if drop == "tag check":
        body = re.sub(r"    if \(.*\) != \(.*\):\n        return None\n", "", body)
    else:
        body = re.sub(r"    str\(d\d+, 'utf-8'\)\n", "", body)
    exec(head + "def native_to_wire" + body, ns)
    return compiled, ns["native_to_wire"]


@pytest.mark.parametrize("drop", ["tag check", "UTF-8 check"])
def test_transcoder_mutants_are_caught(monkeypatch, drop):
    schema = (FieldType.X_INT, FieldType.X_STRING, FieldType.X_TS)
    record = EventRecord(9, 1_000, schema, (5, "héllo wörld", 1_000))
    payload = native.pack_fields(record)
    compiled, mutant = _mutant(schema, drop)
    assert mutant(payload, 7) == compiled.native_to_wire(payload, 7)  # same on good input
    assert _disagreements(payload, 7, 0xFF) == []
    monkeypatch.setattr(compiled, "native_to_wire", mutant)
    assert _disagreements(payload, 7, 0xFF)
