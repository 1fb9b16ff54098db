"""The EXS transcodes ring records to wire bytes; it builds no record.

:class:`ExternalSensor` turns each native ring record straight into the
bytes a default batch carries for it (the plan's ``native_to_wire``) and
writes a batch header over the joined bytes.  Before, it decoded every
record (``native.unpack_record_stamped``) and encoded each batch
(``protocol.encode_batch_records``); that EXS is modelled here
(:func:`_decode_encode_batches`) as the reference, with one change: a
record the reference cannot ship is skipped, not raised.

* Differential property (``@pytest.mark.property``): the batches equal
  the model's byte for byte — every knob spelling, batch caps, clock
  corrections that leave int64, and ring records corrupted in place.
* Counted: with the default knobs, polling a 6-int stream and a mixed
  stream whose schemas were seen before builds no ``EventRecord``.
"""

from __future__ import annotations

import collections

import pytest
from hypothesis import given, settings, strategies as st
from tests.strategies import batches as record_lists
from tests.test_clocks import FakeTime

from repro.clocksync.clocks import CorrectedClock
from repro.core import native, plan
from repro.core.exs import ExsConfig, ExternalSensor
from repro.core.records import EventRecord, FieldType
from repro.core.ringbuffer import ring_for_records
from repro.wire import protocol
from repro.xdr import XdrError

FT = FieldType


@pytest.fixture(autouse=True)
def _fresh_plans(monkeypatch):
    """Empty plan caches per test (see ``tests/test_plan.py``)."""
    for cache in ("_by_types", "_by_meta", "_native_fixed", "_native_var"):
        monkeypatch.setattr(plan, cache, {})


def _exs(config: ExsConfig, correction: int) -> ExternalSensor:
    clock = CorrectedClock(FakeTime(1_000_000))
    clock.step(correction)
    return ExternalSensor(3, 3, ring_for_records(400, 160), clock, config)


def _decode_encode_batches(
    payloads: list[bytes], exs_id: int, correction: int, config: ExsConfig
) -> list[bytes]:
    """The decode + encode EXS: batch boundaries by ``record_wire_size``."""
    knobs = dict(compress_meta=config.compress_meta, delta_ts=config.delta_ts)
    out: list[bytes] = []
    pending: list[EventRecord] = []
    size = 0
    for payload in payloads:
        try:
            record = native.unpack_record_stamped(payload, exs_id, correction)
            protocol.encode_batch_records(0, 0, [record])
        except (ValueError, XdrError):
            continue
        pending.append(record)
        size += protocol.record_wire_size(record, **knobs)
        if len(pending) >= config.batch_max_records or size >= config.batch_max_bytes:
            out.append(protocol.encode_batch_records(exs_id, len(out), pending, **knobs))
            pending, size = [], 0
    if pending:
        out.append(protocol.encode_batch_records(exs_id, len(out), pending, **knobs))
    return out


@st.composite
def ring_payloads(draw) -> list[bytes]:
    """Packed records of a few schemas, some corrupted by a byte flip or
    a truncation."""
    payloads = [native.pack_fields(r) for r in draw(record_lists(max_fields=10))]
    for i in draw(st.sets(st.integers(0, max(0, len(payloads) - 1)), max_size=2)):
        if not payloads:
            break
        corrupt = bytearray(payloads[i])
        cut = draw(st.integers(0, len(corrupt)))
        if draw(st.booleans()) and cut < len(corrupt):
            corrupt[cut] ^= draw(st.integers(1, 255))
        else:
            del corrupt[cut:]
        payloads[i] = bytes(corrupt)
    return payloads


@pytest.mark.property
@settings(deadline=None)
@given(
    ring_payloads(),
    st.one_of(st.just(0), st.integers(-(2**40), 2**40), st.integers(-(2**63), 2**63)),
    st.booleans(),
    st.booleans(),
    st.integers(1, 12),
    st.integers(64, 400),
)
def test_batches_equal_decode_encode(payloads, correction, compress_meta, delta_ts, records, cap):
    config = ExsConfig(
        batch_max_records=records,
        batch_max_bytes=cap,
        compress_meta=compress_meta,
        delta_ts=delta_ts,
    )
    # Every schema the stream spells seen once: a warm plan cache, as in a
    # long-running EXS.  The reference EXS shares it, so it cannot tell.
    for payload in payloads:
        try:
            native.unpack_record(payload)
        except ValueError:
            pass
    want = _decode_encode_batches(payloads, 3, correction, config)
    exs = _exs(config, correction)
    for payload in payloads:
        exs.ring.push_bytes(payload)
    assert exs.flush() == want
    assert exs.stats.records_shipped + exs.stats.records_rejected == len(payloads)


# ----------------------------------------------------------------------
# counted: no record built between the ring and the socket
# ----------------------------------------------------------------------

#: The benchmark's mixed schemas: fixed and variable-length, wide, causal.
MIXED = (
    (FT.X_INT,),
    (FT.X_INT,) * 6,
    (FT.X_INT, FT.X_TS, FT.X_DOUBLE, FT.X_UINT),
    (FT.X_INT, FT.X_STRING),
    (FT.X_INT, FT.X_INT, FT.X_STRING, FT.X_DOUBLE),
    (FT.X_INT, FT.X_OPAQUE, FT.X_UINT, FT.X_SHORT, FT.X_UBYTE, FT.X_FLOAT, FT.X_HYPER, FT.X_INT),
    (FT.X_INT, FT.X_REASON, FT.X_INT),
    (FT.X_INT, FT.X_CONSEQ, FT.X_INT),
)
_SAMPLE = {FT.X_STRING: "héllo", FT.X_OPAQUE: b"\x01\x02\x03", FT.X_DOUBLE: 2.5, FT.X_FLOAT: 0.5}


def _stream(n: int, mixed: bool) -> list[bytes]:
    """Ring payloads; packing them compiles every schema's plan, as the
    sensor side does — the EXS has seen each schema before."""
    out = []
    for i in range(n):
        types = MIXED[i * 5 % len(MIXED)] if mixed else MIXED[1]
        values = tuple(
            _SAMPLE.get(t, "x" * (i % 9) if t is FT.X_STRING else i % 100) for t in types
        )
        out.append(native.pack_record(EventRecord(7, 1_000 + i, types, values, 3)))
    return out


@pytest.fixture
def built(monkeypatch):
    """Records built, both constructors counted."""
    count: collections.Counter[str] = collections.Counter()
    init = EventRecord.__init__
    from_wire = EventRecord.from_wire.__func__

    def counting_init(self, *args, **kwargs):
        count["records"] += 1
        init(self, *args, **kwargs)

    def counting_from_wire(cls, *args):
        count["records"] += 1
        return from_wire(cls, *args)

    monkeypatch.setattr(EventRecord, "__init__", counting_init)
    monkeypatch.setattr(EventRecord, "from_wire", classmethod(counting_from_wire))
    return count


@pytest.mark.parametrize("mixed", [False, True], ids=["fixed", "mixed"])
def test_default_exs_builds_no_record(built, mixed):
    payloads = _stream(1_000, mixed)
    want = _decode_encode_batches(payloads, 3, 250, ExsConfig())
    exs = _exs(ExsConfig(), 250)
    for payload in payloads:
        exs.ring.push_bytes(payload)
    built.clear()
    shipped = exs.poll() + exs.flush()
    assert built["records"] == 0
    assert shipped == want
