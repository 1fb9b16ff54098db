"""Property tests for the compiled pushdown predicate.

The compiled filter (:mod:`repro.core.predicate`) answers the same
question as :meth:`FilterSpec.matches`, but over the packed ring payload
before any decode.  These tests pin the contract:

* on every generated (record, spec) pair the compiled payload decision
  equals the reference decision on the *decoded* record — decoded, not
  original, because lossy field types (``X_FLOAT`` narrows to float32)
  make the wire value the one the reference filter would see downstream;
* sampling counters are conserved per event id, and stay exact when the
  two entry points (packed payload / decoded record) are mixed freely;
* the EXS applies ``SetFilter`` epochs idempotently — re-sends are
  no-ops that preserve sampling counters, stale epochs are ignored;
* the steering extension survives the wire, and its absence leaves the
  legacy frame byte-identical.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.clocksync.clocks import CorrectedClock
from repro.core import native
from repro.core.exs import ExsConfig, ExternalSensor
from repro.core.filtering import (
    FIELD_TEST_OPS,
    FieldTest,
    FilterSpec,
    FilterState,
)
from repro.core.predicate import CompiledFilterState
from repro.core.records import EventRecord, FieldType
from repro.core.ringbuffer import ring_for_records
from repro.core.sensor import Sensor
from repro.wire import protocol

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

#: Small id spaces so specs and records collide often — both accept and
#: reject branches get real coverage.
_ids = st.integers(0, 7)

_FIXED_TYPES = [
    FieldType.X_BYTE,
    FieldType.X_USHORT,
    FieldType.X_INT,
    FieldType.X_UINT,
    FieldType.X_HYPER,
    FieldType.X_TS,
    FieldType.X_FLOAT,
    FieldType.X_DOUBLE,
]
_VAR_TYPES = [FieldType.X_STRING, FieldType.X_OPAQUE]

_INT_RANGES = {
    FieldType.X_BYTE: (-(2**7), 2**7 - 1),
    FieldType.X_USHORT: (0, 2**16 - 1),
    FieldType.X_INT: (-(2**31), 2**31 - 1),
    FieldType.X_UINT: (0, 2**32 - 1),
    FieldType.X_HYPER: (-(2**63), 2**63 - 1),
    FieldType.X_TS: (-(2**63), 2**63 - 1),
}


def _field_value(ftype: FieldType):
    if ftype in _INT_RANGES:
        lo, hi = _INT_RANGES[ftype]
        return st.integers(lo, hi)
    if ftype is FieldType.X_FLOAT:
        return st.floats(width=32, allow_nan=False)
    if ftype is FieldType.X_DOUBLE:
        return st.floats(allow_nan=False)
    if ftype is FieldType.X_STRING:
        return st.text(
            alphabet=st.characters(blacklist_characters="\x00", codec="utf-8"),
            max_size=12,
        )
    return st.binary(max_size=12)


@st.composite
def records(draw) -> EventRecord:
    types = draw(
        st.lists(
            st.sampled_from(_FIXED_TYPES + _VAR_TYPES), max_size=6
        )
    )
    return EventRecord(
        event_id=draw(_ids),
        timestamp=draw(st.integers(0, 2**40)),
        field_types=tuple(types),
        values=tuple(draw(_field_value(t)) for t in types),
        node_id=draw(_ids),
    )


@st.composite
def field_tests(draw) -> FieldTest:
    value = draw(
        st.one_of(
            st.integers(-(2**33), 2**33),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
        )
    )
    return FieldTest(
        field_index=draw(st.integers(0, 6)),
        op=draw(st.sampled_from(FIELD_TEST_OPS)),
        value=value,
    )


@st.composite
def specs(draw) -> FilterSpec:
    allowed = draw(st.none() | st.frozensets(_ids, max_size=4))
    return FilterSpec(
        allowed_events=allowed,
        blocked_events=draw(st.frozensets(_ids, max_size=3)),
        allowed_nodes=draw(st.none() | st.frozensets(_ids, max_size=4)),
        sample_every=1,
        field_tests=tuple(draw(st.lists(field_tests(), max_size=3))),
    )


# ----------------------------------------------------------------------
# compiled == reference
# ----------------------------------------------------------------------
class TestCompiledEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(spec=specs(), recs=st.lists(records(), max_size=8))
    def test_payload_decision_matches_reference(self, spec, recs):
        compiled = CompiledFilterState(spec)
        for rec in recs:
            payload = native.pack_record(rec)
            decoded, _ = native.unpack_record(payload)
            assert compiled.admit_payload(payload) == spec.matches(decoded)

    @settings(max_examples=200, deadline=None)
    @given(spec=specs(), rec=records())
    def test_both_entry_points_agree(self, spec, rec):
        payload = native.pack_record(rec)
        decoded, _ = native.unpack_record(payload)
        by_payload = CompiledFilterState(spec).admit_payload(payload)
        by_record = CompiledFilterState(spec).admit(decoded)
        assert by_payload == by_record

    def test_specialized_codec_path_is_exercised(self):
        # Same fixed-size schema twice: the second payload must take the
        # compiled plan (cached per codec), and still agree.
        spec = FilterSpec(field_tests=(FieldTest(1, "ge", 10),))
        compiled = CompiledFilterState(spec)
        for value, expect in ((5, False), (15, True), (9, False), (10, True)):
            rec = EventRecord(
                event_id=1,
                timestamp=1,
                field_types=(FieldType.X_INT, FieldType.X_INT),
                values=(0, value),
            )
            assert compiled.admit_payload(native.pack_record(rec)) is expect

    def test_var_length_schema_falls_back_to_decode(self):
        spec = FilterSpec(field_tests=(FieldTest(1, "gt", 100),))
        compiled = CompiledFilterState(spec)
        def rec(amount: int) -> EventRecord:
            return EventRecord(
                event_id=1,
                timestamp=1,
                field_types=(FieldType.X_STRING, FieldType.X_HYPER),
                values=("label", amount),
            )

        assert compiled.admit_payload(native.pack_record(rec(200)))
        assert not compiled.admit_payload(native.pack_record(rec(50)))

    def test_test_on_string_field_rejects(self):
        # Numeric predicates fail on non-numeric fields, both paths.
        spec = FilterSpec(field_tests=(FieldTest(0, "eq", 1),))
        rec = EventRecord(
            event_id=1, timestamp=1,
            field_types=(FieldType.X_STRING,), values=("1",),
        )
        assert not spec.matches(rec)
        assert not CompiledFilterState(spec).admit_payload(
            native.pack_record(rec)
        )


#: Schemas of one native length (three) beside variable-length ones: a
#: drain's length-keyed check guesses are wrong as often as right.
_POOL = (
    (FieldType.X_INT, FieldType.X_UINT),
    (FieldType.X_UINT, FieldType.X_INT),
    (FieldType.X_FLOAT, FieldType.X_INT),
    (FieldType.X_INT, FieldType.X_STRING),
    (FieldType.X_STRING, FieldType.X_INT),
)


@st.composite
def pooled_records(draw) -> EventRecord:
    types = draw(st.sampled_from(_POOL))
    return EventRecord(
        event_id=draw(_ids),
        timestamp=1,
        field_types=types,
        values=tuple(draw(_field_value(t)) for t in types),
        node_id=draw(_ids),
    )


class TestDrainDecision:
    @settings(max_examples=200, deadline=None)
    @given(
        spec=specs(),
        recs=st.lists(pooled_records() | records(), max_size=16),
        n=st.integers(1, 3),
    )
    def test_drain_decision_matches_reference(self, spec, recs, n):
        spec = FilterSpec(
            allowed_events=spec.allowed_events,
            blocked_events=spec.blocked_events,
            allowed_nodes=spec.allowed_nodes,
            sample_every=n,
            field_tests=spec.field_tests,
        )
        payloads = [native.pack_record(r) for r in recs]
        reference = FilterState(spec)
        want = [p for p in payloads if reference.admit(native.unpack_record(p)[0])]
        compiled = CompiledFilterState(spec)
        assert compiled.admit_many(payloads) == want
        assert (compiled.passed, compiled.dropped) == (reference.passed, reference.dropped)

    @settings(max_examples=200, deadline=None)
    @given(
        recs=st.lists(pooled_records(), max_size=16),
        tests=st.lists(field_tests(), min_size=1, max_size=2),
    )
    def test_field_tests_across_schemas_of_one_length(self, recs, tests):
        spec = FilterSpec(field_tests=tuple(tests))
        payloads = [native.pack_record(r) for r in recs]
        want = [p for p in payloads if spec.matches(native.unpack_record(p)[0])]
        assert CompiledFilterState(spec).admit_many(payloads) == want

    def test_a_payload_that_is_no_record_is_left_to_the_exs(self):
        spec = FilterSpec(field_tests=(FieldTest(0, "ge", 0),))
        sensor, exs = make_exs()
        exs.on_set_filter(protocol.SetFilter.from_spec(spec, epoch=1))
        truncated = native.pack_record(EventRecord(1, 5, (FieldType.X_INT,), (4,)))[:-2]
        for i in range(6):
            if i == 3:
                exs.ring.push_bytes(truncated)
            sensor.notice_ints(1, i - 2)
        shipped = [r.values[0] for p in exs.flush() for r in protocol.decode_message(p).records]
        assert shipped == [0, 1, 2, 3]
        assert (exs.stats.records_filtered, exs.stats.records_rejected) == (2, 1)


# ----------------------------------------------------------------------
# sampling conservation
# ----------------------------------------------------------------------
class TestSamplingConservation:
    @settings(max_examples=100, deadline=None)
    @given(
        stream=st.lists(
            st.tuples(_ids, st.booleans()), max_size=60
        ),
        n=st.integers(1, 5),
    )
    def test_kept_is_every_nth_per_event_id(self, stream, n):
        """Mixing payload and record entry points keeps the per-event-id
        modular arithmetic exact: k admitted of m seen == ceil(m / n)."""
        spec = FilterSpec(sample_every=n)
        compiled = CompiledFilterState(spec)
        seen: dict[int, int] = {}
        kept: dict[int, int] = {}
        for event_id, via_payload in stream:
            rec = EventRecord(
                event_id=event_id, timestamp=1,
                field_types=(FieldType.X_INT,), values=(7,),
            )
            seen[event_id] = seen.get(event_id, 0) + 1
            if via_payload:
                admitted = compiled.admit_payload(native.pack_record(rec))
            else:
                admitted = compiled.admit(rec)
            if admitted:
                kept[event_id] = kept.get(event_id, 0) + 1
        for event_id, count in seen.items():
            assert kept.get(event_id, 0) == -(-count // n)
        assert compiled.passed + compiled.dropped == len(stream)

    @settings(max_examples=100, deadline=None)
    @given(
        events=st.lists(_ids, max_size=60),
        n=st.integers(1, 5),
    )
    def test_compiled_sampling_matches_filter_state(self, events, n):
        spec = FilterSpec(sample_every=n)
        compiled = CompiledFilterState(spec)
        reference = FilterState(spec)
        for event_id in events:
            rec = EventRecord(
                event_id=event_id, timestamp=1,
                field_types=(FieldType.X_INT,), values=(7,),
            )
            assert compiled.admit_payload(native.pack_record(rec)) == (
                reference.admit(rec)
            )


# ----------------------------------------------------------------------
# epoch discipline at the EXS
# ----------------------------------------------------------------------
def make_exs() -> tuple[Sensor, ExternalSensor]:
    from repro.util.timebase import now_micros

    ring = ring_for_records(1_000)
    sensor = Sensor(ring, node_id=1)
    exs = ExternalSensor(1, 1, ring, CorrectedClock(now_micros), ExsConfig())
    return sensor, exs


class TestEpochDiscipline:
    def test_resend_of_installed_epoch_is_a_no_op(self):
        _, exs = make_exs()
        msg = protocol.SetFilter.from_spec(
            FilterSpec(sample_every=3), epoch=5
        )
        exs.on_set_filter(msg)
        installed = exs.filter
        assert installed is not None and exs.filter_epoch == 5
        # Sampling state advances...
        rec = EventRecord(
            event_id=1, timestamp=1,
            field_types=(FieldType.X_INT,), values=(1,),
        )
        assert installed.admit(rec) is True
        assert installed.admit(rec) is False
        # ...and a re-send (the reconnect path) must not reset it.
        exs.on_set_filter(msg)
        assert exs.filter is installed
        assert installed.admit(rec) is False  # counter continued: 3rd of 3

    def test_stale_epoch_is_ignored(self):
        _, exs = make_exs()
        exs.on_set_filter(
            protocol.SetFilter.from_spec(FilterSpec(sample_every=3), epoch=5)
        )
        installed = exs.filter
        exs.on_set_filter(
            protocol.SetFilter.from_spec(FilterSpec(sample_every=9), epoch=4)
        )
        assert exs.filter is installed
        assert exs.filter_epoch == 5

    def test_newer_epoch_replaces(self):
        _, exs = make_exs()
        exs.on_set_filter(
            protocol.SetFilter.from_spec(FilterSpec(sample_every=3), epoch=5)
        )
        exs.on_set_filter(
            protocol.SetFilter.from_spec(
                FilterSpec(blocked_events={2}), epoch=6
            )
        )
        assert exs.filter_epoch == 6
        assert exs.filter.spec == FilterSpec(blocked_events=frozenset({2}))

    def test_legacy_epoch_zero_installs_unconditionally(self):
        _, exs = make_exs()
        exs.on_set_filter(
            protocol.SetFilter.from_spec(FilterSpec(sample_every=3), epoch=5)
        )
        exs.on_set_filter(protocol.SetFilter.from_spec(FilterSpec(sample_every=7)))
        assert exs.filter.spec == FilterSpec(sample_every=7)
        # Epoch watermark survives, so the steering path stays monotone.
        assert exs.filter_epoch == 5

    def test_pass_through_spec_clears_the_filter(self):
        _, exs = make_exs()
        exs.on_set_filter(
            protocol.SetFilter.from_spec(FilterSpec(sample_every=3), epoch=1)
        )
        exs.on_set_filter(protocol.SetFilter.from_spec(FilterSpec(), epoch=2))
        assert exs.filter is None


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------
class TestSteeringWireFormat:
    @settings(max_examples=150, deadline=None)
    @given(
        spec=specs(),
        epoch=st.integers(0, 2**31 - 1),
        target=st.integers(0, 2**31 - 1),
    )
    def test_extended_roundtrip(self, spec, epoch, target):
        msg = protocol.SetFilter.from_spec(
            spec, epoch=epoch, target_exs_id=target
        )
        assert protocol.decode_message(protocol.encode_message(msg)) == msg

    def test_legacy_frame_stays_byte_identical(self):
        """A SetFilter with no extension state encodes exactly as before
        the steering extension existed: no trailing words at all."""
        legacy = protocol.SetFilter(
            allow_all_events=False, allowed_events=(1, 2), blocked_events=(3,),
            sample_every=4,
        )
        extended = protocol.SetFilter(
            allow_all_events=False, allowed_events=(1, 2), blocked_events=(3,),
            sample_every=4, filter_epoch=9, target_exs_id=2,
            field_tests=(FieldTest(0, "ge", 5),),
        )
        legacy_bytes = protocol.encode_message(legacy)
        assert protocol.encode_for(0, extended) == [legacy_bytes]
        assert len(protocol.encode_message(extended)) > len(legacy_bytes)
        decoded = protocol.decode_message(legacy_bytes)
        assert decoded.filter_epoch == 0
        assert decoded.target_exs_id == 0
        assert decoded.field_tests == ()

    def test_downgraded_drops_field_tests_conservatively(self):
        spec = FilterSpec(
            sample_every=2, field_tests=(FieldTest(0, "gt", 10),)
        )
        msg = protocol.SetFilter.from_spec(spec, epoch=3, target_exs_id=1)
        (frame,) = protocol.encode_for(0, msg)
        down = protocol.decode_message(frame)
        # Identity/sampling survive; the inexpressible predicate is
        # dropped (records it would reject still ship — never lossy).
        assert down.sample_every == 2
        assert down.field_tests == ()
        assert down.filter_epoch == 0

    def test_field_test_count_is_capped(self):
        tests = tuple(
            FieldTest(i % 8, "eq", i) for i in range(protocol.MAX_FIELD_TESTS + 1)
        )
        msg = protocol.SetFilter(field_tests=tests)
        encoded = protocol.encode_message(msg)
        try:
            protocol.decode_message(encoded)
        except protocol.ProtocolError:
            pass  # either refused at decode...
        else:  # ...or refused at encode; both bound the allocation
            raise AssertionError("oversized field-test array accepted")


# ----------------------------------------------------------------------
# end-to-end: pushdown through the EXS drain (delta-ts batches included)
# ----------------------------------------------------------------------
class TestExsPushdownEndToEnd:
    def _drain(self, exs: ExternalSensor) -> list[EventRecord]:
        out: list[EventRecord] = []
        for encoded in exs.flush():
            msg = protocol.decode_message(encoded)
            out.extend(msg.records)
        return out

    def test_field_test_filters_at_source(self):
        sensor, exs = make_exs()
        exs.on_set_filter(
            protocol.SetFilter.from_spec(
                FilterSpec(field_tests=(FieldTest(0, "ge", 50),)), epoch=1
            )
        )
        for k in range(100):
            sensor.notice_ints(1, k)
        records = self._drain(exs)
        assert [r.values[0] for r in records] == list(range(50, 100))
        assert exs.stats.records_filtered == 50

    def test_ts_field_test_through_delta_ts_batches(self):
        """A predicate on an X_TS field sees the sensor-written value,
        and survivors ride delta-ts batches losslessly."""
        ring = ring_for_records(1_000)
        sensor = Sensor(ring, node_id=1)
        from repro.util.timebase import now_micros

        exs = ExternalSensor(
            1, 1, ring, CorrectedClock(now_micros),
            ExsConfig(delta_ts=True),
        )
        exs.on_set_filter(
            protocol.SetFilter.from_spec(
                FilterSpec(field_tests=(FieldTest(0, "lt", 1_000),)), epoch=1
            )
        )
        stamps = [10, 2_000, 999, 1_000, 0]
        for ts in stamps:
            sensor.notice(7, (FieldType.X_TS, ts))
        records = self._drain(exs)
        assert [r.values[0] for r in records] == [10, 999, 0]
        assert all(r.field_types == (FieldType.X_TS,) for r in records)
