"""Property-based tests (hypothesis) on core data structures and invariants.

Four invariant families:

* **codec roundtrips** — XDR primitives, native layout, wire batches, PICL
  lines are lossless for arbitrary valid records;
* **ring buffer** — FIFO order and byte conservation under arbitrary
  push/pop interleavings, including wrap-around;
* **on-line sorter** — conservation (everything pushed is eventually
  released exactly once) and per-source order preservation under arbitrary
  arrival patterns; frontier release is exact (the sorted merge, record for
  record the paper's time-frame sorter at ``T = ∞``);
* **record marking** — reassembly is chunking-invariant.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st
from tests.strategies import records, text as _text

from repro.core import native
from repro.core.records import EventRecord, FieldType
from repro.core.ringbuffer import HEADER_SIZE, RingBuffer
from repro.core.sorting import OnlineSorter, SorterConfig
from repro.picl.format import parse_line, picl_to_line, picl_to_record, record_to_picl
from repro.wire import protocol
from repro.xdr import RecordMarkingReader, XdrDecoder, XdrEncoder, frame_record

# ----------------------------------------------------------------------
# codec roundtrips
# ----------------------------------------------------------------------

class TestXdrRoundtrips:
    @given(st.integers(-(2**31), 2**31 - 1))
    def test_int(self, value):
        enc = XdrEncoder()
        enc.pack_int(value)
        assert XdrDecoder(enc.getvalue()).unpack_int() == value

    @given(st.integers(-(2**63), 2**63 - 1))
    def test_hyper(self, value):
        enc = XdrEncoder()
        enc.pack_hyper(value)
        assert XdrDecoder(enc.getvalue()).unpack_hyper() == value

    @given(st.binary(max_size=200))
    def test_opaque(self, data):
        enc = XdrEncoder()
        enc.pack_opaque(data)
        encoded = enc.getvalue()
        assert len(encoded) % 4 == 0
        assert XdrDecoder(encoded).unpack_opaque() == data

    @given(_text)
    def test_string(self, text):
        enc = XdrEncoder()
        enc.pack_string(text)
        assert XdrDecoder(enc.getvalue()).unpack_string() == text

    @given(st.floats(allow_nan=False))
    def test_double(self, value):
        enc = XdrEncoder()
        enc.pack_double(value)
        assert XdrDecoder(enc.getvalue()).unpack_double() == value


class TestRecordRoundtrips:
    @given(records())
    def test_native_layout(self, record):
        decoded, consumed = native.unpack_record(native.pack_record(record))
        assert decoded == record
        assert consumed == native.packed_size(record)

    @given(st.lists(records(), max_size=10), st.booleans(), st.booleans())
    @settings(max_examples=50)
    def test_wire_batch(self, batch_records, compress, delta):
        encoded = protocol.encode_batch_records(
            5, 9, batch_records, compress_meta=compress, delta_ts=delta
        )
        decoded = protocol.decode_message(encoded)
        assert decoded.exs_id == 5 and decoded.seq == 9
        stripped = [r.with_node(0) for r in batch_records]
        assert list(decoded.records) == stripped

    @given(records())
    @settings(max_examples=50)
    def test_wire_size_prediction(self, record):
        # delta_ts=False always; the escape path makes sizes input-dependent.
        for compress in (True, False):
            one = len(
                protocol.encode_batch_records(1, 0, [record], compress_meta=compress)
            )
            two = len(
                protocol.encode_batch_records(
                    1, 0, [record, record], compress_meta=compress
                )
            )
            assert two - one == protocol.record_wire_size(
                record, compress_meta=compress
            )

    @given(records())
    @settings(max_examples=50)
    def test_picl_line(self, record):
        line = picl_to_line(record_to_picl(record))
        assert "\n" not in line
        parsed = parse_line(line)
        rebuilt = picl_to_record(parsed)
        # Floats lose precision via repr for X_FLOAT only after float32
        # narrowing at encode; X_FLOAT values from the strategy are already
        # 32-bit representable, and repr() is exact for Python floats.
        assert rebuilt == record


class TestRecordMarkingProperties:
    @given(
        st.lists(st.binary(max_size=100), min_size=1, max_size=10),
        st.integers(1, 64),
    )
    def test_reassembly_is_chunking_invariant(self, payloads, chunk_size):
        stream = b"".join(frame_record(p) for p in payloads)
        reader = RecordMarkingReader()
        out = []
        for i in range(0, len(stream), chunk_size):
            out.extend(reader.feed(stream[i : i + chunk_size]))
        assert out == payloads
        assert reader.pending_bytes == 0


# ----------------------------------------------------------------------
# ring buffer
# ----------------------------------------------------------------------

class TestRingBufferProperties:
    @given(
        st.lists(records(max_fields=4), min_size=1, max_size=60),
        st.integers(0, 2**32 - 1),
        st.integers(512, 2048),
    )
    @settings(max_examples=50)
    def test_fifo_under_interleaving(self, recs, seed, capacity):
        ring = RingBuffer(bytearray(HEADER_SIZE + capacity))
        rng = random.Random(seed)
        pushed: list[EventRecord] = []
        popped: list[EventRecord] = []
        queue = list(recs)
        while queue or (len(popped) < len(pushed)):
            if queue and (rng.random() < 0.6):
                record = queue.pop(0)
                if native.packed_size(record) + 4 > capacity // 2:
                    continue  # too big for this ring by contract
                if ring.push(record):
                    pushed.append(record)
            else:
                record = ring.pop()
                if record is not None:
                    popped.append(record)
        assert popped == pushed

    @given(st.lists(records(max_fields=2), max_size=40))
    @settings(max_examples=50)
    def test_conservation(self, recs):
        ring = RingBuffer(bytearray(HEADER_SIZE + 1 << 16))
        accepted = sum(1 for r in recs if ring.push(r))
        drained = ring.drain()
        assert len(drained) == accepted
        assert ring.used == 0


# ----------------------------------------------------------------------
# on-line sorter
# ----------------------------------------------------------------------

@st.composite
def arrival_plans(draw):
    """Per-source increasing timestamps with arbitrary arrival times."""
    n_sources = draw(st.integers(1, 5))
    plan = []
    for source in range(n_sources):
        n = draw(st.integers(0, 20))
        ts_list = sorted(
            draw(
                st.lists(
                    st.integers(0, 10_000), min_size=n, max_size=n, unique=True
                )
            )
        )
        arrivals = draw(
            st.lists(
                st.integers(0, 20_000), min_size=n, max_size=n
            )
        )
        for ts, arr in zip(ts_list, sorted(arrivals)):
            plan.append((source, ts, max(arr, ts)))
    plan.sort(key=lambda item: item[2])
    return plan


class TestSorterProperties:
    @given(
        arrival_plans(),
        st.integers(0, 5_000),
        st.floats(0.0, 2.0),
    )
    @settings(max_examples=80)
    def test_conservation_and_source_order(self, plan, initial_frame, decay):
        sorter = OnlineSorter(
            SorterConfig(initial_frame_us=initial_frame, decay_lambda=decay)
        )
        released: list[EventRecord] = []
        for source, ts, arrival in plan:
            record = EventRecord(
                event_id=source,
                timestamp=ts,
                field_types=(FieldType.X_INT,),
                values=(ts,),
                node_id=source,
            )
            sorter.push(source, record, now=arrival)
            released.extend(sorter.extract(now=arrival))
        released.extend(sorter.flush(now=30_000))
        # Conservation: exactly once, nothing invented.
        assert len(released) == len(plan)
        assert sorter.held == 0
        # Per-source order is always preserved (FIFO queues).
        by_source: dict[int, list[int]] = {}
        for record in released:
            by_source.setdefault(record.node_id, []).append(record.timestamp)
        for series in by_source.values():
            assert series == sorted(series)

    @given(arrival_plans())
    @settings(max_examples=50)
    def test_infinite_frame_gives_total_order(self, plan):
        # With an unbounded frame and a final flush, output is sorted.
        sorter = OnlineSorter(
            SorterConfig(initial_frame_us=10_000_000, decay_lambda=0.0)
        )
        for source, ts, arrival in plan:
            record = EventRecord(
                event_id=source,
                timestamp=ts,
                field_types=(),
                values=(),
                node_id=source,
            )
            sorter.push(source, record, now=arrival)
            sorter.extract(now=arrival)
        released = sorter.flush(now=10**9)
        ts_series = [r.timestamp for r in released]
        assert ts_series == sorted(ts_series)

    @pytest.mark.property
    @given(arrival_plans())
    @settings(max_examples=200)
    def test_frontier_release_is_the_sorted_merge(self, plan):
        # Per-source-monotone pushes, any interleaving, frame never
        # expiring: whatever the frontier lets out early is already in
        # its final place — the concatenated output is the paper sorter's
        # (hold everything, flush at the end), record for record.
        forever = SorterConfig(initial_frame_us=10_000_000, decay_lambda=0.0)
        frontier = OnlineSorter(forever)
        paper = OnlineSorter(forever)
        paper.add_source(99)  # a silent peer: every record waits out T
        # Sources register before they stream (the Hello): the frontier
        # can only wait for a source it has been told about.
        for source in {source for source, _, _ in plan}:
            frontier.add_source(source)
        released: list[EventRecord] = []
        for source, ts, arrival in plan:
            record = EventRecord(
                event_id=source, timestamp=ts, field_types=(), values=(),
                node_id=source,
            )
            for sorter in (frontier, paper):
                sorter.push(source, record, now=arrival)
            released.extend(frontier.extract(now=arrival))
            assert paper.extract(now=arrival) == []
        early = len(released)
        released.extend(frontier.flush(now=30_000))
        assert released == paper.flush(now=30_000)
        assert [r.timestamp for r in released] == sorted(ts for _, ts, _ in plan)
        assert frontier.stats.out_of_order == 0
        assert frontier.stats.frontier_regressions == 0
        assert frontier.stats.on_frontier == early
        assert paper.stats.on_frontier == 0

    @given(arrival_plans(), st.integers(1, 10))
    @settings(max_examples=50)
    def test_max_held_bound_respected(self, plan, max_held):
        sorter = OnlineSorter(
            SorterConfig(initial_frame_us=10_000_000, max_held=max_held)
        )
        for source, ts, arrival in plan:
            record = EventRecord(
                event_id=source, timestamp=ts, field_types=(), values=(),
                node_id=source,
            )
            sorter.push(source, record, now=arrival)
            sorter.extract(now=arrival)
            assert sorter.held <= max_held + 1  # bound enforced on extract


# ----------------------------------------------------------------------
# clock sync
# ----------------------------------------------------------------------

class TestSyncProperties:
    @given(
        st.lists(
            st.floats(-1e6, 1e6), min_size=2, max_size=12
        ),
        st.floats(1.0, 10_000.0),
    )
    @settings(max_examples=60)
    def test_brisk_rounds_never_regress_clocks(self, skews, threshold):
        from repro.clocksync.brisk_sync import BriskSyncConfig, BriskSyncMaster
        from tests.test_clocksync import ExactSlave

        slaves = [ExactSlave(i, s) for i, s in enumerate(skews)]
        master = BriskSyncMaster(
            slaves, BriskSyncConfig(threshold_us=threshold)
        )
        for _ in range(15):
            master.run_round()
        # Advance-only, and dispersion never worse than where it started.
        for slave in slaves:
            assert all(c > 0 for c in slave.corrections)
        final = [s.skew_us for s in slaves]
        assert max(final) - min(final) <= (max(skews) - min(skews)) + 1e-6
        # With exact probes the ensemble converges to the fastest clock
        # (float rounding in `rel = |a - b|` allows sub-µs wobble only).
        assert max(final) == pytest.approx(max(skews), abs=1e-6)
