"""Equivalence proofs for the staged ISM ingestion pipeline.

The staged pipeline (batched framing, bulk sort, batch CRE, bulk delivery)
is an *optimization*, not a semantic change: every batch entry point must
produce the identical record sequence — order and bytes — as its
per-record spelling.  These tests pit the two spellings against each other
under randomized interleavings, overload (``max_held``), both growth
signals, and causal (tachyon / CRE-override) traffic.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import native
from repro.core.consumers import (
    CollectingConsumer,
    MemoryBufferConsumer,
    PiclFileConsumer,
    QueuedConsumer,
)
from repro.core.cre import CausalMatcher
from repro.core.ism import InstrumentationManager, IsmConfig
from repro.core.records import EventRecord, FieldType
from repro.core.sorting import OnlineSorter, SorterConfig
from repro.picl.format import PiclWriter
from repro.wire import protocol


def _plain(event_id: int, ts: int, node_id: int = 0) -> EventRecord:
    return EventRecord(
        event_id=event_id,
        timestamp=ts,
        field_types=(FieldType.X_INT, FieldType.X_INT),
        values=(event_id, 7),
        node_id=node_id,
    )


def _reason(event_id: int, ts: int, rid: int) -> EventRecord:
    return EventRecord(
        event_id=event_id,
        timestamp=ts,
        field_types=(FieldType.X_REASON,),
        values=(rid,),
    )


def _conseq(event_id: int, ts: int, rid: int) -> EventRecord:
    return EventRecord(
        event_id=event_id,
        timestamp=ts,
        field_types=(FieldType.X_CONSEQ,),
        values=(rid,),
    )


# ----------------------------------------------------------------------
# sorter: push_many / extract_ready_batch ≡ per-record push / extract
# ----------------------------------------------------------------------

_sorter_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.integers(min_value=0, max_value=3),  # exs_id
            st.lists(  # batch timestamps
                st.integers(min_value=0, max_value=500_000),
                min_size=1,
                max_size=12,
            ),
            st.integers(min_value=0, max_value=60_000),  # dt before the op
        ),
        st.tuples(
            st.just("extract"),
            st.integers(min_value=0, max_value=120_000),  # dt before the op
        ),
    ),
    min_size=1,
    max_size=25,
)


@pytest.mark.property
@pytest.mark.parametrize("growth_signal", ["arrival", "watermark"])
@pytest.mark.parametrize("max_held", [4, 100_000])
@settings(max_examples=50, deadline=None)
@given(ops=_sorter_ops)
def test_push_many_extract_equivalent_to_per_record(
    growth_signal: str, max_held: int, ops
) -> None:
    """Same releases, same adapted frame, same stats — any interleaving
    (sources fall silent past the 10 ms frame here, so both the frontier
    and the frame release path run)."""
    config = SorterConfig(
        initial_frame_us=10_000,
        growth_signal=growth_signal,
        max_held=max_held,
        decay_lambda=0.5,
    )
    per_record = OnlineSorter(config)
    batched = OnlineSorter(config)
    now = 1_000_000
    event_id = 0
    for op in ops:
        if op[0] == "push":
            _, exs_id, timestamps, dt = op
            now += dt
            records = []
            for ts in timestamps:
                event_id += 1
                records.append(_plain(event_id, ts, node_id=exs_id))
            for record in records:
                per_record.push(exs_id, record, now)
            batched.push_many(exs_id, records, now)
        else:
            now += op[1]
            assert per_record.extract(now) == batched.extract_ready_batch(now)
        assert per_record.frame_us == batched.frame_us
        assert per_record.held == batched.held
    assert per_record.flush(now) == batched.flush(now)
    for attr in (
        "pushed", "released", "forced", "out_of_order", "on_frontier",
        "frontier_regressions", "flushed",
    ):
        assert getattr(per_record.stats, attr) == getattr(batched.stats, attr)


# ----------------------------------------------------------------------
# full manager: batched tick/flush/delivery ≡ per-record component loop
# ----------------------------------------------------------------------

_NODE = 7

_causal_batches = st.lists(  # one entry per Batch message
    st.tuples(
        st.integers(min_value=0, max_value=1),  # exs_id
        st.lists(
            st.tuples(
                st.sampled_from(["plain", "reason", "conseq"]),
                st.integers(min_value=0, max_value=200_000),  # timestamp
                st.integers(min_value=1, max_value=3),  # causal id pool
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=0, max_value=50_000),  # dt before delivery
    ),
    min_size=1,
    max_size=12,
)


def _build_records(specs) -> list[EventRecord]:
    records = []
    for i, (kind, ts, rid) in enumerate(specs):
        if kind == "reason":
            records.append(_reason(1000 + i, ts, rid))
        elif kind == "conseq":
            records.append(_conseq(2000 + i, ts, rid))
        else:
            records.append(_plain(3000 + i, ts))
    return records


def _reference_delivery(batches) -> list[EventRecord]:
    """The per-record spelling of the whole pipeline, component by
    component: push → extract → cre.process → expire, one record at a
    time, with the node stamped through the validated copy constructor."""
    config = IsmConfig(expire_interval_us=0)
    sorter = OnlineSorter(config.sorter)
    cre = CausalMatcher(config.cre)
    delivered: list[EventRecord] = []
    now = 1_000_000
    for exs_id in (0, 1):
        sorter.add_source(exs_id)
    for exs_id, specs, dt in batches:
        now += dt
        for record in _build_records(specs):
            sorter.push(exs_id, record.with_node(_NODE), now)
        for record in sorter.extract(now):
            delivered.extend(cre.process(record, now))
        delivered.extend(cre.expire(now))
    for record in sorter.flush(now):
        delivered.extend(cre.process(record, now))
    delivered.extend(cre.expire(now + config.cre.timeout_us + 1))
    return delivered


@pytest.mark.parametrize("delivery_batch", [1, 3, 1024])
@settings(max_examples=40, deadline=None)
@given(batches=_causal_batches)
def test_manager_batched_delivery_equivalent(delivery_batch: int, batches) -> None:
    """End-to-end: same records, same order, same consumer bytes."""
    collected = CollectingConsumer()
    memory = MemoryBufferConsumer()
    picl_stream = io.StringIO()
    picl = PiclFileConsumer(picl_stream)
    manager = InstrumentationManager(
        config=IsmConfig(expire_interval_us=0, delivery_batch=delivery_batch),
        consumers=[collected, memory, picl],
    )
    for exs_id in (0, 1):
        manager.register_source(exs_id, _NODE)
    now = 1_000_000
    seqs = {0: 0, 1: 0}
    for exs_id, specs, dt in batches:
        now += dt
        batch = protocol.Batch(
            exs_id=exs_id, seq=seqs[exs_id], records=tuple(_build_records(specs))
        )
        seqs[exs_id] += 1
        manager.on_batch(batch, now)
        manager.tick(now)
    manager.flush(now)

    expected = _reference_delivery(batches)
    assert collected.records == expected
    assert bytes(memory.buffer) == b"".join(
        native.pack_record(r) for r in expected
    )
    ref_stream = io.StringIO()
    PiclWriter(ref_stream).write_all(expected)
    assert picl_stream.getvalue() == ref_stream.getvalue()
    assert manager.stats.records_delivered == len(expected)


# ----------------------------------------------------------------------
# PICL batch write: byte identity
# ----------------------------------------------------------------------

def test_picl_write_all_byte_identical() -> None:
    records = [_plain(i, 1_000 * i) for i in range(1, 40)] + [
        _reason(99, 50_000, 1),
        _conseq(100, 60_000, 1),
    ]
    one_by_one = io.StringIO()
    writer = PiclWriter(one_by_one)
    for record in records:
        writer.write(record)
    batched = io.StringIO()
    batch_writer = PiclWriter(batched)
    batch_writer.write_all(records)
    assert batched.getvalue() == one_by_one.getvalue()
    assert batch_writer.lines_written == writer.lines_written == len(records)
    empty = io.StringIO()
    PiclWriter(empty).write_all([])
    assert empty.getvalue() == ""


# ----------------------------------------------------------------------
# QueuedConsumer: ordering, error surfacing, close semantics
# ----------------------------------------------------------------------

class _ExplodingConsumer:
    def __init__(self) -> None:
        self.closed = False

    def deliver(self, record: EventRecord) -> None:
        raise RuntimeError("sink is broken")

    def close(self) -> None:
        self.closed = True


def test_queued_consumer_preserves_order_and_counts() -> None:
    inner = CollectingConsumer()
    queued = QueuedConsumer(inner, max_queued_batches=4)
    records = [_plain(i, 10 * i) for i in range(1, 101)]
    for start in range(0, len(records), 7):
        queued.deliver_many(records[start : start + 7])
    queued.deliver(_plain(999, 99_999))
    queued.close()
    assert inner.records == records + [_plain(999, 99_999)]
    assert queued.delivered == len(records) + 1


def test_queued_consumer_surfaces_worker_error_on_next_delivery() -> None:
    inner = _ExplodingConsumer()
    queued = QueuedConsumer(inner, max_queued_batches=4)
    queued.deliver_many([_plain(1, 100)])
    with pytest.raises(RuntimeError, match="sink is broken"):
        # The worker hit the error asynchronously; poll until it surfaces.
        for _ in range(1000):
            queued.deliver_many([_plain(2, 200)])
    try:
        queued.close()
    except RuntimeError:
        pass  # a batch queued while polling may have failed too
    assert inner.closed


def test_queued_consumer_rejects_use_after_close() -> None:
    queued = QueuedConsumer(CollectingConsumer())
    queued.close()
    queued.close()  # idempotent
    with pytest.raises(RuntimeError):
        queued.deliver(_plain(1, 100))


def test_queued_consumer_validates_bound() -> None:
    with pytest.raises(ValueError):
        QueuedConsumer(CollectingConsumer(), max_queued_batches=0)


def test_manager_delivers_through_queued_consumer() -> None:
    inner = CollectingConsumer()
    queued = QueuedConsumer(inner)
    manager = InstrumentationManager(
        config=IsmConfig(expire_interval_us=0), consumers=[queued]
    )
    manager.register_source(1, _NODE)
    records = tuple(_plain(i, 100 * i, node_id=_NODE) for i in range(1, 51))
    manager.on_batch(protocol.Batch(exs_id=1, seq=0, records=records), 1_000_000)
    manager.flush(2_000_000)
    manager.close()
    assert inner.records == list(records)


# ----------------------------------------------------------------------
# batched framing: recv_frames slices every frame per wakeup
# ----------------------------------------------------------------------

def test_recv_frames_returns_all_buffered_frames() -> None:
    from repro.wire.tcp import MessageListener, connect

    with MessageListener() as listener:
        host, port = listener.address
        sender = connect(host, port)
        receiver = listener.accept(timeout=1.0)
        assert receiver is not None
        payloads = [
            protocol.encode_message(protocol.Hello(exs_id=i, node_id=i))
            for i in range(20)
        ]
        sender.send_many(payloads)
        frames: list[bytes] = []
        while len(frames) < len(payloads):
            frames.extend(receiver.recv_frames(timeout=1.0))
        assert [bytes(f) for f in frames] == payloads
        decoded = protocol.decode_messages(frames)
        assert [m.exs_id for m in decoded] == list(range(20))
        sender.close()
        receiver.close()


def test_recv_available_single_kernel_drain(monkeypatch) -> None:
    """The satellite fix: one select per drained inbox, not one per
    message."""
    import select as select_mod

    from repro.wire.tcp import MessageListener, connect

    with MessageListener() as listener:
        host, port = listener.address
        sender = connect(host, port)
        receiver = listener.accept(timeout=1.0)
        assert receiver is not None
        sender.send_many(
            [
                protocol.encode_message(protocol.Hello(exs_id=i, node_id=i))
                for i in range(50)
            ]
        )
        # Wait until the data is definitely buffered on the receiver side.
        select_mod.select([receiver], [], [], 1.0)
        calls = 0
        real_select = select_mod.select

        def counting_select(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real_select(*args, **kwargs)

        monkeypatch.setattr("repro.wire.tcp.select.select", counting_select)
        msgs = list(receiver.recv_available())
        assert len(msgs) == 50
        # One select found the bytes, one found the socket drained.  The
        # seed issued one select per message (50+).
        assert calls <= 3
        sender.close()
        receiver.close()


# ----------------------------------------------------------------------
# EXS drain-quota redistribution
# ----------------------------------------------------------------------

def test_drain_all_redistributes_unused_quota() -> None:
    from repro.clocksync.clocks import CorrectedClock
    from repro.core.exs import ExsConfig, ExternalSensor
    from repro.core.ringbuffer import ring_for_records

    busy = ring_for_records(256)
    idle = ring_for_records(256)
    for i in range(1, 11):
        busy.push(_plain(i, 1_000 * i))
    exs = ExternalSensor(
        exs_id=1,
        node_id=1,
        ring=[busy, idle],
        clock=CorrectedClock(lambda: 10_000_000),
        config=ExsConfig(drain_limit=8),
    )
    drained = exs._drain_all()
    # An even split would stop at 4 (idle's share wasted); the second
    # pass hands idle's unused quota to the busy ring.
    assert len(drained) == 8
    timestamps = [native.timestamp_of(p) for p in drained]
    assert timestamps == sorted(timestamps)
    assert len(exs._drain_all()) == 2  # the tail, next poll


def test_drain_all_splits_between_busy_rings() -> None:
    from repro.clocksync.clocks import CorrectedClock
    from repro.core.exs import ExsConfig, ExternalSensor
    from repro.core.ringbuffer import ring_for_records

    rings = [ring_for_records(256) for _ in range(2)]
    for ring_idx, ring in enumerate(rings):
        for i in range(1, 11):
            ring.push(_plain(i, 1_000 * i + ring_idx))
    exs = ExternalSensor(
        exs_id=1,
        node_id=1,
        ring=rings,
        clock=CorrectedClock(lambda: 10_000_000),
        config=ExsConfig(drain_limit=8),
    )
    drained = exs._drain_all()
    assert len(drained) == 8  # both rings busy: the even split stands
    timestamps = [native.timestamp_of(p) for p in drained]
    assert timestamps == sorted(timestamps)
