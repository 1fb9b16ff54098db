"""E9 — schema-specialized wire codec vs. the dynamic per-field codec.

The paper's custom-NOTICE-macro utility specializes the sensor hot path
to a fixed schema (A2 measures that at 2.7×); this experiment measures
the same specialization applied to the transfer protocol's codec: one
precompiled ``struct.Struct`` per schema (:mod:`repro.core.plan`; a
variable-length schema costs one per run of fixed fields plus one slice
per string/opaque) versus one Python method call per four bytes.  The
headline pipeline rates the paper reports (38,000 ev/s at the EXS,
90,000 ev/s end-to-end) all sit downstream of this codec, so its cost is
the ceiling on everything E2–E5 measure.
"""

from __future__ import annotations

import time

from repro.core.records import EventRecord, FieldType
from repro.wire import protocol

N_RECORDS = 256
ROUNDS = 40


def six_int_records(n: int = N_RECORDS) -> list[EventRecord]:
    return [
        EventRecord(
            event_id=7,
            timestamp=1_000_000 + i,
            field_types=(FieldType.X_INT,) * 6,
            values=(i, 2, 3, 4, 5, 6),
        )
        for i in range(n)
    ]


def _best(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_encode_specialized_vs_dynamic(benchmark, report):
    records = six_int_records()
    payload = benchmark(protocol.encode_batch_records, 1, 0, records)
    fast_s = benchmark.stats.stats.mean
    slow_s = _best(
        lambda: protocol.encode_batch_records(1, 0, records, use_fastpath=False)
    )
    report.row(
        f"specialized encode: {N_RECORDS / fast_s:,.0f} records/s "
        f"({len(payload)} B per {N_RECORDS}-record batch)"
    )
    report.row(f"dynamic encode:     {N_RECORDS / slow_s:,.0f} records/s")
    report.row(f"speedup: {slow_s / fast_s:.1f}x (target: >= 2x)")
    assert slow_s / fast_s >= 2.0


def test_decode_specialized_vs_dynamic(benchmark, report):
    payload = protocol.encode_batch_records(1, 0, six_int_records())
    batch = benchmark(protocol.decode_message, payload)
    assert len(batch.records) == N_RECORDS
    fast_s = benchmark.stats.stats.mean
    slow_s = _best(lambda: protocol.decode_message(payload, use_fastpath=False))
    report.row(f"specialized decode: {N_RECORDS / fast_s:,.0f} records/s")
    report.row(f"dynamic decode:     {N_RECORDS / slow_s:,.0f} records/s")
    report.row(f"speedup: {slow_s / fast_s:.1f}x (target: >= 2x)")
    assert slow_s / fast_s >= 2.0


def test_mixed_schema_batch_speedup(benchmark, report):
    """Schema runs broken by variable-length records: every record, the
    string-carrying ones included, goes through its schema's compiled
    plan, so the mixed batch must win like the fixed-size one."""
    records = []
    for i in range(N_RECORDS):
        if i % 16 == 15:
            records.append(
                EventRecord(
                    event_id=9,
                    timestamp=1_000_000 + i,
                    field_types=(FieldType.X_STRING, FieldType.X_UINT),
                    values=(f"tag-{i}", i),
                )
            )
        else:
            records.append(
                EventRecord(
                    event_id=7,
                    timestamp=1_000_000 + i,
                    field_types=(FieldType.X_INT,) * 6,
                    values=(i, 2, 3, 4, 5, 6),
                )
            )
    payload = protocol.encode_batch_records(1, 0, records)

    def round_trip():
        return protocol.decode_message(
            protocol.encode_batch_records(1, 0, records)
        )

    batch = benchmark(round_trip)
    assert len(batch.records) == N_RECORDS
    fast_s = benchmark.stats.stats.mean
    slow_s = _best(
        lambda: protocol.decode_message(
            protocol.encode_batch_records(1, 0, records, use_fastpath=False),
            use_fastpath=False,
        )
    )
    report.row(
        f"mixed batch (15/16 fixed-schema) round trip: "
        f"{N_RECORDS / fast_s:,.0f} records/s specialized, "
        f"{N_RECORDS / slow_s:,.0f} records/s dynamic "
        f"({slow_s / fast_s:.1f}x)"
    )
    assert protocol.encode_batch_records(1, 0, records) == protocol.encode_batch_records(
        1, 0, records, use_fastpath=False
    )
