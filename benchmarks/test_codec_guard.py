"""Codec-regression guard: the compiled wire codec must never be slower.

A fast smoke benchmark (no pytest-benchmark fixture, plain best-of-N
timing; total runtime well under a second) that fails if a schema's
compiled plan loses to — or silently stops beating — the seed dynamic
path, for the paper's fixed-size record and for records carrying strings
and opaques, so a refactor cannot quietly bypass or regress the compiled
path.  The EXS, which transcodes ring records straight to wire bytes, must
stay at least twice as fast as decoding and re-encoding them — a ratio,
so it holds on shared runners.  Byte identity is asserted in the same
breath: a fast path that wins by changing the wire format is also a
failure.
"""

from __future__ import annotations

import time

from repro.clocksync.clocks import CorrectedClock
from repro.core import native
from repro.core.exs import ExsConfig, ExternalSensor
from repro.core.records import EventRecord, FieldType
from repro.wire import protocol

_N_RECORDS = 256
_REPEATS = 7


def _records() -> list[EventRecord]:
    return [
        EventRecord(
            event_id=7,
            timestamp=1_000_000 + i,
            field_types=(FieldType.X_INT,) * 6,
            values=(i, 2, 3, 4, 5, 6),
        )
        for i in range(_N_RECORDS)
    ]


def _var_records() -> list[EventRecord]:
    """Variable-length schemas of the ledger's mixed workload, alternating."""
    string_schema = (FieldType.X_INT, FieldType.X_STRING)
    opaque_schema = (FieldType.X_INT, FieldType.X_OPAQUE, FieldType.X_DOUBLE)
    return [
        EventRecord(
            event_id=8,
            timestamp=1_000_000 + i,
            field_types=string_schema if i % 2 else opaque_schema,
            values=(i, "svc/" + "x" * (i % 40)) if i % 2 else (i, bytes(i % 32), 0.5),
        )
        for i in range(_N_RECORDS)
    ]


def _best(fn, repeats: int = _REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_specialized_encode_not_slower_than_dynamic():
    records = _records()
    fast_bytes = protocol.encode_batch_records(1, 0, records)
    slow_bytes = protocol.encode_batch_records(1, 0, records, use_fastpath=False)
    assert fast_bytes == slow_bytes  # identical wire output, or no deal

    fast = _best(lambda: protocol.encode_batch_records(1, 0, records))
    slow = _best(
        lambda: protocol.encode_batch_records(1, 0, records, use_fastpath=False)
    )
    assert fast <= slow, (
        f"specialized encode ({fast * 1e6:.0f} µs/batch) slower than "
        f"dynamic ({slow * 1e6:.0f} µs/batch)"
    )


def test_specialized_decode_not_slower_than_dynamic():
    payload = protocol.encode_batch_records(1, 0, _records())
    assert protocol.decode_message(payload) == protocol.decode_message(
        payload, use_fastpath=False
    )

    fast = _best(lambda: protocol.decode_message(payload))
    slow = _best(lambda: protocol.decode_message(payload, use_fastpath=False))
    assert fast <= slow, (
        f"specialized decode ({fast * 1e6:.0f} µs/batch) slower than "
        f"dynamic ({slow * 1e6:.0f} µs/batch)"
    )


def test_compiled_var_length_encode_not_slower_than_dynamic():
    records = _var_records()
    assert protocol.encode_batch_records(1, 0, records) == protocol.encode_batch_records(
        1, 0, records, use_fastpath=False
    )
    fast = _best(lambda: protocol.encode_batch_records(1, 0, records))
    slow = _best(
        lambda: protocol.encode_batch_records(1, 0, records, use_fastpath=False)
    )
    assert fast <= slow, (
        f"compiled var-length encode ({fast * 1e6:.0f} µs/batch) slower than "
        f"dynamic ({slow * 1e6:.0f} µs/batch)"
    )


def test_compiled_var_length_decode_not_slower_than_dynamic():
    payload = protocol.encode_batch_records(1, 0, _var_records())
    assert protocol.decode_message(payload) == protocol.decode_message(
        payload, use_fastpath=False
    )
    fast = _best(lambda: protocol.decode_message(payload))
    slow = _best(lambda: protocol.decode_message(payload, use_fastpath=False))
    assert fast <= slow, (
        f"compiled var-length decode ({fast * 1e6:.0f} µs/batch) slower than "
        f"dynamic ({slow * 1e6:.0f} µs/batch)"
    )


class _PreloadedRing:
    """A ring stand-in handing the EXS the same drained payloads each
    poll, so the race times the EXS's own work, not the ring's."""

    def __init__(self, payloads: list[bytes]) -> None:
        self.payloads = payloads

    def drain_bytes(self, limit: int | None = None) -> list[bytes]:
        return self.payloads


def test_exs_transcode_at_least_twice_the_record_path():
    clock = CorrectedClock(lambda: 2_000_000)
    clock.advance(1_234)
    payloads = [native.pack_record(r) for r in _records()]
    exs = ExternalSensor(1, 1, [_PreloadedRing(payloads)], clock, ExsConfig())
    (transcoded,) = exs.poll()  # one full batch: 256 records

    def record_path() -> bytes:
        correction = clock.correction_us
        records = [native.unpack_record_stamped(p, 1, correction) for p in payloads]
        return protocol.encode_batch_records(1, exs.next_seq - 1, records)

    assert transcoded == record_path()  # the same batch, or no deal
    fast = _best(exs.poll)
    slow = _best(record_path)
    assert 2 * fast <= slow, (
        f"EXS poll ({fast * 1e6:.0f} µs/batch) is not twice as fast as "
        f"decode + encode ({slow * 1e6:.0f} µs/batch)"
    )
