"""E2 — CPU utilization of the external sensor.

Paper: "The CPU utilization of the EXS on a Sun workstation where it
shares the CPU with the target application was shown negligible (under 1%)
at event rates of up to 38,000 per second."

Reproduction: measure the EXS's per-record CPU cost for a full poll cycle
(drain the ring, transcode each record to XDR with the clock correction,
batch, frame) and convert it to
the fraction of one CPU consumed at swept event rates.  The shape to hold:
utilization grows linearly with rate, and the per-record cost is small
enough that realistic rates leave the application most of the CPU.

A Python EXS is ~an order of magnitude costlier per record than the C one,
so the "<1 % at 38k ev/s" point maps to a proportionally lower rate here;
the result file reports the measured break-even rates explicitly.
"""

import time

from repro.clocksync.clocks import CorrectedClock
from repro.core.exs import ExsConfig, ExternalSensor
from repro.core.ringbuffer import OverflowPolicy, RingBuffer, HEADER_SIZE
from repro.core.sensor import Sensor
from repro.util.timebase import now_micros


def build_lis() -> tuple[Sensor, ExternalSensor]:
    ring = RingBuffer(
        bytearray(HEADER_SIZE + (1 << 22)), OverflowPolicy.DROP_NEW
    )
    sensor = Sensor(ring, node_id=1)
    exs = ExternalSensor(
        1, 1, ring, CorrectedClock(now_micros),
        ExsConfig(batch_max_records=256, drain_limit=100_000),
    )
    return sensor, exs


def test_exs_poll_cycle_cost(benchmark, report):
    """Time one poll cycle over a 256-record backlog (one full batch)."""
    sensor, exs = build_lis()

    def fill():
        for i in range(256):
            sensor.notice_ints(7, i, 2, 3, 4, 5, 6)
        return (), {}

    batches = benchmark.pedantic(
        exs.poll, setup=fill, rounds=200, warmup_rounds=5
    )
    per_record_us = benchmark.stats.stats.mean * 1e6 / 256
    report.row(f"EXS cost per record (drain+transcode+batch+frame): {per_record_us:.2f} us")
    rows = []
    for rate in (1_000, 5_000, 10_000, 38_000):
        utilization = per_record_us * rate / 1e6
        rows.append((f"{rate:>7} ev/s", f"{utilization * 100:6.2f} % of one CPU"))
    report.table("rate        utilization", rows)
    one_pct_rate = 0.01 * 1e6 / per_record_us
    report.row(f"rate at 1% CPU: {one_pct_rate:,.0f} ev/s")
    report.row("paper: <1% at 38,000 ev/s (C implementation)")
    # Sanity: modest rates stay well under full-CPU saturation.
    assert per_record_us * 1_000 / 1e6 < 0.05


def test_exs_idle_poll_is_cheap(benchmark, report):
    """An empty poll (the common case between bursts) must be ~free."""
    _, exs = build_lis()
    benchmark(exs.poll)
    us = benchmark.stats.stats.mean * 1e6
    report.row(f"idle EXS poll: {us:.2f} us")
    assert us < 100
