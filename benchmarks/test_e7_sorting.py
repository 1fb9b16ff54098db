"""E7 — on-line sorting under artificially delayed event streams.

Paper: "The on-line sorting algorithm was evaluated using streams of
artificially delayed event records, and by varying four quantitative and
qualitative parameters.  We found that setting the time frame T to be as
large as the latest late event's lateness is a good strategy for
latency-critical applications, and that in all other applications a small
exponent constant for reducing T (i.e., a large T's half-life) helps."

The sweep below varies the same four parameter families:

1. growth signal (qualitative): ``arrival`` — T tracks the latest late
   event's lateness — versus ``watermark``;
2. decay constant λ (quantitative): small (long half-life) versus large;
3. initial time frame (quantitative);
4. input delay profile (quantitative): jitter magnitude and straggler
   frequency/size.

Metrics per cell: out-of-order release fraction (ordering quality) and
mean hold time in the sorter (added latency).  The paper's two findings
are asserted at the bottom.

Every cell runs the paper's pure time-frame sorter (a registered source
that never speaks keeps every record waiting out ``T``): E7 evaluates the
time frame itself.  Its delayed streams keep per-source FIFO order, so the
default frontier release orders them perfectly whatever ``T`` is (see the
last row of ``examples/sorting_tuning.py``) and the four knobs would have
nothing left to trade.
"""

import random

from repro.core.sorting import OnlineSorter, SorterConfig
from repro.sim.workload import make_delayed_streams, merge_by_arrival


#: Registered but never pushes: the frontier can pass nothing.
SILENT = 99


def run_sorter(config: SorterConfig, streams) -> dict:
    sorter = OnlineSorter(config)
    sorter.add_source(SILENT)
    merged = merge_by_arrival(streams)
    for source, record, arrival in merged:
        sorter.push(source, record, now=arrival)
        sorter.extract(now=arrival)
    # Drain at the stream's end rather than far in the future, so records
    # parked at shutdown do not inflate the hold-time statistic.
    sorter.flush(now=merged[-1][2] + 1)
    stats = sorter.stats
    return {
        "ooo_frac": stats.out_of_order / max(1, stats.released),
        "hold_mean_ms": stats.hold_time_us.mean / 1000,
        "final_frame_ms": sorter.frame_us / 1000,
        "released": stats.released,
    }


def spiky_streams(seed: int = 3):
    return make_delayed_streams(
        random.Random(seed),
        n_sources=4,
        rate_hz=2_000,
        duration_s=3.0,
        base_delay_us=500,
        jitter_mean_us=300,
        straggler_prob=0.01,
        straggler_extra_us=30_000,
    )


def smooth_streams(seed: int = 3):
    return make_delayed_streams(
        random.Random(seed),
        n_sources=4,
        rate_hz=2_000,
        duration_s=3.0,
        base_delay_us=500,
        jitter_mean_us=100,
        straggler_prob=0.0,
    )


def test_growth_signal_strategies(benchmark, report):
    """Qualitative knob: how T grows (the paper's recommended strategy)."""

    def study():
        out = {}
        for signal in ("arrival", "watermark"):
            config = SorterConfig(
                initial_frame_us=1_000,
                growth_signal=signal,
                decay_lambda=0.05,
            )
            out[signal] = run_sorter(config, spiky_streams())
        return out

    out = benchmark.pedantic(study, rounds=1, iterations=1)
    rows = [
        (
            f"{signal:<10}",
            f"out-of-order {m['ooo_frac'] * 100:6.2f}%",
            f"hold {m['hold_mean_ms']:6.2f} ms",
            f"T_end {m['final_frame_ms']:6.2f} ms",
        )
        for signal, m in out.items()
    ]
    report.table("growth signal  ordering  latency  frame", rows)
    report.row(
        "paper: T as large as the latest late event's lateness is a good "
        "strategy for latency-critical applications"
    )
    # The recommended strategy orders clearly better...
    assert out["arrival"]["ooo_frac"] < out["watermark"]["ooo_frac"] * 0.75
    # ...without holding records longer than the worst observed lateness.
    max_lateness_ms = max(s.max_lateness_us for s in spiky_streams()) / 1000
    assert out["arrival"]["hold_mean_ms"] < max_lateness_ms * 1.5


def test_decay_constant_sweep(benchmark, report):
    """Quantitative knob: λ — a small constant (long half-life) helps."""

    def study():
        out = {}
        for lam in (0.02, 0.2, 2.0, 20.0):
            # Watermark growth: the conservative adaptation where decay
            # actually bites (arrival growth re-learns the frame from the
            # next late event almost immediately).
            config = SorterConfig(
                initial_frame_us=1_000,
                growth_signal="watermark",
                decay_lambda=lam,
            )
            out[lam] = run_sorter(config, spiky_streams())
        return out

    out = benchmark.pedantic(study, rounds=1, iterations=1)
    rows = [
        (
            f"lambda={lam:<6}",
            f"out-of-order {m['ooo_frac'] * 100:6.3f}%",
            f"hold {m['hold_mean_ms']:6.2f} ms",
        )
        for lam, m in out.items()
    ]
    report.table("decay  ordering  latency", rows)
    report.row("paper: a small exponent constant (large T half-life) helps")
    lams = sorted(out)
    # Ordering quality degrades sharply as decay gets aggressive: the
    # longest half-life orders several times better than the shortest.
    assert out[lams[0]]["ooo_frac"] < out[lams[-1]]["ooo_frac"] / 3


def test_initial_frame_sweep(benchmark, report):
    """Quantitative knob: where T starts from."""

    def study():
        out = {}
        for t0 in (0, 1_000, 10_000, 1_000_000):
            config = SorterConfig(
                initial_frame_us=t0, growth_signal="arrival", decay_lambda=0.05
            )
            out[t0] = run_sorter(config, spiky_streams())
        return out

    out = benchmark.pedantic(study, rounds=1, iterations=1)
    rows = [
        (
            f"T0={t0 / 1000:>7.1f}ms",
            f"out-of-order {m['ooo_frac'] * 100:6.3f}%",
            f"hold {m['hold_mean_ms']:6.2f} ms",
        )
        for t0, m in out.items()
    ]
    report.table("initial frame  ordering  latency", rows)
    # A frame beyond the worst lateness orders perfectly but pays in
    # latency — the trade-off the adaptive scheme automates.
    assert out[1_000_000]["ooo_frac"] == 0.0
    assert out[1_000_000]["hold_mean_ms"] > out[1_000]["hold_mean_ms"]


def test_delay_profile_sweep(benchmark, report):
    """Quantitative knob: the input's delay distribution."""

    def study():
        config = lambda: SorterConfig(
            initial_frame_us=1_000, growth_signal="arrival", decay_lambda=0.05
        )
        return {
            "smooth": run_sorter(config(), smooth_streams()),
            "spiky": run_sorter(config(), spiky_streams()),
        }

    out = benchmark.pedantic(study, rounds=1, iterations=1)
    rows = [
        (
            f"{name:<7}",
            f"out-of-order {m['ooo_frac'] * 100:6.3f}%",
            f"hold {m['hold_mean_ms']:6.2f} ms",
            f"T_end {m['final_frame_ms']:6.2f} ms",
        )
        for name, m in out.items()
    ]
    report.table("profile  ordering  latency  frame", rows)
    # Stragglers force a larger frame (more latency) than smooth input.
    assert out["spiky"]["hold_mean_ms"] > out["smooth"]["hold_mean_ms"]


def test_sorter_throughput(benchmark, report):
    """Raw sorter speed — it must not be the ISM bottleneck's bottleneck."""
    streams = spiky_streams()
    merged = merge_by_arrival(streams)

    def run():
        sorter = OnlineSorter(SorterConfig(initial_frame_us=1_000, decay_lambda=0.05))
        sorter.add_source(SILENT)
        for source, record, arrival in merged:
            sorter.push(source, record, now=arrival)
            sorter.extract(now=arrival)
        sorter.flush(now=10**12)
        return sorter.stats.released

    released = benchmark(run)
    rate = released / benchmark.stats.stats.mean
    report.row(f"sorter throughput: {rate:,.0f} records/s through push+extract")
