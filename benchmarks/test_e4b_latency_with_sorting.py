"""E4b — latency in combination with on-line sorting (the paper's declared
future work).

Paper: "Extensive latency measurements (in combination with on-line
sorting) are part of future work".  This benchmark runs that experiment:
end-to-end event latency on a loaded multi-node deployment, decomposed
against the sorting time frame — the component the single-event E4 cannot
see.

Expectation (and result): total latency ≈ transport floor (poll + flush +
link) **plus** the sorter's effective frame; sweeping the initial frame
with adaptation disabled shifts the distribution by exactly that frame,
while the adaptive frame buys near-minimum latency at a bounded
out-of-order rate.

Those two studies run the paper's pure time-frame sorter: a registered
source that never speaks (``SILENT_EXS``) keeps every record waiting out
``T``.  The third sets the default frontier release beside it on the same
loaded deployment — the frame stops being latency every record pays and
becomes the wait for a silent source.
"""

import statistics

from repro.core.consumers import CollectingConsumer
from repro.core.exs import ExsConfig
from repro.core.ism import IsmConfig
from repro.core.sorting import SorterConfig
from repro.sim.deployment import DeploymentConfig, SimDeployment
from repro.sim.engine import Simulator
from repro.sim.workload import PoissonWorkload


#: Registered but never sends: the frontier can pass nothing, which is
#: the paper's time-frame sorter.
SILENT_EXS = 99


def run_loaded(sorter: SorterConfig, seed: int = 11, paper: bool = True) -> dict:
    sim = Simulator(seed=seed)
    config = DeploymentConfig(
        exs_poll_interval_us=10_000,
        ism_tick_interval_us=2_000,
        exs=ExsConfig(batch_max_records=64, flush_timeout_us=5_000),
        ism=IsmConfig(sorter=sorter),
        track_latency=True,
    )
    dep = SimDeployment(sim, config, [CollectingConsumer()])
    if paper:
        dep.ism.register_source(SILENT_EXS, SILENT_EXS)
    for node in dep.add_nodes(4, max_offset_us=1_000, max_drift_ppm=5):
        dep.attach_workload(node, PoissonWorkload(rate_hz=500))
    dep.run(10.0)
    dep.stop()
    lat = sorted(dep.metrics.latency_us)
    return {
        "p50_ms": statistics.median(lat) / 1000,
        "p99_ms": lat[int(len(lat) * 0.99)] / 1000,
        "ooo_frac": dep.ism.sorter.stats.out_of_order
        / max(1, dep.ism.sorter.stats.released),
        "frame_ms": dep.ism.sorter.frame_us / 1000,
    }


def test_latency_vs_fixed_sorting_frame(benchmark, report):
    """Fixed frames: latency shifts one-for-one with T."""

    def study():
        out = {}
        for frame_ms in (0, 20, 50, 100):
            sorter = SorterConfig(
                initial_frame_us=frame_ms * 1000,
                growth_factor=1e-9,  # adaptation effectively off
                decay_lambda=0.0,
            )
            out[frame_ms] = run_loaded(sorter)
        return out

    out = benchmark.pedantic(study, rounds=1, iterations=1)
    rows = [
        (
            f"T = {frame_ms:>3} ms fixed",
            f"p50 {m['p50_ms']:7.2f} ms",
            f"p99 {m['p99_ms']:7.2f} ms",
            f"out-of-order {m['ooo_frac'] * 100:6.3f}%",
        )
        for frame_ms, m in out.items()
    ]
    report.table("frame  latency-p50  latency-p99  ordering", rows)
    report.row("paper future work: latency measurements with on-line sorting;")
    report.row("total latency = transport floor + sorting frame")
    # The frame adds to the median almost exactly.
    base = out[0]["p50_ms"]
    for frame_ms in (20, 50, 100):
        added = out[frame_ms]["p50_ms"] - base
        assert abs(added - frame_ms) < frame_ms * 0.3 + 5
    # And buys ordering: the largest frame must be (near) perfectly ordered.
    assert out[100]["ooo_frac"] < out[0]["ooo_frac"] / 5


def test_adaptive_frame_finds_the_knee(benchmark, report):
    """The adaptive frame should sit near the transport floor's spread —
    paying only the latency the actual lateness demands."""

    def study():
        adaptive = run_loaded(
            SorterConfig(
                initial_frame_us=1_000,
                growth_signal="arrival",
                decay_lambda=0.05,
            )
        )
        floor = run_loaded(
            SorterConfig(
                initial_frame_us=0,
                growth_factor=1e-9,
                decay_lambda=0.0,
            )
        )
        return {"adaptive": adaptive, "no frame (floor)": floor}

    out = benchmark.pedantic(study, rounds=1, iterations=1)
    rows = [
        (
            f"{label:<18}",
            f"p50 {m['p50_ms']:7.2f} ms",
            f"p99 {m['p99_ms']:7.2f} ms",
            f"out-of-order {m['ooo_frac'] * 100:6.3f}%",
            f"T_end {m['frame_ms']:6.2f} ms",
        )
        for label, m in out.items()
    ]
    report.table("strategy  latency  ordering  frame", rows)
    adaptive, floor = out["adaptive"], out["no frame (floor)"]
    # Far better ordered than the floor...
    assert adaptive["ooo_frac"] < floor["ooo_frac"] / 3
    # ...at a bounded latency premium over it.
    assert adaptive["p50_ms"] < floor["p50_ms"] + 60


def test_latency_frontier_vs_paper_preset(benchmark, report):
    """Same load, same 50 ms frame: released on the frontier, a record
    waits for the slowest *other* source's next batch to pass it (set by
    the 10 ms EXS poll here), not for T."""

    def study():
        return {
            label: run_loaded(
                SorterConfig(
                    initial_frame_us=50_000,
                    growth_factor=1e-9,
                    decay_lambda=0.0,
                ),
                paper=paper,
            )
            for label, paper in (("frontier", False), ("paper preset", True))
        }

    out = benchmark.pedantic(study, rounds=1, iterations=1)
    rows = [
        (
            f"{label:<14}",
            f"p50 {m['p50_ms']:7.2f} ms",
            f"p99 {m['p99_ms']:7.2f} ms",
            f"out-of-order {m['ooo_frac'] * 100:6.3f}%",
        )
        for label, m in out.items()
    ]
    report.table("release rule (T = 50 ms)  latency-p50  latency-p99  ordering", rows)
    frontier, paper = out["frontier"], out["paper preset"]
    assert frontier["p50_ms"] < paper["p50_ms"] / 2
    assert frontier["p99_ms"] < paper["p99_ms"]
    assert frontier["ooo_frac"] <= paper["ooo_frac"]
