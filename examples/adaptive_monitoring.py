#!/usr/bin/env python
"""Adaptive monitoring: the ISM steering its own data sources.

A bursty application floods the instrumentation system; the runtime
monitor (:mod:`repro.monitor`) watches each node's delivered rate and,
when one exceeds the target, pushes a sampling filter down to that
node's external sensor — then restores full detail once the burst has
passed.  The spec is the overload-shedding preset of
``docs/monitor-spec.md``; all of it uses the kernel's own primitives
(``SetFilter`` over the control channel), demonstrating the §2 knobs
closing into a feedback loop.

Run:  python examples/adaptive_monitoring.py
"""

from repro.core.consumers import CollectingConsumer
from repro.monitor.engine import ALERT_EVENT_ID
from repro.monitor.spec import Action, Condition, MonitorRule, MonitorSpec
from repro.sim.deployment import DeploymentConfig, SimDeployment
from repro.sim.engine import Simulator
from repro.sim.workload import BurstyWorkload, PoissonWorkload

TARGET_HZ = 2_000.0
SAMPLE_EVERY = 16


def overload_shedding(target_hz: float, sample_every: int) -> MonitorSpec:
    """The preset: shed above the target, restore once the *offered* load
    (delivered rate × sampling ratio) is back under half of it; alert at
    the onset, and again each second the thinned stream is still over."""
    return MonitorSpec(
        rules=(
            MonitorRule(
                name="overload-shed",
                when=Condition(
                    kind="rate", above=target_hz, window_us=200_000,
                    clear_factor=0.5 / sample_every,
                ),
                do=(Action(kind="set_sampling", sample_every=sample_every),),
                on_clear=(Action(kind="restore"),),
            ),
            MonitorRule(
                name="overload-persists",
                when=Condition(kind="rate", above=target_hz, window_us=200_000),
                do=(Action(kind="alert"),),
                cooldown_us=1_000_000,
            ),
        ),
    )


def main() -> None:
    sim = Simulator(seed=17)
    collected = CollectingConsumer()
    dep = SimDeployment(
        sim,
        DeploymentConfig(
            exs_poll_interval_us=10_000,
            ism_tick_interval_us=5_000,
            monitor=overload_shedding(TARGET_HZ, SAMPLE_EVERY),
            monitor_interval_us=100_000,
        ),
        [collected],
    )
    steady = dep.add_node()
    bursty = dep.add_node()
    dep.attach_workload(steady, PoissonWorkload(rate_hz=300))
    dep.attach_workload(
        bursty,
        BurstyWorkload(burst_rate_hz=20_000, burst_len=20_000, gap_us=3_000_000),
    )
    dep.start()
    dep.run(20.0)
    dep.stop()

    alerts = [r for r in collected.records if r.event_id == ALERT_EVENT_ID]
    print(f"delivered {len(collected.records) - len(alerts)} records; "
          f"monitor actions: {dep.monitor.actions_fired}")
    emitted = sum(n.sensor.emitted for n in dep.nodes)
    filtered = sum(n.exs.stats.records_filtered for n in dep.nodes)
    print(f"application emitted {emitted}; source filters dropped {filtered} "
          f"({filtered / emitted * 100:.0f}%)")

    print("\nin-band alerts (rule, node, rate at trip):")
    for record in alerts[:12]:
        rule, node, rate = record.values
        print(f"  t={record.timestamp / 1e6:6.2f}s  node {node}  "
              f"{rate:9,.0f} ev/s  {rule}")
    if len(alerts) > 12:
        print(f"  ... and {len(alerts) - 12} more")

    steady_kept = sum(1 for r in collected.records if r.node_id == steady.node_id)
    print(f"\nsteady node untouched: {steady_kept} of "
          f"{steady.sensor.emitted} records delivered; "
          f"rules still active: {dict(dep.monitor.active_rules()) or 'none'}")


if __name__ == "__main__":
    main()
