"""Scenario-driven tests for the adaptive steering loop.

Each scenario runs the full simulated deployment — real sensors, rings,
EXS batching, wire codec, sorter, monitor engine — in virtual time, so
detection latencies and rate comparisons are deterministic properties of
the configuration, not of host scheduling.

Covered end to end:

* **overload shedding** — a hot node trips a rate rule, the pushed
  sampling spec caps its delivered rate at the source, and the modelled
  ISM backlog stays bounded where the unmonitored baseline grows without
  limit;
* **hot-key detection** — a sudden per-event burst raises an alert
  record within the spec'd detection budget of virtual time;
* **anomaly-triggered full-fidelity capture** — a deployment running
  sampled-down restores ``sample_every=1`` the moment an anomaly event
  appears, and the full-rate burst lands in the durable commit log;
* **silent source** — the documented rule on the sorter's frame-path
  release count alerts when a registered source stops talking, and stays
  quiet while every source streams.
"""

import pytest
from tests.conftest import doc_json_block

from repro.core.consumers import CollectingConsumer, LogConsumer
from repro.core.filtering import FilterSpec
from repro.log import CommitLog, LogConfig
from repro.monitor.engine import ALERT_EVENT_ID
from repro.monitor.spec import Action, Condition, MonitorRule, MonitorSpec
from repro.sim.deployment import DeploymentConfig, SimDeployment
from repro.sim.engine import Simulator
from repro.sim.workload import PeriodicWorkload


def build(
    *,
    n_nodes: int,
    rates_hz: dict[int, float],
    monitor: MonitorSpec | None,
    seed: int = 11,
    consumers: list | None = None,
    **config_kwargs,
):
    """One deployment with per-node periodic workloads and ideal clocks
    (zero offset/drift keeps record timestamps on the virtual timeline,
    so latency assertions read directly off them)."""
    sim = Simulator(seed=seed)
    collector = CollectingConsumer()
    sinks = [collector] + list(consumers or [])
    dep = SimDeployment(
        sim,
        DeploymentConfig(monitor=monitor, **config_kwargs),
        sinks,
        sync_algorithm="none",
    )
    for node_id in range(1, n_nodes + 1):
        node = dep.add_node(offset_us=0, drift_ppm=0.0)
        rate = rates_hz.get(node_id)
        if rate:
            dep.attach_workload(node, PeriodicWorkload(rate_hz=rate))
    return sim, dep, collector


def shedding_spec(
    *, above: float, sample_every: int, window_us: int = 500_000
) -> MonitorSpec:
    return MonitorSpec(
        rules=(
            MonitorRule(
                name="shed-hot",
                when=Condition(kind="rate", event_id=1, above=above,
                               window_us=window_us),
                do=(Action(kind="set_sampling", sample_every=sample_every),),
            ),
        ),
        bucket_us=100_000,
    )


class TestOverloadShedding:
    """One node floods at 10× the others; the shedding rule must cap it
    at the source while leaving well-behaved nodes untouched."""

    RATES = {1: 2_000.0, 2: 200.0, 3: 200.0}
    #: Modelled ISM cost per record: at the offered 2.4k rec/s the
    #: manager is past saturation (ρ ≈ 1.44), so the unshedded backlog
    #: can only grow.
    SERVICE_US = 600.0

    def run_scenario(self, monitor: MonitorSpec | None, duration_s: float = 6.0):
        sim, dep, collector = build(
            n_nodes=3, rates_hz=self.RATES, monitor=monitor,
            ism_service_time_us=self.SERVICE_US,
            monitor_interval_us=100_000,
        )
        backlog_trace: list[tuple[int, int]] = []
        held_trace: list[int] = []
        dep.start()

        def sample() -> None:
            backlog = max(0, dep._ism_busy_until[0] - sim.now)
            backlog_trace.append((sim.now, backlog))
            held_trace.append(dep.ism.sorter.held)

        stop_sampling = sim.schedule_every(200_000, sample)
        dep.run(duration_s)
        stop_sampling()
        dep.stop()
        return dep, collector, backlog_trace, held_trace

    def test_hot_node_rate_capped_and_backlog_bounded(self):
        spec = shedding_spec(above=800.0, sample_every=50)
        dep, collector, backlog, held = self.run_scenario(spec)
        base_dep, base_collector, base_backlog, _ = self.run_scenario(None)

        # The rule tripped and steered only the hot node.
        assert dep.monitor is not None
        assert dep.monitor.actions_fired >= 1
        hot = dep.nodes[0]
        assert hot.exs.filter is not None
        assert hot.exs.filter.spec.sample_every == 50
        assert hot.exs.stats.records_filtered > 0
        for quiet in dep.nodes[1:]:
            assert quiet.exs.filter is None
            assert quiet.exs.stats.records_filtered == 0

        # Source-side cap: the hot node ships a fraction of its emitted
        # records; the baseline ships every one of them.
        shipped = hot.exs.stats.records_shipped
        base_shipped = base_dep.nodes[0].exs.stats.records_shipped
        assert base_shipped == base_dep.nodes[0].sensor.emitted
        assert shipped < 0.4 * base_shipped

        # Quiet nodes keep full fidelity under the monitor.
        by_node: dict[int, int] = {}
        for record in collector.records:
            if record.event_id == 1:
                by_node[record.node_id] = by_node.get(record.node_id, 0) + 1
        for quiet in dep.nodes[1:]:
            assert by_node[quiet.node_id] == quiet.sensor.emitted

        # Bounded vs divergent backlog: past saturation the baseline's
        # modelled ISM queue grows with time; shedding pulls the system
        # back under capacity, so the tail of the monitored run is no
        # worse than its early peak.
        base_tail = max(b for _, b in base_backlog[-5:])
        shed_tail = max(b for _, b in backlog[-5:])
        assert base_tail > 1_000_000, "baseline never saturated; scenario is vacuous"
        assert shed_tail < base_tail / 4
        # And the real sorter heap stays small throughout.
        assert max(held) < 10_000

    def test_shedding_is_deterministic(self):
        spec = shedding_spec(above=800.0, sample_every=50)
        first = self.run_scenario(spec)
        second = self.run_scenario(spec)
        assert [r.values for r in first[1].records] == [
            r.values for r in second[1].records
        ]
        assert first[2] == second[2]


class TestHotKeyDetection:
    """A sudden burst of one event id must raise an alert record within
    the detection budget: one window to accumulate the rate, plus up to
    two monitor ticks (one to rotate the bucket, one to evaluate)."""

    WINDOW_US = 200_000
    TICK_US = 50_000
    BURST_START_S = 2.0
    BURST_HZ = 2_000

    def spec(self) -> MonitorSpec:
        return MonitorSpec(
            rules=(
                MonitorRule(
                    name="hotkey",
                    when=Condition(kind="rate", event_id=42, above=500.0,
                                   window_us=self.WINDOW_US),
                    do=(Action(kind="alert"),),
                ),
            ),
            bucket_us=self.TICK_US,
        )

    def test_alert_within_budget(self):
        sim, dep, collector = build(
            n_nodes=2, rates_hz={2: 50.0}, monitor=self.spec(),
            monitor_interval_us=self.TICK_US,
        )
        dep.run(self.BURST_START_S)
        # The hot key appears: event 42 at BURST_HZ on node 1 for one
        # virtual second, scheduled directly on the timeline.
        hot = dep.nodes[0]
        interval = round(1_000_000 / self.BURST_HZ)
        for k in range(self.BURST_HZ):
            sim.schedule((k + 1) * interval, hot.emit, k, 42)
        dep.run(2.0)
        dep.stop()

        alerts = [r for r in collector.records if r.event_id == ALERT_EVENT_ID]
        assert alerts, "hot key never detected"
        first = alerts[0]
        assert first.values[0] == "hotkey"
        assert first.values[1] == hot.node_id
        assert first.values[2] > 500.0
        burst_start_us = round(self.BURST_START_S * 1_000_000)
        detection_us = first.timestamp - burst_start_us
        # Budget: the window must fill past the threshold (≤ one full
        # window at these rates) plus two monitor ticks, plus the batch
        # flush/link slack of the shipping path.
        budget_us = self.WINDOW_US + 2 * self.TICK_US + 100_000
        assert 0 < detection_us <= budget_us, (
            f"alert took {detection_us} µs (budget {budget_us} µs)"
        )
        # The engine saw its own alert in the stream and ignored it — the
        # rule stays tripped (no flap) and fired exactly once per episode.
        assert dep.monitor.alerts_emitted == len(alerts) == 1


class TestAnomalyFullFidelityCapture:
    """Sampled-down steady state; an anomaly event restores full
    fidelity, and the full-rate capture lands in the durable log."""

    RATE_HZ = 500.0
    ANOMALY_S = 2.0

    def spec(self) -> MonitorSpec:
        return MonitorSpec(
            rules=(
                MonitorRule(
                    name="capture",
                    when=Condition(kind="rate", event_id=99, above=0.5,
                                   window_us=1_000_000),
                    do=(Action(kind="restore"), Action(kind="alert")),
                ),
            ),
            bucket_us=100_000,
        )

    def test_anomaly_restores_sampling_into_commit_log(self, tmp_path):
        log = CommitLog(tmp_path / "wal", LogConfig(fsync="off"))
        sink = LogConsumer(log)
        sim, dep, collector = build(
            n_nodes=1, rates_hz={1: self.RATE_HZ}, monitor=self.spec(),
            consumers=[sink], monitor_interval_us=100_000,
        )
        dep.start()
        # Operator baseline: 1-in-10 sampling pushed at the lone node.
        assert dep.push_filter(1, FilterSpec(sample_every=10))
        dep.run(self.ANOMALY_S)
        node = dep.nodes[0]
        assert node.exs.filter is not None
        assert node.exs.filter.spec.sample_every == 10

        # Three anomaly events, then two more seconds of steady load.
        for k in range(3):
            sim.schedule((k + 1) * 1_000, node.emit, k, 99)
        dep.run(2.0)
        dep.stop()
        log.sync()

        # The monitor restored full fidelity (a fresher epoch replaced
        # the operator's spec) and raised exactly one alert.
        assert node.exs.filter is None or node.exs.filter.spec.sample_every == 1
        assert dep.monitor.alerts_emitted == 1

        anomaly_us = round(self.ANOMALY_S * 1_000_000)
        phase_a = [r for r in collector.records
                   if r.event_id == 1 and r.timestamp < anomaly_us - 100_000]
        phase_b = [r for r in collector.records
                   if r.event_id == 1 and r.timestamp > anomaly_us + 400_000]
        expected_a = self.RATE_HZ * (self.ANOMALY_S - 0.1)
        assert len(phase_a) < 0.2 * expected_a, "sampling never took effect"
        # ~1.6 s of post-restore full-rate traffic must arrive intact.
        expected_b = self.RATE_HZ * 1.6
        assert len(phase_b) > 0.9 * expected_b, "full fidelity not restored"
        # Consecutive sequence numbers prove per-record (not batch) capture.
        tail = sorted(r.values[0] for r in phase_b)
        assert tail == list(range(tail[0], tail[0] + len(tail)))

        # The burst is durable: the commit log holds the same delivered
        # stream, alert record included.
        logged = list(log.iter_from(0))
        assert len(logged) == len(collector.records)
        logged_alerts = [r for r in logged if r.event_id == ALERT_EVENT_ID]
        assert len(logged_alerts) == 1
        assert logged_alerts[0].values[0] == "capture"
        log.close()


# ----------------------------------------------------------------------
# the documented silent-source rule (docs/monitor-spec.md)
# ----------------------------------------------------------------------
def silent_source_spec() -> MonitorSpec:
    return MonitorSpec.from_json(doc_json_block("example: silent-source"))


@pytest.mark.parametrize("silent", [True, False])
def test_silent_source_rule_fires_only_when_a_source_goes_quiet(silent):
    rates = {1: 100.0} if silent else {1: 100.0, 2: 100.0}
    sim, dep, collector = build(
        n_nodes=2,
        rates_hz=rates,
        monitor=silent_source_spec(),
        metrics_interval_us=250_000,
    )
    dep.run(4.0)
    sorter = dep.ism.sorter
    alerts = [r for r in collector.records if r.event_id == ALERT_EVENT_ID]
    if silent:
        # Node 2 said Hello and never spoke: node 1's records wait out T.
        assert sorter.gating_source() in (0, dep.nodes[1].exs.exs_id)
        assert sorter.stats.on_frontier == 0
        assert [a.values[0] for a in alerts] == ["silent-source"]
    else:
        assert sorter.stats.on_frontier > 0.9 * sorter.stats.released
        assert alerts == []
