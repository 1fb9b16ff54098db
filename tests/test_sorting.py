"""Unit tests for the on-line sorter (heap merge + adaptive time frame)."""

import pytest
from tests.conftest import make_record

from repro.core.sorting import OnlineSorter, SorterConfig


def drain_all(sorter: OnlineSorter, now: int):
    return sorter.flush(now)


class TestMerge:
    def test_merges_two_sources_by_timestamp(self):
        sorter = OnlineSorter(SorterConfig(initial_frame_us=0))
        for ts in (10, 30, 50):
            sorter.push(1, make_record(timestamp=ts), now=ts)
        for ts in (20, 40, 60):
            sorter.push(2, make_record(timestamp=ts), now=ts)
        out = sorter.extract(now=1000)
        assert [r.timestamp for r in out] == [10, 20, 30, 40, 50, 60]

    def test_release_respects_time_frame(self):
        sorter = OnlineSorter(SorterConfig(initial_frame_us=100, decay_lambda=0.0))
        sorter.add_source(9)  # a silent peer: T is the wait for *it*
        sorter.push(1, make_record(timestamp=50), now=50)
        assert sorter.extract(now=149) == []  # 50 + 100 > 149
        assert len(sorter.extract(now=150)) == 1

    def test_records_within_source_stay_fifo(self):
        sorter = OnlineSorter(SorterConfig(initial_frame_us=0))
        for ts in (5, 6, 7):
            sorter.push(1, make_record(timestamp=ts, event_id=ts), now=ts)
        out = sorter.extract(now=100)
        assert [r.event_id for r in out] == [5, 6, 7]

    def test_many_sources(self):
        sorter = OnlineSorter(SorterConfig(initial_frame_us=0))
        for src in range(10):
            for k in range(5):
                ts = k * 10 + src
                sorter.push(src, make_record(timestamp=ts), now=0)
        out = sorter.extract(now=10_000)
        ts = [r.timestamp for r in out]
        assert ts == sorted(ts)
        assert len(out) == 50

    def test_flush_releases_everything(self):
        sorter = OnlineSorter(SorterConfig(initial_frame_us=10**6))
        sorter.push(1, make_record(timestamp=10), now=10)
        sorter.push(2, make_record(timestamp=5), now=10)
        out = sorter.flush(now=11)
        assert [r.timestamp for r in out] == [5, 10]
        assert sorter.held == 0

    def test_held_and_sources(self):
        sorter = OnlineSorter()
        sorter.add_source(3)
        assert sorter.sources == (3,)
        sorter.push(3, make_record(timestamp=1), now=1)
        assert sorter.held == 1


class TestAdaptiveFrame:
    def test_arrival_lateness_grows_frame(self):
        config = SorterConfig(
            initial_frame_us=10, decay_lambda=0.0, growth_signal="arrival"
        )
        sorter = OnlineSorter(config)
        sorter.push(1, make_record(timestamp=100), now=100)
        sorter.extract(now=200)  # released; watermark ts=100
        # A straggler from source 2: ts=50, arriving at 300 → lateness 250.
        sorter.push(2, make_record(timestamp=50), now=300)
        assert sorter.frame_us == pytest.approx(250.0)

    def test_watermark_growth_signal(self):
        config = SorterConfig(
            initial_frame_us=10, decay_lambda=0.0, growth_signal="watermark"
        )
        sorter = OnlineSorter(config)
        sorter.push(1, make_record(timestamp=100), now=100)
        sorter.extract(now=200)
        sorter.push(2, make_record(timestamp=50), now=300)
        assert sorter.frame_us == 10  # grows only at extraction
        sorter.extract(now=400)
        assert sorter.frame_us == pytest.approx(50.0)  # watermark lateness

    def test_growth_factor_scales(self):
        config = SorterConfig(
            initial_frame_us=0,
            decay_lambda=0.0,
            growth_factor=2.0,
            growth_signal="arrival",
        )
        sorter = OnlineSorter(config)
        sorter.push(1, make_record(timestamp=100), now=100)
        sorter.extract(now=150)
        sorter.push(2, make_record(timestamp=80), now=180)  # lateness 100
        assert sorter.frame_us == pytest.approx(200.0)

    def test_frame_capped_at_max(self):
        config = SorterConfig(
            initial_frame_us=0, max_frame_us=500, decay_lambda=0.0
        )
        sorter = OnlineSorter(config)
        sorter.push(1, make_record(timestamp=10_000), now=10_000)
        sorter.extract(now=20_000)
        sorter.push(2, make_record(timestamp=1), now=20_000)
        assert sorter.frame_us == 500.0

    def test_exponential_decay_toward_floor(self):
        config = SorterConfig(
            initial_frame_us=1_000, min_frame_us=100, decay_lambda=1.0
        )
        sorter = OnlineSorter(config)
        sorter.extract(now=0)
        sorter.extract(now=1_000_000)  # one second → factor e^-1
        assert sorter.frame_us == pytest.approx(100 + 900 * 0.36787944117)

    def test_zero_decay_keeps_frame(self):
        sorter = OnlineSorter(SorterConfig(initial_frame_us=777, decay_lambda=0.0))
        sorter.extract(now=0)
        sorter.extract(now=10**9)
        assert sorter.frame_us == 777.0

    def test_out_of_order_counted_only_across_sources(self):
        sorter = OnlineSorter(SorterConfig(initial_frame_us=0, decay_lambda=0.0))
        sorter.push(1, make_record(timestamp=100), now=100)
        sorter.extract(now=200)
        # Same source delivering an older ts (malformed input) is not
        # counted as cross-source disorder.
        sorter.push(1, make_record(timestamp=50), now=300)
        sorter.extract(now=300)
        assert sorter.stats.out_of_order == 0
        sorter.push(2, make_record(timestamp=40), now=400)
        sorter.extract(now=400)
        assert sorter.stats.out_of_order == 1

    def test_lateness_stats_recorded(self):
        sorter = OnlineSorter(SorterConfig(initial_frame_us=0, decay_lambda=0.0))
        sorter.push(1, make_record(timestamp=100), now=100)
        sorter.extract(now=100)
        sorter.push(2, make_record(timestamp=70), now=150)
        sorter.extract(now=150)
        assert sorter.stats.lateness_us.count == 1
        assert sorter.stats.lateness_us.mean == pytest.approx(30.0)


class TestFrontierRelease:
    """Release on the frontier, hold only for the silent (§5.2)."""

    FOREVER = SorterConfig(initial_frame_us=10**9, decay_lambda=0.0)

    def test_released_once_every_other_source_has_passed(self):
        sorter = OnlineSorter(self.FOREVER)
        sorter.push(1, make_record(timestamp=100), now=100)
        sorter.push(2, make_record(timestamp=90), now=101)
        # Both queued: the heap arbitrates, and 2's queue draining leaves
        # its frontier (90) as the floor for 1's record.
        assert [r.timestamp for r in sorter.extract(now=102)] == [90]
        assert sorter.gating_source() == 2
        sorter.push(2, make_record(timestamp=101), now=103)
        assert [r.timestamp for r in sorter.extract(now=104)] == [100]
        assert sorter.gating_source() == 1  # now 2's record waits on 1
        assert sorter.stats.on_frontier == 2
        assert sorter.stats.out_of_order == 0

    def test_frontier_must_be_strictly_above(self):
        # A source whose last record was at t may still send another at t
        # with a lower tie-break key, so an equal frontier does not release.
        sorter = OnlineSorter(self.FOREVER)
        sorter.push(2, make_record(timestamp=100, event_id=5), now=100)
        sorter.push(1, make_record(timestamp=100, event_id=1), now=100)
        assert [r.event_id for r in sorter.extract(now=101)] == [1]
        assert sorter.held == 1
        sorter.push(1, make_record(timestamp=101), now=102)
        assert [r.event_id for r in sorter.extract(now=103)] == [5]

    def test_registered_source_that_never_spoke_gates_until_the_frame(self):
        sorter = OnlineSorter(SorterConfig(initial_frame_us=100, decay_lambda=0.0))
        sorter.add_source(2)
        sorter.push(1, make_record(timestamp=50), now=50)
        assert sorter.extract(now=60) == []
        assert sorter.gating_source() == 2
        assert sorter.next_deadline() == 150
        assert len(sorter.extract(now=150)) == 1
        assert sorter.stats.on_frontier == 0
        assert sorter.next_deadline() is None and sorter.gating_source() == 0

    def test_single_source_releases_on_push(self):
        sorter = OnlineSorter(self.FOREVER)
        sorter.push_many(1, [make_record(timestamp=t) for t in (5, 6, 7)], now=7)
        assert [r.timestamp for r in sorter.extract(now=7)] == [5, 6, 7]
        assert sorter.stats.on_frontier == 3

    def test_retired_source_stops_gating_once_its_queue_drains(self):
        sorter = OnlineSorter(self.FOREVER)
        sorter.push(2, make_record(timestamp=10), now=10)
        sorter.push(2, make_record(timestamp=200), now=11)
        sorter.push(1, make_record(timestamp=100), now=12)
        sorter.retire_source(2)  # said goodbye; its queued records still merge
        assert [r.timestamp for r in sorter.extract(now=13)] == [10, 100]
        assert sorter.held == 1  # 2's own tail waits on 1's frontier (100)
        sorter.push(1, make_record(timestamp=300), now=14)
        assert [r.timestamp for r in sorter.extract(now=15)] == [200, 300]
        assert sorter.stats.out_of_order == 0

    def test_rehello_brings_a_retired_source_back_into_the_gate(self):
        sorter = OnlineSorter(self.FOREVER)
        sorter.push(2, make_record(timestamp=10), now=10)
        sorter.extract(now=10)
        sorter.retire_source(2)
        sorter.add_source(2)  # re-Hello
        sorter.push(1, make_record(timestamp=100), now=100)
        assert sorter.extract(now=101) == []  # 2's frozen frontier is 10
        assert sorter.gating_source() == 2

    def test_regression_below_own_frontier_is_counted_not_stalled(self):
        sorter = OnlineSorter(self.FOREVER)
        sorter.push(1, make_record(timestamp=100), now=100)
        sorter.push(2, make_record(timestamp=50), now=100)
        sorter.extract(now=100)  # releases 50; 1's record waits on 2
        sorter.push(2, make_record(timestamp=40), now=101)  # clock stepped back
        assert sorter.stats.frontier_regressions == 1
        assert [r.timestamp for r in sorter.extract(now=101)] == [40]
        # The frontier followed the source down: 100 still waits on it.
        assert sorter.held == 1 and sorter.gating_source() == 2

    def test_a_silent_peer_makes_it_the_paper_sorter(self):
        # How E4b/E7 pin the pure time-frame sorter: every record waits
        # out T behind a source that never speaks.
        sorter = OnlineSorter(SorterConfig(initial_frame_us=100, decay_lambda=0.0))
        sorter.add_source(9)
        sorter.push(1, make_record(timestamp=50), now=50)
        sorter.push(2, make_record(timestamp=60), now=60)
        assert sorter.extract(now=149) == []
        assert sorter.gating_source() == 9
        assert [r.timestamp for r in sorter.extract(now=160)] == [50, 60]
        assert sorter.stats.on_frontier == 0


class TestOverloadBound:
    def test_force_release_over_max_held(self):
        config = SorterConfig(initial_frame_us=10**7, max_held=10)
        sorter = OnlineSorter(config)
        sorter.add_source(9)  # silent peer: only the bound releases
        for i in range(25):
            sorter.push(1, make_record(timestamp=i), now=i)
        out = sorter.extract(now=30)
        # Everything above the bound was force-released despite the frame.
        assert len(out) == 15
        assert sorter.held == 10
        assert sorter.stats.forced == 15

    def test_forced_releases_still_sorted_among_held(self):
        config = SorterConfig(initial_frame_us=10**7, max_held=2)
        sorter = OnlineSorter(config)
        sorter.push(1, make_record(timestamp=30), now=0)
        sorter.push(2, make_record(timestamp=10), now=0)
        sorter.push(3, make_record(timestamp=20), now=0)
        out = sorter.extract(now=1)
        assert [r.timestamp for r in out] == [10]


class TestStats:
    def test_hold_time_tracked(self):
        sorter = OnlineSorter(SorterConfig(initial_frame_us=100, decay_lambda=0.0))
        sorter.push(1, make_record(timestamp=0), now=0)
        sorter.extract(now=150)
        assert sorter.stats.hold_time_us.mean == pytest.approx(150.0)

    def test_pushed_released_counts(self):
        sorter = OnlineSorter(SorterConfig(initial_frame_us=0))
        for i in range(5):
            sorter.push(1, make_record(timestamp=i), now=i)
        sorter.extract(now=100)
        assert sorter.stats.pushed == 5
        assert sorter.stats.released == 5


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_frame_us": -1},
            {"min_frame_us": -1},
            {"max_frame_us": 10, "min_frame_us": 20},
            {"growth_factor": 0.0},
            {"decay_lambda": -0.5},
            {"max_held": 0},
            {"growth_signal": "bogus"},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            SorterConfig(**kwargs)


class TestHeldCounter:
    def test_held_tracks_push_and_extract(self):
        sorter = OnlineSorter(SorterConfig(initial_frame_us=10**9))
        for i in range(10):
            sorter.push(i % 3, make_record(timestamp=i), now=i)
        assert sorter.held == 10
        sorter.flush(now=100)
        assert sorter.held == 0

    def test_overload_force_release_triggers_at_exactly_max_held(self):
        # Frame far in the future: nothing releases except under overload.
        config = SorterConfig(initial_frame_us=10**9, max_held=5)
        sorter = OnlineSorter(config)
        sorter.add_source(9)  # silent peer: the frontier never passes
        for i in range(5):
            sorter.push(1, make_record(timestamp=i), now=i)
        # Exactly at the bound: no force release.
        assert sorter.extract(now=10) == []
        assert sorter.stats.forced == 0
        assert sorter.held == 5
        # One past the bound: force-release back down to exactly max_held.
        sorter.push(2, make_record(timestamp=100), now=100)
        released = sorter.extract(now=101)
        assert len(released) == 1
        assert sorter.stats.forced == 1
        assert sorter.held == config.max_held

    def test_held_matches_queue_sum_under_interleaving(self):
        sorter = OnlineSorter(SorterConfig(initial_frame_us=50))
        for i in range(20):
            sorter.push(i % 4, make_record(timestamp=i * 10), now=i * 10)
            if i % 5 == 4:
                sorter.extract(now=i * 10 + 60)
        expected = sum(len(q) for q in sorter._queues.values())
        assert sorter.held == expected
