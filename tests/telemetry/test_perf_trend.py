"""Statistical trend gating: median/MAD math and the rolling gate."""

import pytest

from repro.telemetry.export import run_record
from repro.telemetry.perf import RunRecordStore
from repro.telemetry.perf.trend import (
    DEFAULT_WINDOW,
    MIN_HISTORY,
    mad,
    timing_history,
    trend_gate,
)


def _stamp(store, timing, name="w"):
    store.append(run_record(name, log=False, extra={"timing_s": timing}))


class TestStatistics:
    def test_median_odd_and_even(self, tmp_path):
        # the gate's center is the window median: the middle value for
        # an odd window, the mean of the middle pair for an even one
        store = RunRecordStore(tmp_path)
        for t in (4.0, 1.0, 3.0, 2.0):  # window (4, 1, 3), latest 2
            _stamp(store, t)
        assert trend_gate(store, "w").center == 3.0
        _stamp(store, 2.0)  # window is now (4, 1, 3, 2)
        assert trend_gate(store, "w").center == 2.5

    def test_median_empty_raises(self):
        # the MAD of nothing has no median to center on
        with pytest.raises(ValueError):
            mad([])

    def test_mad_is_robust_to_one_outlier(self):
        values = [1.0, 1.1, 0.9, 1.0, 100.0]
        assert mad(values) == pytest.approx(0.1)

    def test_mad_explicit_center(self):
        assert mad([1.0, 3.0], center=2.0) == 1.0

    def test_timing_history_skips_untimed_records(self):
        records = [
            {"extra": {"timing_s": 1.0}},
            {"extra": {}},
            {"extra": {"timing_s": True}},  # bool is not a timing
            {"extra": {"timing_s": 2.0}},
        ]
        assert timing_history(records) == [1.0, 2.0]


class TestGate:
    def test_empty_history_is_insufficient(self, tmp_path):
        stats = trend_gate(RunRecordStore(tmp_path), "w")
        assert stats.insufficient
        assert stats.ok is None
        assert stats.n_history == 0

    def test_too_short_history_is_insufficient(self, tmp_path):
        store = RunRecordStore(tmp_path)
        for t in (1.0, 1.1, 1.0):  # latest + 2 prior < MIN_HISTORY
            _stamp(store, t)
        stats = trend_gate(store, "w")
        assert stats.insufficient
        assert stats.n_history == 2
        assert MIN_HISTORY == 3

    def test_steady_history_passes(self, tmp_path):
        store = RunRecordStore(tmp_path)
        for t in (1.0, 1.05, 0.95, 1.0, 1.02):
            _stamp(store, t)
        stats = trend_gate(store, "w")
        assert stats.ok is True
        assert stats.center == pytest.approx(1.0, abs=0.05)
        assert "OK" in stats.render()

    def test_big_jump_regresses(self, tmp_path):
        store = RunRecordStore(tmp_path)
        for t in (1.0, 1.01, 0.99, 1.0):
            _stamp(store, t)
        _stamp(store, 2.0)  # the gated point: 2x the median
        stats = trend_gate(store, "w")
        assert stats.ok is False
        assert stats.latest == 2.0
        assert "REGRESSED" in stats.render()

    def test_rel_floor_tolerates_jitter_on_quiet_history(self, tmp_path):
        store = RunRecordStore(tmp_path)
        for _ in range(4):
            _stamp(store, 1.0)  # MAD is exactly zero
        _stamp(store, 1.04)  # +4% < the 5% relative floor
        assert trend_gate(store, "w").ok is True
        _stamp(store, 1.2)  # +20% > the floor
        assert trend_gate(store, "w").ok is False

    def test_window_bounds_the_lookback(self, tmp_path):
        store = RunRecordStore(tmp_path)
        for _ in range(20):
            _stamp(store, 1.0)
        _stamp(store, 1.0)
        stats = trend_gate(store, "w")
        assert stats.n_history == DEFAULT_WINDOW

    def test_as_dict_roundtrips_the_verdict(self, tmp_path):
        store = RunRecordStore(tmp_path)
        for t in (1.0, 1.0, 1.0, 1.0):
            _stamp(store, t)
        doc = trend_gate(store, "w").as_dict()
        assert doc["ok"] is True
        assert doc["metric"] == "timing_s"
        assert doc["threshold"] > doc["center"]
        assert doc["direction"] == "above"


class TestDirectionBelow:
    """Gating metrics that must not *fall* — overlap efficiency."""

    def test_steady_efficiency_passes(self, tmp_path):
        store = RunRecordStore(tmp_path)
        for eff in (0.95, 0.96, 0.94, 0.95, 0.95):
            _stamp(store, eff)
        stats = trend_gate(store, "w", direction="below")
        assert stats.ok is True
        assert stats.threshold < stats.center
        assert "min allowed" in stats.render()

    def test_efficiency_collapse_regresses(self, tmp_path):
        store = RunRecordStore(tmp_path)
        for eff in (0.95, 0.96, 0.94, 0.95):
            _stamp(store, eff)
        _stamp(store, 0.3)  # overlap stopped hiding the transfers
        stats = trend_gate(store, "w", direction="below")
        assert stats.ok is False
        assert "falls below" in stats.render()

    def test_rising_value_never_regresses_below_gate(self, tmp_path):
        store = RunRecordStore(tmp_path)
        for eff in (0.5, 0.5, 0.5, 0.5):
            _stamp(store, eff)
        _stamp(store, 0.99)  # improvement is fine in this direction
        assert trend_gate(store, "w", direction="below").ok is True

    def test_bad_direction_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="direction"):
            trend_gate(RunRecordStore(tmp_path), "w", direction="sideways")


class TestMeasurement:
    def test_repeats_stamp_the_median_and_spans(self, tmp_path):
        from repro.telemetry.perf import measure_reference

        record = measure_reference("Box-2D9P", size=32, seed=0, repeats=3)
        assert record["extra"]["timing_repeats"] == 3
        # satellite: the reference record carries its trace now
        assert record["tracer"]["finished_spans"] > 0
        assert record["spans"]

    def test_bad_repeats_raises(self):
        from repro.telemetry.perf import measure_reference

        with pytest.raises(ValueError):
            measure_reference("Box-2D9P", size=32, repeats=0)
