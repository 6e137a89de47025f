"""WindowedSeries: bucketing, merging, downsampling, export."""

import json
import math

import numpy as np
import pytest

from repro.obs.timeseries import WindowedSeries, WindowStats


def canonical(series: WindowedSeries) -> str:
    return json.dumps(series.to_dict(include_sketch_state=True),
                      sort_keys=True)


class TestBucketing:
    def test_record_buckets_by_window(self):
        s = WindowedSeries(window_us=100.0)
        s.record(10.0, 5.0)
        s.record(99.0, 7.0)
        s.record(100.0, 1.0)
        assert s.window_indices() == [0, 1]
        w0 = s.window(0)
        assert w0.count == 2 and w0.total == 12.0
        assert w0.min == 5.0 and w0.max == 7.0 and w0.mean == 6.0

    def test_counts_default_to_one(self):
        s = WindowedSeries(window_us=50.0)
        for t in (0.0, 10.0, 60.0):
            s.record(t)
        assert s.count == 3
        assert s.rate_per_s(0) == 2 / (50.0 / 1e6)

    def test_record_many_matches_record(self):
        rng = np.random.default_rng(0)
        ts = rng.uniform(0, 10_000, size=300)
        vals = rng.exponential(5.0, size=300)
        one = WindowedSeries(window_us=250.0, track_quantiles=True)
        for t, v in zip(ts, vals):
            one.record(float(t), float(v))
        bulk = WindowedSeries(window_us=250.0, track_quantiles=True)
        bulk.record_many(ts, vals)
        assert canonical(one) == canonical(bulk)

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedSeries(window_us=0.0)
        with pytest.raises(ValueError):
            WindowedSeries().record_many([1.0, 2.0], [1.0])

    def test_record_many_keeps_the_first_of_signed_zeros(self):
        samples = [(1.0, 0.0), (2.0, -0.0), (3.0, 1.0),
                   (11.0, -0.0), (12.0, 0.0), (13.0, -1.0)]
        one = WindowedSeries(window_us=10.0)
        for t, v in samples:
            one.record(t, v)
        bulk = WindowedSeries(window_us=10.0)
        bulk.record_many(*zip(*samples))
        assert json.dumps(bulk.to_dict()) == json.dumps(one.to_dict())
        assert math.copysign(1.0, bulk.window(0).min) == 1.0
        assert math.copysign(1.0, bulk.window(1).max) == -1.0

    def test_record_many_rejects_bad_input_before_any_change(self):
        s = WindowedSeries(window_us=10.0, track_quantiles=True)
        for ts, vals in (([1.0, math.inf], None), ([1.0, math.nan], None),
                         ([1.0, 1e300], None),
                         ([1.0, 2.0], [1.0, math.nan]),
                         ([1.0, 2.0], [1.0, math.inf])):
            with pytest.raises(ValueError):
                s.record_many(ts, vals)
        assert len(s) == 0
        with pytest.raises(ValueError):
            WindowedSeries().record(1.0, math.nan)


class TestMerge:
    def test_merge_window_by_window(self):
        a = WindowedSeries(window_us=100.0)
        b = WindowedSeries(window_us=100.0)
        a.record(50.0, 2.0)
        b.record(60.0, 4.0)
        b.record(150.0, 6.0)
        a.merge(b)
        assert a.count == 3
        assert a.window(0).total == 6.0
        assert a.window(1).total == 6.0

    def test_merge_rejects_window_mismatch(self):
        with pytest.raises(ValueError):
            WindowedSeries(100.0).merge(WindowedSeries(200.0))

    def test_merge_in_fixed_order_is_deterministic(self):
        rng = np.random.default_rng(1)
        parts = []
        for _ in range(4):
            s = WindowedSeries(window_us=500.0, track_quantiles=True)
            s.record_many(rng.uniform(0, 50_000, 200),
                          rng.exponential(10.0, 200))
            parts.append(s)

        def merged():
            out = WindowedSeries(window_us=500.0, track_quantiles=True)
            for p in parts:
                out.merge(p)
            return canonical(out)

        assert merged() == merged()

    def test_merge_leaves_source_untouched(self):
        a = WindowedSeries(window_us=100.0, track_quantiles=True)
        b = WindowedSeries(window_us=100.0, track_quantiles=True)
        b.record(10.0, 3.0)
        before = canonical(b)
        a.merge(b)
        a.record(20.0, 9.0)
        assert canonical(b) == before


class TestDownsample:
    def test_downsample_preserves_mass(self):
        rng = np.random.default_rng(2)
        s = WindowedSeries(window_us=100.0, track_quantiles=True)
        s.record_many(rng.uniform(0, 100_000, 1_000),
                      rng.exponential(3.0, 1_000))
        d = s.downsample(8)
        assert d.window_us == 800.0
        assert d.count == s.count
        assert math.isclose(
            sum(w.total for w in d._windows.values()),
            sum(w.total for w in s._windows.values()))

    def test_resampled_fits_budget_power_of_two(self):
        s = WindowedSeries(window_us=10.0)
        s.record_many(np.arange(0.0, 10_000.0, 7.0))
        r = s.resampled(16)
        assert len(r) <= 16
        factor = r.window_us / s.window_us
        assert factor == 2 ** round(math.log2(factor))
        assert r.count == s.count

    def test_resample_commutes_with_merge(self):
        """Power-of-two alignment: merge-then-resample equals
        resample-then-merge."""
        rng = np.random.default_rng(3)
        a = WindowedSeries(window_us=50.0)
        b = WindowedSeries(window_us=50.0)
        a.record_many(rng.uniform(0, 20_000, 400))
        b.record_many(rng.uniform(0, 20_000, 400))
        merged_then = WindowedSeries(window_us=50.0)
        merged_then.merge(a).merge(b)
        merged_then = merged_then.downsample(8)
        then_merged = a.downsample(8).merge(b.downsample(8))
        assert canonical(merged_then) == canonical(then_merged)


class TestQuantilesAndExport:
    def test_per_window_quantiles(self):
        s = WindowedSeries(window_us=1_000.0, track_quantiles=True)
        s.record_many(np.full(100, 100.0), np.arange(100.0))
        p50 = s.values("p50")[0]
        assert abs(p50 - 49.0) <= 0.02 * 49.0 + 1.0
        assert s.values("count") == [100.0]

    def test_values_stat_validation(self):
        s = WindowedSeries(window_us=100.0)
        s.record(1.0)
        with pytest.raises(ValueError):
            s.values("p50")        # needs track_quantiles
        with pytest.raises(ValueError):
            s.values("median")

    def test_roundtrip_with_sketch_state(self):
        rng = np.random.default_rng(4)
        s = WindowedSeries(window_us=250.0, track_quantiles=True,
                           name="lat")
        s.record_many(rng.uniform(0, 5_000, 200),
                      rng.exponential(40.0, 200))
        clone = WindowedSeries.from_dict(
            s.to_dict(include_sketch_state=True))
        assert canonical(clone) == canonical(s)

    def test_roundtrip_keeps_relative_accuracy(self):
        s = WindowedSeries(window_us=100.0, track_quantiles=True,
                           relative_accuracy=0.05)
        s.record_many([10.0, 150.0], [3.0, 4.0])
        clone = WindowedSeries.from_dict(
            s.to_dict(include_sketch_state=True))
        assert clone.relative_accuracy == 0.05
        clone.record(950.0, 5.0)      # a new window gets an α=0.05 sketch
        assert clone.window(9).sketch.relative_accuracy == 0.05
        clone.merge(s)                # raised on mismatched α before
        assert clone.count == 5

    def test_to_dict_windows_in_time_order(self):
        s = WindowedSeries(window_us=10.0)
        for t in (95.0, 5.0, 55.0):
            s.record(t)
        indices = [w["index"] for w in s.to_dict()["windows"]]
        assert indices == sorted(indices)

    def test_empty_stats(self):
        w = WindowStats()
        assert w.mean == 0.0
        s = WindowedSeries(window_us=10.0)
        assert s.span_us == 0.0
        assert s.to_dict()["windows"] == []
