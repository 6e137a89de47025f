"""Property tests: every bulk ingest API equals its single-sample form.

* ``QuantileSketch.add_many`` produces exactly the bucket keys, counts
  and bounds of one ``add`` per value, including values a few ulps
  either side of a bucket boundary γ^k, where ``np.log`` and
  ``math.log`` may round differently;
* ``WindowedSeries.record_many`` on a series that already has windows
  equals a sequence of ``record`` calls: the same float sums, signed
  zeros, bounds and per-window sketches;
* ``priority_hashes`` equals ``priority_hash`` for every id, including
  negative and ≥ 2^63 seeds and ids that do not fit in 32 bits.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.exemplars import priority_hash, priority_hashes
from repro.obs.sketch import QuantileSketch
from repro.obs.timeseries import WindowedSeries

accuracies = st.sampled_from([0.001, 0.01, 0.02, 0.05, 0.3])

finite = st.floats(allow_nan=False, allow_infinity=False)


def nudged(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else -math.inf)
    return value


@st.composite
def boundary_values(draw, alpha):
    """γ^k (or its negation) moved by a few ulps."""
    gamma = (1.0 + alpha) / (1.0 - alpha)
    limit = int(700 / math.log(gamma))
    value = gamma ** draw(st.integers(-limit, limit))
    value = nudged(value, draw(st.integers(-4, 4)))
    return value if draw(st.booleans()) else -value


def sketch_state(sketch: QuantileSketch) -> str:
    return json.dumps(sketch.to_dict())


@settings(deadline=None)
@given(data=st.data(), alpha=accuracies)
def test_add_many_equals_add_sequence(data, alpha):
    values = data.draw(st.lists(
        st.one_of(finite, boundary_values(alpha),
                  st.sampled_from([0.0, -0.0, 1.0])), max_size=200))
    one = QuantileSketch(alpha)
    for value in values:
        one.add(value)
    bulk = QuantileSketch(alpha)
    bulk.add_many(values)
    assert bulk.counts == one.counts
    assert bulk.neg_counts == one.neg_counts
    assert sketch_state(bulk) == sketch_state(one)


@pytest.mark.parametrize("direction", [math.inf, -math.inf])
@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05])
def test_add_many_keys_survive_a_log_off_by_one_ulp(alpha, direction):
    """Keys stay exact on a platform whose ``np.log`` rounds the other way."""
    gamma = (1.0 + alpha) / (1.0 - alpha)
    values = [nudged(gamma ** k, d) for k in range(-300, 300)
              for d in (-1, 0, 1)]
    one = QuantileSketch(alpha)
    for value in values:
        one.add(value)
    bulk = QuantileSketch(alpha)
    real_log = np.log
    with mock.patch.object(np, "log", lambda x: np.nextafter(
            real_log(x), direction)):
        bulk.add_many(values)
    assert bulk.counts == one.counts


def series_state(series: WindowedSeries) -> str:
    return json.dumps(series.to_dict(include_sketch_state=True))


@st.composite
def series_samples(draw, window_us, track_quantiles):
    """(t, value) pairs: window edges ± ulps, ties, signed zeros."""
    # a bucket midpoint above ~1e307 overflows, so a sketched series
    # cannot report quantiles of values that large
    values = (st.floats(-1e300, 1e300) if track_quantiles
              else st.floats(allow_nan=False))
    edge = st.builds(lambda k, d: nudged(k * window_us, d),
                     st.integers(-50, 50), st.integers(-2, 2))
    ts = st.one_of(st.floats(-1e6, 1e6), edge)
    return draw(st.lists(st.tuples(ts, st.one_of(
        values, st.sampled_from([0.0, -0.0, 1.0, 1.0]))), max_size=150))


@settings(deadline=None)
@given(data=st.data(),
       window_us=st.sampled_from([0.1, 7.0, 250.0, 50_000.0]),
       track_quantiles=st.booleans(), alpha=accuracies)
def test_record_many_equals_record_sequence(data, window_us,
                                            track_quantiles, alpha):
    def fresh():
        return WindowedSeries(window_us, track_quantiles=track_quantiles,
                              relative_accuracy=alpha)

    first = data.draw(series_samples(window_us, track_quantiles))
    second = data.draw(series_samples(window_us, track_quantiles))
    one, bulk = fresh(), fresh()
    for t, value in first:
        one.record(t, value)
        bulk.record(t, value)
    for t, value in second:
        one.record(t, value)
    bulk.record_many([t for t, _v in second], [v for _t, v in second])
    assert series_state(bulk) == series_state(one)


ids64 = st.integers(-2 ** 63, 2 ** 63 - 1)


@settings(deadline=None)
@given(seed=st.one_of(st.integers(-2 ** 70, 2 ** 70),
                      st.integers(2 ** 63, 2 ** 64 - 1)),
       replica=st.integers(-2 ** 40, 2 ** 40),
       ids=st.lists(st.one_of(ids64, st.integers(2 ** 32 - 2, 2 ** 32 + 2)),
                    max_size=50))
def test_vectorised_priority_equals_priority_hash(seed, replica, ids):
    expected = [priority_hash(seed, replica, i) for i in ids]
    assert priority_hashes(seed, replica, ids).tolist() == expected
