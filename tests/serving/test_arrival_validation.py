"""Serving inputs are validated at the boundary.

``simulate_serving``, ``simulate_fleet`` and
``simulate_fleet_autoscaled`` share one check: a non-finite, negative
or out-of-order arrival time raises ``ValueError`` at the boundary.
Each test also fails if the entry point did work first (ran the
latency model, routed, or simulated an epoch): a bad time must not be
served with a NaN latency, or fail three layers further down.  A
latency model's output and a ``RouterConfig``'s latencies must be
finite and non-negative too.
"""

import numpy as np
import pytest

from repro.serving import fleet as fleet_mod
from repro.serving import simulate_serving
from repro.serving.fleet import (AutoscaleConfig, FleetConfig,
                                 RouterConfig, simulate_fleet,
                                 simulate_fleet_autoscaled, uniform_fleet)

#: label -> (arrival times, the error the check names)
BAD_ARRIVALS = {
    "nan": ([0.0, float("nan"), 5.0], "finite"),
    "inf": ([0.0, float("inf")], "finite"),
    "negative": ([-5.0, 1.0], "non-negative"),
}


def _no_work(*args, **kwargs):
    raise AssertionError("work was done before the arrivals were checked")


@pytest.mark.parametrize("label", sorted(BAD_ARRIVALS))
def test_simulate_serving_rejects(label):
    arrivals, message = BAD_ARRIVALS[label]
    with pytest.raises(ValueError, match=message):
        simulate_serving(_no_work, 0.0, arrivals=np.array(arrivals))


@pytest.mark.parametrize("label", sorted(BAD_ARRIVALS))
def test_simulate_fleet_rejects_before_routing(label, monkeypatch):
    arrivals, message = BAD_ARRIVALS[label]
    monkeypatch.setattr(fleet_mod, "route_requests_vectorised", _no_work)
    with pytest.raises(ValueError, match=message):
        simulate_fleet(lambda b: 100.0, np.array(arrivals),
                       FleetConfig(replicas=uniform_fleet(2)))


@pytest.mark.parametrize("label", sorted(BAD_ARRIVALS) + ["unsorted"])
def test_simulate_fleet_autoscaled_rejects_before_any_epoch(label,
                                                           monkeypatch):
    arrivals, message = BAD_ARRIVALS.get(
        label, ([5.0, 1.0], "non-decreasing"))
    monkeypatch.setattr(fleet_mod, "simulate_fleet", _no_work)
    with pytest.raises(ValueError, match=message):
        simulate_fleet_autoscaled(
            lambda b: 100.0, np.array(arrivals),
            FleetConfig(replicas=uniform_fleet(2)),
            AutoscaleConfig(epoch_us=1_000.0), sla_us=1_000.0)


def test_simulate_serving_rejects_nan_qps():
    # a NaN rate would draw NaN arrival times
    with pytest.raises(ValueError, match="qps"):
        simulate_serving(_no_work, float("nan"), num_requests=5)


def test_ties_and_time_zero_are_valid():
    report = simulate_serving(lambda b: 100.0, 0.0,
                              arrivals=np.array([0.0, 0.0, 3.0]))
    assert np.all(np.isfinite(report.latencies_us))


#: label -> what a broken latency model returns for every batch
BAD_LATENCIES = {"nan": float("nan"), "inf": float("inf"), "negative": -5.0}


@pytest.mark.parametrize("label", sorted(BAD_LATENCIES))
def test_simulate_serving_rejects_bad_latency_model(label):
    # a NaN latency would become a NaN p99; a negative one a negative
    # execute phase on a "served" request
    value = BAD_LATENCIES[label]
    with pytest.raises(ValueError, match="latency_model"):
        simulate_serving(lambda b: value, 0.0, registry=None,
                         arrivals=np.array([0.0, 1.0]))


@pytest.mark.parametrize("name", ["route_latency_us", "hedge_backlog_us",
                                  "hedge_delay_us"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf"), -1.0])
def test_router_config_rejects_non_finite_or_negative(name, value):
    # a NaN hedge threshold would silently never hedge
    with pytest.raises(ValueError, match=name):
        RouterConfig(**{name: value})
