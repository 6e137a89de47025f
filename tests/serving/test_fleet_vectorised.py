"""The fleet router is bit-identical to the reference loop.

``route_requests_vectorised`` is the only router in ``src/``; the plain
per-arrival loop it replaced is kept in
``tests/serving/reference_router.py`` as its executable specification.
These tests tie the two together three ways: fixed differential cases,
a Hypothesis differential over every policy, and golden digests of the
routing decision on a 2 s diurnal trace, generated with the scalar
router before it left ``src/``.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults import generate_fleet_plan
from repro.serving import fleet as fleet_mod
from repro.serving.fleet import (ROUTING_POLICIES, FleetConfig,
                                 RouterConfig, TabularLatencyModel,
                                 _service_estimates,
                                 route_requests_vectorised, simulate_fleet,
                                 uniform_fleet)
from repro.serving.resilience import ResilienceConfig
from repro.serving.traffic import trace_preset
from tests.serving.reference_router import route_requests

MODEL = TabularLatencyModel(batches=(1, 4, 16, 64, 256),
                            latency_us=(60, 72, 110, 260, 860))


def _decisions_equal(ref, fast):
    np.testing.assert_array_equal(ref.assigned, fast.assigned)
    np.testing.assert_array_equal(ref.hedged, fast.hedged)
    if ref.probes is None:
        assert fast.probes is None
    else:
        np.testing.assert_array_equal(ref.probes, fast.probes)


def decision_digest(decision) -> str:
    """SHA-256 over ``assigned``, ``hedged`` and ``probes`` (int64)."""
    h = hashlib.sha256()
    for name in ("assigned", "hedged", "probes"):
        values = getattr(decision, name)
        h.update(name.encode())
        if values is not None:
            h.update(np.ascontiguousarray(values, dtype=np.int64).tobytes())
    return h.hexdigest()


def _arrivals(seed, n=4000, spread_us=20_000.0):
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(0.0, spread_us, n))


class TestDifferential:
    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    @pytest.mark.parametrize("record_probes", [False, True])
    def test_routers_agree_bitwise(self, policy, record_probes):
        # Recording what the reference observed must not steer it.
        specs = uniform_fleet(5, num_cards=2)
        service = np.array([3.0, 5.0, 2.0, 7.0, 4.0])
        config = RouterConfig(policy=policy, seed=11,
                              hedge_backlog_us=40.0)
        arrivals = _arrivals(seed=policy.encode()[0])
        ref = route_requests(arrivals, config, specs, service,
                             record_probes=record_probes)
        fast = route_requests_vectorised(arrivals, config, specs, service)
        _decisions_equal(ref, fast)

    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_routers_agree_under_bursts_and_ties(self, policy):
        # Simultaneous arrivals (dt == 0) and equal service costs force
        # every tie-break branch in both routers.
        arrivals = np.repeat(np.arange(50, dtype=float) * 5.0, 8)
        specs = uniform_fleet(3)
        config = RouterConfig(policy=policy, seed=2,
                              hedge_backlog_us=10.0)
        ref = route_requests(arrivals, config, specs, np.ones(3) * 6.0,
                             record_probes=True)
        fast = route_requests_vectorised(arrivals, config, specs,
                                         np.ones(3) * 6.0)
        _decisions_equal(ref, fast)

    def test_single_replica_and_empty_trace(self):
        specs = uniform_fleet(1)
        for policy in ROUTING_POLICIES:
            config = RouterConfig(policy=policy)
            for arrivals in (np.zeros(0), np.array([1.0, 2.0, 3.0])):
                ref = route_requests(arrivals, config, specs, np.ones(1))
                fast = route_requests_vectorised(arrivals, config, specs,
                                                 np.ones(1))
                _decisions_equal(ref, fast)


@st.composite
def routing_cases(draw):
    """Any policy on 1-6 replicas over 0-150 arrivals, ties included."""
    num = draw(st.integers(min_value=1, max_value=6))
    cards = draw(st.integers(min_value=1, max_value=4))
    policy = draw(st.sampled_from(ROUTING_POLICIES))
    router = RouterConfig(
        policy=policy, seed=draw(st.integers(0, 2**31 - 1)),
        hedge_backlog_us=draw(st.sampled_from([0.0, 1.0, 5.0, 40.0])))
    # zero gaps make tied arrivals; n = 0 and n = 1 are drawn often
    gaps = draw(st.one_of(
        st.lists(st.just(0.0), max_size=1),
        st.lists(st.one_of(st.just(0.0),
                           st.floats(min_value=0.0, max_value=50.0,
                                     allow_nan=False)),
                 max_size=150)))
    arrivals = np.cumsum(np.asarray(gaps, dtype=float))
    service = np.asarray(draw(st.lists(
        st.floats(min_value=0.25, max_value=40.0, allow_nan=False),
        min_size=num, max_size=num)))
    return arrivals, router, uniform_fleet(num, num_cards=cards), service


@given(routing_cases(), st.booleans())
def test_routers_agree_on_any_trace(case, record_probes):
    arrivals, router, specs, service = case
    ref = route_requests(arrivals, router, specs, service,
                         record_probes=record_probes)
    fast = route_requests_vectorised(arrivals, router, specs, service)
    _decisions_equal(ref, fast)


#: routing digests on the 2 s diurnal trace at 60 k QPS (trace seed 0),
#: 6 replicas, router seed 5: label -> (policy, hedge threshold us,
#: SHA-256 of the decision).  At a 400 us threshold this trace never
#: hedges, so ``hedge`` equals ``power_of_two``; at 2 us it hedges 43
#: requests.
ROUTING_GOLDEN = {
    "round_robin": (
        "round_robin", 400.0,
        "e4676695e7e6a98bfc6233dc874c0a57ec2b82c67fc1754baefe9ec072f23b97"),
    "least_loaded": (
        "least_loaded", 400.0,
        "a8637eb13e3144f6e3c732955765465a9eeea5fbf25392ec7e8a5327804c9fc8"),
    "power_of_two": (
        "power_of_two", 400.0,
        "3a2987e9bf3593858877aac70fcc56437ff8618f54673313d20616602420f77a"),
    "hedge": (
        "hedge", 400.0,
        "3a2987e9bf3593858877aac70fcc56437ff8618f54673313d20616602420f77a"),
    "hedge_2us": (
        "hedge", 2.0,
        "29232ed713e853dff69969fd3b2d9f11d7887a252d00a4c3ecd7594dd82ac38b"),
}


@pytest.fixture(scope="module")
def diurnal_2s():
    trace = replace(trace_preset("diurnal", target_qps=60_000.0),
                    duration_us=2_000_000.0)
    specs = uniform_fleet(6)
    config = FleetConfig(replicas=specs)
    service = _service_estimates(specs, [MODEL] * len(specs),
                                 config.batching)
    return trace.arrivals(config.seed), specs, service


@pytest.mark.parametrize("label", sorted(ROUTING_GOLDEN))
def test_diurnal_routing_decision_golden(diurnal_2s, label):
    arrivals, specs, service = diurnal_2s
    policy, threshold, expected = ROUTING_GOLDEN[label]
    router = RouterConfig(policy=policy, seed=5,
                          hedge_backlog_us=threshold)
    decision = route_requests_vectorised(arrivals, router, specs, service)
    assert arrivals.size == 120_860
    assert decision_digest(decision) == expected


class TestFleetByteIdentity:
    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_fleet_json_identical_under_reference_router(self, policy,
                                                         monkeypatch):
        """The whole fleet report is byte-identical under either router,
        with a correlated fault plan in the path."""
        trace = replace(trace_preset("diurnal", target_qps=150_000.0),
                        duration_us=40_000.0)
        config = FleetConfig(
            replicas=uniform_fleet(4, racks=2, power_domains=2),
            router=RouterConfig(policy=policy, route_latency_us=8.0,
                                hedge_backlog_us=500.0),
            resilience=ResilienceConfig(deadline_us=8_000.0,
                                        max_retries=1),
            racks=2, power_domains=2)
        plan = generate_fleet_plan(7, config.replicas,
                                   horizon_us=40_000.0)
        fast = simulate_fleet(MODEL, trace, config, fault_plan=plan)
        monkeypatch.setattr(fleet_mod, "route_requests_vectorised",
                            route_requests)
        ref = simulate_fleet(MODEL, trace, config, fault_plan=plan)
        assert (json.dumps(fast.to_dict(), sort_keys=True)
                == json.dumps(ref.to_dict(), sort_keys=True))

    def test_fleet_json_identical_across_jobs(self):
        trace = replace(trace_preset("spike", target_qps=120_000.0),
                        duration_us=30_000.0)
        config = FleetConfig(
            replicas=uniform_fleet(4),
            router=RouterConfig(policy="power_of_two", seed=3))
        serial = simulate_fleet(MODEL, trace, config, jobs=1)
        parallel = simulate_fleet(MODEL, trace, config, jobs=4)
        assert (json.dumps(serial.to_dict(), sort_keys=True)
                == json.dumps(parallel.to_dict(), sort_keys=True))
