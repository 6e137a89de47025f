"""Property tests for the fleet router and fleet composition.

Three properties the ISSUE pins:

* **conservation** — every arrival is served, shed, or aborted, and
  fleet totals equal the sum over replicas (plus hedge duplicates);
* **power-of-two never routes to a strictly worse queue** than its two
  samples (by the router's own backlog estimate at decision time);
* **seeded policy determinism** — the same seed + config yields an
  identical assignment vector, and a different router seed genuinely
  reshuffles the sampled policies.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.fleet import (ROUTING_POLICIES, FleetConfig,
                                 RouterConfig, TabularLatencyModel,
                                 route_requests_vectorised, simulate_fleet,
                                 uniform_fleet)
from repro.serving.resilience import ResilienceConfig
from tests.serving import reference_router

MODEL = TabularLatencyModel(batches=(1, 4, 16, 64, 256),
                            latency_us=(60.0, 75.0, 110.0, 260.0, 860.0))


def arrivals_strategy(max_n=300):
    """Sorted arrival vectors with bursty inter-arrival gaps."""
    return st.lists(st.floats(min_value=0.0, max_value=200.0,
                              allow_nan=False),
                    min_size=1, max_size=max_n).map(
        lambda gaps: np.cumsum(np.asarray(gaps)))


@st.composite
def router_cases(draw):
    num_replicas = draw(st.integers(min_value=2, max_value=6))
    policy = draw(st.sampled_from(ROUTING_POLICIES))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    arrivals = draw(arrivals_strategy())
    cost = np.asarray(draw(st.lists(
        st.floats(min_value=0.5, max_value=50.0, allow_nan=False),
        min_size=num_replicas, max_size=num_replicas)))
    return num_replicas, policy, seed, arrivals, cost


@given(router_cases())
def test_power_of_two_never_picks_the_worse_probe(case):
    num, _, seed, arrivals, cost = case
    specs = uniform_fleet(num)
    # only the reference router records what it observed; the bitwise
    # differential ties its decisions to route_requests_vectorised
    decision = reference_router.route_requests(
        arrivals, RouterConfig(policy="power_of_two", seed=seed), specs,
        cost, record_probes=True)
    chosen = decision.chosen_backlog   # recorded before the cost charge
    worse = np.maximum(decision.probe_backlogs[:, 0],
                       decision.probe_backlogs[:, 1])
    better = np.minimum(decision.probe_backlogs[:, 0],
                        decision.probe_backlogs[:, 1])
    assert np.all(chosen <= worse + 1e-9)
    # and in fact it always takes the better of the two
    np.testing.assert_allclose(chosen, better, atol=1e-9)


@given(router_cases())
def test_routing_is_a_pure_function_of_seed_and_config(case):
    num, policy, seed, arrivals, cost = case
    specs = uniform_fleet(num)
    config = RouterConfig(policy=policy, seed=seed)
    a = route_requests_vectorised(arrivals, config, specs, cost)
    b = route_requests_vectorised(arrivals, config, specs, cost)
    assert np.array_equal(a.assigned, b.assigned)
    assert np.array_equal(a.hedged, b.hedged)


@given(st.integers(min_value=0, max_value=2**31 - 2),
       st.integers(min_value=2, max_value=5))
def test_different_seeds_reshuffle_sampled_probes(seed, num):
    arrivals = np.arange(400, dtype=float) * 2.0
    specs = uniform_fleet(num)
    cost = np.ones(num)
    a = route_requests_vectorised(
        arrivals, RouterConfig(policy="power_of_two", seed=seed), specs,
        cost)
    b = route_requests_vectorised(
        arrivals, RouterConfig(policy="power_of_two", seed=seed + 1), specs,
        cost)
    # the pre-drawn sample stream is the seeded quantity: a new seed
    # must genuinely redraw it (at num=2 the deduped pair is always
    # {0, 1}, so the assignment itself may legitimately coincide)
    assert not np.array_equal(a.probes, b.probes)


@settings(max_examples=15)
@given(policy=st.sampled_from(ROUTING_POLICIES),
       seed=st.integers(min_value=0, max_value=10_000),
       num_replicas=st.integers(min_value=1, max_value=4),
       qps=st.floats(min_value=20_000.0, max_value=600_000.0))
def test_every_arrival_is_accounted_for(policy, seed, num_replicas, qps):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 250))
    arrivals = np.cumsum(rng.exponential(1e6 / qps, size=n))
    config = FleetConfig(
        replicas=uniform_fleet(num_replicas, racks=2, power_domains=2),
        router=RouterConfig(policy=policy, seed=seed,
                            hedge_backlog_us=100.0),
        resilience=ResilienceConfig(deadline_us=3_000.0, max_retries=1,
                                    shed_queue_depth=64),
        racks=2, power_domains=2, seed=seed)
    report = simulate_fleet(MODEL, arrivals, config)
    cons = report.conservation()
    assert cons["conserved"]
    assert cons["accounted"] == n
    # fleet totals == sum over replicas once hedge duplicates are removed
    assert cons["replica_requests"] == n + cons["hedged_copies"]
    # the attribution identity holds for every routed request
    total = (report.queue_wait_us + report.batch_wait_us
             + report.retry_overhead_us + report.route_overhead_us
             + report.hedge_wait_us + report.execute_us)
    np.testing.assert_allclose(total, report.latencies_us, atol=1e-6)
