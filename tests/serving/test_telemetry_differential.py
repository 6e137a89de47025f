"""Differential tests: bulk telemetry ingest == per-request ingest.

:meth:`ServingTelemetry.from_report` ingests a report in bulk (windowed
series by window, sketches by key, exemplars by a top-k shortlist).
``reference_telemetry.from_report`` is the per-request loop it
replaced; every sketch key map, per-window sum and sketch, and
exemplar list must match it bit for bit, over reports with faults,
retries, shedding, empty and single-request runs, and tied latencies.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector
from repro.serving.fleet import simulate_fleet
from repro.serving.simulator import (BatchingConfig, ResilienceConfig,
                                     simulate_serving)
from repro.serving.telemetry import ServingTelemetry
from tests import strategies as shared
from tests.serving import reference_telemetry
from tests.serving.digests import telemetry_digest, telemetry_state

#: :func:`telemetry_digest` of the merged telemetry of the seed-1
#: flash-crowd fleet in ``perfbench/parts.py`` (8 replicas, correlated
#: rack and power faults, 101 877 requests), computed with the
#: per-request ingest loop ``reference_telemetry`` keeps
FLASH_CROWD_SEED1_TELEMETRY = (
    "7be8bd3b7caf18baf4c5c0789efb8b82095f1768237969b7efad57bedd616bfd")


def linear(batch: int) -> float:
    return 150.0 + 2.0 * batch


def constant(batch: int) -> float:
    return 200.0


@st.composite
def serving_reports(draw):
    """Serving runs across every outcome the telemetry must ingest."""
    batching = BatchingConfig(
        max_batch=draw(st.sampled_from([1, 4, 32])),
        max_wait_us=draw(st.sampled_from([0.0, 150.0, 1_000.0])))
    resilience = ResilienceConfig(
        deadline_us=draw(st.sampled_from([0.0, 600.0, 3_000.0])),
        max_retries=draw(st.integers(0, 2)),
        shed_queue_depth=draw(st.sampled_from([0, 4, 64])),
        num_cards=draw(st.integers(1, 2)))
    plan = draw(st.none() | shared.fault_plans(num_cards=2))
    if draw(st.booleans()):
        # integer arrival grid with repeats and a constant model: the
        # requests of one batch share a latency, so slowest-k ties
        ticks = draw(st.lists(st.integers(0, 400), max_size=200))
        kwargs = dict(arrivals=np.sort(np.array(ticks, dtype=float)) * 50.0,
                      qps=0.0)
        model = constant
    else:
        kwargs = dict(num_requests=draw(st.sampled_from([0, 1, 2, 150])),
                      seed=draw(st.integers(0, 2 ** 16)),
                      qps=draw(st.sampled_from([5_000.0, 40_000.0])))
        model = linear
    return simulate_serving(
        model, batching=batching, resilience=resilience,
        faults=FaultInjector(plan) if plan is not None else None,
        registry=None, **kwargs)


telemetry_args = st.fixed_dictionaries({
    "replica": st.integers(0, 2 ** 40),
    "window_us": st.sampled_from([100.0, 1_000.0, 50_000.0]),
    "relative_accuracy": st.sampled_from([0.01, 0.05]),
    "slowest_k": st.integers(0, 10),
    "reservoir_size": st.integers(0, 20),
    "seed": st.integers(-2 ** 64, 2 ** 64),
})


@settings(deadline=None)
@given(report=serving_reports(), args=telemetry_args)
def test_bulk_ingest_matches_per_request_loop(report, args):
    bulk = ServingTelemetry.from_report(report, **args)
    ref = reference_telemetry.from_report(report, **args)
    assert telemetry_state(bulk) == telemetry_state(ref)
    assert bulk.exemplars.slowest == ref.exemplars.slowest
    assert bulk.exemplars.reservoir == ref.exemplars.reservoir


@settings(deadline=None, max_examples=10)
@given(parts=st.lists(serving_reports(), min_size=2, max_size=3))
def test_merged_bulk_telemetry_matches_per_request_loop(parts):
    def merged(build):
        return ServingTelemetry.merge_all(
            [build(report, replica=i) for i, report in enumerate(parts)])

    assert (telemetry_state(merged(ServingTelemetry.from_report))
            == telemetry_state(merged(reference_telemetry.from_report)))


def test_flash_crowd_fleet_telemetry_digest():
    from perfbench.parts import FleetPart

    part = FleetPart(1, full=True)
    report = simulate_fleet(part.latency_model, part.arrivals, part.config,
                            fault_plan=part.fault_plan, jobs=1,
                            collect_telemetry=True)
    assert telemetry_digest(report.telemetry) == FLASH_CROWD_SEED1_TELEMETRY
