"""Resilient serving: deadlines, retries, hedging, shedding, failover."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import PERMANENT, FaultEvent, FaultPlan, FaultInjector
from repro.obs import MetricRegistry
from repro.serving import (BatchingConfig, ResilienceConfig,
                           STATUS_FAILED, STATUS_SERVED, STATUS_SHED,
                           STATUS_TIMEOUT, simulate_serving,
                           simulate_serving_resilient)
from repro.serving.slo import slo_from_report
from tests import strategies as shared
from tests.serving import reference_engine
from tests.serving.digests import arrays_digest, batches_digest


def linear_latency(batch):
    """150us + 2us per sample — min batch latency 152us."""
    return 150.0 + 2.0 * batch


#: max_batch=4 caps one card's service rate at ~25k qps, so the
#: overload scenarios here actually overload
TIGHT_BATCHING = BatchingConfig(max_batch=4, max_wait_us=200.0)


def resilient(qps=10_000, batching=BatchingConfig(), res=None, n=600,
              seed=0, plan=None):
    faults = FaultInjector(plan) if plan is not None else None
    return simulate_serving_resilient(
        linear_latency, qps, batching, res or ResilienceConfig(),
        num_requests=n, seed=seed, faults=faults,
        registry=MetricRegistry())


def assert_attribution_invariant(report):
    """queue_wait + batch_wait + retry_overhead + execute == latency."""
    total = (report.queue_wait_us + report.batch_wait_us
             + report.retry_overhead_us + report.execute_us)
    np.testing.assert_allclose(total, report.latencies_us, atol=1e-6)


def step_latency(batch):
    """A staircase model: 40us per started group of 8 samples."""
    return 80.0 + 40.0 * ((batch + 7) // 8)


#: explicit arrivals with three-way same-instant ties
TIES = np.repeat(np.arange(0.0, 6_000.0, 37.5), 3)[:400]

#: fault-free cases and their golden digests, computed with
#: :mod:`tests.serving.digests` from the plain batching simulator that
#: predates the merged engine: (arrays digest, batch-records digest)
PLAIN_CASES = {
    "qps500": dict(qps=500, num_requests=800, seed=500),
    "qps10000": dict(qps=10_000, num_requests=800, seed=10_000),
    "qps300000": dict(qps=300_000, num_requests=800, seed=300_000),
    "qps50000": dict(qps=50_000, num_requests=500),
    "tight": dict(qps=120_000, num_requests=600, seed=3,
                  batching=BatchingConfig(max_batch=4, max_wait_us=50.0)),
    "wide": dict(qps=80_000, num_requests=600, seed=4,
                 batching=BatchingConfig(max_batch=512,
                                         max_wait_us=1000.0)),
    "step": dict(qps=40_000, num_requests=600, seed=5,
                 latency_model=step_latency,
                 batching=BatchingConfig(max_batch=32, max_wait_us=100.0)),
    "ties": dict(qps=0.0, arrivals=TIES,
                 batching=BatchingConfig(max_batch=16, max_wait_us=60.0)),
}
PLAIN_GOLDEN = {
    "qps500": (
        "f7b79744ee3b0f859dbd03b87b14352d8f51c2601419555fe646bd52b115db48",
        "71c8f5a4f1035ef6e05ca81cdff302989cae98a1c1aa49441bd615f6e68e3536"),
    "qps10000": (
        "b69e96dcdcc43743ec0617987decd1286fe28e7b56696ac30ccf67c3a9b6cacf",
        "e37d5ebe983be4ca3e62a46977ab08769939ad397fbcf0a1981a72cb8563852b"),
    "qps300000": (
        "7e20e1305c8c655a257f10a40a0cdc6a1ad2e49fe62572f9911a309e012252fb",
        "2498b128b4e5a7d3165f5b8f38d1072dc9cfba9c2a809eee52ecba24c4f0dde5"),
    "qps50000": (
        "897827391882f4f7f710bfd2df0b0f42d439acba7ccc2f8076b06edf2bc048f2",
        "b21ba8e3fb18023097fa6a7ee6f0e0302ae072d06a625cdfa1140e89d453e609"),
    "tight": (
        "1c77f73c41e65c58b763dcdc6e6683ca042f5e079f7e05f63a4c770d80d11b1b",
        "d4a9c922be60c414944bac7be9c8fcd51ddf8eae993558fd41289fd5902bad56"),
    "wide": (
        "de0ef594539d46cd28af2de6950cf24a9128ca49c9c8ae8c65aaa37074c09e96",
        "4593890fdda75cbb48c5c513ed0e8da97e78642f3c3f4c44cbb6503e1dc501c3"),
    "step": (
        "d4ac472e9968b98f2fc40cb6868e466508def124e90f110ead33d12ce8a59fe8",
        "4556f28c2d3403452cea5ff9a825b947e7c0c5b2297592b9df7d8c90a83a18c6"),
    "ties": (
        "01753cf70851b3d633f0205586bfe46f328420823e6c544a700b06bd69717cda",
        "d19e4668e71af58143f8e0840a897f860f649b491f5f9946dfa7e9abb6fe3973"),
}


class TestBitIdentityWithPlainSimulator:
    """Default config + no faults reproduces the plain simulator's
    reports bit for bit, pinned by golden digests."""

    def assert_golden(self, name):
        report = simulate_serving(registry=MetricRegistry(),
                                  **{"latency_model": linear_latency,
                                     **PLAIN_CASES[name]})
        assert (arrays_digest(report), batches_digest(report)) \
            == PLAIN_GOLDEN[name]

    @pytest.mark.parametrize("qps", [500, 10_000, 300_000])
    def test_arrays_bit_identical(self, qps):
        self.assert_golden(f"qps{qps}")

    def test_batch_records_identical(self):
        self.assert_golden("qps50000")

    @pytest.mark.parametrize("name", ["tight", "wide", "step", "ties"])
    def test_golden_digests(self, name):
        self.assert_golden(name)

    def test_empty_injector_is_bit_identical(self):
        bare = resilient(qps=40_000, n=600)
        armed = resilient(qps=40_000, n=600,
                          plan=FaultPlan(events=()))
        assert_reports_bit_identical(armed, bare)
        assert armed.availability == 1.0

    def test_all_served_when_no_failure_features(self):
        report = resilient(qps=20_000, n=400)
        assert report.availability == 1.0
        assert (report.status == STATUS_SERVED).all()
        assert (report.attempts == 1).all()
        assert (report.retry_overhead_us == 0.0).all()
        assert np.isnan(report.abort_us).all()


REPORT_ARRAYS = ("latencies_us", "queue_wait_us", "batch_wait_us",
                 "execute_us", "retry_overhead_us", "arrivals_us",
                 "batch_index", "status", "attempts", "abort_us")


def assert_reports_bit_identical(got, want):
    """Every report array, batch record and count, bitwise."""
    for name in REPORT_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert [b.to_dict() for b in got.batches] == \
        [b.to_dict() for b in want.batches]
    assert got.batch_sizes == want.batch_sizes
    assert got.counts_by_status() == want.counts_by_status()
    assert (got.qps_offered, got.qps_served, got.busy_fraction) == \
        (want.qps_offered, want.qps_served, want.busy_fraction)
    assert (got.hedged_batches, got.hedge_wins) == \
        (want.hedged_batches, want.hedge_wins)


@st.composite
def serving_cases(draw):
    """One engine configuration: batching, every resilience knob, an
    optional seeded card fault plan, and Poisson or tied arrivals."""
    num_cards = draw(st.integers(1, 4))
    batching = BatchingConfig(
        max_batch=draw(st.sampled_from([1, 2, 4, 8, 32, 256])),
        max_wait_us=draw(st.sampled_from([0.0, 25.0, 200.0, 700.0])
                         | st.floats(0.0, 800.0)))
    res = ResilienceConfig(
        deadline_us=draw(st.sampled_from([0.0, 300.0, 900.0, 4_000.0])
                         | st.floats(100.0, 5_000.0)),
        max_retries=draw(st.integers(0, 3)),
        retry_backoff_us=draw(st.sampled_from([0.0, 50.0, 100.0])),
        backoff_cap_us=draw(st.sampled_from([0.0, 200.0, 1600.0])),
        hedge_after_us=draw(st.sampled_from([0.0, 0.0, 50.0, 400.0])),
        shed_queue_depth=draw(st.sampled_from([0, 0, 1, 8, 64])),
        num_cards=num_cards)
    plan = draw(st.one_of(st.none(),
                          shared.fault_plans(num_cards=num_cards)))
    if draw(st.booleans()):
        ticks = draw(st.lists(st.integers(0, 600), max_size=250))
        source = dict(qps=0.0, arrivals=25.0 * np.sort(ticks).astype(float))
    else:
        source = dict(qps=draw(st.sampled_from([5_000.0, 40_000.0,
                                                150_000.0])),
                      num_requests=draw(st.integers(0, 300)),
                      seed=draw(shared.seeds))
    base = draw(st.sampled_from([60.0, 150.0]))
    return batching, res, plan, source, base


def run_both(batching, res, plan, source, base):
    def model(batch):
        return base + 2.0 * batch

    def run(engine):
        faults = FaultInjector(plan) if plan is not None else None
        return engine(model, batching=batching, resilience=res,
                      faults=faults, registry=MetricRegistry(), **source)

    return (run(simulate_serving),
            run(reference_engine.simulate_serving_resilient))


class TestDifferentialAgainstReference:
    """The engine against the single-heap loop it replaced
    (:mod:`tests.serving.reference_engine`), bit for bit."""

    def test_one_engine(self):
        assert simulate_serving is simulate_serving_resilient

    @settings(max_examples=200, deadline=None)
    @given(case=serving_cases())
    def test_matches_reference(self, case):
        got, want = run_both(*case)
        assert_reports_bit_identical(got, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_with_every_feature_firing(self, seed):
        res = ResilienceConfig(deadline_us=400.0, max_retries=2,
                               retry_backoff_us=50.0, hedge_after_us=50.0,
                               shed_queue_depth=16, num_cards=3)
        plan = FaultPlan.generate(seed, kinds=("card.failure",
                                               "card.slowdown"))
        got, want = run_both(TIGHT_BATCHING, res, plan,
                             dict(qps=60_000.0, num_requests=600,
                                  seed=seed), 150.0)
        assert_reports_bit_identical(got, want)
        counts = got.counts_by_status()
        assert counts["shed"] and counts["timeout"]
        assert ((got.attempts > 1) & got.served_mask).any()
        assert got.hedged_batches


class TestDeadlines:
    def test_deadline_shorter_than_min_batch_latency_aborts_all(self):
        # 100us deadline < 152us best-case service: nothing can serve,
        # and each request burns its full retry budget first
        res = ResilienceConfig(deadline_us=100.0, max_retries=2)
        report = resilient(qps=5_000, res=res, n=200)
        assert report.availability == 0.0
        assert (report.status == STATUS_TIMEOUT).all()
        assert (report.attempts == 3).all()
        assert np.isnan(report.p99_us)       # percentiles are served-only
        assert np.isfinite(report.abort_us).all()
        assert_attribution_invariant(report)

    def test_loose_deadline_serves_everything(self):
        res = ResilienceConfig(deadline_us=100_000.0, max_retries=2)
        report = resilient(qps=5_000, res=res, n=400)
        assert report.availability == 1.0

    def test_retry_storm_recovers_some_requests(self):
        # over capacity + tight deadline: timeouts spawn retries, some
        # of which land in luckier batches and serve
        res = ResilienceConfig(deadline_us=450.0, max_retries=3,
                               retry_backoff_us=50.0, backoff_cap_us=400.0)
        report = resilient(qps=30_000, batching=TIGHT_BATCHING, res=res,
                           n=800)
        counts = report.counts_by_status()
        assert counts["served"] > 0
        assert counts["timeout"] > 0
        assert float(report.attempts.mean()) > 1.0
        retried = report.attempts > 1
        assert (report.retry_overhead_us[retried] > 0).all()
        assert (report.retry_overhead_us[~retried] == 0).all()
        assert_attribution_invariant(report)

    def test_backoff_is_capped(self):
        res = ResilienceConfig(deadline_us=100.0, max_retries=6,
                               retry_backoff_us=100.0, backoff_cap_us=800.0)
        assert res.backoff_us(0) == 100.0
        assert res.backoff_us(2) == 400.0
        assert res.backoff_us(5) == 800.0   # capped, not 3200


class TestCardFailures:
    def test_all_cards_dead_from_start(self):
        plan = FaultPlan(events=(
            FaultEvent(start=0.0, kind="card.failure", target=-1,
                       duration=PERMANENT),))
        res = ResilienceConfig(num_cards=2, max_retries=1)
        report = resilient(qps=10_000, res=res, n=150, plan=plan)
        assert report.availability == 0.0
        assert (report.status == STATUS_FAILED).all()
        assert (report.attempts == 2).all()
        assert report.qps_served == 0.0
        assert_attribution_invariant(report)

    def test_one_card_dies_survivors_absorb(self):
        # one of two cards dies permanently mid-run; requests arriving
        # after the failure still serve on the survivor
        fail_at = 15_000.0
        plan = FaultPlan(events=(
            FaultEvent(start=fail_at, kind="card.failure", target=0,
                       duration=PERMANENT),))
        res = ResilienceConfig(num_cards=2, max_retries=2)
        report = resilient(qps=15_000, batching=TIGHT_BATCHING, res=res,
                           n=600, plan=plan)
        late = report.arrivals_us > fail_at
        assert late.any()
        assert report.availability == 1.0
        assert (report.status[late] == STATUS_SERVED).all()
        assert_attribution_invariant(report)

    def test_transient_failure_kills_inflight_batch_then_recovers(self):
        # a mid-execute outage: the in-flight batch dies and retries
        plan = FaultPlan(events=(
            FaultEvent(start=300.0, kind="card.failure", target=0,
                       duration=400.0),))
        res = ResilienceConfig(num_cards=1, max_retries=2)
        report = resilient(qps=20_000, batching=TIGHT_BATCHING, res=res,
                           n=60, plan=plan)
        assert report.availability == 1.0
        assert (report.attempts > 1).any()
        assert_attribution_invariant(report)

    def test_card_slowdown_stretches_execute(self):
        plan = FaultPlan(events=(
            FaultEvent(start=0.0, kind="card.slowdown", target=-1,
                       duration=PERMANENT, magnitude=3.0),))
        slow = resilient(qps=1_000, n=300, plan=plan)
        # batch composition may shift (slower service backs the queue
        # up), so check per-request against each batch's own size
        sizes = np.array(slow.batch_sizes)[slow.batch_index]
        np.testing.assert_allclose(slow.execute_us,
                                   3.0 * (150.0 + 2.0 * sizes))
        assert slow.availability == 1.0


class TestHedging:
    def test_hedged_dispatch_can_win(self):
        # card 0 keeps dying mid-execute; under queue pressure batches
        # hedge onto card 1 and the hedge copy survives the outage
        events = tuple(FaultEvent(start=s, kind="card.failure", target=0,
                                  duration=80.0)
                       for s in np.arange(200.0, 120_000.0, 300.0))
        res = ResilienceConfig(num_cards=2, hedge_after_us=30.0,
                               max_retries=1)
        report = resilient(qps=60_000, batching=TIGHT_BATCHING, res=res,
                           n=2000, plan=FaultPlan(events=events))
        assert report.hedged_batches > 0
        assert report.hedge_wins >= 1
        assert report.availability == 1.0
        assert_attribution_invariant(report)

    def test_no_hedging_on_single_card(self):
        res = ResilienceConfig(num_cards=1, hedge_after_us=1.0)
        report = resilient(qps=300_000, batching=TIGHT_BATCHING, res=res,
                           n=400)
        assert report.hedged_batches == 0
        assert report.hedge_wins == 0


class TestShedding:
    def test_overload_sheds_beyond_depth(self):
        res = ResilienceConfig(shed_queue_depth=32)
        report = resilient(qps=80_000, batching=TIGHT_BATCHING, res=res,
                           n=800)
        counts = report.counts_by_status()
        assert counts["shed"] > 0
        assert counts["served"] + counts["shed"] == 800
        assert report.availability < 1.0
        assert_attribution_invariant(report)

    def test_shedding_bounds_served_latency(self):
        res = ResilienceConfig(shed_queue_depth=32)
        shed = resilient(qps=80_000, batching=TIGHT_BATCHING, res=res,
                         n=800)
        unshed = resilient(qps=80_000, batching=TIGHT_BATCHING, n=800)
        # the shed run serves fewer requests but far faster
        assert shed.availability < 1.0
        assert shed.p99_us < 0.5 * unshed.p99_us


class TestAbortedRequestAccounting:
    """Satellite regression: aborts are excluded from percentiles but
    counted against availability (and always burn SLO budget)."""

    @pytest.fixture()
    def mixed(self):
        res = ResilienceConfig(deadline_us=450.0, max_retries=1,
                               retry_backoff_us=50.0)
        return resilient(qps=30_000, batching=TIGHT_BATCHING, res=res,
                         n=800)

    def test_percentiles_are_served_only(self, mixed):
        mask = mixed.served_mask
        assert 0 < mask.sum() < mask.size
        expected = float(np.percentile(mixed.latencies_us[mask], 99.0))
        assert mixed.p99_us == expected
        # aborted latencies would otherwise drag the percentile around
        polluted = float(np.percentile(mixed.latencies_us, 99.0))
        assert mixed.p99_us != polluted

    def test_availability_counts_aborts(self, mixed):
        counts = mixed.counts_by_status()
        assert mixed.availability == counts["served"] / 800.0
        assert sum(counts.values()) == 800

    def test_slo_counts_aborts_as_violations(self, mixed):
        slo = slo_from_report(mixed, sla_us=1_000.0)
        counts = mixed.counts_by_status()
        aborted = 800 - counts["served"]
        assert slo.aborted == aborted
        assert slo.total == 800
        assert slo.violations >= aborted
        window_aborts = sum(w.count for w in slo.windows)
        assert window_aborts == 800

    def test_breakdown_means_are_served_only(self, mixed):
        mask = mixed.served_mask
        means = mixed.breakdown_means()
        assert means["execute"] == pytest.approx(
            float(mixed.execute_us[mask].mean()))
        assert means["retry_overhead"] == pytest.approx(
            float(mixed.retry_overhead_us[mask].mean()))

    def test_request_rows_carry_status(self, mixed):
        rows = mixed.request_rows(limit=50)
        assert {"status", "attempts", "retry_overhead_us"} <= rows[0].keys()
        assert {r["status"] for r in rows} <= {"served", "shed", "timeout",
                                               "failed"}


class TestConfigValidation:
    def test_bad_num_cards_rejected(self):
        with pytest.raises(ValueError):
            ResilienceConfig(num_cards=0)

    @pytest.mark.parametrize("field", ["deadline_us", "max_retries",
                                       "retry_backoff_us", "backoff_cap_us",
                                       "hedge_after_us", "shed_queue_depth"])
    def test_negative_knobs_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            ResilienceConfig(**{field: -1})

    def test_invalid_qps_rejected(self):
        with pytest.raises(ValueError):
            simulate_serving_resilient(linear_latency, qps=0.0,
                                       registry=MetricRegistry())


class TestDeterminism:
    def test_same_seed_and_plan_replay_exactly(self):
        plan = FaultPlan.generate(5, kinds=("card.failure",
                                            "card.slowdown"))
        res = ResilienceConfig(num_cards=2, deadline_us=2_000.0,
                               max_retries=2, hedge_after_us=100.0,
                               shed_queue_depth=64)
        a = resilient(qps=40_000, batching=TIGHT_BATCHING, res=res,
                      n=500, plan=plan)
        b = resilient(qps=40_000, batching=TIGHT_BATCHING, res=res,
                      n=500, plan=plan)
        for name in ("latencies_us", "status", "attempts",
                     "retry_overhead_us", "abort_us", "batch_index"):
            np.testing.assert_array_equal(getattr(a, name),
                                          getattr(b, name), err_msg=name)
        assert a.hedged_batches == b.hedged_batches
        assert a.hedge_wins == b.hedge_wins

    def test_metrics_record_availability_and_outcomes(self):
        registry = MetricRegistry()
        res = ResilienceConfig(deadline_us=100.0, max_retries=0)
        simulate_serving_resilient(linear_latency, qps=5_000,
                                   resilience=res, num_requests=100,
                                   registry=registry)
        text = registry.to_prometheus()
        assert "serving_availability" in text
        assert "serving_outcomes" in text
