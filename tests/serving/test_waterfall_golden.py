"""Golden request waterfalls: the post-hoc builder pinned bit for bit.

The digests below were generated from the serving engine's former live
tracer, which drew each batch's waterfalls while simulating it (every
served member traced).  :func:`emit_exemplar_spans` draws them
afterwards from the finished report and must reproduce every span:
track, name, exact start/end, parent, args and the flow arrow to the
batch's device span.  Three runs cover the enqueue rule: no
resilience; deadlines with retries (enqueue is ``arrival +
retry_overhead_us``, not the arrival); and hedged dispatch on two cards
under a card failure and a slowdown.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.serving.simulator import (BatchingConfig, ResilienceConfig,
                                     simulate_serving)
from repro.serving.telemetry import emit_exemplar_spans
from repro.sim.trace import Tracer


def plain_model(batch):
    return 120.0 + 2.0 * batch


def slow_model(batch):
    return 150.0 + 3.0 * batch


CARD_FAULTS = FaultPlan(events=(
    FaultEvent(start=4_000.0, kind="card.failure", target=1,
               duration=6_000.0),
    FaultEvent(start=14_000.0, kind="card.slowdown", target=0,
               duration=5_000.0, magnitude=3.0)))


def run(name):
    if name == "plain":
        return simulate_serving(plain_model, 30_000,
                                BatchingConfig(32, 150.0),
                                num_requests=2_000, seed=7, registry=None)
    if name == "retries":
        return simulate_serving(
            slow_model, 120_000, BatchingConfig(32, 100.0),
            ResilienceConfig(deadline_us=600.0, max_retries=2),
            num_requests=2_000, seed=3, registry=None)
    assert name == "hedge_faults"
    return simulate_serving(
        plain_model, 60_000, BatchingConfig(16, 100.0),
        ResilienceConfig(num_cards=2, deadline_us=1_500.0, max_retries=2,
                         hedge_after_us=20.0),
        num_requests=2_000, seed=5, faults=FaultInjector(CARD_FAULTS),
        registry=None)


GOLDEN = {
    "plain":
        "ed168f9831c67a3b0753ef8f54cfdbb2411284d111afe3eb879e2656209c4d7b",
    "retries":
        "354439aa703d82d36984fa8b86180c7fa40f77617dc4c4ea4f89ee3ae7c1486f",
    "hedge_faults":
        "bdf4db78a392782a76f2c22dd09c1eb0db79bb00ec726d782060b2aece27e349",
}


def waterfall_digest(report, spans) -> str:
    """SHA-256 of every served request's span tree, in request order.

    Per request: its root span on ``request.N``, its children in
    recording order, and the span its one flow arrow lands on — each
    as track, name, ``float.hex`` start/end, parent name and args.
    """
    by_id = {s.span_id: s for s in spans}
    roots, children, landing = {}, {}, {}
    for s in spans:
        if s.parent_id is None and s.track.startswith("request."):
            roots.setdefault(s.track, []).append(s)
        elif s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)
        for fid in s.flow_in:
            landing[fid] = s

    def row(s):
        parent = by_id[s.parent_id].name if s.parent_id is not None else None
        return [s.track, s.name, float(s.start).hex(), float(s.end).hex(),
                parent, sorted(s.args.items())]

    out = []
    for r in np.flatnonzero(report.served_mask).tolist():
        (req,) = roots[f"request.{r}"]
        (fid,) = req.flow_out
        out.append([row(req), [row(c) for c in children.get(req.span_id, [])],
                    row(landing[fid])])
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_waterfalls_match_golden(name):
    report = run(name)
    spans = Tracer(enabled=True)
    drawn = emit_exemplar_spans(report, np.flatnonzero(report.served_mask),
                                spans)
    assert list(drawn) == np.flatnonzero(report.served_mask).tolist()
    assert waterfall_digest(report, spans.spans) == GOLDEN[name]


def test_runs_exercise_retries_hedges_and_faults():
    retries = run("retries")
    assert np.count_nonzero(retries.served_mask & (retries.attempts > 1)) >= 10
    hedged = run("hedge_faults")
    assert hedged.hedged_batches > 0
    assert np.count_nonzero(hedged.served_mask & (hedged.attempts > 1)) > 0
