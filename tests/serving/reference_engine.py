"""Executable specification of the serving engine's resilient loop.

This is the batching/dispatch loop the engine had before its pending
queue became a cursor into the sorted arrivals plus a small side queue:
every pending attempt lives in one heap, and shed eligibility and queue
depth rescan that heap at each dispatch.  It is kept verbatim (only its
imports adapted) as the reference the differential tests compare
:func:`repro.serving.simulate_serving` against, bit for bit.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.serving.simulator import (
    STATUS_FAILED, STATUS_SERVED, STATUS_SHED, STATUS_TIMEOUT,
    BatchingConfig, BatchRecord, ResilienceConfig, ServingReport,
    _record_metrics)


#: one in-flight attempt: (enqueue time, tie-break seq, request, attempt#)
_Attempt = Tuple[float, int, int, int]


def simulate_serving_resilient(
        latency_model: Callable[[int], float],
        qps: float,
        batching: BatchingConfig = BatchingConfig(),
        resilience: ResilienceConfig = ResilienceConfig(),
        num_requests: int = 5000,
        seed: int = 0,
        faults=None,
        registry=None,
        collect_telemetry: bool = False,
        replica: int = 0,
        arrivals=None) -> ServingReport:
    """Simulate resilient serving of ``num_requests`` Poisson arrivals.

    ``faults`` is an optional :class:`~repro.faults.FaultInjector`
    whose ``card.failure`` / ``card.slowdown`` events (microsecond
    domain) drive card outages and slow cards.  All randomness lives in
    the arrival stream (``seed``) and the injector's *pre-drawn* plan,
    so a (seed, plan) pair replays exactly.

    ``arrivals`` injects an explicit sorted arrival vector (the fleet
    router's per-replica assignment) instead of drawing the Poisson
    stream; see :func:`~repro.serving.simulator.resolve_arrivals`.
    """
    from repro.serving.simulator import resolve_arrivals
    cfg = resilience
    arrivals, qps = resolve_arrivals(qps, num_requests, seed, arrivals)

    n = int(arrivals.size)
    latencies = np.zeros(n)
    queue_wait = np.zeros(n)
    batch_wait = np.zeros(n)
    execute = np.zeros(n)
    retry_overhead = np.zeros(n)
    attempts_out = np.ones(n, dtype=np.int64)
    status = np.zeros(n, dtype=np.int8)
    abort_us = np.full(n, np.nan)
    batch_index = np.full(n, -1, dtype=np.int64)

    batch_sizes: List[int] = []
    batches: List[BatchRecord] = []
    free = [0.0] * cfg.num_cards
    busy_us = 0.0
    span_end = arrivals[0] if n else 0.0
    served = 0
    hedged_batches = 0
    hedge_wins = 0
    retry_seq = n

    # the attempt queue: originals enter pre-sorted (arrival order ==
    # (t, seq) order), retries heap-push later with seq > n so that
    # same-instant ties stay deterministic
    pending: List[_Attempt] = [(float(arrivals[r]), r, r, 0)
                               for r in range(n)]

    def start_on(card: int, at: float) -> float:
        """Earliest instant ``card`` can start work requested at ``at``."""
        t = max(at, free[card])
        if faults is not None:
            t = faults.card_available_at(card, t)
        return t

    def finish_attempt(r: int, attempt: int, attempt_t: float,
                       fail_t: float, failed_status: int,
                       ready: float, dispatch: float) -> None:
        """Retry the attempt or record its final abort."""
        nonlocal retry_seq, span_end
        if attempt < cfg.max_retries:
            next_t = fail_t + cfg.backoff_us(attempt)
            heapq.heappush(pending, (next_t, retry_seq, r, attempt + 1))
            retry_seq += 1
            return
        status[r] = failed_status
        attempts_out[r] = attempt + 1
        retry_overhead[r] = attempt_t - arrivals[r]
        abort_us[r] = fail_t
        # phases truncated at the abort instant, so the attribution
        # invariant holds for aborted requests too
        bw = max(0.0, min(ready, fail_t) - attempt_t)
        qw = max(0.0, min(dispatch, fail_t) - max(ready, attempt_t))
        ex = max(0.0, fail_t - max(dispatch, attempt_t))
        batch_wait[r] = bw
        queue_wait[r] = qw
        execute[r] = ex
        latencies[r] = fail_t - arrivals[r]
        span_end = max(span_end, fail_t)

    def run_copy(card: int, at: float, size: int
                 ) -> Tuple[float, float, float, Optional[float]]:
        """Dispatch one batch copy: (start, exec_us, finish, death)."""
        nonlocal busy_us, span_end
        start = start_on(card, at)
        if not math.isfinite(start):
            # the card died for good between batch formation and
            # dispatch; the serving tier discovers it at dispatch time
            return math.inf, 0.0, math.inf, at
        exec_us = latency_model(size)
        if faults is not None:
            exec_us *= faults.card_slowdown(card, start)
        finish = start + exec_us
        death = (faults.card_failure_in(card, start, finish)
                 if faults is not None else None)
        if death is not None:
            # the in-flight batch dies with the card; the card comes
            # back (or not) on the fault plan's schedule
            free[card] = (faults.card_available_at(card, death)
                          if faults is not None else death)
            busy_us += death - start
            span_end = max(span_end, death)
            return start, exec_us, finish, death
        free[card] = finish
        busy_us += exec_us
        span_end = max(span_end, finish)
        return start, exec_us, finish, None

    while pending:
        head_t = pending[0][0]
        # fault-aware earliest-free card (deterministic tie: lowest index)
        eff = [start_on(c, head_t) for c in range(cfg.num_cards)]
        card = min(range(cfg.num_cards), key=lambda c: (eff[c], c))
        device_free = eff[card]

        deadline_window = head_t + batching.max_wait_us
        dispatch_at = max(deadline_window, device_free)

        members: List[_Attempt] = []
        while (pending and len(members) < batching.max_batch
               and pending[0][0] <= dispatch_at):
            members.append(heapq.heappop(pending))
        if len(members) == batching.max_batch:
            dispatch_at = max(members[-1][0], device_free)
        ready = min(dispatch_at,
                    members[-1][0] if len(members) == batching.max_batch
                    else deadline_window)

        # -- load shedding: requests still waiting beyond the depth cap
        if cfg.shed_queue_depth and pending:
            eligible = [e for e in pending if e[0] <= dispatch_at]
            excess = len(eligible) - cfg.shed_queue_depth
            if excess > 0:
                doomed = set(sorted(eligible)[-excess:])
                pending = [e for e in pending if e not in doomed]
                heapq.heapify(pending)
                for t, _seq, r, attempt in sorted(doomed):
                    status[r] = STATUS_SHED
                    attempts_out[r] = attempt + 1
                    retry_overhead[r] = t - arrivals[r]
                    abort_us[r] = dispatch_at
                    batch_wait[r] = max(0.0, min(ready, dispatch_at) - t)
                    queue_wait[r] = dispatch_at - max(ready, t)
                    latencies[r] = dispatch_at - arrivals[r]
                    span_end = max(span_end, dispatch_at)

        # -- dispatch-time deadline check: don't waste device time on
        #    members that have already missed
        if cfg.deadline_us:
            survivors = []
            for t, seq, r, attempt in members:
                if dispatch_at > t + cfg.deadline_us:
                    finish_attempt(r, attempt, t, t + cfg.deadline_us,
                                   STATUS_TIMEOUT, ready, math.inf)
                else:
                    survivors.append((t, seq, r, attempt))
            members = survivors
            if not members:
                continue

        size = len(members)

        if not math.isfinite(device_free):
            # every card is gone for good: the batch can never dispatch
            for t, _seq, r, attempt in members:
                finish_attempt(r, attempt, t, max(ready, t),
                               STATUS_FAILED, ready, math.inf)
            continue

        # -- dispatch (possibly hedged on the two earliest-free cards)
        copies = [run_copy(card, dispatch_at, size)]
        cards_used = [card]
        if (cfg.hedge_after_us and cfg.num_cards > 1
                and dispatch_at - ready > cfg.hedge_after_us):
            others = [c for c in range(cfg.num_cards)
                      if c != card and math.isfinite(start_on(c, dispatch_at))]
            if others:
                hedge = min(others,
                            key=lambda c: (start_on(c, dispatch_at), c))
                copies.append(run_copy(hedge, dispatch_at, size))
                cards_used.append(hedge)
                hedged_batches += 1

        alive = [(fin, idx) for idx, (_s, _e, fin, death)
                 in enumerate(copies) if death is None]
        if not alive:
            # every copy died with its card mid-execute
            lost_at = max(death for _s, _e, _f, death in copies)
            for t, _seq, r, attempt in members:
                finish_attempt(r, attempt, t, lost_at, STATUS_FAILED,
                               ready, copies[0][0])
            continue
        finish, winner = min(alive)
        start, exec_us = copies[winner][0], copies[winner][1]
        if winner != 0:
            hedge_wins += 1

        # -- completion-time deadline check
        late: List[_Attempt] = []
        done: List[_Attempt] = []
        if cfg.deadline_us:
            for m in members:
                (late if finish > m[0] + cfg.deadline_us else done).append(m)
        else:
            done = members

        k = len(batches)
        for t, _seq, r, attempt in done:
            status[r] = STATUS_SERVED
            attempts_out[r] = attempt + 1
            retry_overhead[r] = t - arrivals[r]
            latencies[r] = finish - arrivals[r]
            batch_wait[r] = max(0.0, ready - t)
            queue_wait[r] = start - max(t, ready)
            execute[r] = exec_us
            batch_index[r] = k
            served += 1
        for t, _seq, r, attempt in late:
            finish_attempt(r, attempt, t, t + cfg.deadline_us,
                           STATUS_TIMEOUT, ready, start)

        depth = sum(1 for e in pending if e[0] <= dispatch_at)
        batch_sizes.append(size)
        batches.append(BatchRecord(
            index=k, size=size, first_arrival_us=float(members[0][0]),
            ready_us=float(ready), dispatch_us=float(start),
            finish_us=float(finish), queue_depth=depth))

    span_us = span_end - arrivals[0] if n else 0.0
    report = ServingReport(
        qps_offered=qps,
        qps_served=served / (span_us / 1e6) if span_us > 0 else 0.0,
        latencies_us=latencies,
        batch_sizes=batch_sizes,
        busy_fraction=(min(1.0, busy_us / (span_us * cfg.num_cards))
                       if span_us > 0 else 0.0),
        queue_wait_us=queue_wait,
        batch_wait_us=batch_wait,
        execute_us=execute,
        arrivals_us=arrivals,
        batch_index=batch_index,
        batches=batches,
        status=status,
        retry_overhead_us=retry_overhead,
        attempts=attempts_out,
        abort_us=abort_us,
        hedged_batches=hedged_batches,
        hedge_wins=hedge_wins,
    )
    if collect_telemetry:
        from repro.serving.telemetry import ServingTelemetry
        report.telemetry = ServingTelemetry.from_report(report,
                                                        replica=replica)
    if registry is None:
        from repro.obs.metrics import default_registry
        registry = default_registry()
    if registry is not None:
        _record_metrics(registry, report, batching)
    return report
