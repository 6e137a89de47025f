"""Request-level serving simulation: the one batching/dispatch engine.

A serving tier of ``num_cards`` accelerator cards serves a Poisson (or
injected) stream of single-sample inference requests through a batching
front end: requests accumulate until either ``max_batch`` are waiting or
the oldest has waited ``max_wait_us``; the batch then executes for the
model's batch-dependent latency (from the analytical operator model),
during which further arrivals queue.

This is the mechanism behind the paper's latency/batch-size tension:
larger batches raise hardware utilisation ("the kernels are able to
better amortize the setup costs", Section 6.1) but serving "under
stringent latency requirements" caps how large a batch the SLA allows.

:func:`simulate_serving` also carries the failure handling a production
tier layers on top (all off by default, see :class:`ResilienceConfig`):
per-attempt deadlines, capped-backoff retries, hedged dispatch, load
shedding, and card failover driven by an attached
:class:`~repro.faults.FaultInjector`.  With the defaults and no faults
it is the plain single-card batching simulation.

Beyond aggregate percentiles, the simulation attributes *every* request
microsecond to a phase (so tail requests can be explained, not just
counted — see :mod:`repro.serving.tail`):

* ``retry_overhead`` — time burned on attempts that did not serve the
  request (failed attempts plus backoff); zero without retries;
* ``batch_wait`` — enqueue until the batch is complete-and-eligible
  (the window expired or ``max_batch`` attempts are in);
* ``queue_wait`` — batch ready but the device still busy with its
  predecessor (head-of-line blocking);
* ``execute`` — dispatch to finish.

``queue_wait + batch_wait + retry_overhead + execute == latency``
exactly, per request; aborted requests have their phases truncated at
the abort instant, so the identity holds for them too.  Request
waterfalls are drawn post-hoc from the finished report
(:func:`repro.serving.telemetry.emit_exemplar_spans`), so tracing can
never perturb the simulation.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


def check_arrivals(arrivals) -> np.ndarray:
    """``arrivals`` as a float array of valid arrival times (us).

    Raises ``ValueError`` unless every time is finite and non-negative
    and the times are sorted (ties allowed).  Every entry point that
    accepts explicit arrivals calls this before doing any work.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    if not np.all(np.isfinite(arrivals)):
        raise ValueError("arrival times must be finite")
    if arrivals.size > 1 and np.any(np.diff(arrivals) < 0):
        raise ValueError("arrival times must be non-decreasing")
    if arrivals.size and arrivals[0] < 0:     # sorted: [0] is the min
        raise ValueError("arrival times must be non-negative")
    return arrivals


def resolve_arrivals(qps: float, num_requests: int, seed: int,
                     arrivals=None):
    """The arrival stream of one serving run: drawn or injected.

    With ``arrivals=None`` (the historical path) a Poisson stream is
    drawn from ``seed`` at rate ``qps`` — bit-identical to what the
    simulators always produced.  A fleet router instead *injects* the
    arrival subsequence it assigned to this replica; the replica engine
    then consumes it verbatim (sorted, in microseconds).  Returns
    ``(arrivals, qps)`` where ``qps`` falls back to the stream's own
    offered rate when the caller passed ``qps <= 0`` alongside explicit
    arrivals (an empty replica simply offers 0).
    """
    if arrivals is None:
        if not qps > 0:                     # also rejects NaN
            raise ValueError("qps must be positive")
        rng = np.random.default_rng(seed)
        inter_us = rng.exponential(1e6 / qps, size=num_requests)
        return np.cumsum(inter_us), qps
    arrivals = check_arrivals(arrivals)
    if qps <= 0:
        span_us = (float(arrivals[-1] - arrivals[0])
                   if arrivals.size > 1 else 0.0)
        qps = (arrivals.size / (span_us / 1e6) if span_us > 0
               else float(arrivals.size))
    return arrivals, qps


@dataclass(frozen=True)
class BatchingConfig:
    max_batch: int = 256
    max_wait_us: float = 200.0


@dataclass(frozen=True)
class ResilienceConfig:
    """Serving-tier failure-handling knobs (0 = feature disabled)."""

    #: per-attempt deadline from enqueue to finish; 0 disables timeouts
    deadline_us: float = 0.0
    #: re-enqueue budget after a timeout/failure; 0 aborts immediately
    max_retries: int = 0
    #: first backoff; attempt ``a`` waits ``backoff * 2**a``, capped
    retry_backoff_us: float = 100.0
    backoff_cap_us: float = 1600.0
    #: hedge batches that sat queued longer than this; 0 disables
    hedge_after_us: float = 0.0
    #: waiting requests beyond this depth are shed at dispatch; 0 = keep all
    shed_queue_depth: int = 0
    #: identical cards behind one queue (failover capacity)
    num_cards: int = 1

    def __post_init__(self) -> None:
        if self.num_cards < 1:
            raise ValueError("num_cards must be >= 1")
        for name in ("deadline_us", "max_retries", "retry_backoff_us",
                     "backoff_cap_us", "hedge_after_us",
                     "shed_queue_depth"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def backoff_us(self, attempt: int) -> float:
        """Backoff before re-enqueueing attempt ``attempt + 1``."""
        return min(self.retry_backoff_us * (2.0 ** attempt),
                   self.backoff_cap_us)


#: Request outcome codes (``ServingReport.status``).  Anything but
#: SERVED is an *abort*: excluded from latency quantiles, counted
#: against availability (see ``ServingReport.availability``).
STATUS_SERVED = 0      #: completed and delivered in time
STATUS_SHED = 1        #: dropped at admission (queue saturation)
STATUS_TIMEOUT = 2     #: missed its deadline, retry budget exhausted
STATUS_FAILED = 3      #: lost to a card failure, retry budget exhausted
STATUS_NAMES = ("served", "shed", "timeout", "failed")


@dataclass
class BatchRecord:
    """One dispatched batch: when it formed, ran, and what it held."""

    index: int
    size: int
    first_arrival_us: float    #: enqueue time of the oldest member
    ready_us: float            #: complete-and-eligible (window/full)
    dispatch_us: float         #: device actually started
    finish_us: float
    queue_depth: int           #: requests still waiting at dispatch

    @property
    def execute_us(self) -> float:
        return self.finish_us - self.dispatch_us

    def to_dict(self) -> Dict:
        return {"index": self.index, "size": self.size,
                "first_arrival_us": self.first_arrival_us,
                "ready_us": self.ready_us,
                "dispatch_us": self.dispatch_us,
                "finish_us": self.finish_us,
                "execute_us": self.execute_us,
                "queue_depth": self.queue_depth}


class OutcomeQueries:
    """Outcome queries over per-request ``status`` / ``latencies_us`` /
    ``arrivals_us`` arrays, shared by :class:`ServingReport` and the
    fleet's :class:`~repro.serving.fleet.FleetReport`."""

    @property
    def served_mask(self) -> np.ndarray:
        """Boolean mask of served requests."""
        return self.status == STATUS_SERVED

    @property
    def availability(self) -> float:
        """Fraction of offered requests actually served (1.0 = no aborts).

        Aborted requests (shed/timeout/failed) count against availability
        but are *excluded* from latency quantiles — a shed request has no
        meaningful latency, and folding abort times into percentiles
        would let load shedding "improve" the p99.
        """
        n = self.arrivals_us.size
        if n == 0:
            return 1.0
        return float(np.count_nonzero(self.served_mask)) / n

    def counts_by_status(self) -> Dict[str, int]:
        """Request counts keyed by outcome name."""
        return {name: int(np.count_nonzero(self.status == code))
                for code, name in enumerate(STATUS_NAMES)}

    def percentile(self, q: float) -> float:
        """Latency percentile over *served* requests only."""
        lat = self.latencies_us[self.served_mask]
        if lat.size == 0:
            return float("nan")
        return float(np.percentile(lat, q))

    @property
    def p50_us(self) -> float:
        return self.percentile(50)

    @property
    def p99_us(self) -> float:
        return self.percentile(99)

    def meets_sla(self, sla_us: float, q: float = 99.0) -> bool:
        p = self.percentile(q)
        return bool(p <= sla_us)   # NaN (empty run) never meets an SLA


@dataclass
class ServingReport(OutcomeQueries):
    """What one serving simulation measured.

    Every per-request array aligns with ``arrivals_us`` (one entry per
    offered request, served or aborted).
    """

    qps_offered: float
    qps_served: float
    latencies_us: np.ndarray
    batch_sizes: List[int]
    busy_fraction: float
    #: per-request phase attribution; with ``retry_overhead_us`` the
    #: phases sum to the request's latency
    queue_wait_us: np.ndarray
    batch_wait_us: np.ndarray
    execute_us: np.ndarray
    arrivals_us: np.ndarray
    #: index into ``batches`` for each served request (-1 if aborted)
    batch_index: np.ndarray
    batches: List[BatchRecord]
    #: per-request outcome (``STATUS_*``)
    status: np.ndarray
    #: microseconds a request spent on attempts that did *not* serve it
    #: (timeout/failure + backoff before the successful attempt)
    retry_overhead_us: np.ndarray
    #: dispatch attempts per request (1 = first try succeeded)
    attempts: np.ndarray
    #: abort instant for non-served requests (NaN for served ones)
    abort_us: np.ndarray
    #: batches dispatched twice (hedged) and how often the hedge won
    hedged_batches: int = 0
    hedge_wins: int = 0
    #: bounded mergeable telemetry (:class:`ServingTelemetry`), attached
    #: when the simulation ran with ``collect_telemetry=True``
    telemetry: Optional[object] = None

    @property
    def mean_batch(self) -> float:
        return float(np.mean(self.batch_sizes)) if self.batch_sizes else 0.0

    # -- request-phase queries -------------------------------------------
    def breakdown_means(self) -> Dict[str, float]:
        """Mean microseconds per phase across *served* requests."""
        mask = self.served_mask
        if not mask.any():
            return {"queue_wait": 0.0, "batch_wait": 0.0, "execute": 0.0,
                    "retry_overhead": 0.0}
        return {name: float(getattr(self, f"{name}_us")[mask].mean())
                for name in ("queue_wait", "batch_wait", "execute",
                             "retry_overhead")}

    def queue_depth_series(self) -> Dict[str, List[float]]:
        """Queue depth sampled at each dispatch instant."""
        return {"time_us": [b.dispatch_us for b in self.batches],
                "depth": [float(b.queue_depth) for b in self.batches]}

    def batch_occupancy_series(self, max_batch: int) -> Dict[str, List[float]]:
        """Dispatched batch size as a fraction of ``max_batch``."""
        return {"time_us": [b.dispatch_us for b in self.batches],
                "occupancy": [b.size / max_batch for b in self.batches]}

    def request_rows(self, limit: Optional[int] = None) -> List[Dict]:
        """Per-request breakdown rows (JSON-ready), optionally capped."""
        n = self.latencies_us.size
        if limit is not None:
            n = min(n, limit)
        rows = []
        for r in range(n):
            b = int(self.batch_index[r])
            row = {
                "request": r,
                "arrival_us": float(self.arrivals_us[r]),
                "queue_wait_us": float(self.queue_wait_us[r]),
                "batch_wait_us": float(self.batch_wait_us[r]),
                "execute_us": float(self.execute_us[r]),
                "latency_us": float(self.latencies_us[r]),
                "batch": b,
                "batch_size": self.batches[b].size if 0 <= b < len(
                    self.batches) else 0,
                "status": STATUS_NAMES[int(self.status[r])],
                "attempts": int(self.attempts[r]),
                "retry_overhead_us": float(self.retry_overhead_us[r]),
            }
            rows.append(row)
        return rows


class BatchLatencyModel:
    """Caches per-batch-size model latency from the analytical stack.

    Also retains each candidate batch's :class:`GraphEstimate`, so the
    tail-attribution layer can ask "what *operator mix* did a batch of
    this size execute" without re-running the model.
    """

    def __init__(self, model_config, machine,
                 candidate_batches=(1, 2, 4, 8, 16, 32, 64, 128, 256)):
        from repro.eval.opmodel import estimate_graph
        from repro.models.dlrm import build_dlrm_graph
        from repro.runtime.executor import GraphExecutor

        self.latency_us: Dict[int, float] = {}
        self.estimates: Dict[int, object] = {}
        for batch in candidate_batches:
            graph = build_dlrm_graph(model_config, batch)
            executor = GraphExecutor(machine, mode="graph")
            placement = executor.compile(graph)
            estimate = estimate_graph(
                machine, graph,
                placement if machine.family == "mtia" else None)
            self.latency_us[batch] = estimate.total_seconds * 1e6
            self.estimates[batch] = estimate
        self._batches = sorted(self.latency_us)

    def candidate_for(self, batch: int) -> int:
        """The candidate batch size used for an arbitrary batch."""
        idx = bisect_left(self._batches, batch)
        idx = min(idx, len(self._batches) - 1)
        return self._batches[idx]

    def __call__(self, batch: int) -> float:
        """Latency for an arbitrary batch (ceil to the next candidate)."""
        return self.latency_us[self.candidate_for(batch)]

    def estimate_for(self, batch: int):
        """The :class:`GraphEstimate` behind ``self(batch)``."""
        return self.estimates[self.candidate_for(batch)]

    def category_fractions(self, batch: int) -> Dict[str, float]:
        """Operator-category time mix for a batch of this size."""
        return self.estimate_for(batch).category_fractions()


#: one pending dispatch attempt: (enqueue time, tie-break seq, request,
#: attempt#); an original arrival has ``seq == request``, a retry
#: ``seq >= n``, so same-instant ties resolve deterministically
_Attempt = Tuple[float, int, int, int]


def simulate_serving(latency_model: Callable[[int], float],
                     qps: float,
                     batching: BatchingConfig = BatchingConfig(),
                     resilience: ResilienceConfig = ResilienceConfig(),
                     num_requests: int = 5000,
                     seed: int = 0,
                     faults=None,
                     registry=None,
                     collect_telemetry: bool = False,
                     replica: int = 0,
                     arrivals: Optional[np.ndarray] = None) -> ServingReport:
    """Simulate serving ``num_requests`` Poisson arrivals at ``qps``.

    ``latency_model(batch_size)`` returns the execution latency in
    microseconds; a value that is negative, infinite or NaN raises
    ``ValueError``.  One FIFO queue feeds ``resilience.num_cards`` cards,
    one in-flight batch per card (the runtime's default stream); each
    batch goes to the earliest-free card (lowest index on ties).

    ``resilience`` switches on the failure handling:

    * **deadlines** — each attempt must dispatch *and* finish within
      ``deadline_us`` of being enqueued; late attempts are abandoned (at
      dispatch, before wasting device time, or at completion, after it);
    * **retries** — abandoned attempts re-enqueue after a capped
      exponential backoff, up to ``max_retries`` times;
    * **hedging** — a batch that sat queued longer than
      ``hedge_after_us`` dispatches on the *two* earliest-free cards;
      the first surviving copy wins, the loser's device time is wasted;
    * **load shedding** — attempts beyond ``shed_queue_depth`` still
      waiting at a dispatch instant are dropped (newest first).

    ``faults`` is an optional :class:`~repro.faults.FaultInjector`
    whose ``card.failure`` / ``card.slowdown`` events (microsecond
    domain) drive card outages and slow cards; in-flight batches on a
    failing card die and retry elsewhere.  All randomness lives in the
    arrival stream (``seed``) and the injector's *pre-drawn* plan, so a
    (seed, plan) pair replays exactly, and an injector armed with an
    empty plan is bit-identical to ``faults=None``.

    ``registry`` (or the opt-in :func:`repro.obs.default_registry`)
    receives the request-latency histogram (p50/p95/p99 via the
    ``serving_latency_us`` instrument), per-phase wait histograms,
    batch-size/occupancy histograms, queue-depth samples, outcome
    counters, and availability / device-busy-fraction gauges.

    ``collect_telemetry=True`` attaches a
    :class:`~repro.serving.telemetry.ServingTelemetry` (quantile
    sketches, windowed series, tail exemplars tagged ``replica``) to
    ``report.telemetry``.  Telemetry is derived *from* the finished
    report, so it can never perturb the simulation either.

    ``arrivals`` injects an explicit (sorted, microsecond) arrival
    vector instead of drawing a Poisson stream — the fleet layer routes
    a traffic trace and hands each replica its assigned subsequence.
    """
    cfg = resilience
    arrivals, qps = resolve_arrivals(qps, num_requests, seed, arrivals)

    n = int(arrivals.size)
    arr = arrivals.tolist()
    latencies = np.zeros(n)
    queue_wait = np.zeros(n)
    batch_wait = np.zeros(n)
    execute = np.zeros(n)
    retry_overhead = np.zeros(n)
    attempts_out = np.ones(n, dtype=np.int64)
    status = np.zeros(n, dtype=np.int8)     # STATUS_SERVED until aborted
    abort_us = np.full(n, np.nan)
    batch_index = np.full(n, -1, dtype=np.int64)

    batch_sizes: List[int] = []
    batches: List[BatchRecord] = []
    cards = range(cfg.num_cards)
    free = [0.0] * cfg.num_cards
    busy_us = 0.0
    span_end = arrivals[0] if n else 0.0
    served = 0
    hedged_batches = 0
    hedge_wins = 0
    retry_seq = n

    # The pending queue in (t, seq) order is the merge of two sorted
    # parts: the originals ``arr[i:]`` not yet taken (a cursor into the
    # sorted arrivals, so counts and members come from bisection), and
    # ``side`` — retries plus any shed-surviving originals the cursor
    # moved past.  A run that neither retries nor sheds leaves it empty.
    i = 0
    side: List[_Attempt] = []

    def take(limit: int, until: float) -> Tuple[int, int, int, int]:
        """The first ``limit`` pending attempts enqueued by ``until``.

        Returns ``(a, b, hi, m)``: those attempts are ``arr[i:i + a]``
        and ``side[:b]``, while ``arr[i:hi]`` and ``side[:m]`` are all
        the attempts enqueued by ``until``.
        """
        hi = bisect_right(arr, until, i)
        m = bisect_right(side, (until, math.inf)) if side else 0
        # binary search for b: side[b] is among the first ``limit``
        # iff fewer than ``limit - b`` originals precede it.  Those are
        # the originals enqueued by its time: a retry follows equal-time
        # originals (larger seq), and a moved original is older than
        # every original still behind the cursor.
        b, top = 0, min(m, limit)
        while b < top:
            mid = (b + top) // 2
            before = bisect_right(arr, side[mid][0], i, hi) - i
            if mid + before < limit:
                b = mid + 1
            else:
                top = mid
        return min(limit - b, hi - i), b, hi, m

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
            insort(side, (next_t, retry_seq, r, attempt + 1))
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

    def fail_each(who, t, att, expired, fail_at, failed_status, ready,
                  dispatch):
        """``finish_attempt`` for the ``expired`` members, in order;
        returns the rest as ``(who, t, att)``."""
        who = _request_ids(who)
        if att is None:
            att = np.zeros(who.size, dtype=np.int64)
        for k in np.flatnonzero(expired).tolist():
            tk = float(t[k])
            finish_attempt(int(who[k]), int(att[k]), tk,
                           fail_at(tk), failed_status, ready, dispatch)
        keep = ~expired
        return who[keep], t[keep], att[keep]

    def shed(who, t, att, at: float, ready: float) -> None:
        """Drop the attempts ``who`` at admission, at instant ``at``."""
        status[who] = STATUS_SHED
        attempts_out[who] = att + 1
        retry_overhead[who] = t - arrivals[who]
        abort_us[who] = at
        batch_wait[who] = np.maximum(0.0, min(ready, at) - t)
        queue_wait[who] = at - np.maximum(ready, t)
        latencies[who] = at - arrivals[who]

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
        if not 0.0 <= exec_us < math.inf:
            raise ValueError(f"latency_model({size}) returned {exec_us!r}; "
                             "expected a finite, non-negative latency")
        if faults is not None:
            exec_us *= faults.card_slowdown(card, start)
        finish = start + exec_us
        death = (faults.card_failure_in(card, start, finish)
                 if faults is not None else None)
        if death is not None:
            # the in-flight batch dies with the card; the card comes
            # back (or not) on the fault plan's schedule
            free[card] = faults.card_available_at(card, death)
            busy_us += death - start
            span_end = max(span_end, death)
            return start, exec_us, finish, death
        free[card] = finish
        busy_us += exec_us
        span_end = max(span_end, finish)
        return start, exec_us, finish, None

    while i < n or side:
        head_t = min(arr[i] if i < n else math.inf,
                     side[0][0] if side else math.inf)
        # fault-aware earliest-free card (deterministic tie: lowest index)
        eff = [start_on(c, head_t) for c in cards]
        device_free = min(eff)
        card = eff.index(device_free)

        deadline_window = head_t + batching.max_wait_us
        dispatch_at = max(deadline_window, device_free)

        # -- batch formation: the oldest max_batch attempts by dispatch;
        #    members are requests ``who`` (a slice while they are all
        #    first attempts straight off the cursor, ``att is None``)
        #    enqueued at ``t`` on attempt ``att``
        a, b, _, _ = take(batching.max_batch, dispatch_at)
        if b:
            members = list(heapq.merge(
                side[:b], [(arr[r], r, r, 0) for r in range(i, i + a)]))
            del side[:b]
            who = np.array([m[2] for m in members], dtype=np.int64)
            t = np.array([m[0] for m in members])
            att = np.array([m[3] for m in members], dtype=np.int64)
        else:
            who, t, att = slice(i, i + a), arrivals[i:i + a], None
        i += a
        last_t = float(t[-1])
        full = a + b == batching.max_batch
        if full:
            dispatch_at = max(last_t, device_free)
        ready = min(dispatch_at, last_t if full else deadline_window)

        # -- load shedding: attempts still waiting beyond the depth cap
        if cfg.shed_queue_depth:
            keep_a, keep_b, hi, m = take(cfg.shed_queue_depth, dispatch_at)
            if hi - i + m > cfg.shed_queue_depth:
                doomed = side[keep_b:m]
                side[:m] = heapq.merge(
                    side[:keep_b],
                    [(arr[r], r, r, 0) for r in range(i, i + keep_a)])
                shed(np.arange(i + keep_a, hi), arrivals[i + keep_a:hi],
                     0, dispatch_at, ready)
                if doomed:
                    shed(np.array([d[2] for d in doomed], dtype=np.int64),
                         np.array([d[0] for d in doomed]),
                         np.array([d[3] for d in doomed], dtype=np.int64),
                         dispatch_at, ready)
                i = hi
                span_end = max(span_end, dispatch_at)

        # -- dispatch-time deadline check: don't waste device time on
        #    members that have already missed
        if cfg.deadline_us:
            expired = dispatch_at > t + cfg.deadline_us
            if expired.any():
                who, t, att = fail_each(
                    who, t, att, expired,
                    lambda tk: tk + cfg.deadline_us, STATUS_TIMEOUT,
                    ready, math.inf)
                if not who.size:
                    continue

        size = len(t)

        if not math.isfinite(device_free):
            # every card is gone for good: the batch can never dispatch
            fail_each(who, t, att, np.ones(size, dtype=bool),
                      lambda tk: max(ready, tk), STATUS_FAILED, ready,
                      math.inf)
            continue

        # -- dispatch (possibly hedged on the two earliest-free cards)
        copies = [run_copy(card, dispatch_at, size)]
        if (cfg.hedge_after_us and cfg.num_cards > 1
                and dispatch_at - ready > cfg.hedge_after_us):
            others = [c for c in cards
                      if c != card and math.isfinite(start_on(c, dispatch_at))]
            if others:
                hedge = min(others,
                            key=lambda c: (start_on(c, dispatch_at), c))
                copies.append(run_copy(hedge, dispatch_at, size))
                hedged_batches += 1

        alive = [(fin, idx) for idx, (_s, _e, fin, death)
                 in enumerate(copies) if death is None]
        if not alive:
            # every copy died with its card mid-execute
            lost_at = max(death for _s, _e, _f, death in copies)
            fail_each(who, t, att, np.ones(size, dtype=bool),
                      lambda tk: lost_at, STATUS_FAILED, ready,
                      copies[0][0])
            continue
        finish, winner = min(alive)
        start, exec_us = copies[winner][0], copies[winner][1]
        if winner != 0:
            hedge_wins += 1
        first_t = float(t[0])

        # -- completion-time deadline check
        if cfg.deadline_us:
            late = finish > t + cfg.deadline_us
            if late.any():
                who, t, att = fail_each(
                    who, t, att, late, lambda tk: tk + cfg.deadline_us,
                    STATUS_TIMEOUT, ready, start)

        k = len(batches)
        formed = np.maximum(t, ready)    # the batch_wait/queue_wait boundary
        latencies[who] = finish - arrivals[who]
        batch_wait[who] = formed - t
        queue_wait[who] = start - formed
        execute[who] = exec_us
        batch_index[who] = k
        if att is not None:    # first attempts keep overhead 0, 1 attempt
            retry_overhead[who] = t - arrivals[who]
            attempts_out[who] = att + 1
        served += len(t)

        depth = bisect_right(arr, dispatch_at, i) - i
        if side:
            depth += bisect_right(side, (dispatch_at, math.inf))
        batch_sizes.append(size)
        batches.append(BatchRecord(
            index=k, size=size, first_arrival_us=first_t,
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


def _request_ids(who) -> np.ndarray:
    """Batch members as an index array (the engine keeps a slice while
    they are a contiguous run of first attempts)."""
    if isinstance(who, slice):
        return np.arange(who.start, who.stop)
    return who


def _record_metrics(registry, report: ServingReport,
                    batching: BatchingConfig) -> None:
    """Bulk-record one serving run into a metric registry."""
    registry.histogram(
        "serving_latency_us",
        "end-to-end request latency (arrival to batch finish)"
    ).labels().observe_many(report.latencies_us)
    for phase, values in (("queue_wait", report.queue_wait_us),
                          ("batch_wait", report.batch_wait_us),
                          ("execute", report.execute_us)):
        registry.histogram(
            "serving_phase_us",
            "per-request phase attribution (queue/batch/execute)"
        ).labels(phase=phase).observe_many(values)
    registry.histogram(
        "serving_batch_size", "dispatched batch sizes"
    ).labels().observe_many(report.batch_sizes)
    registry.histogram(
        "serving_queue_depth", "queue depth sampled at dispatch"
    ).labels().observe_many([b.queue_depth for b in report.batches])
    registry.counter("serving_requests", "requests served").labels().inc(
        report.latencies_us.size)
    registry.gauge("serving_availability",
                   "fraction of offered requests served").labels().set(
                       report.availability)
    for name, count in report.counts_by_status().items():
        if count:
            registry.counter(
                "serving_outcomes", "requests by outcome"
            ).labels(status=name).inc(count)
    registry.gauge("serving_busy_fraction",
                   "device busy fraction").labels().set(
                       report.busy_fraction)
    registry.gauge("serving_batch_occupancy",
                   "mean batch size / max_batch").labels().set(
                       report.mean_batch / batching.max_batch
                       if batching.max_batch else 0.0)
    if report.telemetry is not None:
        report.telemetry.record_into(registry)
