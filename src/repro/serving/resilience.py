"""Resilient request serving: deadlines, retries, hedging, shedding.

There is one serving engine, :func:`repro.serving.simulator.simulate_serving`;
its failure handling is configured by :class:`ResilienceConfig` and an
optional :class:`~repro.faults.FaultInjector`:

* **deadlines** — each attempt must dispatch *and* finish within
  ``deadline_us`` of being enqueued; late attempts are abandoned (at
  dispatch, before wasting device time, or at completion, after it);
* **retries** — abandoned attempts re-enqueue after a capped
  exponential backoff, up to ``max_retries`` times;
* **hedging** — a batch that sat queued longer than ``hedge_after_us``
  dispatches on the *two* earliest-free cards; the first surviving copy
  wins, the loser's device time is wasted work;
* **load shedding** — arrivals beyond ``shed_queue_depth`` still
  waiting at a dispatch instant are dropped at admission;
* **graceful degradation** — cards fail and recover on the schedule of
  an attached :class:`~repro.faults.FaultInjector` (``card.failure`` /
  ``card.slowdown`` events); in-flight batches on a failing card die
  and retry elsewhere.

Every request keeps the exact attribution invariant::

    queue_wait + batch_wait + retry_overhead + execute == latency

measured on the *final* attempt: ``retry_overhead`` is the time burned
before that attempt was enqueued (failed attempts plus backoff), and
for aborted requests the phases are truncated at the abort instant, so
the identity holds for served and aborted requests alike.

``simulate_serving_resilient`` is the same function object as
``simulate_serving`` (the fleet and the chaos campaign call it by this
name).  Determinism contract: an injector armed with an *empty*
:class:`~repro.faults.FaultPlan` is bit-identical to no injector; the
conformance ``faults`` pillar pins this.
"""

from repro.serving.simulator import ResilienceConfig, simulate_serving

simulate_serving_resilient = simulate_serving

__all__ = ["ResilienceConfig", "simulate_serving_resilient"]
