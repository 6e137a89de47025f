"""Executable specification of the fleet router.

This is the plain per-arrival routing loop that
:func:`repro.serving.fleet.route_requests_vectorised` replaced.  It is
kept verbatim, apart from its imports and its return type, as the
reference the differential tests compare the fast router against, bit
for bit.  It alone can record what the router observed
(``record_probes``): the backlog of both power-of-two probes and of
the chosen replica at each decision, which the property tests read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.serving.fleet import (ReplicaSpec, RouterConfig,
                                 RoutingDecision, _draw_probes)


@dataclass
class RecordedDecision(RoutingDecision):
    """A :class:`RoutingDecision` plus the backlogs the router saw."""

    #: router-visible backlog of each probe at decision time
    probe_backlogs: Optional[np.ndarray] = None
    #: backlog of the chosen replica at decision time
    chosen_backlog: Optional[np.ndarray] = None


def route_requests(arrivals: np.ndarray, router: RouterConfig,
                   specs: Sequence[ReplicaSpec],
                   service_us: np.ndarray,
                   record_probes: bool = False) -> RecordedDecision:
    """Assign every arrival to a replica under one routing policy.

    The router tracks an *estimated* backlog per replica (device-time
    microseconds still queued), drained at each replica's card count
    per wall-microsecond and charged the replica's per-request service
    estimate on every assignment — the load signal a real router
    actually has, not the simulator's ground truth.  All sampling
    randomness (power-of-two probe pairs) is pre-drawn from
    ``router.seed``, so the assignment vector is a pure function of
    ``(arrivals, router, specs, service_us)``.

    Backlog is *charge-time anchored*: each replica keeps its backlog
    as of the last time it was charged, and an arrival at ``t``
    observes ``max(backlog - (t - charged_at) * drain, 0)`` in one
    expression.  That makes the observation a pure function of the
    replica's last charge — the property
    :func:`route_requests_vectorised` exploits — instead of a running
    per-arrival decay chain whose float rounding depends on every
    intervening arrival.

    This is the *reference* implementation: a plain per-arrival loop
    kept deliberately simple so the fast router can be differential-
    tested against it (``tests/serving/test_fleet_vectorised.py``
    asserts bit-identical decisions on every policy).
    """
    n = int(arrivals.size)
    num = len(specs)
    assigned = np.zeros(n, dtype=np.int64)
    hedged = np.full(n, -1, dtype=np.int64)
    backlog = np.zeros(num)
    charged_at = np.full(num, float(arrivals[0]) if n else 0.0)
    drain = np.array([float(s.num_cards) for s in specs])
    policy = router.policy

    probes = _draw_probes(router, n, num)
    probe_backlogs = (np.zeros((n, 2)) if record_probes and probes is not None
                      else None)
    chosen_backlog = np.zeros(n) if record_probes else None

    def observe(r: int, t: float) -> float:
        value = backlog[r] - (t - charged_at[r]) * drain[r]
        return value if value > 0.0 else 0.0

    rr = 0
    for i in range(n):
        t = float(arrivals[i])
        if policy == "round_robin":
            r = rr
            rr = rr + 1 if rr + 1 < num else 0
            obs_r = observe(r, t)
        elif policy == "least_loaded":
            obs = np.maximum(backlog - (t - charged_at) * drain, 0.0)
            r = int(np.argmin(obs))          # ties -> lowest index
            obs_r = float(obs[r])
        else:
            a, b = int(probes[i, 0]), int(probes[i, 1])
            obs_a = observe(a, t)
            obs_b = observe(b, t)
            if probe_backlogs is not None:
                probe_backlogs[i, 0] = obs_a
                probe_backlogs[i, 1] = obs_b
            if obs_a < obs_b or (obs_a == obs_b and a <= b):
                r, obs_r = a, obs_a
            else:
                r, obs_r = b, obs_b
            if (policy == "hedge" and num > 1
                    and obs_r > router.hedge_backlog_us):
                other = b if r == a else a
                if other != r:
                    hedged[i] = other
                    obs_other = obs_b if other == b else obs_a
                    backlog[other] = obs_other + service_us[other]
                    charged_at[other] = t
        if chosen_backlog is not None:
            chosen_backlog[i] = obs_r
        assigned[i] = r
        backlog[r] = obs_r + service_us[r]
        charged_at[r] = t
    return RecordedDecision(assigned=assigned, hedged=hedged, probes=probes,
                            probe_backlogs=probe_backlogs,
                            chosen_backlog=chosen_backlog)
