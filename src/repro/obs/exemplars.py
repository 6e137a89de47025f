"""Tail-biased exemplar sampling: full detail for the requests that matter.

Drawing a waterfall for *every* request is exact but O(traffic)
memory.  At fleet scale only two cohorts justify full
span trees:

* the **slowest k** requests — always retained, exactly (these are the
  requests a tail post-mortem replays);
* a small **seeded reservoir** of everything else — an unbiased sample
  for "what does a normal request look like" comparisons.

Everything else folds into sketches and windowed series.

Both cohorts are selected by *order-invariant* rules so per-replica
stores merge into the same fleet store regardless of merge order:

* slowest-k is a top-k by ``(-latency, replica, request_id)`` — a total
  order, so ties break identically everywhere;
* the reservoir uses **bottom-k priority sampling**: each record gets a
  deterministic pseudo-random priority from a seeded integer hash of
  ``(seed, replica, request_id)``, and the store keeps the k smallest
  priorities.  Unlike classic reservoir sampling (order-dependent by
  construction), bottom-k over a fixed priority function is a pure
  function of the record *set* — merge in any order, get the same
  sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["ExemplarRecord", "ExemplarStore", "priority_hash",
           "priority_hashes"]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 round — a fast, well-mixed 64-bit integer hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def priority_hash(seed: int, replica: int, request_id: int) -> float:
    """Deterministic priority in [0, 1) for bottom-k sampling."""
    h = _splitmix64(_splitmix64(seed & _MASK64) ^ _splitmix64(
        ((replica & 0xFFFFFFFF) << 32) | (request_id & 0xFFFFFFFF)))
    return h / float(1 << 64)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` over a uint64 array (multiplies wrap mod 2^64)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def priority_hashes(seed: int, replica: int, request_ids) -> np.ndarray:
    """:func:`priority_hash` for every id in ``request_ids``, bit for bit."""
    ids = np.asarray(request_ids, dtype=np.int64) & 0xFFFFFFFF
    mixed = _splitmix64_array(
        ids.astype(np.uint64) | np.uint64((replica & 0xFFFFFFFF) << 32))
    h = _splitmix64_array(mixed ^ np.uint64(_splitmix64(seed & _MASK64)))
    # uint64 -> float64 rounds to nearest, as Python's int -> float does
    return h.astype(np.float64) / float(1 << 64)


def _bottom_k(primary: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` entries of ``ids`` smallest by ``(primary, id)``."""
    if k <= 0:
        return ids[:0]
    if primary.size > k:
        # keep everything tied with the k-th value; lexsort settles ties
        keep = primary <= np.partition(primary, k - 1)[k - 1]
        primary, ids = primary[keep], ids[keep]
    return ids[np.lexsort((ids, primary))[:k]]


@dataclass(frozen=True)
class ExemplarRecord:
    """One retained request, with everything a span tree needs."""

    replica: int
    request_id: int
    arrival_us: float
    latency_us: float
    queue_wait_us: float
    batch_wait_us: float
    execute_us: float
    batch_index: int
    batch_size: int
    status: str = "served"
    retry_overhead_us: float = 0.0

    def to_dict(self) -> Dict:
        return {"replica": self.replica, "request": self.request_id,
                "arrival_us": self.arrival_us,
                "latency_us": self.latency_us,
                "queue_wait_us": self.queue_wait_us,
                "batch_wait_us": self.batch_wait_us,
                "execute_us": self.execute_us,
                "retry_overhead_us": self.retry_overhead_us,
                "batch": self.batch_index, "batch_size": self.batch_size,
                "status": self.status}


@dataclass
class ExemplarStore:
    """Bounded, mergeable store of slowest-k + reservoir exemplars."""

    slowest_k: int = 8
    reservoir_size: int = 16
    seed: int = 0
    #: (sort key, record) — kept sorted ascending by key
    _slowest: List[Tuple[Tuple[float, int, int], ExemplarRecord]] = field(
        default_factory=list)
    _reservoir: List[Tuple[Tuple[float, int, int], ExemplarRecord]] = field(
        default_factory=list)

    def offer(self, record: ExemplarRecord) -> None:
        """Consider one request for retention (served requests only)."""
        skey = (-record.latency_us, record.replica, record.request_id)
        self._insert(self._slowest, skey, record, self.slowest_k)
        pkey = (priority_hash(self.seed, record.replica, record.request_id),
                record.replica, record.request_id)
        self._insert(self._reservoir, pkey, record, self.reservoir_size)

    def shortlist(self, replica: int, request_ids,
                  latency_us) -> np.ndarray:
        """Ids of one replica's requests that :meth:`offer` could retain.

        The union of the ``slowest_k`` slowest and the
        ``reservoir_size`` lowest-priority requests, each chosen by the
        same key :meth:`offer` sorts on.  Offering only these leaves the
        store exactly as offering every request would: the top k of
        (store ∪ batch) is the top k of (store ∪ top k of batch).
        """
        ids = np.asarray(request_ids, dtype=np.int64)
        latency = np.asarray(latency_us, dtype=float)
        slowest = _bottom_k(-latency, ids, self.slowest_k)
        sampled = _bottom_k(priority_hashes(self.seed, replica, ids), ids,
                            self.reservoir_size)
        return np.union1d(slowest, sampled)

    @staticmethod
    def _insert(store: List, key, record: ExemplarRecord,
                capacity: int) -> None:
        if capacity <= 0:
            return
        import bisect
        keys = [k for k, _r in store]
        pos = bisect.bisect_left(keys, key)
        if pos >= capacity:
            return
        store.insert(pos, (key, record))
        if len(store) > capacity:
            store.pop()

    def merge(self, other: "ExemplarStore") -> "ExemplarStore":
        """Fold another store in (in place; returns self).

        Selection keys are total orders over the union, so the merged
        store equals a single store that saw every record — in any
        merge order (the conformance determinism pillar asserts this).
        """
        if other.seed != self.seed:
            raise ValueError("cannot merge exemplar stores with different "
                             f"seeds: {self.seed} vs {other.seed}")
        for key, record in other._slowest:
            self._insert(self._slowest, key, record, self.slowest_k)
        for key, record in other._reservoir:
            self._insert(self._reservoir, key, record, self.reservoir_size)
        return self

    # -- queries ---------------------------------------------------------
    @property
    def slowest(self) -> List[ExemplarRecord]:
        """Slowest-k records, slowest first (exact, always retained)."""
        return [record for _key, record in self._slowest]

    @property
    def reservoir(self) -> List[ExemplarRecord]:
        """The seeded uniform sample, in priority order."""
        return [record for _key, record in self._reservoir]

    def slowest_ids(self) -> List[Tuple[int, int]]:
        """(replica, request_id) pairs of the retained slowest-k."""
        return [(r.replica, r.request_id) for r in self.slowest]

    def to_dict(self) -> Dict:
        return {"slowest_k": self.slowest_k,
                "reservoir_size": self.reservoir_size,
                "seed": self.seed,
                "slowest": [r.to_dict() for r in self.slowest],
                "reservoir": [r.to_dict() for r in self.reservoir]}

    @classmethod
    def from_dict(cls, data: Dict) -> "ExemplarStore":
        out = cls(slowest_k=data["slowest_k"],
                  reservoir_size=data["reservoir_size"], seed=data["seed"])
        for row in data["slowest"] + data["reservoir"]:
            out.offer(ExemplarRecord(
                replica=row["replica"], request_id=row["request"],
                arrival_us=row["arrival_us"], latency_us=row["latency_us"],
                queue_wait_us=row["queue_wait_us"],
                batch_wait_us=row["batch_wait_us"],
                execute_us=row["execute_us"],
                retry_overhead_us=row.get("retry_overhead_us", 0.0),
                batch_index=row["batch"], batch_size=row["batch_size"],
                status=row.get("status", "served")))
        return out
