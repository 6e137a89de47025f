"""Executable specification of per-request telemetry ingest.

This is how :meth:`ServingTelemetry.from_report` built its telemetry
before ingest became bulk: every sample goes through
:meth:`WindowedSeries.record` one at a time, every value through
:meth:`QuantileSketch.add`, and every served request is wrapped in an
:class:`ExemplarRecord` and offered to the exemplar store.  The loops
are kept verbatim (only turned from methods into functions) as the
reference the differential tests compare the bulk path against, bit
for bit.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.obs.exemplars import ExemplarRecord, priority_hash
from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY
from repro.obs.timeseries import DEFAULT_WINDOW_US
from repro.serving.simulator import STATUS_NAMES, ServingReport
from repro.serving.telemetry import PHASES, ServingTelemetry


def add_many(sketch, values) -> None:
    """One :meth:`QuantileSketch.add` per value, in order."""
    for value in np.asarray(values, dtype=float).ravel().tolist():
        sketch.add(value)


def record_many(series, ts_us, values=None) -> None:
    """The per-sample ``WindowedSeries.record_many`` loop."""
    ts = np.asarray(ts_us, dtype=float).ravel()
    if ts.size == 0:
        return
    vals = (np.ones_like(ts) if values is None
            else np.asarray(values, dtype=float).ravel())
    if vals.shape != ts.shape:
        raise ValueError("ts_us and values must align")
    for t, v in zip(ts.tolist(), vals.tolist()):
        series.record(t, v)


def _insert(store, key, record, capacity) -> None:
    if capacity <= 0:
        return
    keys = [k for k, _r in store]
    pos = bisect.bisect_left(keys, key)
    if pos >= capacity:
        return
    store.insert(pos, (key, record))
    if len(store) > capacity:
        store.pop()


def offer(exemplars, record: ExemplarRecord) -> None:
    """``ExemplarStore.offer``: both sorted inserts, per record."""
    skey = (-record.latency_us, record.replica, record.request_id)
    _insert(exemplars._slowest, skey, record, exemplars.slowest_k)
    pkey = (priority_hash(exemplars.seed, record.replica, record.request_id),
            record.replica, record.request_id)
    _insert(exemplars._reservoir, pkey, record, exemplars.reservoir_size)


def from_report(report: ServingReport, replica: int = 0,
                window_us: float = DEFAULT_WINDOW_US,
                relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
                slowest_k: int = 8, reservoir_size: int = 16,
                seed: int = 0) -> ServingTelemetry:
    """The per-request ``ServingTelemetry.from_report``."""
    out = ServingTelemetry(window_us=window_us,
                           relative_accuracy=relative_accuracy,
                           slowest_k=slowest_k,
                           reservoir_size=reservoir_size, seed=seed)
    out.replicas = [int(replica)]
    mask = report.served_mask
    lat = report.latencies_us[mask]
    add_many(out.latency, lat)
    # a run in which no request retried has no retry phase
    retried = bool((report.attempts > 1).any())
    for name in PHASES:
        if name != "retry_overhead" or retried:
            add_many(out.phases[name], getattr(report, f"{name}_us")[mask])
    add_many(out.batch_size, np.asarray(report.batch_sizes, dtype=float))

    for name, count in report.counts_by_status().items():
        out.status_counts[name] += count

    arrivals = report.arrivals_us
    if arrivals.size:
        record_many(out.series["requests"], arrivals)
        finish = arrivals[mask] + lat
        record_many(out.series["latency_us"], finish, lat)
    if report.batches:
        record_many(out.series["queue_depth"],
                    [b.dispatch_us for b in report.batches],
                    [float(b.queue_depth) for b in report.batches])

    retry = report.retry_overhead_us
    status = report.status
    for r in np.flatnonzero(mask).tolist():
        b = int(report.batch_index[r])
        record = ExemplarRecord(
            replica=int(replica), request_id=r,
            arrival_us=float(arrivals[r]),
            latency_us=float(report.latencies_us[r]),
            queue_wait_us=float(report.queue_wait_us[r]),
            batch_wait_us=float(report.batch_wait_us[r]),
            execute_us=float(report.execute_us[r]),
            batch_index=b,
            batch_size=(report.batches[b].size
                        if 0 <= b < len(report.batches) else 0),
            status=STATUS_NAMES[int(status[r])],
            retry_overhead_us=float(retry[r]))
        offer(out.exemplars, record)
    return out
