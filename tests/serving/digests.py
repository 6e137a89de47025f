"""Canonical digests of serving reports and their telemetry.

The golden values in ``test_resilience.py`` were computed with the
report digests from the plain batching simulator that predates the
merged serving engine, so the fault-free semantics (batch boundaries,
phase attribution, every float) stay pinned bit for bit.  Only fields
that simulator reported are digested.  The telemetry golden in
``test_telemetry_differential.py`` was computed with
:func:`telemetry_digest` from per-request telemetry ingest.
"""

import hashlib
import json

import numpy as np

#: per-request arrays the plain simulator reported
PLAIN_ARRAYS = ("latencies_us", "queue_wait_us", "batch_wait_us",
                "execute_us", "arrivals_us", "batch_index")


def arrays_digest(report) -> str:
    """SHA-256 over the per-request arrays and the run-level scalars."""
    h = hashlib.sha256()
    for name in PLAIN_ARRAYS:
        values = getattr(report, name)
        dtype = np.int64 if name == "batch_index" else np.float64
        h.update(name.encode())
        h.update(np.ascontiguousarray(values, dtype=dtype).tobytes())
    h.update(json.dumps([list(map(int, report.batch_sizes)),
                         float(report.qps_served),
                         float(report.busy_fraction)]).encode())
    return h.hexdigest()


def batches_digest(report) -> str:
    """SHA-256 over the batch records (``BatchRecord.to_dict`` rows)."""
    rows = [b.to_dict() for b in report.batches]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def telemetry_state(telemetry) -> str:
    """Canonical JSON of everything a ``ServingTelemetry`` keeps.

    The full dump with sketch key maps and exemplars, plus every series
    at full resolution with its per-window sketch state.
    """
    from repro.serving.telemetry import SERIES_NAMES
    series = {name: telemetry.series[name].to_dict(include_sketch_state=True)
              for name in SERIES_NAMES}
    return json.dumps({"telemetry": telemetry.to_dict(include_state=True),
                       "series": series})


def telemetry_digest(telemetry) -> str:
    """SHA-256 over :func:`telemetry_state`."""
    return hashlib.sha256(telemetry_state(telemetry).encode()).hexdigest()
