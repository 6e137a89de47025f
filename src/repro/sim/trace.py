"""Span tracing: one span record, one tracer, one Chrome exporter.

A :class:`Tracer` collects (who, what, when) spans and exports them in
the Chrome trace-event format (open ``chrome://tracing`` or
https://ui.perfetto.dev and load the JSON).  The simulator records
every fixed-function-unit command execution, DMA transfer, and core
program phase in cycles, so kernel pipelines can be inspected visually,
the way the paper's team debugged software pipelining and instruction
scheduling (Section 6.1).  The serving layer records request waterfalls
on the same tracer type in microseconds::

    request 1234                      (track ``request.1234``)
      ├─ retry_overhead               failed attempts plus backoff
      ├─ batch_wait                   waiting for the batch to form
      ├─ queue_wait                   batch formed, device still busy
      └─ execute        ──flow──▶  batch 17       (track ``serving.device``)
                                     └─ graph_execute ── per-op spans
                                         └──flow──▶ pe0.dpe MML ...  (sim cycles)

Each tracer keeps its spans in one clock; :meth:`Tracer.to_chrome_trace`
converts with ``units_per_us`` (1 for microseconds, ``frequency_ghz *
1e3`` for cycles).  Every span carries an id and a parent id, so
exports preserve the tree, and flow ids draw arrows between spans —
across tracers too (:meth:`Tracer.link`), joined onto one timeline by
:func:`merge_chrome_traces`.

A disabled tracer is a strict no-op: it records nothing, allocates
nothing per call, and never perturbs the instrumented computation, so
the hooks can stay in the hot path.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One traced interval, in its tracer's clock (cycles or us)."""

    track: str          #: e.g. "pe0.dpe" — becomes the trace row (tid)
    name: str           #: e.g. "MML" — the span label
    start: float
    end: float
    args: Dict[str, object] = field(default_factory=dict)
    #: explicit process row for the viewer; when empty, the track's
    #: first dot-component is used (so "pe0.dpe" lands on process
    #: "pe0").  Multi-card and serving spans set this so they do not
    #: collide on one process row.
    pid: str = ""
    #: Chrome-trace flow ids arriving at / departing this span
    flow_in: tuple = ()
    flow_out: tuple = ()
    span_id: int = 0
    parent_id: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span collector with context propagation and Chrome-trace export.

    :meth:`record` stores one finished span with explicit start/end
    (simulations know both) under the innermost open span;
    :meth:`span` opens a span so children recorded inside the ``with``
    body attach to it, and :meth:`attach` re-enters a recorded one.
    Enable with ``Tracer(enabled=True)`` or via
    ``Accelerator(trace=True)``.
    """

    def __init__(self, enabled: bool = False, default_pid: str = "") -> None:
        self.enabled = enabled
        #: process row assigned to spans that do not name their own pid
        #: (a multi-card runtime sets this to the card name so two
        #: cards' "pe0" tracks stay on separate rows)
        self.default_pid = default_pid
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1
        self._next_flow = 1

    # -- recording ---------------------------------------------------------
    @property
    def current(self) -> Optional[Span]:
        """The innermost open span (context-propagation parent)."""
        return self._stack[-1] if self._stack else None

    def record(self, track: str, name: str, start: float, end: float,
               pid: Optional[str] = None, parent: Optional[Span] = None,
               flow_in: tuple = (), flow_out: tuple = (),
               **args) -> Optional[Span]:
        """Record one finished span under ``parent`` (default: the
        current span); returns it, or ``None`` when disabled."""
        if not self.enabled:
            return None
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        if parent is None:
            parent = self.current
        span = Span(track, name, start, end, args,
                    pid if pid is not None else self.default_pid,
                    tuple(flow_in), tuple(flow_out), self._next_id,
                    parent.span_id if parent is not None else None)
        self._next_id += 1
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, track: str, name: str, start: float, end: float,
             pid: Optional[str] = None, **args) -> Iterator[Optional[Span]]:
        """Open a span so children recorded inside attach to it."""
        with self.attach(self.record(track, name, start, end, pid=pid,
                                     **args)) as span:
            yield span

    @contextmanager
    def attach(self, span: Optional[Span]) -> Iterator[Optional[Span]]:
        """Re-enter an already-recorded span as the propagation context
        (e.g. per-op spans under a serving batch's device span)."""
        if not self.enabled or span is None:
            yield span
            return
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()

    def new_flow(self) -> int:
        """Allocate a flow id (unique within this tracer's exports)."""
        fid = self._next_flow
        self._next_flow += 1
        return fid

    def link(self, src: Optional[Span],
             dst: Optional[Span] = None) -> Optional[int]:
        """Record a flow arrow ``src -> dst``; returns the flow id.

        ``dst`` may belong to another tracer (a cycle-level span a
        serving batch points at); merge both exports with
        :func:`merge_chrome_traces`.
        """
        if not self.enabled or src is None:
            return None
        fid = self.new_flow()
        src.flow_out += (fid,)
        if dst is not None:
            dst.flow_in += (fid,)
        return fid

    # -- queries -----------------------------------------------------------
    def tracks(self) -> List[str]:
        return sorted({s.track for s in self.spans})

    def spans_on(self, track: str) -> List[Span]:
        return sorted((s for s in self.spans if s.track == track),
                      key=lambda s: s.start)

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def busy_cycles(self, track: str) -> float:
        return sum(s.duration for s in self.spans_on(track))

    def utilization(self, track: str, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_cycles(track) / elapsed)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-track span counts and busy cycles."""
        out: Dict[str, Dict[str, float]] = {}
        for track in self.tracks():
            spans = self.spans_on(track)
            out[track] = {"spans": len(spans),
                          "busy_cycles": sum(s.duration for s in spans)}
        return out

    # -- export ------------------------------------------------------------
    def to_chrome_trace(self, units_per_us: float = 1.0,
                        ts_offset_us: float = 0.0) -> dict:
        """Chrome trace-event JSON, timestamps in microseconds.

        ``units_per_us`` converts the tracer's clock (1 for us,
        ``frequency_ghz * 1e3`` for cycles); ``ts_offset_us`` shifts
        every timestamp, e.g. to lay a batch's simulated execution at
        its dispatch time.  Each span's process row is its ``pid`` when
        set, else the track's first dot-component, and every process
        row gets ``process_name`` metadata; the thread row is the full
        track.  ``args`` carry ``span_id`` (and ``parent_id`` for
        children).  Flow ids become ``s``/``f`` events in category
        ``flow``: an arrow leaves 1 ns before its source ends (clamped
        to the source's start) and lands at its destination's start.
        """
        events = []
        pids: Dict[str, int] = {}
        for span in self.spans:
            key = span.pid or span.track.split(".")[0]
            pid = pids.setdefault(key, len(pids))
            args = dict(span.args)
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            ts = ts_offset_us + span.start / units_per_us
            events.append({
                "name": span.name,
                "cat": span.track.split(".")[-1],
                "ph": "X",
                "ts": ts,
                "dur": max(span.duration, 1e-3) / units_per_us,
                "pid": pid,
                "tid": span.track,
                "args": args,
            })
            for fid in span.flow_out:
                out = max(span.start, span.end - 1e-3 * units_per_us)
                events.append({"name": "flow", "cat": "flow", "ph": "s",
                               "id": fid,
                               "ts": ts_offset_us + out / units_per_us,
                               "pid": pid, "tid": span.track})
            for fid in span.flow_in:
                events.append({"name": "flow", "cat": "flow", "ph": "f",
                               "bp": "e", "id": fid, "ts": ts, "pid": pid,
                               "tid": span.track})
        for name, pid in pids.items():
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "args": {"name": name}})
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    def save(self, path: str, units_per_us: float = 1.0) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(units_per_us), fh)


def merge_chrome_traces(*traces: dict) -> dict:
    """Merge Chrome trace dicts onto one timeline.

    Each input keeps its own process rows: pids are renumbered into one
    namespace (``process_name`` metadata preserved), events are
    concatenated.  Timestamps are *not* shifted — align them at export
    time (``ts_offset_us``).  Flow ids must already be unique across
    inputs: allocate every arrow from one tracer (:meth:`Tracer.link`
    accepts a destination on another tracer).
    """
    events: List[dict] = []
    next_pid = 0
    for trace in traces:
        remap: Dict[int, int] = {}
        for event in trace.get("traceEvents", ()):
            event = dict(event)
            old = event.get("pid", 0)
            if old not in remap:
                remap[old] = next_pid
                next_pid += 1
            event["pid"] = remap[old]
            events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ns"}
