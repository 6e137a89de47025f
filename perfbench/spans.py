"""Span tracing for the benchmark's traced run.

The traced run wraps named public entry points of the program from the
benchmark's side only: :func:`instrumented` replaces a function at
module-attribute level (in every ``repro`` module that bound it by name,
so ``from x import f`` call sites are covered too) or a method on its
class, and restores the originals on exit.  Every wrapped call records
one :class:`Span` (name, start, end, parent, op id); spans stay in
memory and are written out once, at the end of the run.

A span's *self time* is its duration minus the part of that interval
its child spans cover, so over one root span the self times of all
spans add up to the root's wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int          #: ``sid`` of the enclosing span, -1 for a root
    op: int              #: shared by every span of one op or request


class Tracer:
    """In-memory span recorder plus counters taken at the same boundaries."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[Span] = []
        self._ops = 0

    @contextmanager
    def span(self, name: str, new_op: bool = False) -> Iterator[Span]:
        """Record one span; ``new_op`` starts a fresh op id."""
        parent = self._stack[-1] if self._stack else None
        if new_op or parent is None:
            op = self._ops
            self._ops += 1
        else:
            op = parent.op
        s = Span(len(self.spans), name, time.perf_counter(), 0.0,
                 parent.sid if parent is not None else -1, op)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float, how: str = "sum") -> None:
        old = self.counts.get(name)
        if old is None:
            self.counts[name] = value
        elif how == "max":
            self.counts[name] = max(old, value)
        else:
            self.counts[name] = old + value


class NullTracer:
    """Stand-in for untraced iterations: records nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, new_op: bool = False) -> Iterator[None]:
        yield None

    def count(self, name: str, value: float, how: str = "sum") -> None:
        pass


class Probe(NamedTuple):
    """One entry point to wrap: ``"module:function"`` or
    ``"module:Class.method"``, the span name, and optional hooks.

    ``before(args, kwargs)`` runs ahead of the call and its return value
    is handed to ``after(result, args, kwargs, state)``, which returns a
    dict of ``name -> (value, "sum" | "max")`` counters.
    """

    target: str
    span: str
    after: Optional[Callable] = None
    before: Optional[Callable] = None


def _wrap(fn: Callable, tracer: Tracer, probe: Probe) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = probe.before(args, kwargs) if probe.before else None
        with tracer.span(probe.span):
            result = fn(*args, **kwargs)
        if probe.after:
            for name, (value, how) in probe.after(result, args, kwargs,
                                                  state).items():
                tracer.count(name, value, how)
        return result
    return wrapper


@contextmanager
def instrumented(tracer: Tracer, probes: List[Probe]) -> Iterator[None]:
    """Wrap every probe's target for the duration of the block."""
    patches = []   # (owner, attribute, original) in patch order
    try:
        for probe in probes:
            module_name, qualname = probe.target.split(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(_wrap(raw.__func__, tracer, probe))
                else:
                    new = _wrap(raw, tracer, probe)
                patches.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            fn = getattr(module, qualname)
            wrapper = _wrap(fn, tracer, probe)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """``sid -> self time``: duration minus the union of child intervals."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out: Dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


def summarise(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own[s.sid]
    return out


def to_records(spans: List[Span]) -> List[Dict]:
    """JSON-ready span list (times in seconds from the first span)."""
    origin = spans[0].start if spans else 0.0
    records = []
    for s in spans:
        row = asdict(s)
        row["start"] -= origin
        row["end"] -= origin
        records.append(row)
    return records
