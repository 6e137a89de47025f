"""Discrete-event simulation engine used by the MTIA functional simulator.

The engine is a small, dependency-free simpy-like kernel: *processes* are
Python generators that yield either a delay (number of cycles) or an
:class:`Event` to wait on.  All hardware behaviours in :mod:`repro.core`
(cores issuing commands, the Command Processor stalling an MML on a
circular-buffer element check, DMA engines streaming data over the NoC)
are expressed as processes over this kernel.  Pending work is one
binary heap of timed entries plus a FIFO deque of same-timestamp
callbacks (see :mod:`repro.sim.engine`).
"""

from repro.sim.engine import (Engine, Event, HeapTimeQueue, Process,
                              SimulationError)
from repro.sim.resources import Queue, Resource, Semaphore
from repro.sim.stats import StatGroup
from repro.sim.trace import Span, Tracer, merge_chrome_traces

__all__ = [
    "Engine",
    "Event",
    "HeapTimeQueue",
    "Process",
    "Queue",
    "Resource",
    "Semaphore",
    "SimulationError",
    "Span",
    "StatGroup",
    "Tracer",
    "merge_chrome_traces",
]
