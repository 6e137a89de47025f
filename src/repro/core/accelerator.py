"""The chip-level facade: one MTIA accelerator card.

Constructs the simulation engine, the memory system, the networks, and
the PE grid, and provides the host-side conveniences used by kernels,
tests, and benchmarks: address allocation in DRAM/SRAM, tensor upload /
download, kernel launch, and statistics collection.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.config import MTIA_V1, ChipConfig
from repro.memory import MemorySystem, SRAMMode
from repro.memory.address_map import SRAM_BASE
from repro.noc import NoC, ReductionNetwork
from repro.core.grid import Grid, SubGrid
from repro.core.sync import Barrier
from repro.sim import Engine, SimulationError, StatGroup


class Accelerator:
    """One MTIA card: grid + memories + networks + host interface."""

    #: Alignment for host allocations, matching the paper's note that
    #: outer-dimension strides are aligned to 32 B boundaries (Section 4).
    ALLOC_ALIGN = 64

    def __init__(self, config: ChipConfig = MTIA_V1,
                 sram_mode: SRAMMode = SRAMMode.CACHE,
                 trace: bool = False,
                 observe: bool = False,
                 registry=None,
                 name: str = "",
                 simulate_boot: bool = False,
                 record_edges: bool = False) -> None:
        from repro.core.control import BootStage, ControlSubsystem
        self.config = config
        self.name = name
        self.engine = Engine()
        self.engine.tracer.enabled = trace
        if record_edges:
            # Causal dependency-edge recording for critical-path
            # extraction (repro.obs.critical); a proven no-op on the
            # simulated results.
            from repro.obs.critical import EdgeRecorder
            self.engine.edges = EdgeRecorder()
        if name:
            # Keep multi-card / serving spans on distinct process rows.
            self.engine.tracer.default_pid = name
        # Telemetry (disabled by default): stall attribution and typed
        # metrics land in ``self.metrics`` when ``observe=True``.
        self.engine.obs.enabled = observe or registry is not None
        if registry is not None:
            from repro.obs.observer import Observer
            self.engine.obs = Observer(enabled=True, registry=registry,
                                       tracer=self.engine.tracer)
        else:
            self.engine.obs.tracer = self.engine.tracer
        self.memory = MemorySystem(self.engine, config, sram_mode=sram_mode)
        self.noc = NoC(self.engine, config, self.memory)
        self.reduction_network = ReductionNetwork(self.engine, config)
        self.grid = Grid(self.engine, config, self.memory, self.noc,
                         self.reduction_network)
        self.control = ControlSubsystem(self.engine, config)
        if not simulate_boot:
            # The typical workload window starts on a booted card; jump
            # the control subsystem to READY.  Pass simulate_boot=True
            # to exercise the ROM/secure-boot/firmware sequence.
            self.control.stage = BootStage.READY
            self.control.csr.poke(0x00, BootStage.READY.value)
            self.control._ready.succeed()
        self.stats = StatGroup("accelerator")
        self._dram_brk = self.ALLOC_ALIGN
        self._sram_brk = SRAM_BASE
        self._launched: List = []

    # -- memory management -------------------------------------------------
    def _align(self, value: int) -> int:
        a = self.ALLOC_ALIGN
        return (value + a - 1) // a * a

    def alloc_dram(self, nbytes: int) -> int:
        """Bump-allocate ``nbytes`` of device DRAM; returns the address."""
        addr = self._dram_brk
        self._dram_brk = self._align(addr + nbytes)
        if self._dram_brk > self.config.dram.capacity_bytes:
            raise MemoryError("device DRAM exhausted")
        return addr

    def alloc_sram(self, nbytes: int) -> int:
        """Bump-allocate on-chip SRAM scratchpad; returns the address."""
        if self.memory.sram_mode is not SRAMMode.SCRATCHPAD:
            raise SimulationError(
                "SRAM is in cache mode; scratchpad allocation unavailable")
        addr = self._sram_brk
        self._sram_brk = self._align(addr + nbytes)
        if self._sram_brk > SRAM_BASE + self.config.sram.capacity_bytes:
            raise MemoryError("on-chip SRAM exhausted")
        return addr

    def upload(self, array: np.ndarray, addr: Optional[int] = None) -> int:
        """Copy a host array into device memory; returns its address."""
        array = np.ascontiguousarray(array)
        if addr is None:
            addr = self.alloc_dram(array.nbytes)
        self.memory.poke(addr, array)
        return addr

    def download(self, addr: int, shape: tuple, dtype) -> np.ndarray:
        """Copy a device array back to the host."""
        return self.memory.peek_array(addr, shape, dtype)

    # -- execution -----------------------------------------------------------
    def launch(self, program: Callable, *args, name: str = "kernel",
               **kwargs):
        """Start a kernel program (a generator function) as a process."""
        proc = self.engine.process(program(*args, **kwargs), name)
        self._launched.append(proc)
        return proc

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation; returns elapsed cycles.

        Raises if any launched program failed to finish (deadlock).
        """
        start = self.engine.now
        self.engine.run(until=until)
        stuck = [p.name for p in self._launched if not p.triggered]
        if stuck:
            raise SimulationError(f"programs did not finish: {stuck}")
        for proc in self._launched:
            proc.value   # re-raises if the kernel program failed
        self._launched = []
        return self.engine.now - start

    def barrier(self, parties: int, name: str = "barrier") -> Barrier:
        return Barrier(self.engine, parties, name)

    def subgrid(self, origin: Tuple[int, int] = (0, 0),
                rows: int = 0, cols: int = 0) -> SubGrid:
        return self.grid.subgrid(origin, rows, cols)

    # -- bookkeeping -----------------------------------------------------------
    @property
    def cycles(self) -> float:
        return self.engine.now

    def seconds(self, cycles: Optional[float] = None) -> float:
        """Convert cycles to wall-clock seconds at the nominal frequency."""
        cycles = self.cycles if cycles is None else cycles
        return cycles / (self.config.frequency_ghz * 1e9)

    @property
    def tracer(self):
        return self.engine.tracer

    @property
    def obs(self):
        """The engine's telemetry observer (stall attribution sink)."""
        return self.engine.obs

    @property
    def edges(self):
        """The causal edge recorder (``record_edges=True``), or None."""
        return self.engine.edges

    @property
    def metrics(self):
        """The observer's metric registry."""
        return self.engine.obs.registry

    def save_trace(self, path: str) -> None:
        """Export the execution trace as Chrome trace-event JSON."""
        self.engine.tracer.save(path, self.config.frequency_ghz * 1e3)

    def collect_stats(self) -> Dict[str, float]:
        """Chip-wide statistics rollup."""
        rollup = StatGroup("chip")
        for pe in self.grid:
            rollup.merge(pe.collect_stats())
        rollup.merge(self.noc.stats, prefix="noc.")
        rollup.merge(self.memory.dram.stats, prefix="dram.")
        rollup.merge(self.memory.sram.stats, prefix="sram.")
        rollup.merge(self.reduction_network.stats, prefix="rednet.")
        return rollup.as_dict()
