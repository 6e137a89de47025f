"""Exact pins on the simulator's headline modelled numbers.

Every constant below is a literal generated from the code before it
was pinned, and every comparison is exact: cycles compare as
``float.hex()`` strings, outputs as SHA-256 digests of their bytes,
event counts as integers.  There is no tolerance and no regeneration
switch.  A change that moves one of these numbers changes the model,
and must say so and edit the constant by hand.

Pinned here:

* ``run_fc`` at the perfbench ``des_kernels`` shapes: the Figure 7
  mapping (512x1024x256 INT8 on a 4x4 sub-grid, k_split=2) and two
  batch-64 DLRM MLP layers on the kernel's own mapping;
* ``run_tbe`` on the Figure 12 gather (8 tables x 100 k rows x 64,
  pooling 16, batch 32, prefetch depth 1) with the kernel's default
  operands, and with uniform and Zipf (alpha 1.1) indices on fixed
  seeds;
* the hand-written and tuned cycles, and the tuned mapping, of
  ``autotune(seed=0, budget=60, topk=2, jobs=1)`` on the perfbench
  autotune shapes;
* the LC2 batch-64 modelled latency of the compiled-graph analytical
  path.

Each DES run also pins ``events_processed`` and the grid-wide stall
attribution by cause.  Attribution is switched on (``observe=True``)
for these runs; the determinism conformance pillar proves it a no-op
on cycles and events.
"""

import hashlib

import numpy as np
import pytest

#: label -> (m, k, n, sub-grid rows, cols, k_split); None = the
#: kernel's own choice
FC_SHAPES = {
    "fig7": (512, 1024, 256, 4, 4, 2),
    "mlp_512x256": (64, 512, 256, None, None, None),
    "mlp_256x128": (64, 256, 128, None, None, None),
}

#: the Figure 12 gather
FIG12_TBE = dict(num_tables=8, rows_per_table=100_000, embedding_dim=64,
                 pooling_factor=16, batch_size=32)
#: label -> (tables seed, indices seed, Zipf alpha); None = the
#: kernel's own default operands
TBE_RUNS = {
    "default": None,
    "uniform": (101, 102, None),
    "zipf": (101, 103, 1.1),
}

#: the perfbench autotune shapes, searched at seed 0, budget 60, top 2
AUTOTUNE_SHAPES = {
    "fc": dict(m=256, k=512, n=256, dtype="int8"),
    "tbe": dict(num_tables=4, rows_per_table=50_000, embedding_dim=64,
                pooling_factor=16, batch_size=16),
}

FC_PINS = {
    "fig7": {
        "cycles": "0x1.15df586fb5870p+14",  # 17783.84
        "events": 102_709,
        "output":
            "fe6c2af3206bfa193d33b4657cdb6be61b5115f60967d4fcff91045d31bc6846",
        "stalls": {
            "cb_element_wait": "0x1.ee0c000000000p+15",
            "cb_space_wait": "0x1.3808000000000p+15",
            "dep_interlock": "0x1.0563800000000p+18",
            "dram_queue": "0x1.f0946fb586f95p+14",
            "fi_slot_wait": "0x1.6d1b000000000p+16",
            "lm_port_arb": "0x1.1d00000000000p+8",
            "noc_link_arb": "0x1.2bbc2a2e8ba32p+20",
            "sram_queue": "0x1.8500000000000p+11",
        },
    },
    "mlp_256x128": {
        "cycles": "0x1.1b71745d1745cp+12",  # 4535.09
        "events": 4_000,
        "output":
            "b16634432ba664f6c60cec3ed453fb34fd1f3292026864a89b71841df4dcf583",
        "stalls": {
            "cb_element_wait": "0x1.c1b9e4129e412p+12",
            "dep_interlock": "0x1.372cba2e8ba2fp+15",
            "noc_link_arb": "0x1.2000000000000p+13",
        },
    },
    "mlp_512x256": {
        "cycles": "0x1.9712e8ba2e8b9p+12",  # 6513.18
        "events": 10_201,
        "output":
            "d94c5805808b56d871283b407c44d6fa53b355a5965eeda451c214911233dec0",
        "stalls": {
            "cb_element_wait": "0x1.4570000000000p+13",
            "dep_interlock": "0x1.193ded61bed62p+16",
            "dram_queue": "0x1.f6b0df6b0df36p+8",
            "fi_slot_wait": "0x1.e71745d1745d2p+11",
            "lm_port_arb": "0x1.1fffffffffe80p+3",
            "noc_link_arb": "0x1.7f20d61bed61dp+16",
        },
    },
}

TBE_PINS = {
    "default": {
        "cycles": "0x1.05aa1bed61be7p+13",  # 8373.26
        "events": 133_888,
        "output":
            "4d96c101a7869344621d0d144771b526fa6e8a36aa161c58ab17be0a9fa66ca2",
        "stalls": {
            "cb_space_wait": "0x1.e5ded129e4122p+18",
            "dram_queue": "0x1.4fd9bed61bb16p+11",
            "noc_link_arb": "0x1.9d7000000003bp+10",
        },
    },
    "uniform": {
        "cycles": "0x1.0564253c82538p+13",  # 8364.52
        "events": 133_888,
        "output":
            "57d3ec6d9abe03d35db98a8ea9f32c1af03acef3855eca3e0e1bb3a6b2b49254",
        "stalls": {
            "cb_space_wait": "0x1.e5cd261bed60fp+18",
            "dram_queue": "0x1.45f51745d1370p+11",
            "noc_link_arb": "0x1.a241bed61bf9fp+10",
        },
    },
    "zipf": {
        "cycles": "0x1.941ec37dac37ap+12",  # 6465.92
        "events": 133_888,
        "output":
            "42b5457b2a58018ef8f2bb49430396d49f89a5c17078b9d1f09828970c59662b",
        "stalls": {
            "cb_space_wait": "0x1.6084dffffffffp+18",
            "dram_queue": "0x1.dea4a7904a470p+8",
            "noc_link_arb": "0x1.2ab5f6b0df6c5p+10",
            "sram_queue": "0x1.97df6b0df6ae3p+7",
        },
    },
}

AUTOTUNE_PINS = {
    # hand 8 088.42 -> tuned 6 853.15 cycles
    "fc": {"hand": "0x1.f986b0df6b0dfp+12",
           "tuned": "0x1.ac5253c8253c6p+12",
           "mapping": "4x8 k_split=2 no-mcast dram"},
    # hand 2 225.23 -> tuned 825.03 cycles
    "tbe": {"hand": "0x1.162745d1745d2p+11",
            "tuned": "0x1.9c845d1745d16p+9",
            "mapping": "4x8 prefetch=8 sram"},
}

#: LC2 at batch 64: ``estimate_graph`` total, in microseconds
LC2_BATCH64_LATENCY_US = "0x1.46e26d91fd160p+9"     # 653.77


def output_digest(array: np.ndarray) -> str:
    """SHA-256 over an array's dtype, shape and C-order bytes."""
    h = hashlib.sha256()
    h.update(array.dtype.str.encode())
    h.update(repr(array.shape).encode())
    h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _measure(acc, cycles: float, output: np.ndarray) -> dict:
    return {"cycles": float(cycles).hex(),
            "events": acc.engine.run_stats()["events_processed"],
            "output": output_digest(output),
            "stalls": {cause: float(value).hex() for cause, value
                       in sorted(acc.obs.stalls_by_cause().items())}}


@pytest.fixture(autouse=True)
def _no_sim_cache(monkeypatch):
    # A replayed result processes no events; pins measure fresh runs.
    monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)


def measure_fc(label: str) -> dict:
    from repro.core.accelerator import Accelerator
    from repro.kernels.fc import run_fc

    m, k, n, rows, cols, k_split = FC_SHAPES[label]
    acc = Accelerator(observe=True)
    subgrid = acc.subgrid((0, 0), rows, cols) if rows else None
    result = run_fc(acc, m=m, k=k, n=n, dtype="int8", subgrid=subgrid,
                    k_split=k_split)
    return _measure(acc, result.cycles, result.c_t)


def measure_tbe(label: str) -> dict:
    from repro.core.accelerator import Accelerator
    from repro.kernels.tbe import (TBEConfig, generate_indices,
                                   generate_tables, run_tbe)

    config = TBEConfig(**FIG12_TBE)
    tables = indices = None
    if TBE_RUNS[label] is not None:
        table_seed, index_seed, alpha = TBE_RUNS[label]
        tables = generate_tables(config, table_seed)
        indices = generate_indices(config, index_seed, alpha=alpha)
    acc = Accelerator(observe=True)
    result = run_tbe(acc, config, tables, indices, prefetch_rows=1)
    return _measure(acc, result.cycles, result.output)


def measure_autotune(family: str) -> dict:
    from repro.autotune import FCShape, TBEShape, autotune

    shape = (FCShape if family == "fc" else TBEShape)(
        **AUTOTUNE_SHAPES[family])
    result = autotune(shape, seed=0, budget=60, topk=2, jobs=1)
    return {"hand": float(result.baseline.sim_cycles).hex(),
            "tuned": float(result.winner.sim_cycles).hex(),
            "mapping": result.winner.candidate.describe()}


def measure_lc2_latency_us() -> str:
    from repro.eval.machines import MACHINES
    from repro.eval.opmodel import estimate_graph
    from repro.models.configs import MODEL_ZOO
    from repro.models.dlrm import build_dlrm_graph
    from repro.runtime.executor import GraphExecutor

    machine = MACHINES["mtia"]
    graph = build_dlrm_graph(MODEL_ZOO["LC2"], 64)
    placement = GraphExecutor(machine, mode="graph").compile(graph)
    estimate = estimate_graph(machine, graph, placement)
    return float(estimate.total_seconds * 1e6).hex()


@pytest.mark.parametrize("label", sorted(FC_SHAPES))
def test_fc_cycles_events_output_and_stalls(label):
    assert measure_fc(label) == FC_PINS[label]


@pytest.mark.parametrize("label", sorted(TBE_RUNS))
def test_tbe_cycles_events_output_and_stalls(label):
    assert measure_tbe(label) == TBE_PINS[label]


@pytest.mark.parametrize("family", sorted(AUTOTUNE_SHAPES))
def test_autotune_hand_and_tuned_cycles(family):
    assert measure_autotune(family) == AUTOTUNE_PINS[family]


def test_lc2_batch64_modelled_latency():
    assert measure_lc2_latency_us() == LC2_BATCH64_LATENCY_US

