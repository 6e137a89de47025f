"""Tests for the benchmark's own code (run: python3 -m pytest perfbench -q).

They use the mini slices of each part so the whole file runs in seconds.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run  # noqa: E402
from perfbench.parts import PARTS  # noqa: E402
from perfbench.spans import (NullTracer, Span, Tracer,  # noqa: E402
                             instrumented, self_times)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _inputs(part):
    """Every generated input array of a part, by name."""
    if part.name == "des":
        out = {f"fc.{label}.{i}": arr for label, a, b_t, *_ in part.fc_ops
               for i, arr in enumerate((a, b_t))}
        out["tables"] = part.tables
        out.update({"indices." + k: v for k, v in part.indices.items()})
        return out
    if part.name == "fleet":
        return {"arrivals": part.arrivals,
                "faults": np.array([(e.start, e.duration, e.target)
                                    for e in part.fault_plan.events]),
                "router_seed": np.array([part.config.router.seed])}
    out = {"batches": np.array(part.batches)}
    for name, _graph, feeds, edited, weights in part.graphs:
        for kind, arrays in (("feed", feeds), ("edited", edited),
                             ("weight", weights)):
            out.update({f"{name}.{kind}.{k}": v for k, v in arrays.items()})
    return out


@pytest.fixture(scope="module")
def program():
    run._import_program()


@pytest.mark.parametrize("name", sorted(PARTS))
def test_same_seed_same_inputs_and_modelled_metrics(program, name):
    first, second = PARTS[name](3, full=False), PARTS[name](3, full=False)
    a, b = _inputs(first), _inputs(second)
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), key
    one, two = first.run(NullTracer()), second.run(NullTracer())
    assert one.failed == two.failed == 0
    assert one.attempted == two.attempted > 0
    assert one.modelled == two.modelled


@pytest.mark.parametrize("name", sorted(PARTS))
def test_different_seed_changes_inputs(program, name):
    a = _inputs(PARTS[name](3, full=False))
    b = _inputs(PARTS[name](4, full=False))
    changed = [k for k in a if k in b and not np.array_equal(a[k], b[k])]
    # the fleet mini has no fault plan, so its (empty) plan cannot differ
    assert len(changed) >= len(a) - 1, sorted(set(a) - set(changed))


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for table, key in ((run.END_TO_END, "end_to_end"),
                       (run.PER_LAYER, "per_layer")):
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            name: unit for name, (unit, _label) in table.items()}
        for name, (_unit, label) in table.items():
            assert NAME.match(name), name
            assert label in ("host", "modelled"), name
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_self_time_subtracts_the_union_of_children():
    spans = [Span(0, "root", 0.0, 10.0, -1, 0),
             Span(1, "a", 1.0, 4.0, 0, 0),
             Span(2, "b", 3.0, 6.0, 0, 0),      # overlaps a
             Span(3, "c", 1.5, 2.0, 1, 0)]
    assert self_times(spans) == {0: 5.0, 1: 2.5, 2: 3.0, 3: 0.5}


def test_traced_iteration_self_times_sum_to_traced_wall(program):
    from repro.core.accelerator import Accelerator
    from repro.kernels import fc

    originals = (fc.run_fc, Accelerator.__dict__["run"])
    parts = [PARTS[name](5, full=False) for name in sorted(PARTS)]
    tracer = Tracer()
    probes = [p for part in parts for p in part.probes]
    with instrumented(tracer, probes):
        it = run.run_iteration(parts, tracer)
    # instrumentation is undone
    assert (fc.run_fc, Accelerator.__dict__["run"]) == originals
    assert it.failed == 0
    layers = run.layer_metrics(tracer, it)
    assert layers["trace.self_sum_s"] == pytest.approx(
        layers["trace.wall_s"], rel=1e-9)
    names = {s.name for s in tracer.spans}
    for expected in ("kernels.fc", "kernels.tbe", "sim.run",
                     "autotune.search", "autotune.validate", "fleet",
                     "fleet.route", "resilience", "telemetry",
                     "models.build", "compiler.fuse", "compiler.place",
                     "opmodel.estimate", "executor"):
        assert expected in names, expected
    # spans of one op share its id; every span but the root has a parent
    assert all(s.parent >= 0 for s in tracer.spans[1:])
    for s in tracer.spans:
        if s.parent >= 0 and not s.name.startswith(("op.", "part.")):
            assert s.op == tracer.spans[s.parent].op
    assert layers["kernels.fc.calls"] > 0 and layers["sim.events"] > 0
