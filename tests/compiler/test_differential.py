"""Differential tests: the one-sweep compiler passes against their spec.

``reference_passes`` keeps the fusion helpers and ``place_tensors`` as
they were before each pass became a single sweep.  The whole compile
pipeline (``fuse_graph`` -> ``validate`` -> ``place_tensors``) must
agree with it bit for bit on conformance-fuzzer graphs and on zoo
models at drawn batch sizes: node order, inputs, attrs, metadata,
outputs, the ``FusionReport``, regions, spills and the SRAM peak.

Placement is compared on fused (hence pruned) graphs only: the
reference never frees an SRAM tensor nobody reads, and a pruned graph
has none.
"""

import dataclasses
import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.fusion import fuse_graph
from repro.compiler.ir import GraphBuilder
from repro.compiler.placement import place_tensors
from repro.conformance.fuzzer import fuzz_graph
from repro.eval.machines import MTIA_MACHINE
from repro.models.configs import MODEL_ZOO
from repro.models.dlrm import build_dlrm_graph
from repro.serving.simulator import BatchLatencyModel
from tests.compiler import reference_passes
from tests.strategies import fuzz_seeds

ZOO = ("LC1", "LC2", "MC1", "MC2", "HC")

#: SRAM budgets from "everything spills" to the full on-chip capacity
budgets = st.sampled_from([0, 1 << 10, 1 << 16, 1 << 20,
                           MTIA_MACHINE.onchip_capacity_bytes])

#: SHA-256 of the 45 ``total_seconds.hex()`` values behind the zoo
#: latency tables (5 models x 9 candidate batches on MTIA), computed
#: with the quadratic passes the reference module keeps.
LATENCY_TABLE_DIGEST = (
    "cf5b927da18aaf6912b456b12420af8df8a4363d05e28fda47547ba9d192fdca")


@st.composite
def sparse_graphs(draw):
    """Concats over interleaved EmbeddingBag groups, with the awkward cases.

    Operands mix EBs drawn from a small palette of poolings and widths
    (one or several TBE groups per concat, split into runs by other
    operands), dense inputs, repeated operands, CSE twins of earlier
    EBs, EBs shared between concats, and EBs that also feed a relu or
    are graph outputs.
    """
    batch = draw(st.sampled_from([2, 4]))
    palette = draw(st.lists(st.tuples(st.sampled_from([2, 3]),
                                      st.sampled_from([4, 8])),
                            min_size=1, max_size=3))
    b = GraphBuilder("sparse_mix")
    ebs = []
    concats = []
    for _ in range(draw(st.integers(1, 3))):
        operands = []
        for _ in range(draw(st.integers(1, 12))):
            kind = draw(st.sampled_from(
                ["eb", "eb", "eb", "dense", "repeat", "twin"]))
            if kind in ("repeat", "twin") and not ebs:
                kind = "eb"
            if kind == "dense":
                width = draw(st.sampled_from([4, 8]))
                operands.append(b.input((batch, width)).name)
            elif kind == "repeat":
                operands.append(draw(st.sampled_from(ebs)))
            elif kind == "twin":
                model = b.graph.node(draw(st.sampled_from(ebs)))
                twin = b.add("embedding_bag", model.inputs,
                             **model.attrs)
                ebs.append(twin.name)
                operands.append(twin.name)
            else:
                pooling, dim = draw(st.sampled_from(palette))
                table = b.weight((16, dim), dtype="int8")
                idx = b.input((batch, pooling), dtype="int32")
                eb = b.add("embedding_bag", (table.name, idx.name),
                           batch=batch, pooling=pooling, scale=1.0 / 64.0)
                ebs.append(eb.name)
                operands.append(eb.name)
        concats.append(b.add("concat", operands, axis=1).name)
    extra = []
    for name in ebs:
        fate = draw(st.sampled_from(["plain"] * 4 + ["relu", "output"]))
        if fate == "relu":
            extra.append(b.add("relu", (name,)).name)
        elif fate == "output":
            extra.append(name)
    return b.output(*concats, *extra)


def snapshot(graph):
    """Everything a compile pass may change, in comparable form."""
    nodes = []
    for node in graph:
        # bound constants are shared by graph copies: compare identity
        attrs = {k: (id(v) if k == "data" else v)
                 for k, v in node.attrs.items()}
        nodes.append((node.name, node.op, list(node.inputs), attrs,
                      node.meta))
    return nodes, list(graph.outputs)


def compile_both(graph, budget, pin_weights=frozenset(), **fuse_kwargs):
    """Run the pipeline through the passes and through the reference."""
    ref_graph = graph.copy()
    new_graph = graph.copy()
    _, ref_report = reference_passes.fuse_graph(ref_graph, **fuse_kwargs)
    ref_graph.validate()
    ref_place = reference_passes.place_tensors(ref_graph, budget,
                                               pin_weights)
    _, new_report = fuse_graph(new_graph, **fuse_kwargs)
    new_graph.validate()
    new_place = place_tensors(new_graph, budget, pin_weights)
    return ((snapshot(ref_graph), ref_report, ref_place),
            (snapshot(new_graph), new_report, new_place))


def assert_identical(ref, new):
    (ref_snap, ref_report, ref_place) = ref
    (new_snap, new_report, new_place) = new
    assert new_snap == ref_snap
    assert new_report == ref_report
    assert list(new_place.regions.items()) == list(ref_place.regions.items())
    assert new_place.spilled == ref_place.spilled
    assert new_place.sram_peak_bytes == ref_place.sram_peak_bytes


@settings(max_examples=40, deadline=None)
@given(seed=fuzz_seeds, max_tables=st.integers(1, 6), budget=budgets,
       merge_eb=st.booleans(), fuse_epilogues=st.booleans(),
       eliminate_common=st.booleans(), pin=st.booleans())
def test_fuzzer_graphs_compile_identically(seed, max_tables, budget,
                                           merge_eb, fuse_epilogues,
                                           eliminate_common, pin):
    graph = fuzz_graph(seed).graph
    pin_weights = (frozenset(n.name for n in graph.nodes_by_op("weight"))
                   if pin else frozenset())
    ref, new = compile_both(graph, budget, pin_weights,
                            max_tables_per_tbe=max_tables,
                            merge_eb=merge_eb,
                            fuse_epilogues=fuse_epilogues,
                            eliminate_common=eliminate_common)
    assert_identical(ref, new)


@settings(max_examples=60, deadline=None)
@given(graph=sparse_graphs(), max_tables=st.integers(1, 4),
       budget=budgets, eliminate_common=st.booleans())
def test_sparse_graphs_compile_identically(graph, max_tables, budget,
                                           eliminate_common):
    ref, new = compile_both(graph, budget, max_tables_per_tbe=max_tables,
                            eliminate_common=eliminate_common)
    assert_identical(ref, new)


@settings(max_examples=8, deadline=None)
@given(model=st.sampled_from(ZOO), batch=st.integers(1, 512),
       max_tables=st.sampled_from([1, 2, 7, 16, 64, 1000]),
       budget=budgets)
def test_zoo_graphs_compile_identically(model, batch, max_tables, budget):
    graph = build_dlrm_graph(MODEL_ZOO[model], batch)
    ref, new = compile_both(graph, budget, max_tables_per_tbe=max_tables)
    assert_identical(ref, new)


def test_zoo_model_with_few_tables_per_tbe_compiles_identically():
    """Many chunks and many TBEs on one concat, on the largest model."""
    graph = build_dlrm_graph(MODEL_ZOO["HC"], 32)
    ref, new = compile_both(graph, MTIA_MACHINE.onchip_capacity_bytes,
                            max_tables_per_tbe=3)
    assert_identical(ref, new)


def test_towerless_variant_compiles_identically():
    """No towers: the interaction and top MLP read the concat directly."""
    config = dataclasses.replace(MODEL_ZOO["MC1"], num_towers=0,
                                 tower_mlp=())
    graph = build_dlrm_graph(config, 16)
    ref, new = compile_both(graph, 1 << 20)
    assert_identical(ref, new)


def latency_table_digest():
    """SHA-256 over the zoo latency tables' modelled seconds, in order."""
    digest = hashlib.sha256()
    for model in ZOO:
        table = BatchLatencyModel(MODEL_ZOO[model], MTIA_MACHINE)
        for batch in sorted(table.estimates):
            digest.update(
                table.estimates[batch].total_seconds.hex().encode())
    return digest.hexdigest()


def test_zoo_latency_tables_match_golden_digest():
    assert latency_table_digest() == LATENCY_TABLE_DIGEST
