"""Executable specification of the graph compiler's fusion and placement.

These are the fusion helpers and ``place_tensors`` as they were before
every pass became a single sweep: the EB->TBE merge asks
``Graph.users`` once per EmbeddingBag, CSE and epilogue folding rewrite
the whole graph with ``Graph.replace_uses`` on every merge, dead-code
elimination removes nodes from the order one at a time, and placement
rescans every last-use entry at every step.  The code is kept verbatim;
the two graph mutations whose ``Graph`` methods have since changed
(``prune_dead`` and ``insert_before``) are copied here as functions, so
the reference depends only on ``Graph`` methods that are unchanged.
The differential tests compare :func:`repro.compiler.fuse_graph` and
:func:`repro.compiler.place_tensors` against it, bit for bit.

One intended difference: this placement never frees an SRAM tensor
that is neither consumed nor a graph output, so placement is compared
only on pruned graphs, which have no such tensor.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.compiler.fusion import EPILOGUE_OPS, FusionReport
from repro.compiler.ir import Graph, Node
from repro.compiler.ops import infer_meta
from repro.compiler.placement import PlacementResult


def _prune_dead(graph: Graph) -> int:
    """Remove nodes unreachable from the outputs; returns the count."""
    live = set(graph.outputs)
    for name in reversed(graph._order):
        if name in live:
            live.update(graph._nodes[name].inputs)
    dead = [n for n in graph._order if n not in live]
    for name in dead:
        del graph._nodes[name]
        graph._order.remove(name)
    return len(dead)


def _insert_before(graph: Graph, anchor: str, node: Node) -> Node:
    """Add ``node`` immediately before ``anchor`` in execution order."""
    graph.add_node(node)
    graph._order.remove(node.name)
    graph._order.insert(graph._order.index(anchor), node.name)
    return node


def fuse_graph(graph: Graph, max_tables_per_tbe: int = 64,
               merge_eb: bool = True,
               fuse_epilogues: bool = True,
               eliminate_common: bool = True) -> Tuple[Graph, FusionReport]:
    """Run all fusion passes over ``graph``."""
    report = FusionReport()
    if eliminate_common:
        _eliminate_common_subexpressions(graph, report)
    if merge_eb:
        _merge_embedding_bags(graph, max_tables_per_tbe, report)
    if fuse_epilogues:
        _fuse_epilogues(graph, report)
    report.dead_removed = _prune_dead(graph)
    return graph, report


def _attr_key(attrs: Dict) -> tuple:
    """Hashable view of a node's attributes (data blobs excluded)."""
    items = []
    for key in sorted(attrs):
        if key == "data":
            return None   # constant-carrying nodes are never deduped
        value = attrs[key]
        if isinstance(value, (list, tuple)):
            value = tuple(value)
        items.append((key, value))
    return tuple(items)


def _eliminate_common_subexpressions(graph: Graph,
                                     report: FusionReport) -> None:
    """Merge structurally identical pure operators.

    Two nodes compute the same value when they run the same op over the
    same inputs with the same attributes; the duplicate is rewired to
    the first occurrence.  Sources (input/weight) are identity-keyed.
    """
    seen: Dict[tuple, str] = {}
    for node in list(graph):
        if node.op in ("input", "weight"):
            continue
        attr_key = _attr_key(node.attrs)
        if attr_key is None:
            continue
        key = (node.op, tuple(node.inputs), attr_key)
        original = seen.get(key)
        if original is None:
            seen[key] = node.name
        else:
            graph.replace_uses(node.name, original)
            report.cse_merged += 1


def _merge_embedding_bags(graph: Graph, max_tables: int,
                          report: FusionReport) -> None:
    """Group compatible EmbeddingBag nodes into TBE nodes.

    Only EB nodes whose single user is the same concat (the standard
    DLRM sparse-feature concat) are merged, so the rewrite preserves
    the concat's operand order trivially by replacing the group's
    members with one TBE whose output is their concatenation.
    """
    groups: Dict[tuple, List[Node]] = {}
    for node in list(graph):
        if node.op != "embedding_bag":
            continue
        users = graph.users(node.name)
        if len(users) != 1 or users[0].op != "concat":
            continue
        key = (node.attrs["batch"], node.attrs["pooling"],
               node.attrs.get("scale", 1.0), users[0].name,
               node.meta.shape[1])
        groups.setdefault(key, []).append(node)

    tbe_index = 0
    for key, members in groups.items():
        if len(members) < 2:
            continue
        concat_name = key[3]
        concat = graph.node(concat_name)
        # Preserve concat operand order: members sorted by their position.
        position = {name: i for i, name in enumerate(concat.inputs)}
        members.sort(key=lambda n: position[n.name])
        # Only *contiguous* operand runs may merge: the TBE output lays
        # its members' columns adjacently, so merging operands that have
        # other concat inputs between them would reorder the concat's
        # columns (e.g. [eb_a, other, eb_b] -> [eb_a|eb_b, other]).
        runs: List[List[Node]] = [[members[0]]]
        for prev, node in zip(members, members[1:]):
            if position[node.name] == position[prev.name] + 1:
                runs[-1].append(node)
            else:
                runs.append([node])
        chunks = [run[start:start + max_tables]
                  for run in runs
                  for start in range(0, len(run), max_tables)]
        for chunk in chunks:
            if len(chunk) < 2:
                continue
            tbe_inputs: List[str] = []
            for eb in chunk:
                tbe_inputs.extend(eb.inputs)   # (table, indices) pairs
            tbe = Node(name=f"tbe_m{tbe_index}", op="tbe",
                       inputs=tbe_inputs,
                       attrs={"batch": chunk[0].attrs["batch"],
                              "pooling": chunk[0].attrs["pooling"],
                              "scale": chunk[0].attrs.get("scale", 1.0)})
            tbe_index += 1
            tbe.meta = infer_meta(graph, tbe)
            _insert_before(graph, concat_name, tbe)
            # Splice: first member becomes the TBE, the rest drop out of
            # the concat operand list (the TBE output already contains
            # their dims, in order).
            first = chunk[0].name
            graph.replace_uses(first, tbe.name)
            for eb in chunk[1:]:
                concat.inputs = [i for i in concat.inputs if i != eb.name]
            concat.meta = infer_meta(graph, concat)
            report.eb_merged += len(chunk)
            report.tbe_created += 1


def _fuse_epilogues(graph: Graph, report: FusionReport) -> None:
    """Fold unary elementwise followers into FC/BMM producers."""
    for node in list(graph):
        if node.op not in EPILOGUE_OPS:
            continue
        producer = graph.node(node.inputs[0])
        if producer.op not in ("fc", "batch_matmul"):
            continue
        if len(graph.users(producer.name)) != 1:
            continue
        if "epilogue" in producer.attrs:
            continue
        producer.attrs["epilogue"] = node.op
        graph.replace_uses(node.name, producer.name)
        report.epilogues_fused += 1


def place_tensors(graph: Graph, sram_capacity: int,
                  pin_weights: Set[str] = frozenset()) -> PlacementResult:
    """Decide SRAM/DRAM placement for every tensor in ``graph``.

    ``sram_capacity`` is the budget in bytes (usually
    ``ChipConfig.sram.capacity_bytes``, possibly reduced when part of
    the SRAM runs as a cache).  ``pin_weights`` names weight nodes to
    force-resident in SRAM (small hot tables).
    """
    result = PlacementResult()
    # Last use index of each tensor, for liveness.
    last_use: Dict[str, int] = {}
    order = list(graph)
    for idx, node in enumerate(order):
        for inp in node.inputs:
            last_use[inp] = idx
    for out in graph.outputs:
        last_use[out] = len(order)

    live_sram: Dict[str, int] = {}
    used = 0
    for idx, node in enumerate(order):
        # Expire dead SRAM tensors first.
        for name in [n for n, last in list(last_use.items())
                     if last <= idx and n in live_sram]:
            used -= live_sram.pop(name)
        nbytes = node.meta.nbytes
        if node.op == "weight":
            if node.name in pin_weights and used + nbytes <= sram_capacity:
                result.regions[node.name] = "sram"
                live_sram[node.name] = nbytes
                # Pinned weights stay resident for the whole graph.
                last_use[node.name] = len(order)
                used += nbytes
            else:
                result.regions[node.name] = "dram"
            continue
        if node.op == "input":
            result.regions[node.name] = "dram"
            continue
        # Graph outputs must land in DRAM for the host to read them.
        if node.name in graph.outputs:
            result.regions[node.name] = "dram"
            continue
        # TBE/EmbeddingBag kernels write their pooled output to DRAM:
        # the gather itself streams table rows from DRAM through the
        # cache-mode SRAM, so there is no scratchpad slot to land in.
        if node.op in ("embedding_bag", "tbe"):
            result.regions[node.name] = "dram"
            continue
        if used + nbytes <= sram_capacity:
            result.regions[node.name] = "sram"
            live_sram[node.name] = nbytes
            used += nbytes
            result.sram_peak_bytes = max(result.sram_peak_bytes, used)
        else:
            result.regions[node.name] = "dram"
            result.spilled.append(node.name)
    return result
