"""Graph-level fusion passes (Section 5 / Section 6.1).

Three optimisations the paper's stack performs:

* **EB -> TBE merging** — "they can be merged together into one or more
  TableBatchedEmbedding (TBE) operators to amortize kernel launch
  overhead and increase the work that can be parallelized across the
  device" (Section 6.1).  We merge every EmbeddingBag with the same
  batch size and pooling factor into TBE groups of up to
  ``max_tables_per_tbe`` tables.
* **Elementwise epilogue fusion** — a unary elementwise op (relu/tanh/
  sigmoid) directly following an FC or BMM folds into it as an epilogue
  the SE applies on the way out of the RE.
* **Dead-code elimination** after the rewrites.

``fuse_graph`` returns (graph, FusionReport); the graph is mutated in
place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.compiler.ir import Graph, Node
from repro.compiler.ops import infer_meta

#: unary ops an FC/BMM can absorb as an epilogue
EPILOGUE_OPS = ("relu", "tanh", "sigmoid")


@dataclass
class FusionReport:
    eb_merged: int = 0
    tbe_created: int = 0
    epilogues_fused: int = 0
    cse_merged: int = 0
    dead_removed: int = 0


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
    report.dead_removed = graph.prune_dead()
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


def _users_map(graph: Graph) -> Dict[str, List[Node]]:
    """``Graph.users`` for every name at once, in one sweep."""
    users: Dict[str, List[Node]] = {}
    for node in graph:
        for inp in dict.fromkeys(node.inputs):
            users.setdefault(inp, []).append(node)
    return users


def _eliminate_common_subexpressions(graph: Graph,
                                     report: FusionReport) -> None:
    """Merge structurally identical pure operators.

    Two nodes compute the same value when they run the same op over the
    same inputs with the same attributes; the duplicate is rewired to
    the first occurrence.  Sources (input/weight) are identity-keyed.
    The graph is in SSA order, so one walk that renames each node's
    inputs before keying it sees every earlier merge.
    """
    seen: Dict[tuple, str] = {}
    rename: Dict[str, str] = {}
    for node in graph:
        if rename:
            node.inputs = [rename.get(i, i) for i in node.inputs]
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
            rename[node.name] = original
            report.cse_merged += 1
    graph.outputs = [rename.get(o, o) for o in graph.outputs]


def _merge_embedding_bags(graph: Graph, max_tables: int,
                          report: FusionReport) -> None:
    """Group compatible EmbeddingBag nodes into TBE nodes.

    Only EB nodes whose single user is the same concat (the standard
    DLRM sparse-feature concat) are merged, so the rewrite preserves
    the concat's operand order trivially by replacing the group's
    members with one TBE whose output is their concatenation.
    """
    users_of = _users_map(graph)
    groups: Dict[tuple, List[Node]] = {}
    for node in graph:
        if node.op != "embedding_bag":
            continue
        users = users_of.get(node.name, [])
        if len(users) != 1 or users[0].op != "concat":
            continue
        key = (node.attrs["batch"], node.attrs["pooling"],
               node.attrs.get("scale", 1.0), users[0].name,
               node.meta.shape[1])
        groups.setdefault(key, []).append(node)

    tbe_index = 0
    # concat name -> its TBEs in creation order, spliced in at the end
    new_tbes: Dict[str, List[Node]] = {}
    rename: Dict[str, str] = {}
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
        # Splice: each chunk's first member becomes its TBE, the rest
        # drop out of the concat operand list (the TBE output already
        # contains their dims, in order).
        group_rename: Dict[str, str] = {}
        dropped = set()
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
            new_tbes.setdefault(concat_name, []).append(tbe)
            group_rename[chunk[0].name] = tbe.name
            dropped.update(eb.name for eb in chunk[1:])
            report.eb_merged += len(chunk)
            report.tbe_created += 1
        if group_rename:
            concat.inputs = [group_rename.get(i, i) for i in concat.inputs
                             if i not in dropped]
            rename.update(group_rename)
    for concat_name, tbes in new_tbes.items():
        graph.insert_before(concat_name, *tbes)
        concat = graph.node(concat_name)
        concat.meta = infer_meta(graph, concat)
    graph.outputs = [rename.get(o, o) for o in graph.outputs]


def _fuse_epilogues(graph: Graph, report: FusionReport) -> None:
    """Fold unary elementwise followers into FC/BMM producers.

    A producer fuses at most once, so until it does its consumers are
    the ones counted before the walk; renames apply as the walk reaches
    each node, since the graph is in SSA order.
    """
    users_of = _users_map(graph)
    rename: Dict[str, str] = {}
    for node in graph:
        if rename:
            node.inputs = [rename.get(i, i) for i in node.inputs]
        if node.op not in EPILOGUE_OPS:
            continue
        producer = graph.node(node.inputs[0])
        if producer.op not in ("fc", "batch_matmul"):
            continue
        if len(users_of[producer.name]) != 1:
            continue
        if "epilogue" in producer.attrs:
            continue
        producer.attrs["epilogue"] = node.op
        rename[node.name] = producer.name
        report.epilogues_fused += 1
    graph.outputs = [rename.get(o, o) for o in graph.outputs]
