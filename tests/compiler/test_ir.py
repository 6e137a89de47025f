"""Graph IR: construction, shape inference, mutation."""

import numpy as np
import pytest

from repro.compiler.ir import Graph, GraphBuilder, Node
from repro.runtime.tensor import TensorMeta


@pytest.fixture
def mlp_graph():
    b = GraphBuilder("mlp")
    x = b.input((8, 16), dtype="fp32", name="x")
    w = b.weight((32, 16), dtype="fp32", name="w")
    fc = b.add("fc", (x.name, w.name), name="fc")
    act = b.add("relu", (fc.name,), name="act")
    return b.output(act.name)


class TestConstruction:
    def test_shape_inference_through_builder(self, mlp_graph):
        assert mlp_graph.node("fc").meta.shape == (8, 32)
        assert mlp_graph.node("act").meta.shape == (8, 32)

    def test_duplicate_name_rejected(self, mlp_graph):
        with pytest.raises(ValueError, match="duplicate"):
            mlp_graph.add_node(Node(name="fc", op="relu", inputs=["x"]))

    def test_undefined_input_rejected(self):
        g = Graph()
        with pytest.raises(ValueError, match="undefined input"):
            g.add_node(Node(name="a", op="relu", inputs=["ghost"]))

    def test_auto_naming_is_unique(self):
        b = GraphBuilder()
        n1 = b.input((4,), name=None)
        n2 = b.input((4,), name=None)
        assert n1.name != n2.name

    def test_mark_unknown_output_rejected(self, mlp_graph):
        with pytest.raises(ValueError):
            mlp_graph.mark_output("nonexistent")

    def test_shape_mismatch_caught_at_build(self):
        b = GraphBuilder()
        x = b.input((8, 16))
        w = b.weight((32, 20))
        with pytest.raises(ValueError, match="k mismatch"):
            b.add("fc", (x.name, w.name))


class TestQueries:
    def test_users(self, mlp_graph):
        assert [n.name for n in mlp_graph.users("fc")] == ["act"]
        assert [n.name for n in mlp_graph.users("x")] == ["fc"]
        assert mlp_graph.users("act") == []

    def test_nodes_by_op(self, mlp_graph):
        assert [n.name for n in mlp_graph.nodes_by_op("fc")] == ["fc"]

    def test_len_and_contains(self, mlp_graph):
        assert len(mlp_graph) == 4
        assert "fc" in mlp_graph
        assert "nope" not in mlp_graph


class TestMutation:
    def test_replace_uses(self, mlp_graph):
        mlp_graph.replace_uses("fc", "x")
        assert mlp_graph.node("act").inputs == ["x"]

    def test_replace_uses_updates_outputs(self, mlp_graph):
        mlp_graph.replace_uses("act", "fc")
        assert mlp_graph.outputs == ["fc"]

    def test_remove_node_with_users_rejected(self, mlp_graph):
        with pytest.raises(ValueError, match="users"):
            mlp_graph.remove_node("fc")

    def test_remove_output_rejected(self, mlp_graph):
        with pytest.raises(ValueError, match="output"):
            mlp_graph.remove_node("act")

    def test_prune_dead(self, mlp_graph):
        b = GraphBuilder("g")
        x = b.input((4, 4), name="x")
        live = b.add("relu", (x.name,), name="live")
        dead = b.add("tanh", (x.name,), name="dead")
        g = b.output(live.name)
        removed = g.prune_dead()
        assert removed == 1
        assert "dead" not in g

    def test_insert_before_maintains_order(self, mlp_graph):
        node = Node(name="pre", op="tanh", inputs=["fc"])
        from repro.compiler.ops import infer_meta
        node.meta = infer_meta(mlp_graph, node)
        mlp_graph.insert_before("act", node)
        order = [n.name for n in mlp_graph]
        assert order.index("pre") < order.index("act")
        assert order.index("pre") > order.index("fc")

    def test_insert_before_unknown_anchor_leaves_graph_unchanged(
            self, mlp_graph):
        from repro.compiler.ops import infer_meta
        node = Node(name="y", op="tanh", inputs=["fc"])
        node.meta = infer_meta(mlp_graph, node)
        before = [n.name for n in mlp_graph]
        with pytest.raises(ValueError, match="anchor"):
            mlp_graph.insert_before("ghost", node)
        assert "y" not in mlp_graph
        assert [n.name for n in mlp_graph] == before
        assert len(mlp_graph) == len(before)

    def test_insert_before_rejected_batch_leaves_graph_unchanged(
            self, mlp_graph):
        ok = Node(name="y", op="tanh", inputs=["fc"])
        bad = Node(name="z", op="tanh", inputs=["ghost"])
        with pytest.raises(ValueError, match="undefined input"):
            mlp_graph.insert_before("act", ok, bad)
        assert "y" not in mlp_graph
        assert len(mlp_graph) == 4

    def test_insert_before_several_nodes_keeps_their_order(self, mlp_graph):
        from repro.compiler.ops import infer_meta
        first = Node(name="p", op="tanh", inputs=["fc"])
        first.meta = infer_meta(mlp_graph, first)
        # relu keeps the shape; "p" is not in the graph yet to infer from
        second = Node(name="q", op="relu", inputs=["p"], meta=first.meta)
        mlp_graph.insert_before("act", first, second)
        assert [n.name for n in mlp_graph] == ["x", "w", "fc", "p", "q",
                                               "act"]
        mlp_graph.validate()

    def test_insert_before_duplicate_name_rejected(self, mlp_graph):
        with pytest.raises(ValueError, match="duplicate"):
            mlp_graph.insert_before("act", Node(name="fc", op="tanh",
                                                inputs=["x"]))
        assert len(mlp_graph) == 4

    def test_repr_lists_nodes(self, mlp_graph):
        text = repr(mlp_graph)
        assert "%fc = fc(x, w)" in text
        assert "outputs: ['act']" in text


class TestValidate:
    def test_valid_graph_passes(self, mlp_graph):
        mlp_graph.validate()

    def test_fused_dlrm_graph_validates(self):
        from repro.compiler.fusion import fuse_graph
        from repro.models.configs import MODEL_ZOO
        from repro.models.dlrm import build_dlrm_graph
        g = build_dlrm_graph(MODEL_ZOO["LC2"], 16)
        fuse_graph(g)
        g.validate()

    def test_stale_metadata_detected(self, mlp_graph):
        from repro.runtime.tensor import TensorMeta
        mlp_graph.node("fc").meta = TensorMeta((1, 1), "fp32")
        with pytest.raises(ValueError, match="stale"):
            mlp_graph.validate()

    def test_missing_metadata_detected(self, mlp_graph):
        mlp_graph.node("act").meta = None
        with pytest.raises(ValueError, match="no metadata"):
            mlp_graph.validate()

    def test_out_of_order_use_detected(self):
        g = Graph()
        # Bypass the builder to create a broken ordering.
        a = Node(name="a", op="input", attrs={"shape": (4,)})
        from repro.compiler.ops import infer_meta
        a.meta = infer_meta(g, a)
        g.add_node(a)
        b = Node(name="b", op="relu", inputs=["a"])
        b.meta = infer_meta(g, b)
        g.add_node(b)
        g._order.reverse()
        with pytest.raises(ValueError, match="before it is defined"):
            g.validate()
