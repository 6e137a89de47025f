"""Fusion, placement, and partitioning passes."""

import numpy as np
import pytest

from repro.compiler.fusion import fuse_graph
from repro.compiler.ir import GraphBuilder
from repro.compiler.partitioner import (choose_subgrid, cross_card_traffic,
                                        partition_by_memory)
from repro.compiler.placement import place_tensors
from repro.models.configs import MODEL_ZOO
from repro.models.dlrm import build_dlrm_graph


def sparse_graph(num_tables=6, batch=4, pooling=2, dim=8):
    """EB nodes feeding one concat — the TBE-merging candidate shape."""
    b = GraphBuilder("sparse")
    ebs = []
    for t in range(num_tables):
        table = b.weight((100, dim), dtype="int8", name=f"table{t}")
        idx = b.input((batch, pooling), dtype="int32", name=f"idx{t}")
        ebs.append(b.add("embedding_bag", (table.name, idx.name),
                         batch=batch, pooling=pooling, name=f"eb{t}"))
    cat = b.add("concat", [e.name for e in ebs], axis=1, name="cat")
    return b.output(cat.name)


class TestEBMerging:
    def test_merges_into_tbe(self):
        g = sparse_graph(num_tables=6)
        g, report = fuse_graph(g)
        assert report.tbe_created == 1
        assert report.eb_merged == 6
        assert len(g.nodes_by_op("embedding_bag")) == 0
        tbe = g.nodes_by_op("tbe")[0]
        assert tbe.meta.shape == (4, 48)

    def test_concat_shape_preserved(self):
        g = sparse_graph(num_tables=5, dim=16)
        before = g.node("cat").meta.shape
        g, _ = fuse_graph(g)
        assert g.node("cat").meta.shape == before

    def test_functional_equivalence(self, rng):
        """The merged graph computes the same pooled concat."""
        from repro.runtime.executor import GraphExecutor
        g1 = sparse_graph(num_tables=4)
        g2 = sparse_graph(num_tables=4)
        feeds = {}
        weights = {}
        for t in range(4):
            weights[f"table{t}"] = rng.integers(-20, 20, (100, 8),
                                                dtype=np.int8)
            feeds[f"idx{t}"] = rng.integers(0, 100, (4, 2))
        eager = GraphExecutor(mode="eager")
        fused = GraphExecutor(mode="graph")
        out1, _ = eager.run(g1, feeds, weights)
        out2, _ = fused.run(g2, feeds, weights)
        np.testing.assert_allclose(out1["cat"], out2["cat"])

    def test_group_size_cap(self):
        g = sparse_graph(num_tables=10)
        g, report = fuse_graph(g, max_tables_per_tbe=4)
        # 10 tables -> groups of 4, 4, 2
        assert report.tbe_created == 3

    def test_incompatible_pooling_not_merged(self):
        b = GraphBuilder()
        ebs = []
        for t, pooling in enumerate((2, 4)):
            table = b.weight((50, 8), dtype="int8", name=f"table{t}")
            idx = b.input((4, pooling), dtype="int32", name=f"idx{t}")
            ebs.append(b.add("embedding_bag", (table.name, idx.name),
                             batch=4, pooling=pooling))
        cat = b.add("concat", [e.name for e in ebs], axis=1)
        g = b.output(cat.name)
        g, report = fuse_graph(g)
        assert report.tbe_created == 0

    def test_mc1_model_ebs_all_merge(self):
        g = build_dlrm_graph(MODEL_ZOO["MC1"], 16)
        assert len(g.nodes_by_op("embedding_bag")) == 550
        g, report = fuse_graph(g)
        assert report.eb_merged == 550
        assert len(g.nodes_by_op("embedding_bag")) == 0
        assert report.tbe_created == (550 + 63) // 64


class TestEpilogueFusion:
    def test_relu_folds_into_fc(self):
        b = GraphBuilder()
        x = b.input((4, 8), name="x")
        w = b.weight((8, 8), name="w")
        fc = b.add("fc", (x.name, w.name), name="fc")
        act = b.add("relu", (fc.name,), name="act")
        g = b.output(act.name)
        g, report = fuse_graph(g)
        assert report.epilogues_fused == 1
        assert g.node("fc").attrs["epilogue"] == "relu"
        assert "act" not in g
        assert g.outputs == ["fc"]

    def test_multi_user_producer_not_fused(self):
        b = GraphBuilder()
        x = b.input((4, 8), name="x")
        w = b.weight((8, 8), name="w")
        fc = b.add("fc", (x.name, w.name), name="fc")
        act = b.add("relu", (fc.name,), name="act")
        other = b.add("tanh", (fc.name,), name="other")
        g = b.output(act.name, other.name)
        g, report = fuse_graph(g)
        assert report.epilogues_fused == 0

    def test_functional_equivalence_with_epilogue(self, rng):
        from repro.runtime.executor import GraphExecutor

        def build():
            b = GraphBuilder()
            x = b.input((4, 8), name="x")
            w = b.weight((8, 8), name="w")
            fc = b.add("fc", (x.name, w.name), name="fc")
            act = b.add("tanh", (fc.name,), name="act")
            return b.output(act.name)

        feeds = {"x": rng.standard_normal((4, 8)).astype(np.float32)}
        weights = {"w": rng.standard_normal((8, 8)).astype(np.float32)}
        out_e, _ = GraphExecutor(mode="eager").run(build(), feeds, weights)
        out_g, rep = GraphExecutor(mode="graph").run(build(), feeds, weights)
        key_e, key_g = list(out_e)[0], list(out_g)[0]
        np.testing.assert_allclose(out_e[key_e], out_g[key_g], rtol=1e-5)


class TestPlacement:
    def test_intermediates_in_sram_when_they_fit(self):
        b = GraphBuilder()
        x = b.input((64, 128), name="x")
        w = b.weight((128, 128), name="w")
        fc = b.add("fc", (x.name, w.name), name="fc")
        act = b.add("relu", (fc.name,), name="act")
        g = b.output(act.name)
        placement = place_tensors(g, sram_capacity=1 << 20)
        assert placement.region("fc") == "sram"
        assert placement.region("w") == "dram"       # weights stay off-chip
        assert placement.region("act") == "dram"     # graph output

    def test_spill_when_budget_exceeded(self):
        b = GraphBuilder()
        x = b.input((1024, 1024), name="x")
        big = b.add("relu", (x.name,), name="big")          # 4 MB
        out = b.add("tanh", (big.name,), name="out")
        g = b.output(out.name)
        placement = place_tensors(g, sram_capacity=1 << 20)  # 1 MB budget
        assert placement.region("big") == "dram"
        assert "big" in placement.spilled

    def test_liveness_frees_space(self):
        """Two sequential 600 KB tensors fit a 1 MB budget because the
        first dies before the second is allocated."""
        b = GraphBuilder()
        x = b.input((600, 256), name="x")          # ~600 KB fp32
        a = b.add("relu", (x.name,), name="a")
        bnode = b.add("tanh", (a.name,), name="b")
        c = b.add("relu", (bnode.name,), name="c")
        g = b.output(c.name)
        placement = place_tensors(g, sram_capacity=1 << 20)
        assert placement.region("a") == "sram"
        assert placement.region("b") == "sram"
        assert placement.sram_peak_bytes <= 1 << 20

    def test_unread_tensor_frees_after_its_own_step(self):
        """A tensor neither consumed nor a graph output holds no budget
        past the step that produced it."""
        b = GraphBuilder()
        x = b.input((4, 4), name="x")
        b.add("relu", (x.name,), name="dead")            # 64 B, never read
        a = b.add("relu", (x.name,), name="a")
        o = b.add("relu", (a.name,), name="o")
        g = b.output(o.name)
        placement = place_tensors(g, sram_capacity=1 << 20)
        assert placement.region("dead") == "sram"
        assert placement.region("a") == "sram"
        assert placement.sram_peak_bytes == 64

    def test_unread_tensor_does_not_force_a_spill(self):
        b = GraphBuilder()
        x = b.input((4, 4), name="x")
        b.add("relu", (x.name,), name="dead")
        a = b.add("relu", (x.name,), name="a")
        o = b.add("relu", (a.name,), name="o")
        g = b.output(o.name)
        placement = place_tensors(g, sram_capacity=64)
        assert placement.region("a") == "sram"
        assert placement.spilled == []

    def test_eb_outputs_forced_to_dram(self):
        g = sparse_graph()
        placement = place_tensors(g, sram_capacity=1 << 20)
        for t in range(6):
            assert placement.region(f"eb{t}") == "dram"

    def test_pinned_weights(self):
        b = GraphBuilder()
        x = b.input((4, 64), name="x")
        w = b.weight((64, 64), name="hot_w")
        fc = b.add("fc", (x.name, w.name), name="fc")
        g = b.output(fc.name)
        placement = place_tensors(g, sram_capacity=1 << 20,
                                  pin_weights={"hot_w"})
        assert placement.region("hot_w") == "sram"

    def test_sram_hit_fraction(self):
        b = GraphBuilder()
        x = b.input((64, 64), name="x")
        a = b.add("relu", (x.name,), name="a")
        out = b.add("tanh", (a.name,), name="out")
        g = b.output(out.name)
        placement = place_tensors(g, sram_capacity=1 << 20)
        frac = placement.sram_hit_fraction(g)
        assert 0.0 < frac < 1.0   # "a" in SRAM, "x" in DRAM


class TestPartitioner:
    def test_hc_needs_many_cards(self):
        g = build_dlrm_graph(MODEL_ZOO["HC"], 4)
        card_bytes = 32 * 10 ** 9
        partitions = partition_by_memory(g, card_bytes)
        # 725 GB over 32 GB cards
        assert len(partitions) >= 23
        assert partitions[0].owns_dense
        for part in partitions:
            assert part.weight_bytes <= card_bytes

    def test_lc2_fits_one_card(self):
        g = build_dlrm_graph(MODEL_ZOO["LC2"], 4)
        partitions = partition_by_memory(g, 32 * 10 ** 9)
        assert len(partitions) == 1

    def test_every_table_assigned_once(self):
        g = build_dlrm_graph(MODEL_ZOO["LC1"], 4)
        partitions = partition_by_memory(g, 8 * 10 ** 9)
        assigned = [w for p in partitions for w in p.weight_nodes
                    if w.startswith("table")]
        assert len(assigned) == len(set(assigned)) == 160

    def test_oversized_table_rejected(self):
        b = GraphBuilder()
        t = b.weight((10 ** 6, 1024), dtype="int8", name="table0")
        idx = b.input((4, 2), dtype="int32", name="idx")
        eb = b.add("embedding_bag", (t.name, idx.name), batch=4, pooling=2)
        g = b.output(eb.name)
        with pytest.raises(MemoryError, match="exceeds a whole card"):
            partition_by_memory(g, card_capacity_bytes=10 ** 8)

    def test_cross_card_traffic_counts_remote_ebs(self):
        g = build_dlrm_graph(MODEL_ZOO["LC1"], 8)
        partitions = partition_by_memory(g, 8 * 10 ** 9)
        traffic = cross_card_traffic(g, partitions)
        assert traffic > 0   # some tables landed off the dense card

    def test_choose_subgrid_scales_with_batch(self):
        g = build_dlrm_graph(MODEL_ZOO["LC2"], 64)
        fc = g.nodes_by_op("fc")[0]
        small = choose_subgrid(fc)
        g2 = build_dlrm_graph(MODEL_ZOO["LC2"], 1024)
        big = choose_subgrid(g2.nodes_by_op("fc")[0])
        assert big[0] * big[1] >= small[0] * small[1]
        assert small[0] <= 8 and small[1] <= 8

    def test_choose_subgrid_small_op_gets_small_grid(self):
        b = GraphBuilder()
        x = b.input((64, 64), name="x")
        w = b.weight((64, 64), name="w")
        fc = b.add("fc", (x.name, w.name))
        rows, cols = choose_subgrid(fc)
        assert rows * cols <= 4


class TestCSE:
    def test_identical_quantizes_merge(self, rng):
        from repro.compiler.fusion import fuse_graph
        b = GraphBuilder()
        x = b.input((8, 8), name="x")
        q1 = b.add("quantize", (x.name,), scale=0.1, name="q1")
        q2 = b.add("quantize", (x.name,), scale=0.1, name="q2")
        r1 = b.add("dequantize", (q1.name,), scale=0.1, name="r1")
        r2 = b.add("dequantize", (q2.name,), scale=0.1, name="r2")
        g = b.output(r1.name, r2.name)
        g, report = fuse_graph(g, merge_eb=False, fuse_epilogues=False)
        assert report.cse_merged >= 2     # q2 folds into q1, r2 into r1
        assert "q2" not in g

    def test_different_attrs_not_merged(self):
        from repro.compiler.fusion import fuse_graph
        b = GraphBuilder()
        x = b.input((8, 8), name="x")
        b.add("quantize", (x.name,), scale=0.1, name="q1")
        b.add("quantize", (x.name,), scale=0.2, name="q2")
        g = b.output("q1", "q2")
        g, report = fuse_graph(g)
        assert report.cse_merged == 0
        assert "q1" in g and "q2" in g

    def test_sources_never_merged(self):
        from repro.compiler.fusion import fuse_graph
        b = GraphBuilder()
        x1 = b.input((4,), name="x1")
        x2 = b.input((4,), name="x2")
        out = b.add("add", (x1.name, x2.name), name="out")
        g = b.output(out.name)
        g, report = fuse_graph(g)
        assert report.cse_merged == 0

    def test_functional_equivalence_after_cse(self, rng):
        from repro.compiler.fusion import fuse_graph
        from repro.runtime.executor import GraphExecutor

        def build():
            b = GraphBuilder()
            x = b.input((4, 8), name="x")
            t1 = b.add("tanh", (x.name,), name="t1")
            t2 = b.add("tanh", (x.name,), name="t2")
            out = b.add("add", (t1.name, t2.name), name="out")
            return b.output(out.name)

        feeds = {"x": rng.standard_normal((4, 8)).astype(np.float32)}
        eager, _ = GraphExecutor(mode="eager").run(build(), feeds)
        fused, _ = GraphExecutor(mode="graph").run(build(), feeds)
        np.testing.assert_allclose(eager["out"], fused["out"], rtol=1e-6)
