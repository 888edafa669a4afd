"""DNN graph construction, cut points, and linear segments."""

import pytest

from repro.dnn.graph import DNNGraph, GraphError, chain
from repro.dnn.layers import (
    Activation,
    Add,
    Concat,
    Conv2d,
    Dense,
    Flatten,
    GlobalAvgPool2d,
    MaxPool2d,
)
from repro.dnn.shapes import TensorShape


def make_chain_graph():
    g = DNNGraph("chain", TensorShape(3, 32, 32))
    g.add(Conv2d("c1", 16, 3, padding=1))
    g.add(Activation("r1"))
    g.add(MaxPool2d("p1", 2, 2))
    g.add(Conv2d("c2", 32, 3, padding=1))
    g.add(GlobalAvgPool2d("gap"))
    g.add(Dense("fc", 10))
    return g


def make_residual_graph():
    g = DNNGraph("residual", TensorShape(16, 8, 8))
    entry = g.add(Conv2d("stem", 16, 3, padding=1))
    g.add(Conv2d("b1", 16, 3, padding=1), inputs=entry)
    main = g.add(Activation("b1r"))
    g.add(Add("join"), inputs=[main, entry])
    g.add(Activation("out"))
    return g


class TestConstruction:
    def test_layer_count_excludes_input(self):
        g = make_chain_graph()
        assert len(g) == 6
        assert len(g.layers) == 7

    def test_default_input_is_previous_layer(self):
        g = make_chain_graph()
        preds = g.predecessors("r1")
        assert [p.name for p in preds] == ["c1"]

    def test_duplicate_names_rejected(self):
        g = DNNGraph("dup", TensorShape(3, 8, 8))
        g.add(Conv2d("c", 8, 3, padding=1))
        with pytest.raises(GraphError):
            g.add(Conv2d("c", 8, 3, padding=1))

    def test_unknown_input_rejected(self):
        g = DNNGraph("bad", TensorShape(3, 8, 8))
        with pytest.raises(GraphError):
            g.add(Conv2d("c", 8, 3), inputs="nonexistent")

    def test_getitem_and_missing(self):
        g = make_chain_graph()
        assert g["c1"].kind == "conv"
        with pytest.raises(GraphError):
            g["nope"]

    def test_successors(self):
        g = make_residual_graph()
        succ_names = {s.name for s in g.successors("stem")}
        assert succ_names == {"b1", "join"}

    def test_output_layer_unique(self):
        g = make_chain_graph()
        assert g.output_layer.name == "fc"

    def test_multiple_sinks_rejected(self):
        g = DNNGraph("twosinks", TensorShape(3, 8, 8))
        entry = g.add(Conv2d("c1", 8, 3, padding=1))
        g.add(Conv2d("c2", 8, 3, padding=1), inputs=entry)
        g.add(Conv2d("c3", 8, 3, padding=1), inputs=entry)
        with pytest.raises(GraphError):
            g.output_layer

    def test_shapes_propagate(self):
        g = make_chain_graph()
        assert g.input_shape == TensorShape(3, 32, 32)
        assert g.output_layer.out_shape == TensorShape(10)

    def test_chain_helper(self):
        g = DNNGraph("h", TensorShape(3, 8, 8))
        last = chain(
            g, [Conv2d("c", 8, 3, padding=1), Activation("r")]
        )
        assert last.name == "r"

    def test_chain_helper_empty_rejected(self):
        g = DNNGraph("h", TensorShape(3, 8, 8))
        with pytest.raises(GraphError):
            chain(g, [])

    def test_aggregate_stats_positive(self):
        g = make_chain_graph()
        assert g.total_flops > 0
        assert g.total_params > 0

    def test_validate_passes_for_well_formed(self):
        make_chain_graph().validate()


class TestCutPoints:
    def test_chain_every_layer_is_cut(self):
        g = make_chain_graph()
        cuts = {l.name for l in g.cut_points()}
        assert cuts == {"c1", "r1", "p1", "c2", "gap", "fc"}

    def test_residual_block_is_atomic(self):
        g = make_residual_graph()
        cuts = [l.name for l in g.cut_points()]
        # inside the block (b1, b1r) the skip tensor is still live
        assert "b1" not in cuts
        assert "b1r" not in cuts
        assert "stem" in cuts
        assert "join" in cuts
        assert cuts[-1] == "out"

    def test_branchy_graph_cut_at_concat(self):
        g = DNNGraph("inception", TensorShape(16, 8, 8))
        entry = g.add(Conv2d("stem", 16, 3, padding=1))
        a = g.add(Conv2d("a", 8, 1), inputs=entry)
        b = g.add(Conv2d("b", 8, 3, padding=1), inputs=entry)
        g.add(Concat("cat"), inputs=[a, b])
        g.add(Activation("out"))
        cuts = [l.name for l in g.cut_points()]
        assert "a" not in cuts and "b" not in cuts
        assert "cat" in cuts

    def test_last_layer_always_cut(self):
        for make in (make_chain_graph, make_residual_graph):
            g = make()
            assert g.cut_points()[-1] is g.output_layer


class TestLinearSegments:
    def test_partition_covers_all_layers_once(self):
        for make in (make_chain_graph, make_residual_graph):
            g = make()
            segments = g.linear_segments()
            names = [l.name for seg in segments for l in seg]
            assert names == [l.name for l in g.compute_layers]

    def test_segments_end_at_cut_points(self):
        g = make_residual_graph()
        cuts = {l.name for l in g.cut_points()}
        for seg in g.linear_segments():
            assert seg[-1].name in cuts

    def test_residual_block_in_one_segment(self):
        g = make_residual_graph()
        segments = g.linear_segments()
        block_seg = [
            seg
            for seg in segments
            if any(l.name == "b1" for l in seg)
        ]
        assert len(block_seg) == 1
        names = {l.name for l in block_seg[0]}
        assert {"b1", "b1r", "join"} <= names


class TestZooStructure:
    def test_flatten_before_dense(self):
        g = DNNGraph("flat", TensorShape(8, 4, 4))
        g.add(Flatten("f"))
        g.add(Dense("fc", 10))
        assert g.output_layer.out_shape == TensorShape(10)

    def test_repr_mentions_stats(self):
        text = repr(make_chain_graph())
        assert "chain" in text and "GFLOPs" in text
