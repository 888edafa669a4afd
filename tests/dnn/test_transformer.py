"""Transformer IR: LayerNorm / Tokenize / MatMul accounting + ViT zoo.

Shapes follow the conv-IR embedding: a token sequence is a
``(d_model, seq, 1)`` tensor, attention scores are ``(heads, s, s)``,
and per-token projections are 1x1 convolutions.
"""

import numpy as np
import pytest

from repro.dnn import zoo
from repro.dnn.graph import TensorShape
from repro.dnn.layers import LayerNorm, MatMul, Tokenize
from tests.dnn.numeric import NumericExecutor


class TestTokenize:
    def test_flattens_patch_grid(self):
        t = Tokenize("tok")
        out = t.infer_shape([TensorShape(96, 6, 6)])
        assert out == TensorShape(96, 36, 1)

    def test_no_flops_and_fusible(self):
        t = Tokenize("tok")
        t.bind([TensorShape(8, 4, 4)])
        assert t.flops == 0
        assert t.fusible
        assert t.kind == "reshape"


class TestLayerNorm:
    def test_shape_preserving(self):
        ln = LayerNorm("ln")
        shape = TensorShape(96, 36, 1)
        assert ln.infer_shape([shape]) == shape

    def test_params_scale_and_shift(self):
        ln = LayerNorm("ln")
        ln.bind([TensorShape(96, 36, 1)])
        assert ln.weight_params == 2 * 96

    def test_flops_linear_in_elements(self):
        ln = LayerNorm("ln")
        ln.bind([TensorShape(96, 36, 1)])
        assert ln.flops == 8 * 96 * 36


class TestMatMul:
    def test_scores_shape(self):
        """Q x K^T over heads: (d, s, 1) x (d, s, 1) -> (h, s, s)."""
        mm = MatMul("qk", heads=3)
        q = TensorShape(96, 36, 1)
        out = mm.infer_shape([q, q])
        assert out == TensorShape(3, 36, 36)

    def test_context_shape(self):
        """Attn x V: (h, s, s) x (d, s, 1) -> (d, s, 1)."""
        mm = MatMul("av", heads=3)
        out = mm.infer_shape(
            [TensorShape(3, 36, 36), TensorShape(96, 36, 1)]
        )
        assert out == TensorShape(96, 36, 1)

    def test_flops_quadratic_in_sequence(self):
        mm = MatMul("qk", heads=3)
        q = TensorShape(96, 36, 1)
        mm.bind([q, q])
        assert mm.flops == 2 * 36 * 36 * 96

    def test_head_divisibility_enforced(self):
        mm = MatMul("qk", heads=5)
        q = TensorShape(96, 36, 1)
        with pytest.raises(Exception):
            mm.infer_shape([q, q])

    def test_requires_two_inputs(self):
        mm = MatMul("qk", heads=1)
        with pytest.raises(Exception):
            mm.infer_shape([TensorShape(96, 36, 1)])


class TestVitTiny:
    @pytest.fixture(scope="class")
    def vit(self):
        return zoo.build("vit_tiny")

    def test_registered_with_aliases(self):
        assert zoo.canonical_name("vit") == "vit_tiny"
        assert zoo.canonical_name("transformer") == "vit_tiny"
        assert "vit_tiny" in zoo.available()

    def test_graph_validates_and_is_flat(self, vit):
        assert vit.output_layer.out_shape.is_flat
        assert vit.output_layer.out_shape.c == 100

    def test_attention_layers_present(self, vit):
        kinds = {l.kind for l in vit.layers}
        assert {"matmul", "ln", "softmax", "reshape"} <= kinds

    def test_flop_accounting_sums_layers(self, vit):
        assert vit.total_flops == sum(
            l.flops for l in vit.compute_layers
        )
        assert vit.total_flops > 10e6  # ~18.5 MFLOPs

    def test_param_accounting(self, vit):
        assert vit.total_params == sum(
            l.weight_params for l in vit.layers
        )
        assert vit.total_params > 0.2e6

    def test_numeric_execution(self, vit):
        """The IR shapes are honest: the executor runs end to end and
        softmax output is a probability vector."""
        out = NumericExecutor(vit).run()
        assert out.shape == (100,)
        assert np.isclose(out.sum(), 1.0, atol=1e-5)
        assert (out >= 0).all()

    def test_numeric_determinism(self, vit):
        a = NumericExecutor(vit).run()
        b = NumericExecutor(zoo.build("vit_tiny")).run()
        assert np.array_equal(a, b)
