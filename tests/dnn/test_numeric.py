"""Numeric executor: the IR's shapes hold for real tensors."""

import numpy as np
import pytest

from repro.dnn import zoo
from repro.dnn.graph import DNNGraph
from repro.dnn.layers import (
    Activation,
    Add,
    Concat,
    Conv2d,
    Dense,
    DepthwiseConv2d,
    Flatten,
    GlobalAvgPool2d,
    MaxPool2d,
    Softmax,
)
from repro.dnn.shapes import TensorShape
from tests.dnn.numeric import NumericExecutor


def small_cnn():
    g = DNNGraph("small", TensorShape(3, 16, 16))
    g.add(Conv2d("c1", 8, 3, padding=1))
    g.add(Activation("r1"))
    g.add(MaxPool2d("p1", 2, 2))
    g.add(Conv2d("c2", 16, 3, stride=2, padding=1))
    g.add(GlobalAvgPool2d("gap"))
    g.add(Dense("fc", 10))
    g.add(Softmax("sm"))
    return g


class TestExecution:
    def test_output_matches_inferred_shape(self):
        out = NumericExecutor(small_cnn()).run()
        assert out.shape == (10,)

    def test_softmax_normalized(self):
        out = NumericExecutor(small_cnn()).run()
        assert out.sum() == pytest.approx(1.0, rel=1e-5)
        assert (out >= 0).all()

    def test_deterministic_given_seed(self):
        a = NumericExecutor(small_cnn(), seed=42).run()
        b = NumericExecutor(small_cnn(), seed=42).run()
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = NumericExecutor(small_cnn(), seed=1).run()
        b = NumericExecutor(small_cnn(), seed=2).run()
        assert not np.allclose(a, b)

    def test_rejects_wrong_input_shape(self):
        with pytest.raises(ValueError):
            NumericExecutor(small_cnn()).run(
                np.zeros((3, 8, 8), dtype=np.float32)
            )

    def test_explicit_input_accepted(self):
        x = np.ones((3, 16, 16), dtype=np.float32)
        out = NumericExecutor(small_cnn()).run(x)
        assert out.shape == (10,)


class TestLayerSemantics:
    def test_conv_known_values(self):
        """A 1x1 conv with known weights is a channel mix."""
        g = DNNGraph("mix", TensorShape(2, 2, 2))
        g.add(Conv2d("c", 1, 1, padding=0, bias=False))
        ex = NumericExecutor(g)
        w = np.array([[[[2.0]], [[3.0]]]], dtype=np.float32)
        ex._weights["c"] = (w, None)
        x = np.stack(
            [np.full((2, 2), 1.0), np.full((2, 2), 10.0)]
        ).astype(np.float32)
        out = ex.run(x)
        assert np.allclose(out, 32.0)

    def test_strided_conv_shape(self):
        g = DNNGraph("s", TensorShape(3, 17, 17))
        g.add(Conv2d("c", 4, 3, stride=2, padding="same"))
        assert NumericExecutor(g).run().shape == (4, 9, 9)

    def test_valid_padding_shape(self):
        g = DNNGraph("v", TensorShape(3, 16, 16))
        g.add(Conv2d("c", 4, 3, padding="valid"))
        assert NumericExecutor(g).run().shape == (4, 14, 14)

    def test_rect_kernel_shape(self):
        g = DNNGraph("r", TensorShape(4, 9, 9))
        g.add(Conv2d("c", 4, (1, 7), padding="same"))
        assert NumericExecutor(g).run().shape == (4, 9, 9)

    def test_depthwise_preserves_channel_independence(self):
        g = DNNGraph("dw", TensorShape(2, 6, 6))
        g.add(DepthwiseConv2d("dw", 3, padding=1, bias=False))
        ex = NumericExecutor(g)
        # identity-ish kernels: channel 0 passes, channel 1 zeroed
        w = np.zeros((2, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        ex._weights["dw"] = (w, None)
        x = np.stack(
            [np.arange(36).reshape(6, 6), np.ones((6, 6))]
        ).astype(np.float32)
        out = ex.run(x)
        assert np.allclose(out[0], x[0])
        assert np.allclose(out[1], 0.0)

    def test_maxpool_values(self):
        g = DNNGraph("mp", TensorShape(1, 4, 4))
        g.add(MaxPool2d("p", 2, 2))
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out = NumericExecutor(g).run(x)
        assert np.allclose(out[0], [[5, 7], [13, 15]])

    def test_add_and_concat(self):
        g = DNNGraph("j", TensorShape(2, 4, 4))
        a = g.add(Conv2d("a", 2, 1, padding=0))
        b = g.add(Conv2d("b", 2, 1, padding=0), inputs="input")
        g.add(Add("sum"), inputs=[a, b])
        g.add(Concat("cat"), inputs=["sum", "a"])
        out = NumericExecutor(g).run()
        assert out.shape == (4, 4, 4)

    def test_flatten_then_dense(self):
        g = DNNGraph("fd", TensorShape(2, 3, 3))
        g.add(Flatten("f"))
        g.add(Dense("fc", 5))
        assert NumericExecutor(g).run().shape == (5,)


class TestZooShapesNumerically:
    """Execute real zoo architectures end to end -- every intermediate
    tensor must match the IR's shape inference (the executor raises
    otherwise)."""

    @pytest.mark.parametrize("model", ["alexnet", "mobilenet_v1"])
    def test_zoo_model_runs(self, model):
        graph = zoo.build(model)
        out = NumericExecutor(graph).run()
        assert out.shape == (1000,)

    @pytest.mark.slow
    def test_googlenet_runs(self):
        out = NumericExecutor(zoo.build("googlenet")).run()
        assert out.shape == (1000,)
        assert out.sum() == pytest.approx(1.0, rel=1e-4)
