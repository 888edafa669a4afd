"""Tensor shapes and window arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dnn.shapes import TensorShape, conv_out_hw, window_out


class TestTensorShape:
    def test_numel(self):
        assert TensorShape(64, 28, 28).numel == 64 * 28 * 28

    def test_flat_vector(self):
        shape = TensorShape(1000)
        assert shape.is_flat
        assert shape.h == 1 and shape.w == 1

    def test_feature_map_is_not_flat(self):
        assert not TensorShape(3, 224, 224).is_flat

    def test_flatten_preserves_numel(self):
        shape = TensorShape(512, 7, 7)
        flat = shape.flatten()
        assert flat.is_flat
        assert flat.numel == shape.numel

    @pytest.mark.parametrize("c,h,w", [(0, 1, 1), (1, 0, 1), (1, 1, -3)])
    def test_rejects_non_positive_dims(self, c, h, w):
        with pytest.raises(ValueError):
            TensorShape(c, h, w)

    def test_str_forms(self):
        assert str(TensorShape(1000)) == "(1000)"
        assert str(TensorShape(3, 224, 224)) == "(3,224,224)"

    def test_hashable_and_frozen(self):
        shape = TensorShape(3, 2, 2)
        assert shape in {TensorShape(3, 2, 2)}
        with pytest.raises(AttributeError):
            shape.c = 4  # type: ignore[misc]

    @given(
        c=st.integers(1, 2048),
        h=st.integers(1, 512),
        w=st.integers(1, 512),
    )
    def test_numel_property(self, c, h, w):
        assert TensorShape(c, h, w).numel == c * h * w


class TestWindowOut:
    def test_valid_conv(self):
        # AlexNet conv1: 227, k=11, s=4, p=0 -> 55
        assert window_out(227, 11, 4, 0) == 55

    def test_same_padding(self):
        assert window_out(224, 3, 1, "same") == 224
        assert window_out(224, 3, 2, "same") == 112
        assert window_out(225, 3, 2, "same") == 113  # ceil

    def test_valid_mode(self):
        assert window_out(147, 3, 1, "valid") == 145

    def test_same_ceil_mode(self):
        # GoogleNet pool1: 112, k=3, s=2 -> ceil((112-3)/2)+1 = 56
        assert window_out(112, 3, 2, "same_ceil") == 56

    def test_explicit_padding(self):
        # ResNet conv1: 224, k=7, s=2, p=3 -> 112
        assert window_out(224, 7, 2, 3) == 112

    def test_rejects_negative_padding(self):
        with pytest.raises(ValueError):
            window_out(10, 3, 1, -1)

    def test_rejects_window_larger_than_input(self):
        with pytest.raises(ValueError):
            window_out(2, 5, 1, 0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            window_out(10, 3, 1, "reflect")

    @given(
        size=st.integers(8, 512),
        kernel=st.integers(1, 7),
        stride=st.integers(1, 4),
    )
    def test_same_matches_ceil_division(self, size, kernel, stride):
        assert window_out(size, kernel, stride, "same") == -(-size // stride)

    @given(
        size=st.integers(8, 512),
        kernel=st.integers(1, 7),
        stride=st.integers(1, 4),
        pad=st.integers(0, 3),
    )
    def test_output_positive_when_window_fits(self, size, kernel, stride, pad):
        if size + 2 * pad >= kernel:
            assert window_out(size, kernel, stride, pad) >= 1


class TestConvOutHw:
    def test_square(self):
        assert conv_out_hw(224, 224, 3, 1, 1) == (224, 224)

    def test_rect_kernel(self):
        # 1x7 conv with same padding keeps dims
        assert conv_out_hw(17, 17, (1, 7), 1, "same") == (17, 17)

    def test_rect_kernel_valid(self):
        assert conv_out_hw(17, 17, (1, 7), 1, "valid") == (17, 11)

    def test_per_dim_padding(self):
        assert conv_out_hw(17, 17, (1, 7), 1, (0, 3)) == (17, 17)
