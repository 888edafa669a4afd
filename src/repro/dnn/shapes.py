"""Tensor shapes for the analytical DNN IR.

Shapes are channel-first ``(C, H, W)`` feature maps or flat ``(N,)``
vectors.  Batch size is carried separately by the execution context
(the paper evaluates batch-1 inference throughout), so shapes here
describe a single sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class TensorShape:
    """Shape of one activation tensor.

    ``c`` is the channel count; ``h``/``w`` are the spatial dims.  A
    flat vector (e.g. the output of :class:`~repro.dnn.layers.Flatten`
    or :class:`~repro.dnn.layers.Dense`) is represented with
    ``h == w == 1`` and all elements folded into ``c``.
    """

    c: int
    h: int = 1
    w: int = 1

    def __post_init__(self) -> None:
        if self.c <= 0 or self.h <= 0 or self.w <= 0:
            raise ValueError(f"non-positive tensor shape {self!r}")

    @property
    def numel(self) -> int:
        """Number of scalar elements in the tensor."""
        return self.c * self.h * self.w

    @property
    def is_flat(self) -> bool:
        """True when the tensor is a vector (no spatial extent)."""
        return self.h == 1 and self.w == 1

    def flatten(self) -> "TensorShape":
        """Fold all elements into the channel dimension."""
        return TensorShape(self.numel)

    def __str__(self) -> str:  # compact, matches paper notation
        if self.is_flat:
            return f"({self.c})"
        return f"({self.c},{self.h},{self.w})"


def window_out(size: int, kernel: int, stride: int, padding: int | str) -> int:
    """Output extent of a conv/pool window along one spatial dimension.

    ``padding`` is either an explicit integer or one of the TensorRT /
    Caffe-style string modes ``"same"`` (output = ceil(in/stride)),
    ``"valid"`` (no padding), and ``"same_ceil"`` (Caffe's ceil rounding
    with zero padding, used by pooling layers in the GoogleNet lineage).
    """
    if isinstance(padding, str):
        mode = padding.lower()
        if mode == "same":
            return math.ceil(size / stride)
        if mode == "valid":
            pad = 0
        elif mode == "same_ceil":
            return max(math.ceil((size - kernel) / stride) + 1, 1)
        else:
            raise ValueError(f"unknown padding mode {padding!r}")
    else:
        pad = padding
        if pad < 0:
            raise ValueError(f"negative padding {pad}")
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"window k={kernel} s={stride} p={padding} does not fit "
            f"extent {size}"
        )
    return out


def conv_out_hw(
    h: int,
    w: int,
    kernel: int | tuple[int, int],
    stride: int,
    padding: int | str | tuple[int | str, int | str],
) -> tuple[int, int]:
    """Output spatial dims of a (possibly rectangular) window."""
    kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
    ph, pw = (
        (padding, padding) if isinstance(padding, (int, str)) else padding
    )
    return window_out(h, kh, stride, ph), window_out(w, kw, stride, pw)
