"""Pooling layers.

The paper's error model for pooling (Sec. III-C): max pooling passes
rounding error through unchanged (the output error is a sub-sample of
the input error, so ``sigma_y = sigma_x``), while average pooling with
filter size ``F`` behaves as a dot product with constant weights
``1/F``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...errors import ShapeError
from ..layer import Layer, Shape
from ..kernels import max_pool
from ..tensor import conv_output_hw, extract_windows


class _SpatialPool(Layer):
    """Shared plumbing for max/avg pooling with square windows."""

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        kernel: int,
        stride: int = 0,
        padding: int = 0,
    ):
        super().__init__(name, inputs)
        if kernel < 1:
            raise ShapeError("pool kernel must be >= 1")
        self.kernel = kernel
        self.stride = stride if stride > 0 else kernel
        self.padding = padding

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        (shape,) = input_shapes
        if len(shape) != 3:
            raise ShapeError(f"pool {self.name!r} needs a CHW input, got {shape}")
        c, h, w = shape
        out_h, out_w = conv_output_hw(h, w, self.kernel, self.stride, self.padding)
        return (c, out_h, out_w)

    def _windows(self, x: np.ndarray) -> np.ndarray:
        return extract_windows(x, self.kernel, self.stride, self.padding)


class MaxPool2D(_SpatialPool):
    """Max pooling; zero padding uses -inf so padding never wins."""

    def forward(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        return max_pool(self, arrays[0])


class AvgPool2D(_SpatialPool):
    """Average pooling (a dot product with constant weights 1/F)."""

    def forward(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        (x,) = arrays
        windows = self._windows(x)
        return windows.mean(axis=(4, 5))


class GlobalAvgPool(Layer):
    """Average over all spatial positions, producing a flat feature vector."""

    def __init__(self, name: str, inputs: Sequence[str]):
        super().__init__(name, inputs)

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        (shape,) = input_shapes
        if len(shape) != 3:
            raise ShapeError(
                f"global pool {self.name!r} needs a CHW input, got {shape}"
            )
        return (shape[0],)

    def forward(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        (x,) = arrays
        return x.mean(axis=(2, 3))
