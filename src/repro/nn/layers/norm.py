"""Normalization layers.

Batch normalization at inference time folds into a per-channel affine
transform, which is how Caffe deploys it; :class:`ChannelAffine`
implements that folded form directly.  :class:`LRN` implements the
local response normalization used by AlexNet and GoogleNet.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...errors import ShapeError
from ..kernels import lrn
from ..layer import Layer, Shape


class ChannelAffine(Layer):
    """Per-channel ``y = scale * x + shift`` (folded batch norm)."""

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        scale: np.ndarray,
        shift: np.ndarray,
    ):
        super().__init__(name, inputs)
        self.scale = np.asarray(scale, dtype=np.float64)
        self.shift = np.asarray(shift, dtype=np.float64)
        if self.scale.ndim != 1 or self.scale.shape != self.shift.shape:
            raise ShapeError(
                f"affine {name!r}: scale/shift must be matching 1-D arrays"
            )

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        (shape,) = input_shapes
        if len(shape) != 3 or shape[0] != self.scale.shape[0]:
            raise ShapeError(
                f"affine {self.name!r}: input {shape} does not match "
                f"{self.scale.shape[0]} channels"
            )
        return shape

    def forward(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        (x,) = arrays
        return x * self.scale[None, :, None, None] + self.shift[None, :, None, None]

    def num_parameters(self) -> int:
        return int(self.scale.size + self.shift.size)


class LRN(Layer):
    """Local response normalization across channels (AlexNet-style).

    ``y_c = x_c / (k + alpha/n * sum_{c' in window} x_{c'}^2) ** beta``
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        local_size: int = 5,
        alpha: float = 1e-4,
        beta: float = 0.75,
        k: float = 1.0,
    ):
        super().__init__(name, inputs)
        if local_size < 1 or local_size % 2 == 0:
            raise ShapeError("LRN local_size must be a positive odd integer")
        self.local_size = local_size
        self.alpha = alpha
        self.beta = beta
        self.k = k

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        (shape,) = input_shapes
        if len(shape) != 3:
            raise ShapeError(f"LRN {self.name!r} needs a CHW input, got {shape}")
        return shape

    def forward(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        return lrn(self, arrays[0])
