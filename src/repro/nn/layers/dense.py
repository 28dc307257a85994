"""Fully connected (inner product) layer.

The paper treats convolutional and fully connected layers identically:
"Convolution and fully connected layers use the same dot product
operation, the only difference is the way inputs or weights are shared"
(Sec. III).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ...errors import ShapeError
from ..kernels import dense
from ..layer import Layer, Shape


class Dense(Layer):
    """Fully connected layer ``y = W x + b``.

    Accepts either a flat ``(N, F)`` input or an ``(N, C, H, W)`` input,
    which is flattened first (Caffe's InnerProduct semantics).
    """

    analyzed = True

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
    ):
        super().__init__(name, inputs)
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ShapeError(f"dense weight must be 2-D (out, in); got {weight.shape}")
        self.weight = weight
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        if self.bias is not None and self.bias.shape != (weight.shape[0],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match out features "
                f"{weight.shape[0]}"
            )

    @property
    def in_features(self) -> int:
        return self.weight.shape[1]

    @property
    def out_features(self) -> int:
        return self.weight.shape[0]

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        (shape,) = input_shapes
        flat = int(np.prod(shape))
        if flat != self.in_features:
            raise ShapeError(
                f"dense {self.name!r}: input has {flat} features but weight "
                f"expects {self.in_features}"
            )
        return (self.out_features,)

    def forward(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        return dense(self, arrays[0])

    def num_macs(self) -> int:
        self._require_bound()
        return self.in_features * self.out_features

    def num_parameters(self) -> int:
        params = self.weight.size
        if self.bias is not None:
            params += self.bias.size
        return int(params)
