"""Activation layers.

ReLU is the only nonlinearity the paper's networks use between dot
products.  Its effect on the rounding-error standard deviation is a
simple scaling ``sigma_y = alpha * sigma_x`` (Sec. III-C), because
zeroed outputs contribute exact zeros to the error distribution.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..kernels import relu
from ..layer import Layer, Shape


class ReLU(Layer):
    """Rectified linear unit ``y = max(0, x)``."""

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        (shape,) = input_shapes
        return shape

    def forward(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        return relu(self, arrays[0])


class Softmax(Layer):
    """Numerically stable softmax over the feature axis.

    Models in this repo classify via argmax of the logits, so Softmax is
    provided for API completeness (the paper's layer ``L`` is the last
    layer *before* softmax) and is never an analyzed layer.
    """

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        (shape,) = input_shapes
        return shape

    def forward(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        x = arrays[0]
        flat = x.reshape(x.shape[0], -1)
        shifted = flat - flat.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return (exp / exp.sum(axis=1, keepdims=True)).reshape(x.shape)
