"""Convolution layers (standard, grouped, and depthwise).

Convolution is the dot-product workhorse the paper's error model is
built around: for a fixed trained kernel ``w`` and an input ``x`` with
per-element rounding error ``delta_x``, the output error is
``sum_i w_i * delta_x_i`` (paper Eq. 3).  The forward
(:func:`repro.nn.kernels.conv2d`) unfolds the input into im2col columns,
so each output element really is computed as one large dot product,
matching that model exactly.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ...errors import ShapeError
from ..layer import Layer, Shape
from ..kernels import conv2d
from ..tensor import conv_output_hw


class Conv2D(Layer):
    """2-D convolution with square kernels and optional channel groups.

    Parameters
    ----------
    name, inputs:
        Graph wiring (see :class:`~repro.nn.layer.Layer`).
    weight:
        Array of shape ``(out_channels, in_channels // groups, k, k)``.
    bias:
        Optional array of shape ``(out_channels,)``.
    stride, padding:
        Spatial stride and symmetric zero padding.
    groups:
        Channel groups; ``groups == in_channels`` gives a depthwise
        convolution (MobileNet's building block).
    """

    analyzed = True

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
    ):
        super().__init__(name, inputs)
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 4 or weight.shape[2] != weight.shape[3]:
            raise ShapeError(
                f"conv weight must be (out, in/groups, k, k); got {weight.shape}"
            )
        if stride < 1 or padding < 0 or groups < 1:
            raise ShapeError("stride >= 1, padding >= 0, groups >= 1 required")
        if weight.shape[0] % groups != 0:
            raise ShapeError("out_channels must be divisible by groups")
        self.weight = weight
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        if self.bias is not None and self.bias.shape != (weight.shape[0],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match out_channels "
                f"{weight.shape[0]}"
            )
        self.stride = stride
        self.padding = padding
        self.groups = groups

    # ------------------------------------------------------------------
    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def kernel(self) -> int:
        return self.weight.shape[2]

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        (shape,) = input_shapes
        if len(shape) != 3:
            raise ShapeError(f"conv {self.name!r} needs a CHW input, got {shape}")
        c, h, w = shape
        if c != self.weight.shape[1] * self.groups:
            raise ShapeError(
                f"conv {self.name!r}: input has {c} channels but weight expects "
                f"{self.weight.shape[1] * self.groups}"
            )
        out_h, out_w = conv_output_hw(h, w, self.kernel, self.stride, self.padding)
        return (self.out_channels, out_h, out_w)

    def forward(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        return conv2d(self, arrays[0])

    # ------------------------------------------------------------------
    def num_macs(self) -> int:
        self._require_bound()
        out_elems = int(np.prod(self.output_shape))
        per_output = self.weight.shape[1] * self.kernel * self.kernel
        return out_elems * per_output

    def num_parameters(self) -> int:
        params = self.weight.size
        if self.bias is not None:
            params += self.bias.size
        return int(params)
