"""Per-sample reference layer forwards: the oracle for the layer kernels.

These are the earlier stock implementations of the layers whose forward
now runs :mod:`repro.nn.kernels`: convolution as one GEMM per sample
(and per group) over an ``im2col`` copy, max pooling as a reduction over
the generic window copy, and LRN over cumulative sums of a zero-padded
channel axis.  Dense and ReLU are the plain GEMM and ``np.maximum``.
:func:`reference_forward` is a ``ForwardFn``, so
``network.forward(x, forward_fn=reference_forward)`` is the oracle
forward of a whole network.  Layers without a kernel run their own
``forward``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn import LRN, Conv2D, Dense, Layer, MaxPool2D, ReLU
from repro.nn.tensor import extract_windows, flatten_spatial, im2col, pad_nchw


def conv_forward(layer: Conv2D, x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    out_c, out_h, out_w = layer.output_shape
    k, stride, padding = layer.kernel, layer.stride, layer.padding
    if layer.groups == 1:
        cols = im2col(x, k, stride, padding)
        out = np.matmul(layer.weight.reshape(out_c, -1)[None, :, :], cols)
        out = out.reshape(n, out_c, out_h, out_w)
    elif layer.groups == x.shape[1] and layer.weight.shape[1] == 1:
        windows = extract_windows(x, k, stride, padding)
        kernels = layer.weight[:, 0, :, :]
        out = np.einsum("nchwij,cij->nchw", windows, kernels, optimize=True)
        out = out.reshape(n, out_c, out_h, out_w)
    else:
        in_per_group = layer.weight.shape[1]
        out_per_group = out_c // layer.groups
        out = np.empty((n, out_c, out_h, out_w), dtype=np.float64)
        for g in range(layer.groups):
            x_g = x[:, g * in_per_group : (g + 1) * in_per_group]
            w_g = layer.weight[g * out_per_group : (g + 1) * out_per_group]
            cols = im2col(x_g, k, stride, padding)
            res = np.matmul(w_g.reshape(out_per_group, -1)[None, :, :], cols)
            out[:, g * out_per_group : (g + 1) * out_per_group] = res.reshape(
                n, out_per_group, out_h, out_w
            )
    if layer.bias is not None:
        out += layer.bias[None, :, None, None]
    return out


def max_pool_forward(layer: MaxPool2D, x: np.ndarray) -> np.ndarray:
    if layer.padding > 0:
        padded = pad_nchw(x, layer.padding)
        mask = pad_nchw(np.ones_like(x), layer.padding)
        padded = np.where(mask > 0, padded, -np.inf)
        windows = extract_windows(padded, layer.kernel, layer.stride, 0)
    else:
        windows = extract_windows(x, layer.kernel, layer.stride, 0)
    return windows.max(axis=(4, 5))


def lrn_forward(layer: LRN, x: np.ndarray) -> np.ndarray:
    squared = x * x
    half = layer.local_size // 2
    channels = x.shape[1]
    padded = np.zeros(
        (x.shape[0], channels + 2 * half) + x.shape[2:], dtype=np.float64
    )
    padded[:, half : half + channels] = squared
    cumulative = np.cumsum(padded, axis=1)
    window = np.empty_like(squared)
    # sum over channel window [c - half, c + half] via cumulative sums
    upper = cumulative[:, layer.local_size - 1 :]
    lower = np.concatenate(
        [np.zeros_like(cumulative[:, :1]), cumulative[:, : -layer.local_size]],
        axis=1,
    )
    window[:] = upper - lower
    denom = (layer.k + (layer.alpha / layer.local_size) * window) ** layer.beta
    return x / denom


def dense_forward(layer: Dense, x: np.ndarray) -> np.ndarray:
    out = flatten_spatial(x) @ layer.weight.T
    if layer.bias is not None:
        out += layer.bias
    return out


def reference_forward(layer: Layer, arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The oracle ``ForwardFn``: stock forwards for the kernel layers."""
    if isinstance(layer, Conv2D):
        return conv_forward(layer, arrays[0])
    if isinstance(layer, MaxPool2D):
        return max_pool_forward(layer, arrays[0])
    if isinstance(layer, LRN):
        return lrn_forward(layer, arrays[0])
    if isinstance(layer, Dense):
        return dense_forward(layer, arrays[0])
    if isinstance(layer, ReLU):
        return np.maximum(arrays[0], 0.0)
    return layer.forward(arrays)
