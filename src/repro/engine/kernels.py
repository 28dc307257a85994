"""The replay forward: the layer kernels with reused buffers and stacking.

Every layer forward already runs the kernels of :mod:`repro.nn.kernels`
(fused-GEMM convolution, strided 2x2 max pool, in-place LRN).  Injection
replay calls the same functions directly, with two differences that
only change speed, never bits:

* **Scratch reuse.**  One :class:`~repro.nn.kernels.KernelScratch` per
  layer campaign: every replay chunk rewrites the same (layer, role)
  buffers, which removes allocator churn on the hot path.  A buffer is
  only reused after the chunk that produced it has been consumed.
* **Per-trial GEMM slicing.**  ``trial_groups`` tells the GEMM-backed
  kernels how many trials the batch axis stacks
  (:meth:`Network.forward_from_many`), so each BLAS call keeps the
  unstacked operand shapes and the result cannot depend on the
  ``trial_batch`` setting.

Because replay calls the kernels rather than ``layer.forward``, the
per-layer ``nn.*`` spans of a traced run keep measuring the forwards
outside replay.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..nn.kernels import KernelScratch, conv2d, dense, lrn, max_pool, relu
from ..nn.layer import Layer
from ..nn.layers.activation import ReLU
from ..nn.layers.conv import Conv2D
from ..nn.layers.dense import Dense
from ..nn.layers.norm import LRN
from ..nn.layers.pool import MaxPool2D


def make_forward_fn(
    scratch: Optional[KernelScratch] = None,
    trial_groups: int = 1,
) -> Callable[[Layer, Sequence[np.ndarray]], np.ndarray]:
    """A ``ForwardFn`` running the layer kernels on reused buffers.

    The caller must guarantee single-threaded use of the returned
    function (one scratch per campaign/worker does).  Outputs alias the
    scratch, so they are only valid until the next call for the same
    layer.
    """
    scratch = scratch or KernelScratch()

    def forward(layer: Layer, arrays: Sequence[np.ndarray]) -> np.ndarray:
        if isinstance(layer, Conv2D):
            return conv2d(layer, arrays[0], scratch, trial_groups)
        if isinstance(layer, Dense):
            return dense(layer, arrays[0], scratch, trial_groups)
        if isinstance(layer, MaxPool2D):
            return max_pool(layer, arrays[0], scratch)
        if isinstance(layer, LRN):
            return lrn(layer, arrays[0], scratch)
        if isinstance(layer, ReLU):
            return relu(layer, arrays[0], scratch)
        return layer.forward(arrays)

    return forward
