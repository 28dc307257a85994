"""Data-driven activation-scale calibration (LSUV-style).

Randomly initialized deep feature extractors drift in activation scale
(variance decays or explodes across tens of layers), whereas trained
networks keep layer activations on a stable scale.  To make the model
zoo statistically resemble its pretrained counterparts, each Conv2D /
Dense layer's weights are rescaled so the layer's output standard
deviation on a calibration batch hits a target — the layer-sequential
unit-variance (LSUV) initialization of Mishkin & Matas, applied with a
pixel-scale target instead of 1.0.

This matters for the reproduction: the paper's integer bitwidths come
from measured ``max|X_K|`` (Table II row 3: values 139..443), so the
substrate must hold activations in a comparable, non-degenerate range
for bitwidth results to be meaningful.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..errors import ModelError
from ..nn.graph import Network
from ..nn.layer import Layer
from ..nn.layers import Conv2D, Dense


def lsuv_calibrate(
    network: Network,
    images: np.ndarray,
    target_std: float = 50.0,
    min_std: float = 1e-9,
) -> Dict[str, float]:
    """Rescale every Conv2D/Dense layer so its output std ~= target_std.

    Layers are visited in topological order, so each rescaling sees the
    already-calibrated upstream activations.  Returns the applied scale
    factor per layer.  The network is modified in place.  The pass is
    one :meth:`Network.forward`, which frees each activation after its
    last consumer.
    """
    if target_std <= 0:
        raise ModelError("target_std must be positive")
    scales: Dict[str, float] = {}

    def calibrated(layer: Layer, arrays: Sequence[np.ndarray]) -> np.ndarray:
        out = layer.forward(arrays)
        if isinstance(layer, (Conv2D, Dense)):
            std = float(out.std())
            factor = target_std / max(std, min_std)
            layer.weight = layer.weight * factor
            if layer.bias is not None:
                layer.bias = layer.bias * factor
            out *= factor
            scales[layer.name] = factor
        return out

    network.forward(images, forward_fn=calibrated)
    return scales
