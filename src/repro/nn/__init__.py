"""Pure-numpy CNN inference engine (the paper's Caffe substrate).

Exposes the layer library, the :class:`Network` DAG container with
injection taps and partial re-execution, the :class:`NetworkBuilder`
used by the model zoo, and per-layer statistics collection.
"""

from .builder import NetworkBuilder
from .graph import INPUT, ActivationCache, ForwardFn, Network, ReplayPlan
from .graphutils import (
    downstream_layers,
    layer_depths,
    replay_cost_fraction,
    validate_dag,
)
from .layer import Layer
from .spec import LayerSpec, NetworkSpec, build_from_spec
from .layers import (
    Add,
    AvgPool2D,
    ChannelAffine,
    Concat,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool,
    LRN,
    MaxPool2D,
    ReLU,
    Softmax,
)
from .statistics import (
    LayerStats,
    measure_ranges,
    ordered_stats,
    static_stats,
    total_inputs,
    total_macs,
)

__all__ = [
    "ActivationCache",
    "Add",
    "AvgPool2D",
    "ChannelAffine",
    "Concat",
    "Conv2D",
    "Dense",
    "Flatten",
    "ForwardFn",
    "GlobalAvgPool",
    "INPUT",
    "LRN",
    "Layer",
    "LayerSpec",
    "LayerStats",
    "MaxPool2D",
    "Network",
    "NetworkBuilder",
    "NetworkSpec",
    "ReLU",
    "ReplayPlan",
    "Softmax",
    "build_from_spec",
    "downstream_layers",
    "layer_depths",
    "measure_ranges",
    "ordered_stats",
    "replay_cost_fraction",
    "static_stats",
    "total_inputs",
    "total_macs",
    "validate_dag",
]
