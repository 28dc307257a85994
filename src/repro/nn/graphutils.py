"""Graph analysis utilities over a :class:`~repro.nn.graph.Network`.

Structural queries used in reporting and diagnostics: layer depth (how
many analyzed layers an error crosses before reaching the output — the
quantity Fig. 2 organizes its lines by), downstream cost (what a
partial replay from a layer costs), and DAG sanity checks.  Each is one
walk over ``Network.layers``, which is already in topological order.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import GraphError
from .graph import INPUT, Network


def validate_dag(network: Network) -> None:
    """Raise if the network graph is not a DAG reaching its output."""
    seen = {INPUT}
    reached = {INPUT}
    for layer in network.layers:
        if any(producer not in seen for producer in layer.inputs):
            raise GraphError(f"network {network.name!r} contains a cycle")
        seen.add(layer.name)
        if any(producer in reached for producer in layer.inputs):
            reached.add(layer.name)
    output = network.output_name
    if output not in reached:
        raise GraphError(
            f"network {network.name!r}: output {output!r} is not reachable "
            "from the input"
        )


def layer_depths(network: Network) -> Dict[str, int]:
    """Longest path (in layers) from the input to each layer."""
    depths: Dict[str, int] = {INPUT: 0}
    for layer in network.layers:
        depths[layer.name] = 1 + max(depths[p] for p in layer.inputs)
    return depths


def downstream_layers(network: Network, start: str) -> List[str]:
    """Layers recomputed by a partial replay from ``start`` (inclusive)."""
    layers = network.layers
    return [layers[i].name for i in network.replay_plan(start).layer_indices]


def replay_cost_fraction(network: Network, start: str) -> float:
    """Fraction of the network's MACs a replay from ``start`` recomputes.

    Quantifies the speedup partial re-execution gives the profiler:
    late layers replay almost for free, early layers cost a full pass.
    """
    total = sum(layer.num_macs() for layer in network.layers)
    if total == 0:
        raise GraphError("network has no MAC work")
    names = set(downstream_layers(network, start))
    replayed = sum(
        layer.num_macs() for layer in network.layers if layer.name in names
    )
    return replayed / total
