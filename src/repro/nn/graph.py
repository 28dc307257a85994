"""Network container: a DAG of layers with injection taps.

Two capabilities here carry the whole reproduction:

* **Taps** — a tap is a function applied to a layer's primary input
  just before the layer computes.  The paper's profiling procedure
  (Sec. V-A) "injects an error from the uniform distribution
  [-Delta, Delta] into the input of layer K"; a tap is exactly that
  hook.  Taps also implement quantization (replace the input with its
  fixed-point rounding) and statistics recording.

* **Partial re-execution** — injecting at layer K only changes layers
  downstream of K.  :meth:`Network.run_all` caches every clean
  activation once, and :meth:`Network.forward_from` replays only the
  downstream closure of K against that cache.  This turns the paper's
  "k forward passes over the dataset, ~20 delta points each" into an
  affordable computation on a pure-numpy substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import GraphError, ShapeError
from .layer import Layer, Shape
from .tensor import assert_batched

Tap = Callable[[np.ndarray], np.ndarray]

#: Forward override hook: ``(layer, arrays) -> output``.  Used by the
#: injection engine to run the layer kernels on reused buffers during
#: replay (see :mod:`repro.engine.kernels`) and by the quantized runtime.
ForwardFn = Callable[[Layer, Sequence[np.ndarray]], np.ndarray]

#: Reserved producer name for the network input tensor.
INPUT = "input"


@dataclass(frozen=True)
class ReplayPlan:
    """Precomputed downstream closure of one start layer.

    ``forward_from`` used to re-derive this per call (an O(L) scan plus
    set bookkeeping per trial); the profiler replays from the same
    handful of start layers tens of thousands of times, so the plan is
    computed once per start layer and memoized on the network
    (invalidated whenever the graph mutates).
    """

    #: Layer the replay starts from (the injection point).
    start: str
    #: Indices (into ``Network.layers``) of the closure members, in
    #: topological order.  Every one of these layers consumes at least
    #: one dirty value and must be recomputed; no other layer does.
    layer_indices: Tuple[int, ...] = field(repr=False)
    #: Last layer index consuming each dirty value (for memory reuse).
    last_use: Mapping[str, int] = field(repr=False)
    #: Whether the closure contains the network output: a replay from
    #: ``start`` can change the output at all.
    reaches_output: bool = True

    def __len__(self) -> int:
        return len(self.layer_indices)


class ActivationCache:
    """Clean (exact) activations of every layer for one input batch."""

    def __init__(self, values: Dict[str, np.ndarray]):
        self._values = values

    def __getitem__(self, name: str) -> np.ndarray:
        return self._values[name]

    def __contains__(self, name: str) -> bool:
        return name in self._values

    @property
    def batch_size(self) -> int:
        return self._values[INPUT].shape[0]

    def names(self) -> Iterable[str]:
        return self._values.keys()

    def nbytes(self) -> int:
        return sum(v.nbytes for v in self._values.values())


class Network:
    """A feed-forward DAG of named layers.

    Layers must be added in a valid topological order: every name in a
    layer's ``inputs`` must already exist (or be :data:`INPUT`).  The
    network output (the paper's layer ``L``, the logits before softmax)
    defaults to the last layer added and can be overridden with
    :meth:`set_output`.
    """

    def __init__(self, name: str, input_shape: Shape):
        if len(input_shape) not in (1, 3):
            raise GraphError(
                f"input shape must be (C, H, W) or (F,); got {input_shape}"
            )
        self.name = name
        self.input_shape: Shape = tuple(input_shape)
        self._layers: List[Layer] = []
        self._by_name: Dict[str, Layer] = {}
        self._output: Optional[str] = None
        self._analyzed: Optional[List[str]] = None
        #: Memoized replay plans keyed by start layer; any structural
        #: mutation (``add``, ``set_output``) clears the cache.
        self._plan_cache: Dict[str, ReplayPlan] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, layer: Layer) -> Layer:
        """Add a layer; its inputs must already be present."""
        if layer.name == INPUT or layer.name in self._by_name:
            raise GraphError(f"duplicate or reserved layer name {layer.name!r}")
        shapes = []
        for producer in layer.inputs:
            if producer == INPUT:
                shapes.append(self.input_shape)
            elif producer in self._by_name:
                shapes.append(self._by_name[producer].output_shape)
            else:
                raise GraphError(
                    f"layer {layer.name!r} consumes unknown producer {producer!r}"
                )
        layer.bind(shapes)
        self._layers.append(layer)
        self._by_name[layer.name] = layer
        self._output = layer.name
        self._plan_cache.clear()
        return layer

    def set_output(self, name: str) -> None:
        """Choose which layer's output is the network output (layer L)."""
        if name not in self._by_name:
            raise GraphError(f"unknown output layer {name!r}")
        self._output = name
        self._plan_cache.clear()

    def set_analyzed_layers(self, names: Sequence[str]) -> None:
        """Restrict which dot-product layers the paper's method analyzes.

        Mirrors the paper's evaluation choices, e.g. "Stripes ignored the
        fully connected layers, so we did the same for AlexNet, NiN,
        GoogleNet and VGG-19" (Sec. VI).
        """
        for name in names:
            layer = self[name]
            if not layer.analyzed:
                raise GraphError(
                    f"layer {name!r} is not a dot-product layer; it cannot be "
                    "an analyzed layer"
                )
        self._analyzed = list(names)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def layers(self) -> Tuple[Layer, ...]:
        return tuple(self._layers)

    @property
    def output_name(self) -> str:
        if self._output is None:
            raise GraphError(f"network {self.name!r} has no layers")
        return self._output

    @property
    def num_classes(self) -> int:
        shape = self[self.output_name].output_shape
        return int(np.prod(shape))

    def __getitem__(self, name: str) -> Layer:
        try:
            return self._by_name[name]
        except KeyError:
            raise GraphError(f"unknown layer {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._layers)

    @property
    def analyzed_layer_names(self) -> List[str]:
        """Names of layers that receive bitwidth assignments, in order."""
        if self._analyzed is not None:
            return list(self._analyzed)
        return [layer.name for layer in self._layers if layer.analyzed]

    def num_parameters(self) -> int:
        return sum(layer.num_parameters() for layer in self._layers)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def forward(
        self,
        x: np.ndarray,
        taps: Optional[Mapping[str, Tap]] = None,
        forward_fn: Optional[ForwardFn] = None,
    ) -> np.ndarray:
        """Run the full network, applying ``taps`` to tapped layers' inputs.

        Intermediate activations are freed as soon as no remaining layer
        consumes them, so deep networks run in bounded memory.  When
        ``forward_fn`` is given, it replaces ``layer.forward`` for every
        layer (the substitution hook the engine's replay and the quantized
        runtime use; see :data:`ForwardFn`).
        """
        self._check_input(x)
        if taps:
            self._check_taps(taps)
        last_use = self._last_use_index()
        values: Dict[str, np.ndarray] = {INPUT: np.asarray(x, dtype=np.float64)}
        output = self.output_name
        result: Optional[np.ndarray] = None
        for index, layer in enumerate(self._layers):
            arrays = [values[n] for n in layer.inputs]
            if taps and layer.name in taps:
                arrays[0] = taps[layer.name](arrays[0])
            if forward_fn is None:
                out = layer.forward(arrays)
            else:
                out = forward_fn(layer, arrays)
            if layer.name == output:
                result = out
            values[layer.name] = out
            for name in list(values):
                if last_use.get(name, -1) <= index and name != output:
                    del values[name]
        assert result is not None
        return result

    def run_all(
        self, x: np.ndarray, forward_fn: Optional[ForwardFn] = None
    ) -> ActivationCache:
        """Run the network and keep every activation (for partial replay)."""
        self._check_input(x)
        values: Dict[str, np.ndarray] = {INPUT: np.asarray(x, dtype=np.float64)}
        for layer in self._layers:
            arrays = [values[n] for n in layer.inputs]
            if forward_fn is None:
                values[layer.name] = layer.forward(arrays)
            else:
                values[layer.name] = forward_fn(layer, arrays)
        return ActivationCache(values)

    def replay_plan(self, start: str) -> ReplayPlan:
        """Memoized downstream-closure plan for replays from ``start``.

        The plan (closure member indices, last-use map, whether the
        output is reachable) is computed once and cached; ``add`` and
        ``set_output`` invalidate the cache.
        """
        plan = self._plan_cache.get(start)
        if plan is None:
            self[start]  # raises GraphError for unknown layers
            output = self.output_name
            dirty = {start}
            indices: List[int] = []
            last: Dict[str, int] = {}
            for index, layer in enumerate(self._layers):
                if layer.name == start or any(n in dirty for n in layer.inputs):
                    dirty.add(layer.name)
                    indices.append(index)
                    for producer in layer.inputs:
                        if producer in dirty:
                            last[producer] = index
            plan = ReplayPlan(
                start=start,
                layer_indices=tuple(indices),
                last_use=last,
                reaches_output=output in dirty,
            )
            self._plan_cache[start] = plan
        return plan

    def forward_from(
        self,
        cache: ActivationCache,
        start: str,
        tap: Tap,
        forward_fn: Optional[ForwardFn] = None,
    ) -> np.ndarray:
        """Replay from layer ``start`` with ``tap`` applied to its input.

        Only layers in the downstream closure of ``start`` are
        recomputed (following the memoized :meth:`replay_plan`); every
        other consumed value comes from ``cache``.  Returns the
        (perturbed) network output.
        """
        plan = self.replay_plan(start)
        output = self.output_name
        if not plan.reaches_output:
            # start is not upstream of the output layer; output unchanged.
            return cache[output]
        dirty: Dict[str, np.ndarray] = {}
        last_use = plan.last_use
        result: Optional[np.ndarray] = None
        for index in plan.layer_indices:
            layer = self._layers[index]
            arrays = [
                dirty[n] if n in dirty else cache[n] for n in layer.inputs
            ]
            if layer.name == start:
                arrays[0] = tap(arrays[0])
            if forward_fn is None:
                out = layer.forward(arrays)
            else:
                out = forward_fn(layer, arrays)
            dirty[layer.name] = out
            if layer.name == output:
                result = out
            for name in list(dirty):
                if last_use.get(name, -1) <= index and name != output:
                    del dirty[name]
        assert result is not None
        return result

    def forward_from_many(
        self,
        cache: ActivationCache,
        start: str,
        taps: Sequence[Tap],
        forward_fn: Optional[ForwardFn] = None,
    ) -> np.ndarray:
        """Vectorized replay: R tapped draws in one batched pass.

        Stacks ``len(taps)`` perturbed copies of ``start``'s input along
        the batch axis and replays the downstream closure once, tiling
        only the clean values the closure consumes.  Because every layer
        operates per-sample, the result is bitwise identical to calling
        :meth:`forward_from` once per tap — but R replays share each
        layer's im2col/GEMM setup, which is what makes dense injection
        campaigns affordable (see ``docs/performance.md``).

        Returns an array of shape ``(R, B, *output_shape)`` where ``B``
        is the cache's batch size: ``result[i]`` is the output for
        ``taps[i]``.
        """
        if not taps:
            raise GraphError("forward_from_many needs at least one tap")
        plan = self.replay_plan(start)
        output = self.output_name
        repeats = len(taps)
        batch = cache.batch_size
        if not plan.reaches_output:
            clean = cache[output]
            tiled = np.broadcast_to(
                clean, (repeats,) + clean.shape
            )
            return np.ascontiguousarray(tiled)
        dirty: Dict[str, np.ndarray] = {}
        last_use = plan.last_use
        tiled_clean: Dict[str, np.ndarray] = {}

        def tile(name: str) -> np.ndarray:
            value = tiled_clean.get(name)
            if value is None:
                value = np.concatenate([cache[name]] * repeats, axis=0)
                tiled_clean[name] = value
            return value

        result: Optional[np.ndarray] = None
        for index in plan.layer_indices:
            layer = self._layers[index]
            if layer.name == start:
                source = cache[layer.inputs[0]]
                arrays = [
                    np.concatenate([tap(source) for tap in taps], axis=0)
                ] + [
                    dirty[n] if n in dirty else tile(n)
                    for n in layer.inputs[1:]
                ]
            else:
                arrays = [
                    dirty[n] if n in dirty else tile(n) for n in layer.inputs
                ]
            if forward_fn is None:
                out = layer.forward(arrays)
            else:
                out = forward_fn(layer, arrays)
            dirty[layer.name] = out
            if layer.name == output:
                result = out
            for name in list(dirty):
                if last_use.get(name, -1) <= index and name != output:
                    del dirty[name]
        assert result is not None
        return result.reshape((repeats, batch) + result.shape[1:])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_input(self, x: np.ndarray) -> None:
        x = np.asarray(x)
        assert_batched(x)
        if tuple(x.shape[1:]) != self.input_shape:
            raise ShapeError(
                f"network {self.name!r} expects input {self.input_shape}; "
                f"got {tuple(x.shape[1:])}"
            )

    def _check_taps(self, taps: Mapping[str, Tap]) -> None:
        for name in taps:
            if name not in self._by_name:
                raise GraphError(f"tap targets unknown layer {name!r}")

    def _last_use_index(self) -> Dict[str, int]:
        """Index of the last layer consuming each producer's output."""
        last: Dict[str, int] = {}
        for index, layer in enumerate(self._layers):
            for producer in layer.inputs:
                last[producer] = index
        return last

    def _dirty_last_use(self, start: str) -> Dict[str, int]:
        """Last-use indices restricted to the downstream closure of start.

        Kept for backward compatibility; the computation now lives in
        (and is memoized by) :meth:`replay_plan`.
        """
        return dict(self.replay_plan(start).last_use)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(name={self.name!r}, layers={len(self._layers)}, "
            f"input={self.input_shape}, output={self._output!r})"
        )
