"""Quantized network execution: run a ``BitwidthAllocation`` for real.

Everywhere else in the repository, low bitwidths are *simulated*: the
float network runs with rounding (or noise) taps on analyzed-layer
inputs.  :class:`QuantizedNetwork` closes the loop — it executes the
optimized per-layer ``(I, F)`` formats end to end:

* **weights** are quantized once into bit-packed per-layer buffers
  (:class:`~repro.quant.runtime.packing.PackedTensor`), optionally
  cached content-addressed like clean activations are;
* **activations** are quantized to each analyzed layer's format at the
  layer boundary — and, with ``pack_activations``, physically moved
  through their packed buffers so the byte counts reported as measured
  traffic are bytes that really existed;
* **conv/dense layers** execute as integer GEMMs over the codes with a
  per-layer requantization shift ``F_x + F_w`` back to float64
  (:mod:`~repro.quant.runtime.kernels`); every other layer (ReLU,
  pooling, LRN, ...) runs the stock float path on the dequantized
  values, exactly as a Stripes-style accelerator keeps its
  non-dot-product operations in full precision.

Bit-identity contract: the integer path is deterministic and exact, so
results are bit-identical across backends (``reference``/``fast``) and
across engine ``--jobs`` settings (which never touch this path).

Conv layout: per block of samples and per group, the unpacked int64
codes are gathered once, straight into the ``(C*k*k, b*P)`` GEMM
operand in the plan's operand dtype (this module's ``im2col``,
:func:`repro.nn.kernels.fused_im2col`); the bias is added in place on
the GEMM result and :func:`~repro.quant.runtime.kernels.requantize`
scales it while copying it into the ``(N, C_out, P)`` output.  Blocks
hold as many samples as fit the fp64 kernels' column budget
(:func:`repro.nn.kernels.sample_blocks`); integer sums are exact in any
order, so every blocking gives the same bytes for every geometry.

Operand dtype: inside the fast backend's exactness envelope
(:func:`~repro.quant.runtime.kernels.float64_exact`) the codes become
float64 in that gather and stay float64 through the GEMM, the bias add
and requantization.  Every value on that path is an integer below
``2**53``, so float64 carries it exactly and the results keep the same
bits as the int64 path the ``reference`` backend runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ...config import MAX_BITWIDTH, MIN_BITWIDTH
from ...errors import QuantizationError
from ...nn.graph import Network
from ...nn.kernels import KernelScratch, sample_blocks
from ...nn.kernels import fused_im2col as im2col
from ...nn.layer import Layer
from ...nn.layers.conv import Conv2D
from ...nn.layers.dense import Dense
from ...nn.tensor import extract_windows, flatten_spatial
from ..allocation import BitwidthAllocation
from ..fixed_point import FixedPointFormat, integer_bits_for_range
from .kernels import (
    accumulation_bound,
    float64_exact,
    integer_gemm,
    requantize,
)
from .packing import (
    PackedTensor,
    codes_to_values,
    pack_codes,
    quantize_to_codes,
    unpack_codes,
)
from .spec import RuntimeSpec


@dataclass(frozen=True)
class QuantizedLayerPlan:
    """Precompiled integer-execution plan for one analyzed layer."""

    name: str
    #: Activation (input) format — the allocation's decision.
    activation_format: FixedPointFormat
    #: Weight format (integer bits from ``max|w|``).
    weight_format: FixedPointFormat
    #: Bit-packed weight blob (the bytes a weight read would move).
    packed_weight: PackedTensor
    #: Unpacked weight codes, kept hot for the GEMM (int64).
    weight_codes: np.ndarray
    #: Bias codes at accumulator scale ``2**-shift`` in the GEMM
    #: operand dtype (see ``weight_operand``), or None.
    bias_codes: Optional[np.ndarray]
    #: Requantization shift ``F_x + F_w``.
    shift: int
    #: Worst-case accumulator magnitude (overflow guard + backend gate).
    bound: int
    #: ``weight_codes`` in the GEMM operand dtype: float64 (exact
    #: integers) when :func:`float64_exact` holds, else the int64 codes.
    weight_operand: np.ndarray


def _runtime_format(
    integer_bits: int, fraction_bits: int
) -> FixedPointFormat:
    """The storable format for an allocation entry.

    Mirrors :attr:`LayerAllocation.fmt` (fraction clamped up so the
    word is at least 1 bit) and additionally clamps the *total* width
    to :data:`MAX_BITWIDTH` — the same ceiling the allocation's cost
    accounting applies — so every stored word is packable.
    """
    fraction = max(fraction_bits, MIN_BITWIDTH - integer_bits)
    fraction = min(fraction, MAX_BITWIDTH - integer_bits)
    return FixedPointFormat(integer_bits, fraction)


def _weight_format(weight: np.ndarray, weight_bits: int) -> FixedPointFormat:
    """Fixed-point format for a weight tensor at ``weight_bits`` total."""
    max_abs = float(np.max(np.abs(weight))) if weight.size else 0.0
    integer = integer_bits_for_range(max_abs)
    return FixedPointFormat(integer, weight_bits - integer)


def _dot_depth(layer: Layer) -> int:
    """Dot-product depth (K) of a GEMM-backed layer."""
    if isinstance(layer, Conv2D):
        return int(layer.weight.shape[1]) * layer.kernel * layer.kernel
    if isinstance(layer, Dense):
        return layer.in_features
    raise QuantizationError(
        f"layer {layer.name!r} ({type(layer).__name__}) has no integer "
        "execution path; only Conv2D and Dense layers can be quantized"
    )


def build_layer_plan(
    layer: Layer,
    integer_bits: int,
    fraction_bits: int,
    spec: RuntimeSpec,
    packed_weight: Optional[PackedTensor] = None,
) -> QuantizedLayerPlan:
    """Compile one analyzed layer's integer-execution plan.

    ``packed_weight`` short-circuits weight quantization with a blob
    restored from the content-addressed cache; when absent, weights
    are quantized and packed here.
    """
    act_fmt = _runtime_format(integer_bits, fraction_bits)
    weight = getattr(layer, "weight", None)
    if weight is None:
        raise QuantizationError(
            f"layer {layer.name!r} has no weights to quantize"
        )
    w_fmt = _weight_format(weight, spec.weight_bits)
    if packed_weight is None:
        w_codes = quantize_to_codes(weight, w_fmt)
        packed_weight = PackedTensor.from_codes(
            w_codes, spec.weight_bits, w_fmt.fraction_bits
        )
    else:
        if (
            packed_weight.bits != spec.weight_bits
            or packed_weight.fraction_bits != w_fmt.fraction_bits
            or packed_weight.shape != tuple(weight.shape)
        ):
            raise QuantizationError(
                f"cached packed weights for {layer.name!r} do not match "
                "the expected format/shape"
            )
        w_codes = packed_weight.codes()
    shift = act_fmt.fraction_bits + w_fmt.fraction_bits
    bias = getattr(layer, "bias", None)
    bias_codes: Optional[np.ndarray] = None
    bias_peak = 0
    if bias is not None:
        bias_codes = np.round(
            np.ldexp(np.asarray(bias, dtype=np.float64), shift)
        ).astype(np.int64)
        bias_peak = int(np.max(np.abs(bias_codes))) if bias_codes.size else 0
    bound = (
        accumulation_bound(
            _dot_depth(layer), act_fmt.total_bits, spec.weight_bits
        )
        + bias_peak
    )
    dtype = np.float64 if float64_exact(spec.backend, bound) else np.int64
    return QuantizedLayerPlan(
        name=layer.name,
        activation_format=act_fmt,
        weight_format=w_fmt,
        packed_weight=packed_weight,
        weight_codes=w_codes,
        bias_codes=None if bias_codes is None else np.asarray(bias_codes, dtype=dtype),
        shift=shift,
        bound=bound,
        weight_operand=np.asarray(w_codes, dtype=dtype),
    )


class QuantizedNetwork:
    """A network compiled to execute one allocation with integer GEMMs."""

    def __init__(
        self,
        network: Network,
        allocation: BitwidthAllocation,
        spec: Optional[RuntimeSpec] = None,
        packed_weights: Optional[Dict[str, PackedTensor]] = None,
    ):
        self.network = network
        self.allocation = allocation
        self.spec = spec or RuntimeSpec()
        for name in allocation.names:
            if name not in network:
                raise QuantizationError(
                    f"allocation targets layer {name!r} absent from "
                    f"network {network.name!r}"
                )
            if not network[name].analyzed:
                raise QuantizationError(
                    f"layer {name!r} is not a dot-product layer; it has "
                    "no integer execution path"
                )
        self._plans: Dict[str, QuantizedLayerPlan] = {}
        for entry in allocation:
            cached = (packed_weights or {}).get(entry.name)
            self._plans[entry.name] = build_layer_plan(
                network[entry.name],
                entry.integer_bits,
                entry.fraction_bits,
                self.spec,
                packed_weight=cached,
            )
        self._traffic_bits: Dict[str, int] = {
            name: 0 for name in self._plans
        }
        self._images_seen = 0

    # ------------------------------------------------------------------
    # Introspection / accounting
    # ------------------------------------------------------------------
    @property
    def plans(self) -> Dict[str, QuantizedLayerPlan]:
        return dict(self._plans)

    @property
    def images_seen(self) -> int:
        """Images pushed through :meth:`forward` since the last reset."""
        return self._images_seen

    def packed_weight_nbytes(self) -> int:
        """Total bytes of all bit-packed weight blobs."""
        return sum(p.packed_weight.nbytes for p in self._plans.values())

    def reset_traffic(self) -> None:
        """Zero the measured activation-traffic counters."""
        self._traffic_bits = {name: 0 for name in self._plans}
        self._images_seen = 0

    def measured_input_bits(self) -> Dict[str, float]:
        """Measured per-layer activation-read bits per image.

        With ``pack_activations`` these are the sizes of packed buffers
        that actually existed on the hot path (including byte-boundary
        padding per batch); otherwise they are exact code-bit counts.
        Comparable directly to
        :func:`repro.hardware.bandwidth.layer_traffic_bits`.
        """
        if self._images_seen == 0:
            raise QuantizationError(
                "no forward passes recorded; run forward() first"
            )
        return {
            name: bits / self._images_seen
            for name, bits in self._traffic_bits.items()
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Quantized forward pass; returns float64 logits."""
        self._images_seen += int(np.asarray(x).shape[0])
        return self.network.forward(x, forward_fn=self._forward)

    def predict(
        self, images: np.ndarray, batch_size: int = 64
    ) -> np.ndarray:
        """Predicted class per image under quantized execution."""
        outputs: List[np.ndarray] = []
        for start in range(0, images.shape[0], batch_size):
            logits = self.forward(images[start : start + batch_size])
            outputs.append(
                np.argmax(logits.reshape(logits.shape[0], -1), axis=1)
            )
        return np.concatenate(outputs)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _forward(self, layer: Layer, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Integer path for planned layers, the stock float path otherwise."""
        plan = self._plans.get(layer.name)
        if plan is None:
            return layer.forward(arrays)
        return self._integer_forward(layer, plan, arrays[0])

    def _quantize_input(
        self, plan: QuantizedLayerPlan, x: np.ndarray
    ) -> np.ndarray:
        """Input codes for a layer, moved through the packed buffer."""
        fmt = plan.activation_format
        codes = quantize_to_codes(x, fmt)
        bits = fmt.total_bits
        if self.spec.pack_activations:
            packed = pack_codes(codes, bits)
            self._traffic_bits[plan.name] += int(packed.nbytes) * 8
            codes = unpack_codes(packed, bits, codes.size).reshape(
                codes.shape
            )
        else:
            self._traffic_bits[plan.name] += codes.size * bits
        return codes

    def _integer_forward(
        self, layer: Layer, plan: QuantizedLayerPlan, x: np.ndarray
    ) -> np.ndarray:
        codes = self._quantize_input(plan, x)
        if isinstance(layer, Conv2D):
            return self._int_conv(layer, plan, codes)
        # integer_gemm casts the codes to the operand dtype.
        acc = integer_gemm(
            flatten_spatial(codes),
            plan.weight_operand.T,
            self.spec.backend,
            plan.bound,
            float_accumulator=True,
        )
        if plan.bias_codes is not None:
            acc += plan.bias_codes
        return requantize(acc, plan.shift)

    def _int_conv(
        self, layer: Conv2D, plan: QuantizedLayerPlan, codes: np.ndarray
    ) -> np.ndarray:
        """One gather in and one scaled copy out per sample block and group.

        The gather casts the int64 codes to the operand dtype while it
        lays them out as the GEMM's ``(C*k*k, b*P)`` operand.  Blocks
        follow :func:`repro.nn.kernels.sample_blocks`, so the columns
        never outgrow the column budget.  Integer arithmetic is exact,
        so any blocking gives the same bytes for every geometry: no
        phase rule.
        """
        n = codes.shape[0]
        out_c, out_h, out_w = layer.output_shape
        positions = out_h * out_w
        w_codes = plan.weight_operand
        if layer.groups == codes.shape[1] and w_codes.shape[1] == 1:
            # Depthwise: per-channel window dot products.  Every term
            # and partial sum is an exact integer in either dtype, so
            # einsum is its own fast path.
            windows = extract_windows(
                codes, layer.kernel, layer.stride, layer.padding
            )
            acc = np.einsum("nchwij,cij->nchw", windows, w_codes[:, 0, :, :])
            if plan.bias_codes is not None:
                acc += plan.bias_codes[None, :, None, None]
            return requantize(acc, plan.shift)
        per_group = out_c // layer.groups
        in_per_group = w_codes.shape[1]
        scratch = KernelScratch(w_codes.dtype)
        out = np.empty((n, out_c, positions), dtype=np.float64)
        for block in sample_blocks(layer, n, w_codes.itemsize):
            codes_b = codes[block]
            for g in range(layer.groups):
                cols = im2col(
                    codes_b[:, g * in_per_group : (g + 1) * in_per_group],
                    layer.kernel,
                    layer.stride,
                    layer.padding,
                    scratch,
                )
                out_slice = slice(g * per_group, (g + 1) * per_group)
                acc = integer_gemm(
                    w_codes[out_slice].reshape(per_group, -1),
                    cols,
                    self.spec.backend,
                    plan.bound,
                    float_accumulator=True,
                )
                if plan.bias_codes is not None:
                    acc += plan.bias_codes[out_slice, None]
                requantize(
                    acc.reshape(per_group, codes_b.shape[0], positions).transpose(
                        1, 0, 2
                    ),
                    plan.shift,
                    out=out[block, out_slice],
                )
        return out.reshape(n, out_c, out_h, out_w)

    def dequantized_weight(self, name: str) -> np.ndarray:
        """The float64 values the packed weights represent (for tests)."""
        plan = self._plans[name]
        return codes_to_values(plan.weight_codes, plan.weight_format)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantizedNetwork({self.network.name!r}, "
            f"layers={len(self._plans)}, backend={self.spec.backend!r})"
        )
