"""Integer low-bit execution runtime (see ``docs/quantized-execution.md``).

Everything needed to *run* a :class:`~repro.quant.BitwidthAllocation`
for real: bit-packed weights, integer GEMM kernels with a per-layer
requantization shift, a :class:`QuantizedNetwork` wrapper over the
float graph, and content-addressed persistence for the packed blobs.
"""

from .kernels import (
    FLOAT64_EXACT_BOUND,
    accumulation_bound,
    check_accumulator,
    float64_exact,
    integer_gemm,
    requantize,
)
from .network import (
    QuantizedLayerPlan,
    QuantizedNetwork,
    build_layer_plan,
)
from .packing import (
    MAX_PACK_BITS,
    PackedTensor,
    code_bounds,
    codes_to_values,
    pack_codes,
    packed_nbytes,
    quantize_to_codes,
    unpack_codes,
)
from .spec import RUNTIME_BACKENDS, RuntimeSpec
from .store import (
    PACKED_WEIGHTS_NAMESPACE,
    build_quantized_network,
    load_packed_weights,
    packed_weights_key,
    store_packed_weights,
)

__all__ = [
    "FLOAT64_EXACT_BOUND",
    "MAX_PACK_BITS",
    "PACKED_WEIGHTS_NAMESPACE",
    "PackedTensor",
    "QuantizedLayerPlan",
    "QuantizedNetwork",
    "RUNTIME_BACKENDS",
    "RuntimeSpec",
    "accumulation_bound",
    "build_layer_plan",
    "build_quantized_network",
    "check_accumulator",
    "code_bounds",
    "codes_to_values",
    "float64_exact",
    "integer_gemm",
    "load_packed_weights",
    "pack_codes",
    "packed_nbytes",
    "packed_weights_key",
    "quantize_to_codes",
    "requantize",
    "store_packed_weights",
    "unpack_codes",
]
