"""Execution settings for the integer low-bit runtime.

:class:`RuntimeSpec` is a cache-relevant configuration dataclass: its
fields are classified in :data:`repro.cache.keys.KEY_FIELD_REGISTRY`
(the determinism analyzer cross-checks the table against this
definition).  ``weight_bits`` changes the packed-weight bits and is
keyed; ``backend`` and ``pack_activations`` are covered by the
runtime's bit-identity contract (every backend computes the exact same
integer accumulators, see ``docs/quantized-execution.md``) and are
excluded from keys by that contract.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import QuantizationError

#: Integer-GEMM backends the runtime can execute with.  Both are
#: bit-identical (integer arithmetic is exact; the fast backend routes
#: through float64 BLAS only inside a proven-exact operand range).
RUNTIME_BACKENDS = ("reference", "fast")


@dataclass(frozen=True)
class RuntimeSpec:
    """Knobs of the quantized execution runtime."""

    #: Total fixed-point word length for packed weights (integer bits
    #: come from each layer's measured ``max|w|``).  16 keeps operands
    #: in int16 and makes weight rounding negligible next to the
    #: optimized activation formats.
    weight_bits: int = 16
    #: Integer-GEMM backend: ``reference`` (int64 numpy matmul) or
    #: ``fast`` (float64 BLAS inside the exactness envelope).
    backend: str = "fast"
    #: Move analyzed-layer activations through their bit-packed buffers
    #: on the hot path (real packed bytes are counted as measured
    #: traffic).  Off skips the pack/unpack round-trip and counts the
    #: same bits analytically; results are bit-identical either way.
    pack_activations: bool = True

    def __post_init__(self) -> None:
        if not 2 <= self.weight_bits <= 16:
            raise QuantizationError(
                f"weight_bits must be in [2, 16]; got {self.weight_bits}"
            )
        if self.backend not in RUNTIME_BACKENDS:
            raise QuantizationError(
                f"backend must be one of {RUNTIME_BACKENDS}; "
                f"got {self.backend!r}"
            )
