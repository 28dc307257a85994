"""Integer GEMM kernels for the low-bit runtime.

Every analyzed layer executes as one (or a few) integer matrix
products over quantized codes: activations enter as ``B_x``-bit codes,
weights as ``B_w``-bit codes, and the accumulator holds the *exact*
integer ``sum_i qw_i * qx_i`` — the value the fixed-point hardware the
paper targets would compute, at scale ``2**-(F_x + F_w)``.

Two backends, bit-identical (integer arithmetic has no rounding, so
any summation order gives the same accumulator):

``reference``
    Plain ``np.matmul`` over int64 operands.  Slow but unarguable; the
    fast backend is tested against it element-for-element.
``fast``
    Routes the product through float64 BLAS.  Exact — not approximately
    equal — whenever every partial sum stays below ``2**53``: int16-ish
    codes have products below ``2**30``, and the accumulation bound
    ``K * max|qw| * max|qx|`` is checked *statically* per layer before
    the backend is allowed (fall back to int64 otherwise).  Integers
    below ``2**53`` are represented exactly in float64 and their sums
    are computed exactly, so BLAS's reduction-order freedom cannot
    change a single bit.

Overflow is a hard error, never silent wrap: each layer's worst-case
accumulation bound is computed at plan-build time and checked against
the backend's accumulator width.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...errors import QuantizationError
from .spec import RUNTIME_BACKENDS

#: Largest integer float64 represents exactly; the fast backend's
#: accumulation bound must stay strictly below it.
FLOAT64_EXACT_BOUND = 1 << 53

#: int64 accumulation bound (every backend's accumulator width).
INT64_BOUND = 1 << 62


def accumulation_bound(
    depth: int, activation_bits: int, weight_bits: int
) -> int:
    """Worst-case ``|sum qw*qx|`` for a ``depth``-deep dot product."""
    if depth < 1:
        raise QuantizationError(f"dot-product depth must be >= 1; got {depth}")
    return depth * (1 << (activation_bits - 1)) * (1 << (weight_bits - 1))


def check_accumulator(bound: int, backend: str) -> None:
    """Reject plans whose accumulators could overflow the backend."""
    if backend not in RUNTIME_BACKENDS:
        raise QuantizationError(f"unknown integer-GEMM backend {backend!r}")
    if bound >= INT64_BOUND:
        raise QuantizationError(
            f"accumulation bound {bound} overflows the {backend!r} "
            f"backend's accumulator (limit {INT64_BOUND}); use wider "
            "accumulators or narrower formats"
        )


def float64_exact(backend: str, bound: int) -> bool:
    """Whether ``backend`` runs a ``bound``-limited GEMM in float64.

    True for the fast backend inside the exactness envelope: every
    operand, product and partial sum is then an integer below
    ``2**53``, which float64 holds and adds without rounding.
    """
    return backend == "fast" and bound < FLOAT64_EXACT_BOUND


def integer_gemm(
    a: np.ndarray,
    b: np.ndarray,
    backend: str,
    bound: int,
    *,
    float_accumulator: bool = False,
) -> np.ndarray:
    """Exact integer product ``a @ b`` (int64 result) via ``backend``.

    ``a`` and ``b`` are integer code matrices (any integer dtype, or
    float64 holding integers); ``bound`` is the precomputed worst-case
    accumulator magnitude used to pick/validate the execution path.

    ``float_accumulator=True`` returns the fast backend's float64
    accumulator as is — every entry an exact integer — when
    :func:`float64_exact` holds, saving the int64 round-trip for
    callers that go on in float64 anyway.  Outside the envelope the
    result is int64 either way.
    """
    check_accumulator(bound, backend)
    if float64_exact(backend, bound):
        # Every operand and every partial sum is an integer below
        # 2**53: float64 represents and adds them exactly, so BLAS
        # gives the same bits as the int64 loop, only much faster.
        out = np.matmul(
            np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        )
        return out if float_accumulator else out.astype(np.int64)
    return np.matmul(
        np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    )


def requantize(
    acc: np.ndarray, shift: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Accumulator -> float64 activations: exact scale by ``2**-shift``.

    ``shift = F_x + F_w`` is the layer's requantization shift.  The
    conversion is exact whenever the accumulator magnitude stays below
    ``2**53`` (true for every model-zoo allocation); past that the
    int64 -> float64 cast rounds to nearest — identically for every
    backend, so cross-backend bit-identity is unaffected.

    ``out`` (float64, ``acc``'s shape, any strides) receives the scaled
    values, so the scale happens in the one copy into the caller's
    layout.  Without it ``np.ldexp`` allocates a new array.
    """
    return np.ldexp(acc, -shift, out=out, dtype=np.float64)
