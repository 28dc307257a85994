"""Integer GEMM backends: exactness, bit-identity, overflow gating."""

import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.quant.runtime import (
    FLOAT64_EXACT_BOUND,
    RuntimeSpec,
    accumulation_bound,
    check_accumulator,
    float64_exact,
    integer_gemm,
    requantize,
)


def random_codes(rng, shape, bits):
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return rng.integers(lo, hi + 1, size=shape, dtype=np.int64)


class TestAccumulationBound:
    def test_formula(self):
        # depth * 2**(Ba-1) * 2**(Bw-1)
        assert accumulation_bound(10, 8, 16) == 10 * 128 * 32768

    def test_rejects_empty_dot_product(self):
        with pytest.raises(QuantizationError):
            accumulation_bound(0, 8, 8)

    def test_check_rejects_overflow(self):
        for backend in ("reference", "fast"):
            with pytest.raises(QuantizationError):
                check_accumulator(1 << 62, backend)
            check_accumulator((1 << 62) - 1, backend)

    def test_check_rejects_unknown_backend(self):
        for backend in ("cuda", "numba"):  # numba was a backend once
            with pytest.raises(QuantizationError):
                check_accumulator(1, backend)
            with pytest.raises(QuantizationError):
                RuntimeSpec(backend=backend)


class TestIntegerGemm:
    def test_fast_equals_reference_exactly(self):
        rng = np.random.default_rng(11)
        a = random_codes(rng, (13, 57), 12)
        b = random_codes(rng, (57, 9), 16)
        bound = accumulation_bound(57, 12, 16)
        ref = integer_gemm(a, b, "reference", bound)
        fast = integer_gemm(a, b, "fast", bound)
        np.testing.assert_array_equal(ref, fast)
        assert ref.dtype == fast.dtype == np.int64
        # And both equal the slow pure-python truth on a corner.
        assert ref[0, 0] == int(sum(int(x) * int(y) for x, y in zip(a[0], b[:, 0])))

    def test_fast_falls_back_outside_float64_envelope(self):
        """A bound >= 2**53 must not route through float64 BLAS."""
        rng = np.random.default_rng(13)
        a = random_codes(rng, (4, 8), 16)
        b = random_codes(rng, (8, 4), 16)
        huge_bound = FLOAT64_EXACT_BOUND + 1
        ref = integer_gemm(a, b, "reference", huge_bound)
        fast = integer_gemm(a, b, "fast", huge_bound)
        np.testing.assert_array_equal(ref, fast)

    def test_float_accumulator_inside_envelope(self):
        """The network's float64 path: same integers, no int64 copy."""
        rng = np.random.default_rng(17)
        a = random_codes(rng, (6, 40), 13)
        b = random_codes(rng, (40, 5), 16)
        bound = accumulation_bound(40, 13, 16)
        assert float64_exact("fast", bound)
        ref = integer_gemm(a, b, "reference", bound)
        acc = integer_gemm(
            a.astype(np.float64), b.astype(np.float64), "fast", bound,
            float_accumulator=True,
        )
        assert acc.dtype == np.float64
        np.testing.assert_array_equal(acc, ref)

    def test_float_accumulator_is_int64_outside_envelope(self):
        a = np.ones((2, 2), dtype=np.int64)
        for backend, bound in (("reference", 4), ("fast", FLOAT64_EXACT_BOUND)):
            assert not float64_exact(backend, bound)
            out = integer_gemm(a, a, backend, bound, float_accumulator=True)
            assert out.dtype == np.int64


class TestRequantize:
    def test_float_accumulator_scales_like_int64(self):
        acc = np.array([[3, -5], [1 << 52, 0]], dtype=np.int64)
        np.testing.assert_array_equal(
            requantize(acc.astype(np.float64), 7), requantize(acc, 7)
        )

    def test_exact_power_of_two_scaling(self):
        acc = np.array([[3, -5], [1024, 0]], dtype=np.int64)
        np.testing.assert_array_equal(
            requantize(acc, 2), np.array([[0.75, -1.25], [256.0, 0.0]])
        )

    def test_negative_shift_scales_up(self):
        acc = np.array([3], dtype=np.int64)
        assert requantize(acc, -2)[0] == 12.0

    def test_out_receives_the_same_bits_through_any_strides(self):
        acc = np.array([[3, -5, 0], [1 << 52, 7, -1]], dtype=np.int64)
        for operand in (acc, acc.astype(np.float64)):
            out = np.full((3, 2), np.nan)
            returned = requantize(operand.T, 4, out=out[:, ::-1])
            assert returned.base is out
            want = requantize(operand, 4).T[:, ::-1]
            assert out.tobytes() == np.ascontiguousarray(want).tobytes()
