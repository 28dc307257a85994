"""Bit-packing round-trips: codes, values, and the byte accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.quant import FixedPointFormat
from repro.quant.runtime import (
    MAX_PACK_BITS,
    PackedTensor,
    code_bounds,
    codes_to_values,
    pack_codes,
    packed_nbytes,
    quantize_to_codes,
    unpack_codes,
)


class TestCodeBounds:
    @pytest.mark.parametrize(
        "bits,lo,hi",
        [(1, -1, 0), (2, -2, 1), (8, -128, 127), (16, -32768, 32767),
         (32, -(1 << 31), (1 << 31) - 1)],
    )
    def test_two_complement_ranges(self, bits, lo, hi):
        assert code_bounds(bits) == (lo, hi)

    @pytest.mark.parametrize("bits", [0, -1, 33, 64])
    def test_rejects_unpackable_widths(self, bits):
        with pytest.raises(QuantizationError):
            code_bounds(bits)


class TestQuantizeToCodes:
    def test_matches_fmt_quantize_bit_for_bit(self):
        """codes * step must equal FixedPointFormat.quantize exactly."""
        rng = np.random.default_rng(7)
        for integer_bits, fraction_bits in [(4, 4), (2, 9), (8, -3), (1, 6)]:
            fmt = FixedPointFormat(integer_bits, fraction_bits)
            x = rng.normal(scale=2.0 ** integer_bits, size=512)
            codes = quantize_to_codes(x, fmt)
            np.testing.assert_array_equal(
                codes_to_values(codes, fmt), fmt.quantize(x)
            )

    def test_codes_saturate_at_word_bounds(self):
        fmt = FixedPointFormat(3, 2)
        lo, hi = code_bounds(fmt.total_bits)
        codes = quantize_to_codes(np.array([1e9, -1e9]), fmt)
        assert codes.tolist() == [hi, lo]


class TestPackUnpack:
    @settings(max_examples=60, deadline=None)
    @given(
        bits=st.integers(1, MAX_PACK_BITS),
        count=st.integers(0, 200),
        seed=st.integers(0, 10_000),
    )
    def test_round_trip_any_width(self, bits, count, seed):
        """PROPERTY: pack -> unpack is the identity for in-range codes."""
        lo, hi = code_bounds(bits)
        codes = np.random.default_rng(seed).integers(
            lo, hi + 1, size=count, dtype=np.int64
        )
        packed = pack_codes(codes, bits)
        assert packed.nbytes == packed_nbytes(count, bits)
        np.testing.assert_array_equal(
            unpack_codes(packed, bits, count), codes
        )

    def test_extreme_codes_round_trip(self):
        for bits in (1, 2, 7, 8, 9, 16, 31, 32):
            lo, hi = code_bounds(bits)
            codes = np.array([lo, hi, 0, -1 if bits > 1 else lo])
            np.testing.assert_array_equal(
                unpack_codes(pack_codes(codes, bits), bits, codes.size),
                codes,
            )

    def test_out_of_range_codes_raise(self):
        with pytest.raises(QuantizationError):
            pack_codes(np.array([128]), 8)
        with pytest.raises(QuantizationError):
            pack_codes(np.array([-129]), 8)

    def test_truncated_stream_raises(self):
        packed = pack_codes(np.arange(-4, 4), 4)
        with pytest.raises(QuantizationError):
            unpack_codes(packed, 4, 100)


def oracle_pack(codes, bits):
    """Bit-matrix packer: one uint8 lane per bit, then ``packbits``.

    The first implementation of the format, kept as the differential
    oracle for the word-parallel kernels (slow, but obviously right).
    """
    flat = np.ascontiguousarray(codes, dtype=np.int64).reshape(-1)
    unsigned = (flat & ((1 << bits) - 1)).astype(np.uint64)
    lanes = np.arange(bits, dtype=np.uint64)
    bit_matrix = ((unsigned[:, None] >> lanes) & 1).astype(np.uint8)
    return np.packbits(bit_matrix.reshape(-1), bitorder="little")


def oracle_unpack(packed, bits, count):
    """Inverse of :func:`oracle_pack` with explicit sign extension."""
    lanes = np.unpackbits(
        np.ascontiguousarray(packed, dtype=np.uint8),
        count=count * bits,
        bitorder="little",
    ).reshape(count, bits)
    weights = np.uint64(1) << np.arange(bits, dtype=np.uint64)
    unsigned = (lanes.astype(np.uint64) * weights).sum(
        axis=1, dtype=np.uint64
    ).astype(np.int64)
    return np.where(
        unsigned & np.int64(1 << (bits - 1)),
        unsigned - np.int64(1 << bits),
        unsigned,
    )


@st.composite
def code_arrays(draw):
    """(bits, codes): any width and count, often heavy on extreme codes."""
    bits = draw(st.integers(1, MAX_PACK_BITS))
    count = draw(st.integers(0, 200))
    extreme_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = code_bounds(bits)
    codes = rng.integers(lo, hi + 1, size=count, dtype=np.int64)
    extremes = np.array([lo, hi, 0, max(lo, -1), min(hi, lo + 1)])
    chosen = rng.random(count) < extreme_share
    codes[chosen] = rng.choice(extremes, size=int(chosen.sum()))
    return bits, codes


class TestAgainstBitMatrixOracle:
    """The word-parallel kernels are byte-for-byte the oracle's format."""

    @settings(max_examples=300, deadline=None)
    @given(case=code_arrays())
    def test_pack_bytes_equal_oracle(self, case):
        bits, codes = case
        packed = pack_codes(codes, bits)
        assert packed.dtype == np.uint8
        assert packed.tobytes() == oracle_pack(codes, bits).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=code_arrays(), padding=st.integers(0, 9))
    def test_unpack_inverts_oracle_with_trailing_bytes(self, case, padding):
        """Streams longer than needed (trailing padding bytes, possibly
        non-zero) decode the same codes."""
        bits, codes = case
        junk = np.full(padding, 0xA5, dtype=np.uint8)
        stream = np.concatenate([oracle_pack(codes, bits), junk])
        decoded = unpack_codes(stream, bits, codes.size)
        assert decoded.dtype == np.int64
        np.testing.assert_array_equal(decoded, codes)
        np.testing.assert_array_equal(
            decoded, oracle_unpack(stream, bits, codes.size)
        )

    @settings(max_examples=100, deadline=None)
    @given(case=code_arrays(), step=st.integers(2, 3))
    def test_non_contiguous_input(self, case, step):
        """Strided and transposed views pack like their contiguous copy."""
        bits, codes = case
        strided = np.repeat(codes, step)[::step]
        assert strided.size <= 1 or not strided.flags.c_contiguous
        assert pack_codes(strided, bits).tobytes() == oracle_pack(codes, bits).tobytes()
        if codes.size % 2 == 0 and codes.size:
            grid = codes.reshape(2, -1)
            assert (
                pack_codes(grid.T, bits).tobytes()
                == oracle_pack(np.ascontiguousarray(grid.T), bits).tobytes()
            )

    @pytest.mark.parametrize("bits", range(1, MAX_PACK_BITS + 1))
    def test_every_width_at_group_boundaries(self, bits):
        """Counts around the 8-code group size and the 64-bit word."""
        lo, hi = code_bounds(bits)
        rng = np.random.default_rng(bits)
        for count in (1, 7, 8, 9, 15, 16, 17, 63, 64, 65):
            codes = rng.integers(lo, hi + 1, size=count, dtype=np.int64)
            codes[0], codes[-1] = lo, hi
            packed = pack_codes(codes, bits)
            assert packed.tobytes() == oracle_pack(codes, bits).tobytes()
            np.testing.assert_array_equal(unpack_codes(packed, bits, count), codes)

    def test_unpack_leaves_the_stream_untouched(self):
        codes = np.arange(-8, 8, dtype=np.int64)
        packed = pack_codes(codes, 5)
        before = packed.copy()
        unpack_codes(packed, 5, codes.size)
        np.testing.assert_array_equal(packed, before)


class TestPackedTensor:
    def test_from_codes_round_trip_preserves_shape_and_values(self):
        fmt = FixedPointFormat(4, 6)
        x = np.random.default_rng(3).normal(size=(5, 3, 4, 4))
        codes = quantize_to_codes(x, fmt)
        tensor = PackedTensor.from_codes(codes, fmt.total_bits, fmt.fraction_bits)
        np.testing.assert_array_equal(tensor.codes(), codes)
        np.testing.assert_array_equal(tensor.values(), fmt.quantize(x))
        assert tensor.shape == codes.shape
        assert tensor.packed_bits == codes.size * fmt.total_bits

    def test_nbytes_is_the_packed_footprint(self):
        codes = np.zeros(100, dtype=np.int64)
        tensor = PackedTensor.from_codes(codes, 5, 2)
        assert tensor.nbytes == (100 * 5 + 7) // 8  # 63 bytes, not 800
