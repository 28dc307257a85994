"""Two's-complement bit-packing for fixed-point tensors.

A value quantized to an ``I.F`` :class:`FixedPointFormat` is an integer
*code* ``q = clip(round(x * 2**F), -2**(B-1), 2**(B-1)-1)`` with
``B = I + F`` total bits; the represented value is ``q * 2**-F``.
This module converts float tensors to codes and packs the codes into a
dense little-endian bitstream of exactly ``B`` bits per element — the
storage format whose byte count *is* the paper's bandwidth claim.

Exactness notes (the runtime's bit-identity contract leans on these):

* ``quantize_to_codes`` followed by ``codes_to_values`` reproduces
  :meth:`FixedPointFormat.quantize` bit for bit: scaling by a power of
  two is exact in float64 and the clip bounds are the same values.
* ``pack_codes`` / ``unpack_codes`` round-trip every in-range code for
  any width 1..32 (two's complement with sign extension on unpack).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ...errors import QuantizationError
from ..fixed_point import FixedPointFormat

#: Widest packable code (int64 codes, uint64 bit gymnastics).
MAX_PACK_BITS = 32


def code_bounds(bits: int) -> Tuple[int, int]:
    """(min, max) signed code representable in ``bits`` bits."""
    if not 1 <= bits <= MAX_PACK_BITS:
        raise QuantizationError(
            f"packable width must be in [1, {MAX_PACK_BITS}]; got {bits}"
        )
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def quantize_to_codes(x: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Integer codes of ``x`` in ``fmt`` (int64, saturated).

    ``codes * fmt.step`` equals ``fmt.quantize(x)`` exactly: both round
    ``x * 2**F`` to the nearest integer and saturate at the same
    bounds, and the final power-of-two scaling is exact in float64.
    """
    lo, hi = code_bounds(fmt.total_bits)
    x = np.asarray(x, dtype=np.float64)
    scaled = np.ldexp(x, fmt.fraction_bits, out=np.empty_like(x))
    np.round(scaled, out=scaled)
    np.clip(scaled, lo, hi, out=scaled)
    return scaled.astype(np.int64)


def codes_to_values(codes: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Represented float64 values of integer codes (exact scaling)."""
    return np.ldexp(codes.astype(np.float64), -fmt.fraction_bits)


def pack_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack signed codes into a little-endian ``bits``-per-element stream.

    Codes must already fit in ``bits`` bits (as produced by
    :func:`quantize_to_codes`); out-of-range codes raise rather than
    silently wrapping.

    Word-parallel: eight ``bits``-wide codes fill exactly ``bits``
    bytes.  Each 8-code group is folded pairwise into ``uint64`` lanes
    (two codes per lane, then four, ... while a lane stays within 64
    bits), the lanes are ORed into ``ceil(bits / 8)`` little-endian
    words, and the first ``bits`` bytes of those words are the group's
    packed bytes.
    """
    lo, hi = code_bounds(bits)
    flat = np.asarray(codes, dtype=np.int64).reshape(-1)
    count = flat.size
    if count and (int(flat.min()) < lo or int(flat.max()) > hi):
        raise QuantizationError(
            f"codes outside the {bits}-bit range [{lo}, {hi}] cannot be "
            "packed losslessly"
        )
    groups = -(-count // 8)
    lanes = np.zeros(groups * 8, dtype=np.uint64)
    np.bitwise_and(flat, (1 << bits) - 1, out=lanes[:count], casting="unsafe")
    lanes = lanes.reshape(groups, 8)
    width = bits
    while lanes.shape[1] > 1 and 2 * width <= 64:
        lanes = lanes[:, 0::2] | (lanes[:, 1::2] << np.uint64(width))
        width *= 2
    words = np.zeros((groups, -(-bits // 8)), dtype=np.uint64)
    for k in range(lanes.shape[1]):
        word, shift = divmod(k * width, 64)
        words[:, word] |= lanes[:, k] << np.uint64(shift)
        if shift + width > 64:  # the lane straddles two words
            words[:, word + 1] |= lanes[:, k] >> np.uint64(64 - shift)
    group_bytes = words.view(np.uint8)[:, :bits]
    return group_bytes.reshape(-1)[: packed_nbytes(count, bits)]


def unpack_codes(packed: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Recover ``count`` signed codes from a packed stream (int64).

    Word-parallel: code ``j`` of every 8-code group starts at byte
    ``(j * bits) // 8`` of its ``bits``-byte group, bit
    ``(j * bits) % 8``.  A strided view reads one overlapping
    little-endian ``uint64`` at every byte of a zero-padded copy of
    the stream; gathering the eight constant offsets, shifting, masking
    and sign-extending decodes all groups at once.
    """
    code_bounds(bits)  # validates the width
    total = count * bits
    stream = np.asarray(packed, dtype=np.uint8).reshape(-1)
    if stream.size * 8 < total:
        raise QuantizationError(
            f"packed stream holds {stream.size * 8} bits; "
            f"{total} required for {count} x {bits}-bit codes"
        )
    groups = -(-count // 8)
    # Seven spare bytes keep the last group's 8-byte reads in bounds.
    padded = np.zeros(groups * bits + 7, dtype=np.uint8)
    needed = packed_nbytes(count, bits)
    padded[:needed] = stream[:needed]
    windows = np.ndarray(
        (groups, bits), dtype="<u8", buffer=padded, strides=(bits, 1)
    )
    starts = np.arange(8) * bits
    lanes = windows[:, starts // 8]
    lanes >>= (starts % 8).astype(np.uint64)
    lanes &= np.uint64((1 << bits) - 1)
    codes = lanes.view(np.int64).reshape(-1)[:count]
    sign_bit = np.int64(1 << (bits - 1))
    codes ^= sign_bit  # two's-complement sign extension:
    codes -= sign_bit  # (u ^ s) - s sends [2**(B-1), 2**B) below zero
    return codes


@dataclass(frozen=True)
class PackedTensor:
    """A bit-packed fixed-point tensor (the on-wire/-disk weight form)."""

    #: Little-endian packed payload (uint8).
    data: np.ndarray
    #: Bits per element.
    bits: int
    #: Logical (unpacked) shape.
    shape: Tuple[int, ...]
    #: Fraction bits of the format the codes were quantized with.
    fraction_bits: int

    @property
    def count(self) -> int:
        """Number of logical elements."""
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def nbytes(self) -> int:
        """Packed payload size — the bytes that actually move."""
        return int(self.data.nbytes)

    @property
    def packed_bits(self) -> int:
        """Exact payload bits before byte-boundary padding."""
        return self.count * self.bits

    @classmethod
    def from_codes(
        cls, codes: np.ndarray, bits: int, fraction_bits: int
    ) -> "PackedTensor":
        return cls(
            data=pack_codes(codes, bits),
            bits=bits,
            shape=tuple(codes.shape),
            fraction_bits=fraction_bits,
        )

    def codes(self) -> np.ndarray:
        """Unpack back to signed int64 codes in the logical shape."""
        return unpack_codes(self.data, self.bits, self.count).reshape(
            self.shape
        )

    def values(self) -> np.ndarray:
        """Represented float64 values (exact power-of-two scaling)."""
        return np.ldexp(self.codes().astype(np.float64), -self.fraction_bits)


def packed_nbytes(count: int, bits: int) -> int:
    """Bytes a ``count``-element ``bits``-wide packed buffer occupies."""
    code_bounds(bits)
    return (count * bits + 7) // 8
