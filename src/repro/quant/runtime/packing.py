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
from typing import Optional, Tuple

import numpy as np

from ...errors import QuantizationError
from ..fixed_point import FixedPointFormat

#: Widest packable code (float64 holds every code exactly; uint64
#: words carry the bit gymnastics).
MAX_PACK_BITS = 32


def code_bounds(bits: int) -> Tuple[int, int]:
    """(min, max) signed code representable in ``bits`` bits."""
    if not 1 <= bits <= MAX_PACK_BITS:
        raise QuantizationError(
            f"packable width must be in [1, {MAX_PACK_BITS}]; got {bits}"
        )
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def quantize_to_codes(x: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Integer codes of ``x`` in ``fmt``, saturated, as float64 integers.

    ``codes * fmt.step`` equals ``fmt.quantize(x)`` exactly: both round
    ``x * 2**F`` to the nearest integer and saturate at the same
    bounds, and the final power-of-two scaling is exact in float64.
    The codes stay in the float64 buffer that ``ldexp``, ``round`` and
    ``clip`` produce: every code is an integer of at most
    :data:`MAX_PACK_BITS` bits, which float64 holds exactly.  A NaN in
    ``x`` stays NaN (``clip`` passes it through) and
    :func:`pack_codes` rejects it.
    """
    lo, hi = code_bounds(fmt.total_bits)
    x = np.asarray(x, dtype=np.float64)
    scaled = np.ldexp(x, fmt.fraction_bits, out=np.empty_like(x))
    np.round(scaled, out=scaled)
    np.clip(scaled, lo, hi, out=scaled)
    return scaled


def codes_to_values(codes: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Represented float64 values of integer codes (exact scaling)."""
    return np.ldexp(codes.astype(np.float64), -fmt.fraction_bits)


def _lane_dtype(bits: int) -> np.dtype:
    """Narrowest unsigned dtype that holds a ``bits``-wide lane (<= 64)."""
    return np.dtype(
        np.uint16 if bits <= 16 else np.uint32 if bits <= 32 else np.uint64
    )


def pack_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack signed codes into a little-endian ``bits``-per-element stream.

    ``codes`` holds integers of any integer dtype or float64 (as
    :func:`quantize_to_codes` returns them).  They must already fit in
    ``bits`` bits: out-of-range codes raise rather than silently
    wrapping, and so do NaN and infinite ones.

    Word-parallel: eight ``bits``-wide codes fill exactly ``bits``
    bytes.  The codes are cast once into lanes of the narrowest
    unsigned dtype that holds ``bits`` bits (uint16 up to 16, uint32
    up to 32) and masked to their two's-complement low bits.  Each
    8-code group is then folded pairwise (two codes per lane, then
    four, ... while a lane stays within 64 bits), every fold writing
    lanes of the narrowest dtype that holds the doubled width.  The
    lanes are ORed into ``ceil(bits / 8)`` little-endian ``uint64``
    words, and the first ``bits`` bytes of those words are the group's
    packed bytes.
    """
    lo, hi = code_bounds(bits)
    flat = np.asarray(codes).reshape(-1)
    count = flat.size
    # Written so that NaN fails it: every comparison with NaN is False.
    if count and not (lo <= flat.min() and flat.max() <= hi):
        raise QuantizationError(
            f"codes outside the {bits}-bit range [{lo}, {hi}] cannot be "
            "packed losslessly"
        )
    groups = -(-count // 8)
    dtype = _lane_dtype(bits)
    lanes = np.zeros(groups * 8, dtype=dtype)
    # In-range codes cast exactly to the signed view of the lanes.
    np.copyto(
        lanes[:count].view(dtype.str.replace("u", "i")), flat, casting="unsafe"
    )
    if bits < 8 * dtype.itemsize:
        lanes &= dtype.type((1 << bits) - 1)
    lanes = lanes.reshape(groups, 8)
    width = bits
    while lanes.shape[1] > 1 and 2 * width <= 64:
        folded = np.left_shift(lanes[:, 1::2], width, dtype=_lane_dtype(2 * width))
        folded |= lanes[:, 0::2]
        lanes = folded
        width *= 2
    words = np.zeros((groups, -(-bits // 8)), dtype=np.uint64)
    for k in range(lanes.shape[1]):
        word, shift = divmod(k * width, 64)
        words[:, word] |= lanes[:, k] << np.uint64(shift)
        if shift + width > 64:  # the lane straddles two words
            words[:, word + 1] |= lanes[:, k] >> np.uint64(64 - shift)
    # One ``bits``-byte item per group: a single strided copy.
    group_bytes = np.ndarray(
        (groups,), dtype=f"V{bits}", buffer=words, strides=words.strides[:1]
    )
    return group_bytes.copy().view(np.uint8)[: packed_nbytes(count, bits)]


def unpack_codes(
    packed: np.ndarray,
    bits: int,
    count: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Recover ``count`` signed codes from a packed stream.

    ``out`` receives the codes in row-major order, in its own dtype and
    strides: an operand buffer's interior, a ``(N, C, P)`` view, a
    float64 array (every code of at most 32 bits is exact there).
    Without it a new int64 array of ``count`` codes is returned.

    Word-parallel: code ``j`` of every 8-code group starts at byte
    ``(j * bits) // 8`` of its ``bits``-byte group, bit
    ``(j * bits) % 8``.  A strided view reads one overlapping
    little-endian window at every byte of a zero-padded copy of the
    stream: 4 bytes while ``bits <= 25`` (a code plus its bit offset of
    at most 7 fits in 32 bits), 8 bytes above.  Gathering the eight
    constant offsets lays the groups' codes out as lanes; shifting each
    lane left puts its code's top bit at the lane's top bit, and an
    arithmetic right shift, written straight into ``out``,
    sign-extends it.
    """
    code_bounds(bits)  # validates the width
    total = count * bits
    stream = np.asarray(packed, dtype=np.uint8).reshape(-1)
    if stream.size * 8 < total:
        raise QuantizationError(
            f"packed stream holds {stream.size * 8} bits; "
            f"{total} required for {count} x {bits}-bit codes"
        )
    if out is None:
        out = np.empty(count, dtype=np.int64)
    elif out.size != count:
        raise QuantizationError(
            f"unpack target holds {out.size} codes; {count} required"
        )
    window = 4 if bits <= 25 else 8
    lane_bits = 8 * window
    groups = -(-count // 8)
    # Spare bytes keep the last group's window reads in bounds.
    padded = np.zeros(groups * bits + window - 1, dtype=np.uint8)
    needed = packed_nbytes(count, bits)
    padded[:needed] = stream[:needed]
    windows = np.ndarray(
        (groups, bits), dtype=f"<u{window}", buffer=padded, strides=(bits, 1)
    )
    starts = np.arange(8) * bits
    lanes = windows[:, starts // 8]
    lanes <<= (lane_bits - bits - starts % 8).astype(lanes.dtype)
    codes = lanes.view(f"<i{window}").reshape(-1)[:count].reshape(out.shape)
    np.right_shift(codes, lane_bits - bits, out=out)
    return out


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
        codes = unpack_codes(
            self.data, self.bits, self.count, out=np.empty(self.shape)
        )
        return np.ldexp(codes, -self.fraction_bits, out=codes)


def packed_nbytes(count: int, bits: int) -> int:
    """Bytes a ``count``-element ``bits``-wide packed buffer occupies."""
    code_bounds(bits)
    return (count * bits + 7) // 8
