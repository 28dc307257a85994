"""Layer kernels: the one implementation behind every layer forward.

``Conv2D.forward``, ``Dense.forward``, ``MaxPool2D.forward``,
``LRN.forward`` and ``ReLU.forward`` call the functions below; every
call writes fresh buffers, so outputs never alias:

* **Convolution** (dense and grouped) runs per block of samples (see
  *Working set* below).  Per block and group it gathers the sliding
  windows once, directly into the ``(C*k*k, b*P)`` layout a single GEMM
  consumes, and fuses the bias add into the copy out of that GEMM.
  Every output element is the same dot product over the same operand
  order as a per-sample GEMM, but BLAS may *accumulate* it in a
  different order depending on which n-microkernel a column lands in:
  columns whose index modulo the microkernel width (8 on every dgemm
  build we target) differs between the fused and the per-sample call
  can differ in the last bit.  When the spatial position count ``P``
  is a multiple of 8, every sample's columns occupy whole microtiles at
  the same phase in both calls, whatever block they sit in, and the
  results are bitwise equal.  So the fused GEMM runs only when
  ``P % 8 == 0`` (and a group has more than one output channel, so
  numpy calls gemm rather than gemv); other shapes keep one GEMM per
  sample over ``im2col`` columns.  Most zoo convolutions conform, but
  googlenet and vgg19 each have four at ``P = 4`` (2x2 maps) that take
  the per-sample path.  Plain 1x1 convolutions skip the gather (the
  input already is its column matrix) and run one batched per-sample
  matmul.  Depthwise convolutions keep their einsum.
* **Max pooling** with non-overlapping 2x2 windows (every zoo max pool
  but googlenet's 3x3 inception pools) is a reshape plus three
  ``np.maximum`` calls; other geometries reduce the generic 6-D window
  copy.
* **LRN** cumulative-sums the squared channels in place, in the buffer
  that holds the squares.  Because ``x*x`` is never ``-0.0`` and adding
  a leading or trailing ``+0.0`` to an IEEE sum is exact, these sums
  equal the cumulative sums of a zero-padded channel axis bit for bit;
  the scale, ``** beta`` and divide are the same elementwise
  operations, run into one buffer.
* **Dense** and **ReLU** are the plain GEMM and ``np.maximum``.

**Batch invariance.**  Because of the phase rule above, every layer
but ``Dense`` and the depthwise convolution gives the same bytes for a
batch of ``B`` as for ``B`` batch-1 calls.  ``Dense`` runs one
``(N, in) @ (in, out)`` GEMM and the depthwise einsum contracts the
whole batch; both pick kernels by ``N``.

**Working set.**  A gathered column matrix is ``k*k`` times the size
of its input, so a whole-batch gather would make the batch size set a
forward pass's peak memory.  :func:`sample_blocks` splits the batch
into blocks of as many samples as keep one block's columns within
:data:`COLUMN_BUDGET_BYTES` (at least one sample), and both the fp64
convolution and the quantized runtime's code gather run their gather
and GEMM once per block and group.  Blocking changes no output byte:
the fp64 path's phase rule makes a sample's result independent of the
block it sits in, and integer sums are exact in any order.  A batch
that fits the budget is a single block.

**Scratch.**  A :class:`KernelScratch` hands out one buffer per
(layer, role) key, so a convolution's groups and blocks share their
gather and GEMM buffers.  The quantized runtime passes one in the GEMM
operand dtype, which its unpacked codes already have, for its code
gather (:func:`fused_im2col`).

``tests/nn/reference_layers.py`` keeps the earlier per-sample layer
implementations as the oracle these kernels are tested against, byte
for byte.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .tensor import conv_output_hw, extract_windows, flatten_spatial, im2col, pad_nchw

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import DTypeLike

    from .layers.activation import ReLU
    from .layers.conv import Conv2D
    from .layers.dense import Dense
    from .layers.norm import LRN
    from .layers.pool import MaxPool2D


#: Bytes one block of gathered convolution columns may take.  1 MB
#: measured fastest on the zoo's convolutions; larger blocks only add
#: memory traffic (see :func:`sample_blocks`).
COLUMN_BUDGET_BYTES = 1 << 20


def sample_blocks(layer: "Conv2D", n: int, itemsize: int) -> List[slice]:
    """Consecutive slices of a batch of ``n``, one per column block.

    One sample's gathered columns of ``layer`` are ``(C*k*k, P)`` items
    of ``itemsize`` bytes (``C`` input channels per group, ``P`` output
    positions); a depthwise layer (one input channel per group) gathers
    the windows of all its groups at once.  Each block holds as many
    samples as fit :data:`COLUMN_BUDGET_BYTES`, and at least one.  Only
    the last block may be shorter.
    """
    _, out_h, out_w = layer.output_shape
    sample_bytes = layer.weight[0].size * out_h * out_w * itemsize
    if layer.weight.shape[1] == 1:
        sample_bytes *= layer.groups
    step = max(1, COLUMN_BUDGET_BYTES // max(sample_bytes, 1))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


class KernelScratch:
    """Buffers keyed by (layer, role[, group]).

    Every buffer has the scratch's ``dtype``: float64 for the layer
    kernels, the GEMM operand dtype for the quantized runtime's code
    gathers (float64 or int64).
    """

    def __init__(self, dtype: "DTypeLike" = np.float64) -> None:
        self.dtype = np.dtype(dtype)
        self._buffers: Dict[Tuple, np.ndarray] = {}

    def get(self, key: Tuple, shape: Tuple[int, ...]) -> np.ndarray:
        buffer = self._buffers.get(key)
        if buffer is None or buffer.shape != shape:
            buffer = np.empty(shape, dtype=self.dtype)
            self._buffers[key] = buffer
        return buffer

    def zeros(self, key: Tuple, shape: Tuple[int, ...]) -> np.ndarray:
        """A zeroed buffer; only zeroed on (re)allocation.

        Used for padded inputs: the border stays zero forever because
        every reuse writes only the interior.
        """
        buffer = self._buffers.get(key)
        if buffer is None or buffer.shape != shape:
            buffer = np.zeros(shape, dtype=self.dtype)
            self._buffers[key] = buffer
        return buffer


def fused_im2col(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    scratch: Optional[KernelScratch] = None,
    key: Tuple = (),
) -> np.ndarray:
    """Unfold an NCHW batch into one GEMM-ready ``(C*k*k, N*P)`` matrix.

    Column order groups all spatial positions of sample 0, then sample
    1, ...; row order is (channel, kh, kw) — the same dot-product
    operand order as :func:`repro.nn.tensor.im2col`.  Unlike ``im2col``
    this makes exactly one copy: the strided gather lands directly in
    the target layout (padded inputs first get one interior copy into a
    zeroed buffer).  Both copies write the scratch's dtype.
    """
    scratch = scratch or KernelScratch()
    if kernel == 1 and stride == 1 and padding == 0:
        n, c, h, w = x.shape
        cols = scratch.get(key + ("cols",), (c, n * h * w))
        np.copyto(
            cols.reshape(c, n, h * w),
            x.reshape(n, c, h * w).transpose(1, 0, 2),
        )
        return cols
    if padding > 0:
        n, c, h, w = x.shape
        padded = scratch.zeros(
            key + ("pad",), (n, c, h + 2 * padding, w + 2 * padding)
        )
        padded[:, :, padding : padding + h, padding : padding + w] = x
        x = padded
    n, c, h, w = x.shape
    out_h, out_w = conv_output_hw(h, w, kernel, stride, 0)
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(c, kernel, kernel, n, out_h, out_w),
        strides=(sc, sh, sw, sn, sh * stride, sw * stride),
        writeable=False,
    )
    cols = scratch.get(
        key + ("cols",), (c, kernel, kernel, n, out_h, out_w)
    )
    np.copyto(cols, windows)
    return cols.reshape(c * kernel * kernel, n * out_h * out_w)


def conv2d(layer: "Conv2D", x: np.ndarray) -> np.ndarray:
    """Convolution forward (see the module docstring for the paths)."""
    scratch = KernelScratch()
    n = x.shape[0]
    out_c, out_h, out_w = layer.output_shape
    positions = out_h * out_w
    weight = layer.weight
    name = layer.name
    out = scratch.get((name, "out"), (n, out_c, out_h, out_w))
    if layer.groups > 1 and layer.groups == x.shape[1] and weight.shape[1] == 1:
        windows = extract_windows(x, layer.kernel, layer.stride, layer.padding)
        # windows: (N, C, out_h, out_w, k, k); weight: (C, 1, k, k)
        np.einsum(
            "nchwij,cij->nchw",
            windows,
            weight[:, 0, :, :],
            optimize=True,
            out=out,
        )
        if layer.bias is not None:
            out += layer.bias[None, :, None, None]
        return out
    out3 = out.reshape(n, out_c, positions)
    if (
        layer.kernel == 1
        and layer.stride == 1
        and layer.padding == 0
        and layer.groups == 1
    ):
        # The input already is its column matrix: one batched matmul,
        # per sample.
        np.matmul(
            weight.reshape(out_c, -1)[None, :, :],
            x.reshape(n, x.shape[1], positions),
            out=out3,
        )
        if layer.bias is not None:
            out += layer.bias[None, :, None, None]
        return out
    in_per_group = weight.shape[1]
    out_per_group = out_c // layer.groups
    # With one output channel numpy runs gemv, not gemm, and the phase
    # rule only covers gemm.
    fused = positions % 8 == 0 and out_per_group > 1
    bias = None if layer.bias is None else layer.bias[:, None]
    for block in sample_blocks(layer, n, 8):
        x_b = x[block]
        out_b = out3[block]
        for g in range(layer.groups):
            # A strided channel-slice view: both the pad copy and the
            # as_strided gather read through arbitrary strides.
            x_g = x_b[:, g * in_per_group : (g + 1) * in_per_group]
            channels = slice(g * out_per_group, (g + 1) * out_per_group)
            w2d = weight[channels].reshape(out_per_group, -1)
            if fused:
                cols = fused_im2col(
                    x_g, layer.kernel, layer.stride, layer.padding, scratch, (name,)
                )
                flat = scratch.get((name, "flat"), (out_per_group, cols.shape[1]))
                np.matmul(w2d, cols, out=flat)
                result = flat.reshape(out_per_group, x_g.shape[0], positions).transpose(
                    1, 0, 2
                )
            else:
                # One GEMM per sample over im2col's columns.  numpy picks
                # dot, gemv or gemm, and the transpose flags, by operand
                # shape and strides, so the operands keep im2col's exact
                # layout (a strided view when C == 1 or P == 1).
                cols = im2col(x_g, layer.kernel, layer.stride, layer.padding)
                result = np.matmul(w2d[None, :, :], cols)
            # The bias add is fused into the copy out of the GEMM result:
            # one addition per element, the same operands as a
            # matmul-then-add, so the bits match.
            if bias is not None:
                np.add(result, bias[channels], out=out_b[:, channels])
            else:
                np.copyto(out_b[:, channels], result)
    return out


def dense(layer: "Dense", x: np.ndarray) -> np.ndarray:
    """Fully connected forward: one GEMM."""
    x = flatten_spatial(x)
    out = np.empty((x.shape[0], layer.out_features))
    np.matmul(x, layer.weight.T, out=out)
    if layer.bias is not None:
        out += layer.bias
    return out


def max_pool(layer: "MaxPool2D", x: np.ndarray) -> np.ndarray:
    """Max pooling; padding uses -inf so it never wins."""
    n, c, h, w = x.shape
    if (
        layer.kernel == 2
        and layer.stride == 2
        and layer.padding == 0
        and h % 2 == 0
        and w % 2 == 0
    ):
        v = x.reshape(n, c, h // 2, 2, w // 2, 2)
        out = np.empty((n, c, h // 2, w // 2))
        tmp = np.empty((n, c, h // 2, w // 2))
        np.maximum(v[:, :, :, 0, :, 0], v[:, :, :, 0, :, 1], out=out)
        np.maximum(v[:, :, :, 1, :, 0], v[:, :, :, 1, :, 1], out=tmp)
        np.maximum(out, tmp, out=out)
        return out
    if layer.padding > 0:
        padded = pad_nchw(x, layer.padding)
        mask = pad_nchw(np.ones_like(x), layer.padding)
        x = np.where(mask > 0, padded, -np.inf)
    windows = extract_windows(x, layer.kernel, layer.stride, 0)
    return windows.max(axis=(4, 5))


def lrn(layer: "LRN", x: np.ndarray) -> np.ndarray:
    """Local response normalization with in-place cumulative sums."""
    half = layer.local_size // 2
    channels = x.shape[1]
    # The running channel sum overwrites the squares it reads, one
    # contiguous plane per add (accumulate on axis 1 loops strided).
    cumulative = np.empty(x.shape)
    np.multiply(x, x, out=cumulative)
    for c in range(1, channels):
        np.add(cumulative[:, c - 1], cumulative[:, c], out=cumulative[:, c])
    window = np.empty(x.shape)
    # upper[c] = cumulative[min(c + half, C-1)]: two slice copies beat
    # the equivalent fancy-indexed np.take.
    split = max(channels - half, 0)
    window[:, :split] = cumulative[:, half:]
    window[:, split:] = cumulative[:, channels - 1 : channels]
    # lower[c] = cumulative[c - half - 1] where it exists, else exact 0.
    window[:, half + 1 :] -= cumulative[:, : max(channels - half - 1, 0)]
    window *= layer.alpha / layer.local_size
    window += layer.k
    # ``**=`` takes numpy's scalar-power shortcuts (sqrt for 0.5, ...)
    # exactly as ``** beta`` does; ``np.power`` would not.
    window **= layer.beta
    np.divide(x, window, out=window)
    return window


def relu(layer: "ReLU", x: np.ndarray) -> np.ndarray:
    """``max(x, 0)`` into a C-contiguous buffer."""
    out = np.empty(x.shape)
    np.maximum(x, 0.0, out=out)
    return out
