"""Quantized convolutions against an int64 oracle, byte for byte.

The oracle is the earlier conv path of the runtime: per group,
``nn.tensor.im2col`` columns and an int64 ``matmul`` over the codes,
the int64 bias codes added, then the exact ``2**-shift`` scale.  Integer
arithmetic has no rounding, so the runtime's gather-into-GEMM path must
give the very same bytes on every plan: the fast backend's float64
operands, its int64 fallback past ``2**53``, and the ``reference``
backend.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.models import build_model
from repro.nn import INPUT, Network
from repro.nn.layers.conv import Conv2D
from repro.nn.kernels import sample_blocks
from repro.nn.layers.dense import Dense
from repro.nn.statistics import measure_ranges, ordered_stats
from repro.nn.tensor import extract_windows, flatten_spatial, im2col
from repro.quant import BitwidthAllocation
from repro.quant.allocation import LayerAllocation
from repro.quant.runtime import QuantizedNetwork, RuntimeSpec
from repro.quant.runtime.packing import quantize_to_codes

#: (backend, activation bits): the fast float64 plan, the fast int64
#: fallback (32-bit activations push every bound with K >= 128 past
#: 2**53) and the reference backend.
PLANS = {
    "fast-float64": ("fast", 10),
    "fast-int64": ("fast", 32),
    "reference": ("reference", 10),
}


def oracle_conv(layer, plan, codes):
    """Int64 accumulators of a quantized conv, one GEMM per sample."""
    w = plan.weight_codes
    if layer.groups == codes.shape[1] and w.shape[1] == 1:
        windows = extract_windows(codes, layer.kernel, layer.stride, layer.padding)
        acc = np.einsum("nchwij,cij->nchw", windows, w[:, 0])
    else:
        n = codes.shape[0]
        out_c, out_h, out_w = layer.output_shape
        per_group, in_per_group = out_c // layer.groups, w.shape[1]
        acc = np.empty((n, out_c, out_h * out_w), dtype=np.int64)
        for g in range(layer.groups):
            cols = im2col(
                codes[:, g * in_per_group : (g + 1) * in_per_group],
                layer.kernel,
                layer.stride,
                layer.padding,
            )
            channels = slice(g * per_group, (g + 1) * per_group)
            acc[:, channels] = np.matmul(w[channels].reshape(per_group, -1), cols)
        acc = acc.reshape(n, out_c, out_h, out_w)
    if plan.bias_codes is not None:
        acc += plan.bias_codes.astype(np.int64)[None, :, None, None]
    return acc


def oracle_dense(plan, codes):
    acc = flatten_spatial(codes) @ plan.weight_codes.T
    if plan.bias_codes is not None:
        acc += plan.bias_codes.astype(np.int64)
    return acc


def oracle_forward(q, net, x):
    """The quantized conv -> dense net, through the oracle kernels."""
    for name in ("conv", "fc"):
        plan = q.plans[name]
        # float64 integer codes; the oracle sums them in int64.
        codes = quantize_to_codes(x, plan.activation_format).astype(np.int64)
        if name == "conv":
            acc = oracle_conv(net[name], plan, codes)
        else:
            acc = oracle_dense(plan, codes)
        x = np.ldexp(acc.astype(np.float64), -plan.shift)
    return x


def conv_net(rng, in_c, out_c, groups, kernel, stride, padding, size):
    net = Network("geom", (in_c, size, size))
    net.add(
        Conv2D(
            "conv",
            [INPUT],
            rng.normal(size=(out_c, in_c // groups, kernel, kernel)),
            bias=rng.normal(size=out_c),
            stride=stride,
            padding=padding,
            groups=groups,
        )
    )
    flat = int(np.prod(net["conv"].output_shape))
    net.add(Dense("fc", ["conv"], rng.normal(size=(3, flat)), bias=rng.normal(size=3)))
    return net


@settings(max_examples=60, deadline=None)
@given(
    kernel=st.sampled_from([1, 3, 5]),
    stride=st.sampled_from([1, 2]),
    padding=st.integers(0, 2),
    groups=st.sampled_from([1, 2, "depthwise"]),
    out_per_group=st.integers(1, 3),
    batch=st.sampled_from([1, 2, 5]),
    size=st.integers(5, 9),
    plan=st.sampled_from(sorted(PLANS)),
    seed=st.integers(0, 2**16),
)
def test_conv_matches_int64_oracle(
    kernel, stride, padding, groups, out_per_group, batch, size, plan, seed
):
    backend, bits = PLANS[plan]
    if groups == "depthwise":
        # K = k*k is far below 128, so no depthwise plan falls back.
        assume(plan != "fast-int64")
        in_c = 4
        groups, out_c = in_c, in_c
    else:
        in_per_group = -(-128 // (kernel * kernel)) if plan == "fast-int64" else 3
        in_c, out_c = in_per_group * groups, out_per_group * groups
    rng = np.random.default_rng(seed)
    net = conv_net(rng, in_c, out_c, groups, kernel, stride, padding, size)
    allocation = BitwidthAllocation(
        [LayerAllocation("conv", 3, bits - 3), LayerAllocation("fc", 4, bits - 4)]
    )
    q = QuantizedNetwork(net, allocation, RuntimeSpec(backend=backend))
    want_dtype = np.int64 if plan != "fast-float64" else np.float64
    assert q.plans["conv"].weight_operand.dtype == want_dtype

    images = rng.normal(scale=3.0, size=(batch,) + net.input_shape)
    got = q.forward(images)
    assert got.tobytes() == oracle_forward(q, net, images).tobytes()


@pytest.mark.parametrize("batch", [1, 7, 32])
@pytest.mark.parametrize("groups", [1, 2])
def test_blocked_conv_matches_reference_backend(batch, groups):
    # 16 input channels per group, a 3x3 kernel and 16x16 outputs give
    # 3 samples per column block: batch 1 is one block, 7 ends on a
    # short block and 32 spans eleven.
    rng = np.random.default_rng(batch + groups)
    net = conv_net(rng, 16 * groups, 8 * groups, groups, 3, 1, 1, 16)
    blocks = sample_blocks(net["conv"], batch, 8)
    assert len(blocks) == -(-batch // 3)
    allocation = BitwidthAllocation(
        [LayerAllocation("conv", 3, 7), LayerAllocation("fc", 4, 6)]
    )
    images = rng.normal(scale=3.0, size=(batch,) + net.input_shape)
    want = QuantizedNetwork(net, allocation, RuntimeSpec(backend="reference"))
    fast = QuantizedNetwork(net, allocation, RuntimeSpec(backend="fast"))
    got = fast.forward(images)
    assert got.tobytes() == want.forward(images).tobytes()
    assert got.tobytes() == oracle_forward(fast, net, images).tobytes()


class TestDepthwiseBlocks:
    """The depthwise branch runs its window einsum per sample block.

    Its sums are exact integers, so the blocks change no byte; what
    they change is the working set: a whole-batch window copy of
    mobilenet's ``dw1`` at batch 64 peaked at 25.2 MB, the blocked
    branch at 6.6 MB (tracemalloc counts numpy's requests, so the
    figures do not depend on the host).
    """

    @pytest.fixture(scope="class")
    def mobilenet(self):
        net = build_model("mobilenet", num_classes=8, seed=11)
        images = np.random.default_rng(0).normal(size=(64,) + net.input_shape)
        stats = measure_ranges(net, images[:8])
        return net, images, BitwidthAllocation.uniform(ordered_stats(net, stats), 12)

    def test_fast_equals_reference(self, mobilenet):
        net, images, allocation = mobilenet
        assert len(sample_blocks(net["dw1"], 64, 8)) > 1
        fast = QuantizedNetwork(net, allocation).forward(images)
        reference = QuantizedNetwork(
            net, allocation, RuntimeSpec(backend="reference")
        ).forward(images)
        assert fast.tobytes() == reference.tobytes()

    def test_dw1_batch64_peak(self, mobilenet):
        net, _, _ = mobilenet
        dw1 = net["dw1"]
        alone = Network("dw1", net["conv1"].output_shape)
        alone.add(
            Conv2D(
                "dw1", [INPUT], dw1.weight, bias=dw1.bias, stride=dw1.stride,
                padding=dw1.padding, groups=dw1.groups,
            )
        )
        q = QuantizedNetwork(
            alone, BitwidthAllocation([LayerAllocation("dw1", 3, 9)])
        )
        x = np.random.default_rng(1).normal(size=(64,) + alone.input_shape)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            q.forward(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / 1e6 <= 8.0
