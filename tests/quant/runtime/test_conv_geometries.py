"""Quantized convolutions against an int64 oracle, byte for byte.

The oracle is the earlier conv path of the runtime: per group,
``nn.tensor.im2col`` columns and an int64 ``matmul`` over the codes,
the int64 bias codes added, then the exact ``2**-shift`` scale.  Integer
arithmetic has no rounding, so the runtime's gather-into-GEMM path must
give the very same bytes on every plan: the fast backend's float64
operands, its int64 fallback past ``2**53``, and the ``reference``
backend.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nn import INPUT, Network
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.dense import Dense
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
        codes = quantize_to_codes(x, plan.activation_format)
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
