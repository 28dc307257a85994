"""Byte-identity tests for the layer kernels against the per-sample oracle.

``layer.forward`` runs :mod:`repro.nn.kernels`; it must reproduce the
stock per-sample implementations in ``tests/nn/reference_layers.py``
byte for byte.  Bytes, not ``np.array_equal``: the latter treats -0.0
and +0.0 as equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import LRN, Conv2D, Dense, MaxPool2D, ReLU
from repro.nn.kernels import COLUMN_BUDGET_BYTES, sample_blocks
from tests.nn.reference_layers import reference_forward

rng = np.random.default_rng(7)


def bind(layer, x):
    layer.bind([x.shape[1:]])
    return layer


def assert_same_bytes(want, got):
    assert want.shape == got.shape
    assert want.dtype == got.dtype
    assert want.tobytes() == got.tobytes()


def assert_kernel_bitwise(layer, x, reps=3):
    """``layer.forward`` == the oracle, on every repeated call."""
    bind(layer, x)
    want = reference_forward(layer, [x])
    for _ in range(reps):
        assert_same_bytes(want, layer.forward([x]))


class TestConvKernel:
    @pytest.mark.parametrize(
        "out_c,in_c,kernel,stride,padding,groups",
        [
            (16, 3, 5, 2, 2, 1),  # stride-2, positions not % 8: per-sample
            (32, 16, 5, 1, 2, 2),  # grouped with padding
            (48, 32, 3, 1, 1, 1),  # aligned dense conv (P = 144)
            (24, 12, 3, 1, 1, 4),  # four groups
            (8, 16, 1, 1, 0, 1),  # 1x1 direct-matmul path
        ],
    )
    def test_matches_forward(self, out_c, in_c, kernel, stride, padding, groups):
        weight = rng.standard_normal((out_c, in_c // groups, kernel, kernel))
        bias = rng.standard_normal(out_c)
        x = rng.standard_normal((5, in_c, 12, 12))
        layer = Conv2D(
            "c", ["i"], weight, bias, stride=stride, padding=padding, groups=groups
        )
        assert_kernel_bitwise(layer, x)

    def test_no_bias(self):
        weight = rng.standard_normal((12, 4, 3, 3))
        x = rng.standard_normal((3, 4, 8, 8))
        layer = Conv2D("c", ["i"], weight, None, stride=1, padding=1)
        assert_kernel_bitwise(layer, x)

    def test_depthwise_falls_back(self):
        weight = rng.standard_normal((16, 1, 3, 3))
        x = rng.standard_normal((3, 16, 8, 8))
        layer = Conv2D("dw", ["i"], weight, None, stride=1, padding=1, groups=16)
        assert_kernel_bitwise(layer, x)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 5),
        in_per_group=st.integers(1, 4),
        out_per_group=st.integers(1, 5),
        groups=st.sampled_from([1, 2, 3, "depthwise"]),
        kernel=st.integers(1, 4),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
        h=st.integers(1, 11),
        w=st.integers(1, 11),
        with_bias=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_random_shapes(
        self, n, in_per_group, out_per_group, groups, kernel, stride, padding,
        h, w, with_bias, seed,
    ):
        # Covers P % 8 != 0 (per-sample path), grouped, depthwise and
        # 1x1 convolutions.
        if groups == "depthwise":
            groups, in_per_group, out_per_group = in_per_group + 1, 1, 1
        elif groups > 1 and in_per_group == 1:
            # One input channel per group reads as depthwise, and the
            # depthwise einsum has no channel multiplier.
            in_per_group = 2
        if h + 2 * padding < kernel or w + 2 * padding < kernel:
            return
        local = np.random.default_rng(seed)
        weight = local.standard_normal(
            (out_per_group * groups, in_per_group, kernel, kernel)
        )
        bias = local.standard_normal(weight.shape[0]) if with_bias else None
        x = local.standard_normal((n, in_per_group * groups, h, w))
        layer = Conv2D(
            "c", ["i"], weight, bias, stride=stride, padding=padding, groups=groups
        )
        assert_kernel_bitwise(layer, x, reps=2)


def bound_conv(in_c, kernel, size, padding=0, groups=1):
    """A bias-free conv bound to a (in_c, size, size) input."""
    layer = Conv2D(
        "c", ["i"], np.zeros((groups, in_c // groups, kernel, kernel)),
        padding=padding, groups=groups,
    )
    layer.bind([(in_c, size, size)])
    return layer


class TestSampleBlocks:
    def test_blocks_tile_the_batch(self):
        # 16 * 9 * 256 float64 columns: 3 samples per block.
        layer = bound_conv(16, 3, 16, padding=1)
        blocks = sample_blocks(layer, 10, 8)
        assert [(b.start, b.stop) for b in blocks] == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_one_sample_over_budget_is_its_own_block(self):
        layer = bound_conv(64, 3, 32, padding=1)
        blocks = sample_blocks(layer, 3, 8)
        assert [(b.start, b.stop) for b in blocks] == [(0, 1), (1, 2), (2, 3)]

    def test_itemsize_scales_the_block(self):
        layer = bound_conv(16, 3, 16, padding=1)
        assert sample_blocks(layer, 12, 4)[0] == slice(0, 7)

    def test_columns_count_one_group(self):
        # Two groups of 16 channels gather 16 * 9 rows at a time.
        layer = bound_conv(32, 3, 16, padding=1, groups=2)
        assert sample_blocks(layer, 10, 8)[0] == slice(0, 3)

    def test_small_batch_is_one_block(self):
        assert sample_blocks(bound_conv(1, 1, 4), 5, 8) == [slice(0, 5)]


class TestBlockedConv:
    """The sample-blocked gather at one block, several, and a short last one."""

    @pytest.mark.parametrize(
        "in_c,out_c,size,padding,groups",
        [
            (16, 24, 16, 1, 1),  # P = 256: fused path
            (16, 24, 15, 1, 1),  # P = 225: per-sample path
            (32, 24, 16, 1, 2),  # grouped, fused
            (32, 24, 13, 1, 2),  # grouped, per-sample (P = 169)
            (16, 24, 18, 0, 1),  # unpadded, fused
        ],
    )
    def test_matches_oracle_across_block_counts(self, in_c, out_c, size, padding, groups):
        local = np.random.default_rng(in_c + size + groups)
        weight = local.standard_normal((out_c, in_c // groups, 3, 3))
        bias = local.standard_normal(out_c)
        layer = Conv2D(
            "c", ["i"], weight, bias, stride=1, padding=padding, groups=groups
        )
        layer.bind([(in_c, size, size)])
        step = sample_blocks(layer, 64, 8)[0].stop
        assert 1 < step < 8  # several samples per block, several blocks
        for n, count in ((step, 1), (2 * step, 2), (2 * step + 1, 3)):
            assert len(sample_blocks(layer, n, 8)) == count
            assert_kernel_bitwise(layer, local.standard_normal((n, in_c, size, size)), reps=1)


class TestDenseKernel:
    def test_flat_input(self):
        layer = Dense(
            "fc", ["i"], rng.standard_normal((5, 20)), rng.standard_normal(5)
        )
        assert_kernel_bitwise(layer, rng.standard_normal((6, 20)))

    def test_nchw_input_flattened(self):
        layer = Dense("fc", ["i"], rng.standard_normal((7, 48)))
        assert_kernel_bitwise(layer, rng.standard_normal((5, 3, 4, 4)))


class TestLRNKernel:
    @pytest.mark.parametrize(
        "channels,n,hw,local_size",
        [(16, 9, 16, 5), (32, 4, 8, 5), (3, 2, 6, 3), (96, 2, 7, 5)],
    )
    def test_matches_forward(self, channels, n, hw, local_size):
        x = rng.standard_normal((n, channels, hw, hw))
        x[x < -1.2] = 0.0  # exact zeros mixed in, like masked trials
        layer = LRN("lrn", ["i"], local_size=local_size)
        assert_kernel_bitwise(layer, x)

    @settings(max_examples=40, deadline=None)
    @given(
        channels=st.integers(1, 12),
        half=st.integers(0, 7),
        beta=st.sampled_from([0.75, 0.5, 1.0, 2.0]),
        k=st.sampled_from([1.0, 2.0]),
        seed=st.integers(0, 2**16),
    )
    def test_random_windows(self, channels, half, beta, k, seed):
        # local_size ranges past the channel count on both sides.
        local = np.random.default_rng(seed)
        x = local.standard_normal((2, channels, 3, 4))
        x[x < -1.0] = 0.0
        x[x > 1.5] = -0.0
        layer = LRN("lrn", ["i"], local_size=2 * half + 1, alpha=1e-2, beta=beta, k=k)
        assert_kernel_bitwise(layer, x, reps=2)


class TestPoolAndActivation:
    def test_maxpool_2x2(self):
        layer = MaxPool2D("p", ["i"], kernel=2, stride=2)
        assert_kernel_bitwise(layer, rng.standard_normal((4, 8, 12, 12)))

    def test_maxpool_3x3_falls_back(self):
        layer = MaxPool2D("p", ["i"], kernel=3, stride=2)
        assert_kernel_bitwise(layer, rng.standard_normal((4, 8, 13, 13)))

    @settings(max_examples=50, deadline=None)
    @given(
        kernel=st.integers(1, 4),
        stride=st.integers(1, 3),
        padding=st.integers(0, 1),
        h=st.integers(2, 10),
        w=st.integers(2, 10),
        seed=st.integers(0, 2**16),
    )
    def test_random_geometries(self, kernel, stride, padding, h, w, seed):
        # Padded, overlapping and 2x2 windows, with signed zeros tied.
        if h + 2 * padding < kernel or w + 2 * padding < kernel:
            return
        local = np.random.default_rng(seed)
        x = local.standard_normal((3, 2, h, w))
        x[x < -0.5] = 0.0
        x[x > 0.5] = -0.0
        layer = MaxPool2D("p", ["i"], kernel=kernel, stride=stride, padding=padding)
        assert_kernel_bitwise(layer, x, reps=2)

    def test_relu(self):
        assert_kernel_bitwise(ReLU("r", ["i"]), rng.standard_normal((4, 8, 12, 12)))
