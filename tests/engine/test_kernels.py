"""Byte-identity tests for the layer kernels against the per-sample oracle.

``layer.forward`` and the engine's replay forward
(``make_forward_fn(KernelScratch(), trial_groups=R)``) both run
:mod:`repro.nn.kernels`; both must reproduce the stock per-sample
implementations in ``tests/nn/reference_layers.py`` byte for byte.
Bytes, not ``np.array_equal``: the latter treats -0.0 and +0.0 as equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import KernelScratch, make_forward_fn
from repro.nn import LRN, Conv2D, Dense, MaxPool2D, ReLU
from tests.nn.reference_layers import reference_forward

rng = np.random.default_rng(7)


def bind(layer, x):
    layer.bind([x.shape[1:]])
    return layer


def assert_same_bytes(want, got):
    assert want.shape == got.shape
    assert want.dtype == got.dtype
    assert want.tobytes() == got.tobytes()


def assert_kernel_bitwise(layer, x, trial_groups=1, reps=3):
    """forward and the replay forward == the oracle, across scratch reuse.

    The replay forward of ``trial_groups`` stacked trials must equal the
    oracle run on each trial alone: the depthwise oracle contracts its
    whole batch, so only the per-trial call is the stacking contract.
    """
    bind(layer, x)
    assert_same_bytes(reference_forward(layer, [x]), layer.forward([x]))
    # A group count that does not divide the batch means one group.
    splits = trial_groups if x.shape[0] % trial_groups == 0 else 1
    per = x.shape[0] // splits
    want = np.concatenate(
        [
            reference_forward(layer, [x[t * per : (t + 1) * per]])
            for t in range(splits)
        ]
    )
    fwd = make_forward_fn(KernelScratch(), trial_groups=trial_groups)
    for _ in range(reps):  # repeated calls exercise buffer reuse
        assert_same_bytes(want, fwd(layer, [x]))


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
        trial_groups=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_random_shapes(
        self, n, in_per_group, out_per_group, groups, kernel, stride, padding,
        h, w, with_bias, trial_groups, seed,
    ):
        # Covers P % 8 != 0 (per-sample path), grouped, depthwise and
        # 1x1 convolutions, and stacked batches of trial_groups trials.
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
        x = local.standard_normal((n * trial_groups, in_per_group * groups, h, w))
        layer = Conv2D(
            "c", ["i"], weight, bias, stride=stride, padding=padding, groups=groups
        )
        assert_kernel_bitwise(layer, x, trial_groups=trial_groups, reps=2)


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


class TestTrialGroupSlicing:
    """Stacked trial batches must reproduce per-trial bits exactly.

    ``make_forward_fn(scratch, trial_groups=T)`` slices every GEMM into
    per-trial-group calls so each BLAS invocation runs at unstacked
    shapes — the result of a stacked replay is the concatenation of the
    individual trials' results, bit for bit.
    """

    def _stacked_equals_per_trial(self, layer, per_trial_inputs):
        bind(layer, per_trial_inputs[0])
        want = np.concatenate(
            [reference_forward(layer, [x]) for x in per_trial_inputs]
        )
        stacked = np.concatenate(per_trial_inputs)
        fwd = make_forward_fn(
            KernelScratch(), trial_groups=len(per_trial_inputs)
        )
        assert_same_bytes(want, fwd(layer, [stacked]))

    def test_conv_stacked(self):
        layer = Conv2D(
            "c",
            ["i"],
            rng.standard_normal((8, 4, 3, 3)),
            rng.standard_normal(8),
            stride=1,
            padding=1,
        )
        trials = [rng.standard_normal((3, 4, 12, 12)) for _ in range(4)]
        self._stacked_equals_per_trial(layer, trials)

    def test_grouped_conv_stacked(self):
        layer = Conv2D(
            "cg",
            ["i"],
            rng.standard_normal((8, 2, 3, 3)),
            rng.standard_normal(8),
            stride=1,
            padding=1,
            groups=2,
        )
        trials = [rng.standard_normal((2, 4, 12, 12)) for _ in range(3)]
        self._stacked_equals_per_trial(layer, trials)

    def test_depthwise_stacked_batch_one(self):
        # Eight stacked batch-1 trials, as injection replay stacks them:
        # the depthwise einsum picks its reduction loops by batch size.
        layer = Conv2D(
            "dw",
            ["i"],
            rng.standard_normal((32, 1, 3, 3)),
            rng.standard_normal(32),
            stride=1,
            padding=1,
            groups=32,
        )
        trials = [rng.standard_normal((1, 32, 14, 14)) for _ in range(8)]
        self._stacked_equals_per_trial(layer, trials)

    def test_dense_stacked(self):
        layer = Dense(
            "fc", ["i"], rng.standard_normal((6, 16)), rng.standard_normal(6)
        )
        trials = [rng.standard_normal((4, 16)) for _ in range(5)]
        self._stacked_equals_per_trial(layer, trials)

    def test_indivisible_batch_keeps_single_group(self):
        # trial_groups that does not divide the batch degrades to one
        # group — still bitwise equal to the oracle on the whole batch.
        layer = Conv2D(
            "c",
            ["i"],
            rng.standard_normal((8, 4, 3, 3)),
            rng.standard_normal(8),
            stride=1,
            padding=1,
        )
        assert_kernel_bitwise(layer, rng.standard_normal((5, 4, 12, 12)), trial_groups=3)
