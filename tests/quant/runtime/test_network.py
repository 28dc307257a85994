"""QuantizedNetwork: correctness vs the tap simulation + bit-identity.

The contract under test (``docs/quantized-execution.md``):

* integer execution tracks the float simulation (taps) up to the
  extra 16-bit weight rounding — small, and shrinking as weight_bits
  grows;
* results are bit-identical across backends, packed vs unpacked
  activations, and batched vs sequential execution;
* measured activation traffic matches the analytic bandwidth model.
"""

import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.hardware.bandwidth import layer_traffic_bits
from repro.models import build_model
from repro.nn import INPUT, Network
from repro.nn.layers.activation import ReLU
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.dense import Dense
from repro.nn.statistics import measure_ranges, ordered_stats
from repro.quant import BitwidthAllocation
from repro.quant.runtime import (
    QuantizedNetwork,
    RuntimeSpec,
    build_layer_plan,
)


def tiny_grouped_network(seed=0):
    """A small net covering dense, depthwise, and grouped conv paths."""
    rng = np.random.default_rng(seed)
    net = Network("tiny", (4, 8, 8))
    net.add(
        Conv2D(
            "conv", [INPUT], rng.normal(size=(6, 4, 3, 3)),
            bias=rng.normal(size=6), padding=1,
        )
    )
    net.add(ReLU("relu", ["conv"]))
    net.add(
        Conv2D(
            "dw", ["relu"], rng.normal(size=(6, 1, 3, 3)),
            bias=rng.normal(size=6), padding=1, groups=6,
        )
    )
    net.add(
        Conv2D(
            "grouped", ["dw"], rng.normal(size=(8, 3, 3, 3)),
            padding=1, groups=2,
        )
    )
    net.add(Dense("fc", ["grouped"], rng.normal(size=(5, 8 * 8 * 8))))
    return net


def allocation_for(net, images, total_bits=10):
    stats = measure_ranges(net, images)
    return BitwidthAllocation.uniform(ordered_stats(net, stats), total_bits), stats


@pytest.fixture(scope="module")
def tiny():
    net = tiny_grouped_network()
    images = np.random.default_rng(42).normal(scale=2.0, size=(12, 4, 8, 8))
    allocation, stats = allocation_for(net, images)
    return net, images, allocation, stats


class TestCorrectness:
    def test_tracks_tap_simulation(self, tiny):
        """Integer execution == float sim up to weight rounding only."""
        net, images, allocation, _ = tiny
        sim = net.forward(images, taps=allocation.taps(net))
        out = QuantizedNetwork(net, allocation).forward(images)
        scale = np.max(np.abs(sim))
        assert np.max(np.abs(out - sim)) / scale < 5e-3

    def test_wider_weights_converge_to_simulation(self, tiny):
        """The runtime-vs-sim gap is the weight rounding: growing
        weight_bits must shrink it monotonically (up to noise)."""
        net, images, allocation, _ = tiny
        sim = net.forward(images, taps=allocation.taps(net))
        gaps = []
        for bits in (6, 10, 16):
            out = QuantizedNetwork(
                net, allocation, RuntimeSpec(weight_bits=bits)
            ).forward(images)
            gaps.append(np.max(np.abs(out - sim)))
        assert gaps[2] < gaps[1] < gaps[0]

    def test_dequantized_weights_match_format(self, tiny):
        net, _, allocation, _ = tiny
        q = QuantizedNetwork(net, allocation)
        for name in allocation.names:
            plan = q.plans[name]
            w = net[name].weight
            dq = q.dequantized_weight(name)
            assert dq.shape == w.shape
            assert np.max(np.abs(dq - w)) <= plan.weight_format.delta * (1 + 1e-12)


class TestBitIdentity:
    def test_across_backends_and_packing(self, tiny):
        net, images, allocation, _ = tiny
        reference = QuantizedNetwork(
            net, allocation, RuntimeSpec(backend="reference")
        ).forward(images)
        for pack in (True, False):
            out = QuantizedNetwork(
                net,
                allocation,
                RuntimeSpec(backend="fast", pack_activations=pack),
            ).forward(images)
            np.testing.assert_array_equal(out, reference)

    def test_forward_from_many_vs_sequential(self, tiny):
        net, images, allocation, _ = tiny
        q = QuantizedNetwork(net, allocation)
        batches = [images[:4], images[4:8], images[8:]]
        stacked = q.forward_from_many(batches)
        sequential = np.stack([q.forward(b) for b in batches])
        np.testing.assert_array_equal(stacked, sequential)

    def test_forward_from_many_slices_unquantized_gemm_layers(self):
        """Layers outside the allocation run float GEMMs whose BLAS
        kernels depend on batch shape; the batched path must slice them
        back to per-batch shapes to stay bitwise faithful."""
        net = tiny_grouped_network(seed=3)
        images = np.random.default_rng(5).normal(size=(8, 4, 8, 8))
        stats = measure_ranges(net, images)
        # Quantize only the first conv; dw/grouped/fc stay float.
        full = ordered_stats(net, stats)
        allocation = BitwidthAllocation.uniform(full[:1], 10)
        q = QuantizedNetwork(net, allocation)
        batches = [images[:4], images[4:]]
        stacked = q.forward_from_many(batches)
        sequential = np.stack([q.forward(b) for b in batches])
        np.testing.assert_array_equal(stacked, sequential)

    def test_lenet_backends_identical(self):
        net = build_model("lenet")
        images = np.random.default_rng(0).normal(scale=50.0, size=(8,) + net.input_shape)
        allocation, _ = allocation_for(net, images, total_bits=8)
        a = QuantizedNetwork(net, allocation, RuntimeSpec(backend="reference")).forward(images)
        b = QuantizedNetwork(net, allocation, RuntimeSpec(backend="fast")).forward(images)
        np.testing.assert_array_equal(a, b)


class TestTrafficAccounting:
    def test_measured_matches_analytic_model(self, tiny):
        net, images, allocation, stats = tiny
        q = QuantizedNetwork(net, allocation)
        q.forward(images)
        measured = q.measured_input_bits()
        analytic = layer_traffic_bits(stats, allocation)
        for name in allocation.names:
            # Byte-boundary padding is per forward call; one batch of
            # 12 images stays well inside 10%.
            assert measured[name] == pytest.approx(analytic[name], rel=0.10)

    def test_unpacked_counts_exact_bits(self, tiny):
        net, images, allocation, stats = tiny
        q = QuantizedNetwork(net, allocation, RuntimeSpec(pack_activations=False))
        q.forward(images)
        measured = q.measured_input_bits()
        analytic = layer_traffic_bits(stats, allocation)
        for name in allocation.names:
            assert measured[name] == analytic[name]

    def test_counters_reset(self, tiny):
        net, images, allocation, _ = tiny
        q = QuantizedNetwork(net, allocation)
        q.forward(images)
        q.reset_traffic()
        assert q.images_seen == 0
        with pytest.raises(QuantizationError):
            q.measured_input_bits()


class TestLenetTrafficPins:
    """``measured_input_bits`` on lenet, pinned to the values the
    bit-matrix packer produced: the word-parallel kernels move exactly
    the same packed bytes.  Widths 8/12/19/10 cover byte-cast and
    word-folded packing."""

    PINS = {
        8: {"conv1": 24576.0, "conv2": 16384.0, "conv3": 8192.0, "fc": 128.0},
        "odd": {
            "conv1": 36864.0, "conv2": 16384.0, "conv3": 19456.0, "fc": 160.0,
        },
    }

    @pytest.fixture(scope="class")
    def lenet(self):
        net = build_model("lenet")
        images = np.random.default_rng(0).normal(
            scale=50.0, size=(7,) + net.input_shape
        )
        stats = measure_ranges(net, images)
        uniform = BitwidthAllocation.uniform(ordered_stats(net, stats), 8)
        from repro.quant.allocation import LayerAllocation

        odd = BitwidthAllocation(
            [
                LayerAllocation(entry.name, entry.integer_bits, fraction)
                for entry, fraction in zip(uniform, (3, -2, 9, 1))
            ]
        )
        return net, images, {8: uniform, "odd": odd}

    @pytest.mark.parametrize("which", [8, "odd"])
    def test_measured_bits_pinned_across_specs(self, lenet, which):
        net, images, allocations = lenet
        logits = []
        for spec in (
            RuntimeSpec(),
            RuntimeSpec(pack_activations=False),
            RuntimeSpec(backend="reference"),
        ):
            q = QuantizedNetwork(net, allocations[which], spec)
            logits.append(
                np.concatenate([q.forward(images[:3]), q.forward(images[3:])])
            )
            assert q.measured_input_bits() == self.PINS[which]
        for out in logits[1:]:
            np.testing.assert_array_equal(out, logits[0])


class TestOperandDtype:
    def test_fast_plans_carry_float64_operands(self, tiny):
        net, _, allocation, _ = tiny
        fast = QuantizedNetwork(net, allocation)
        ref = QuantizedNetwork(net, allocation, RuntimeSpec(backend="reference"))
        for name in allocation.names:
            plan = fast.plans[name]
            assert plan.weight_operand.dtype == np.float64
            np.testing.assert_array_equal(plan.weight_operand, plan.weight_codes)
            assert ref.plans[name].weight_operand.dtype == np.int64

    def test_fast_falls_back_to_int64_past_2_pow_53(self):
        """32-bit activations on lenet's conv2 (K=150) push the bound
        past 2**53: that layer runs int64 on the fast backend too, and
        the logits still match the reference bit for bit."""
        from repro.quant.allocation import LayerAllocation

        net = build_model("lenet")
        images = np.random.default_rng(1).normal(
            scale=50.0, size=(4,) + net.input_shape
        )
        uniform, _ = allocation_for(net, images, total_bits=8)
        wide = BitwidthAllocation(
            [
                LayerAllocation(
                    e.name,
                    e.integer_bits,
                    32 - e.integer_bits if e.name == "conv2" else e.fraction_bits,
                )
                for e in uniform
            ]
        )
        fast = QuantizedNetwork(net, wide)
        assert fast.plans["conv2"].weight_operand.dtype == np.int64
        assert fast.plans["conv1"].weight_operand.dtype == np.float64
        reference = QuantizedNetwork(net, wide, RuntimeSpec(backend="reference"))
        np.testing.assert_array_equal(
            fast.forward(images), reference.forward(images)
        )


class TestValidation:
    def test_rejects_unknown_layer(self, tiny):
        net, images, _, stats = tiny
        from repro.quant.allocation import LayerAllocation

        bogus = BitwidthAllocation([LayerAllocation("nope", 4, 4)])
        with pytest.raises(QuantizationError):
            QuantizedNetwork(net, bogus)

    def test_rejects_non_dot_product_layer(self, tiny):
        net, _, _, _ = tiny
        from repro.quant.allocation import LayerAllocation

        relu_alloc = BitwidthAllocation([LayerAllocation("relu", 4, 4)])
        with pytest.raises(QuantizationError):
            QuantizedNetwork(net, relu_alloc)

    def test_plan_requires_weights(self):
        relu = ReLU("r", [INPUT])
        with pytest.raises(QuantizationError):
            build_layer_plan(relu, 4, 4, RuntimeSpec())

    def test_forward_from_many_shape_checks(self, tiny):
        net, images, allocation, _ = tiny
        q = QuantizedNetwork(net, allocation)
        with pytest.raises(QuantizationError):
            q.forward_from_many([])
        with pytest.raises(QuantizationError):
            q.forward_from_many([images[:4], images[:2]])
