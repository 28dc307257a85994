"""Replay-plan memoization and vectorized multi-trial replay.

The plan cache must hand back the same object until the graph mutates,
and ``forward_from_many`` must be a bitwise re-expression of R separate
``forward_from`` calls — with the default layer kernels and with the
engine's replay forward alike.
"""

import numpy as np
import pytest

from repro.engine import KernelScratch, make_forward_fn
from repro.errors import GraphError
from repro.nn import NetworkBuilder, ReLU

TEST_SEED = 1234


def tiny_network(seed=0):
    """conv -> relu -> conv -> gap -> fc, all deterministic."""
    b = NetworkBuilder("tiny", (2, 6, 6), seed=seed)
    b.conv("c1", 3, 3)
    b.conv("c2", 4, 3)
    b.global_pool("gap")
    b.dense("fc", 5)
    return b.build()


def make_taps(shape, repeats, seed=TEST_SEED):
    """Deterministic additive-noise taps (and the noises they add)."""
    rng = np.random.default_rng(seed)
    noises = [rng.standard_normal(shape) for _ in range(repeats)]
    taps = [(lambda n: (lambda x: x + n))(noise) for noise in noises]
    return taps


class TestPlanMemoization:
    def test_same_plan_object_returned(self):
        net = tiny_network()
        plan = net.replay_plan("c2")
        assert net.replay_plan("c2") is plan
        assert net.replay_plan("c1") is not plan

    def test_add_invalidates(self):
        net = tiny_network()
        plan = net.replay_plan("c2")
        net.add(ReLU("extra", ["fc"]))
        fresh = net.replay_plan("c2")
        assert fresh is not plan

    def test_set_output_invalidates(self):
        net = tiny_network()
        plan = net.replay_plan("c2")
        assert plan.reaches_output
        net.set_output("c1")
        fresh = net.replay_plan("c2")
        assert fresh is not plan
        assert not fresh.reaches_output

    def test_unknown_start_rejected(self):
        with pytest.raises(GraphError):
            tiny_network().replay_plan("ghost")

    def test_dirty_last_use_matches_plan(self):
        net = tiny_network()
        assert net._dirty_last_use("c2") == net.replay_plan("c2").last_use


class TestForwardFromMany:
    @pytest.fixture()
    def net(self):
        return tiny_network()

    @pytest.fixture()
    def cache(self, net):
        rng = np.random.default_rng(TEST_SEED)
        return net.run_all(rng.standard_normal((3, 2, 6, 6)))

    @pytest.mark.parametrize("start", ["c1", "c2", "fc"])
    def test_matches_repeated_forward_from(self, net, cache, start):
        taps = make_taps(cache[net[start].inputs[0]].shape, repeats=4)
        many = net.forward_from_many(cache, start, taps)
        assert many.shape[0] == len(taps)
        for tap, got in zip(taps, many):
            want = net.forward_from(cache, start, tap)
            assert np.array_equal(want, got)

    def test_matches_with_fast_kernels(self, net, cache):
        taps = make_taps(cache[net["c2"].inputs[0]].shape, repeats=3)
        fwd = make_forward_fn(KernelScratch(), trial_groups=len(taps))
        many = net.forward_from_many(cache, "c2", taps, forward_fn=fwd)
        for tap, got in zip(taps, many):
            want = net.forward_from(cache, "c2", tap)
            assert np.array_equal(want, got)

    def test_empty_taps_rejected(self, net, cache):
        with pytest.raises(GraphError):
            net.forward_from_many(cache, "c2", [])

    def test_single_tap_degenerates_to_forward_from(self, net, cache):
        taps = make_taps(cache[net["c2"].inputs[0]].shape, repeats=1)
        many = net.forward_from_many(cache, "c2", taps)
        assert np.array_equal(many[0], net.forward_from(cache, "c2", taps[0]))

    def test_start_not_reaching_output_broadcasts_clean(self, net):
        # With the output moved upstream of the start layer, perturbing
        # the start cannot change the output: every trial's result is
        # the clean activation.
        net.set_output("c1")
        rng = np.random.default_rng(TEST_SEED)
        cache = net.run_all(rng.standard_normal((3, 2, 6, 6)))
        taps = make_taps(cache[net["c2"].inputs[0]].shape, repeats=3)
        many = net.forward_from_many(cache, "c2", taps)
        assert many.shape[0] == len(taps)
        for got in many:
            assert np.array_equal(got, cache["c1"])
