"""Replay-plan memoization and partial replay.

The plan cache must hand back the same object until the graph mutates,
and ``forward_from`` must give the bytes of a full forward with the
same tap.
"""

import numpy as np
import pytest

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


def make_tap(shape, seed=TEST_SEED):
    """A deterministic additive-noise tap."""
    noise = np.random.default_rng(seed).standard_normal(shape)
    return lambda x: x + noise


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


class TestForwardFrom:
    @pytest.fixture()
    def net(self):
        return tiny_network()

    @pytest.fixture()
    def images(self):
        return np.random.default_rng(TEST_SEED).standard_normal((3, 2, 6, 6))

    @pytest.mark.parametrize("start", ["c1", "c2", "fc"])
    def test_matches_tapped_forward(self, net, images, start):
        cache = net.run_all(images)
        tap = make_tap(cache[net[start].inputs[0]].shape)
        want = net.forward(images, taps={start: tap})
        got = net.forward_from(cache, start, tap)
        assert got.tobytes() == want.tobytes()

    def test_start_not_reaching_output_returns_clean(self, net, images):
        # With the output moved upstream of the start layer, perturbing
        # the start cannot change the output: the replay returns the
        # clean activation.
        net.set_output("c1")
        cache = net.run_all(images)
        tap = make_tap(cache[net["c2"].inputs[0]].shape)
        got = net.forward_from(cache, "c2", tap)
        assert got.tobytes() == cache["c1"].tobytes()
