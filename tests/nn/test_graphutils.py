"""Tests for the graph utilities."""

import pytest

from repro.errors import GraphError
from repro.models import build_model
from repro.nn import (
    downstream_layers,
    layer_depths,
    replay_cost_fraction,
    validate_dag,
)
from repro.nn.graph import INPUT


@pytest.fixture(scope="module")
def resnet():
    return build_model("resnet50")


class TestValidateDag:
    def test_zoo_models_are_valid(self, lenet, resnet):
        validate_dag(lenet)
        validate_dag(resnet)

    def test_cycle_rejected(self):
        net = build_model("lenet")
        net["conv1"].inputs = ["fc"]  # rewired behind the builder's back
        with pytest.raises(GraphError, match="cycle"):
            validate_dag(net)


class TestLayerDepths:
    def test_monotone_along_chain(self, lenet):
        depths = layer_depths(lenet)
        assert depths["conv1"] < depths["conv2"] < depths["conv3"] < depths["fc"]

    def test_input_is_zero(self, lenet):
        assert layer_depths(lenet)[INPUT] == 0

    def test_residual_depth_takes_longest_path(self, resnet):
        depths = layer_depths(resnet)
        # the add node is deeper than its shortcut input
        assert depths["s1b1_add"] > depths["s1b1_proj"]


class TestDownstream:
    def test_last_layer_downstream_is_itself(self, lenet):
        assert downstream_layers(lenet, "fc") == ["fc"]

    def test_first_layer_downstream_is_everything(self, lenet):
        assert len(downstream_layers(lenet, "conv1")) == len(lenet)

    def test_unknown_layer_rejected(self, lenet):
        with pytest.raises(GraphError):
            downstream_layers(lenet, "ghost")

    def test_skip_path_not_included(self, resnet):
        """Layers on a parallel branch are not downstream."""
        downstream = set(downstream_layers(resnet, "s1b1_a"))
        assert "s1b1_proj" not in downstream
        assert "s1b1_add" in downstream


class TestReplayCost:
    def test_fraction_bounds(self, lenet):
        for name in lenet.analyzed_layer_names:
            fraction = replay_cost_fraction(lenet, name)
            assert 0 < fraction <= 1

    def test_late_layers_cheaper(self, lenet):
        assert replay_cost_fraction(lenet, "fc") < replay_cost_fraction(
            lenet, "conv1"
        )

    def test_first_layer_costs_full_pass(self, lenet):
        assert replay_cost_fraction(lenet, "conv1") == pytest.approx(1.0)
