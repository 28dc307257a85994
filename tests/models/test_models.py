"""Tests for the model zoo, calibration, pretraining, and evaluation."""

import copy

import numpy as np
import pytest

from repro.data import SyntheticImageNet
from repro.errors import ModelError
from repro.models import (
    MODEL_NAMES,
    PAPER_LAYER_COUNTS,
    build_model,
    fit_classifier_head,
    lsuv_calibrate,
    predict,
    pretrain,
    relative_drop,
    top1_accuracy,
)
from repro.nn import Network
from repro.nn.layers import Conv2D, Dense


class TestZooRegistry:
    def test_unknown_model_rejected(self):
        with pytest.raises(ModelError):
            build_model("resnet9000")

    def test_all_paper_models_listed(self):
        assert len(MODEL_NAMES) == 8

    @pytest.mark.parametrize("name", ["lenet", "alexnet", "nin"])
    def test_build_is_deterministic(self, name):
        a = build_model(name, seed=5)
        b = build_model(name, seed=5)
        first_conv = a.analyzed_layer_names[0]
        np.testing.assert_array_equal(a[first_conv].weight, b[first_conv].weight)

    @pytest.mark.parametrize(
        "name", ["alexnet", "nin", "vgg19", "squeezenet", "mobilenet"]
    )
    def test_analyzed_layer_count_matches_paper(self, name):
        net = build_model(name)
        assert len(net.analyzed_layer_names) == PAPER_LAYER_COUNTS[name]

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["googlenet", "resnet50", "resnet152"])
    def test_deep_model_layer_counts(self, name):
        net = build_model(name)
        assert len(net.analyzed_layer_names) == PAPER_LAYER_COUNTS[name]

    @pytest.mark.parametrize("name", ["alexnet", "nin", "mobilenet"])
    def test_forward_shape(self, name):
        net = build_model(name, num_classes=8)
        x = np.random.default_rng(0).normal(size=(2, 3, 32, 32)) * 50
        assert net.forward(x).shape == (2, 8)

    def test_output_layer_is_dense_everywhere(self):
        for name in MODEL_NAMES + ["lenet"]:
            net = build_model(name)
            assert isinstance(net[net.output_name], Dense), name


class TestCalibration:
    def test_output_std_near_target(self):
        net = build_model("lenet", seed=0)
        images = SyntheticImageNet(seed=0).sample(16).images
        lsuv_calibrate(net, images, target_std=40.0)
        cache = net.run_all(images)
        for name in ["conv1", "conv2", "conv3"]:
            assert cache[name].std() == pytest.approx(40.0, rel=0.05)

    def test_returns_scale_factors_for_weighted_layers(self):
        net = build_model("lenet", seed=0)
        images = SyntheticImageNet(seed=0).sample(8).images
        scales = lsuv_calibrate(net, images)
        weighted = [
            layer.name
            for layer in net.layers
            if isinstance(layer, (Conv2D, Dense))
        ]
        assert set(scales) == set(weighted)

    def test_rejects_bad_target(self):
        net = build_model("lenet")
        with pytest.raises(ModelError):
            lsuv_calibrate(net, np.zeros((2, 3, 32, 32)), target_std=-1)


class TestPretrain:
    def test_accuracy_above_chance(self, lenet, datasets):
        __, test = datasets
        acc = top1_accuracy(lenet, test)
        assert acc > 3.0 / test.num_classes

    def test_fit_head_beats_random_head(self, source, datasets):
        train, test = datasets
        net = build_model("lenet", num_classes=source.num_classes, seed=99)
        lsuv_calibrate(net, train.images[:32])
        random_acc = top1_accuracy(net, test)
        fit_classifier_head(net, train)
        fitted_acc = top1_accuracy(net, test)
        assert fitted_acc > random_acc

    def test_pretrain_reports_both_accuracies(self, source, datasets):
        train, test = datasets
        net = build_model("lenet", num_classes=source.num_classes, seed=7)
        info = pretrain(net, train, test)
        assert set(info) == {"train_accuracy", "test_accuracy"}
        assert info["train_accuracy"] >= info["test_accuracy"] - 0.15

    def test_head_class_count_must_match(self, source, datasets):
        train, __ = datasets
        net = build_model("lenet", num_classes=source.num_classes + 1, seed=1)
        with pytest.raises(ModelError):
            fit_classifier_head(net, train)


def _parameter_bytes(network):
    return {
        layer.name: [
            getattr(layer, attr).tobytes()
            for attr in ("weight", "bias")
            if getattr(layer, attr, None) is not None
        ]
        for layer in network.layers
    }


class TestPretrainOnePass:
    """``pretrain`` runs the trunk once per image and changes no number."""

    @pytest.mark.parametrize("name", ["lenet"] + MODEL_NAMES)
    def test_matches_fit_then_evaluate(self, name):
        # 100 and 40 images: a short last batch on both splits.
        source = SyntheticImageNet(num_classes=4, seed=5)
        train, test = source.train_test(100, 40)
        net = build_model(name, num_classes=4, seed=5)
        lsuv_calibrate(net, train.images[:16])
        reference = copy.deepcopy(net)

        info = pretrain(net, train, test)
        fit_classifier_head(reference, train)
        expected = {
            "train_accuracy": top1_accuracy(reference, train),
            "test_accuracy": top1_accuracy(reference, test),
        }
        assert info == expected
        assert _parameter_bytes(net) == _parameter_bytes(reference)

    @pytest.mark.parametrize("counts", [(256, 128), (100, 40)])
    def test_one_forward_per_batch(self, monkeypatch, counts):
        train_count, test_count = counts
        source = SyntheticImageNet(num_classes=4, seed=5)
        train, test = source.train_test(train_count, test_count)
        net = build_model("lenet", num_classes=4, seed=5)
        calls = []
        forward = Network.forward

        def counting(self, *args, **kwargs):
            calls.append(1)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(Network, "forward", counting)
        pretrain(net, train, test, batch_size=64)
        assert len(calls) == -(-train_count // 64) + -(-test_count // 64)

    def test_head_checks_apply(self, source, datasets):
        train, test = datasets
        net = build_model("lenet", num_classes=source.num_classes + 1, seed=1)
        with pytest.raises(ModelError):
            pretrain(net, train, test)


class TestEvaluate:
    def test_predict_shape(self, lenet, images):
        assert predict(lenet, images).shape == (images.shape[0],)

    def test_accuracy_bounds(self, lenet, datasets):
        __, test = datasets
        acc = top1_accuracy(lenet, test)
        assert 0.0 <= acc <= 1.0

    def test_batching_invariance(self, lenet, datasets):
        __, test = datasets
        a = top1_accuracy(lenet, test, batch_size=128)
        b = top1_accuracy(lenet, test, batch_size=17)
        assert a == b

    def test_relative_drop(self):
        assert relative_drop(0.8, 0.72) == pytest.approx(0.1)
        assert relative_drop(0.0, 0.0) == 0.0
