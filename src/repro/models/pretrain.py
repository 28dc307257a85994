"""Synthetic "pretraining" of model-zoo networks.

The paper uses Caffe Model Zoo weights; offline, we substitute random
(He-initialized) convolutional feature extractors with a classifier
head fitted by ridge regression on a synthetic dataset.  Random
convolutional features are a classical strong baseline, and a fitted
head gives the two properties the paper's method actually relies on:

* clean top-1 accuracy is well above chance, and
* accuracy degrades monotonically as output-layer numerical error grows
  (Sec. V-C: "sigma_YL monotonically increases when accuracy decreases").

The fitted layer must be the network's output layer (the paper's layer
L, the logits before softmax).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..data import Dataset
from ..errors import ModelError
from ..nn.graph import Network
from ..nn.layers import Dense


def _fittable_head(network: Network, num_classes: int) -> Dense:
    """The output layer, checked to be a Dense head with one logit per class."""
    head = network[network.output_name]
    if not isinstance(head, Dense):
        raise ModelError(
            f"output layer {network.output_name!r} must be Dense to be fitted; "
            f"got {type(head).__name__}"
        )
    if head.out_features != num_classes:
        raise ModelError(
            f"head produces {head.out_features} logits but dataset has "
            f"{num_classes} classes"
        )
    return head


def _collect_head_features(
    network: Network, head_name: str, images: np.ndarray, batch_size: int
) -> np.ndarray:
    """Inputs reaching the head layer, via a recording tap."""
    recorded = []

    def tap(x: np.ndarray) -> np.ndarray:
        recorded.append(x.reshape(x.shape[0], -1).copy())
        return x

    for start in range(0, images.shape[0], batch_size):
        network.forward(images[start : start + batch_size], taps={head_name: tap})
    return np.concatenate(recorded, axis=0)


def _fit_head(head: Dense, features: np.ndarray, train: Dataset, ridge: float) -> None:
    """One-vs-all ridge fit of ``head`` on recorded head inputs."""
    count, dim = features.shape
    targets = -np.ones((count, train.num_classes))
    targets[np.arange(count), train.labels] = 1.0

    # Normalize feature scale so the ridge strength is data-independent.
    feature_scale = float(features.std()) or 1.0
    scaled = features / feature_scale
    augmented = np.concatenate([scaled, np.ones((count, 1))], axis=1)
    gram = augmented.T @ augmented + ridge * count * np.eye(dim + 1)
    solution = np.linalg.solve(gram, augmented.T @ targets)
    head.weight = (solution[:dim].T / feature_scale).astype(np.float64)
    head.bias = solution[dim].astype(np.float64)


def _head_accuracy(
    head: Dense, features: np.ndarray, labels: np.ndarray, batch_size: int
) -> float:
    """Top-1 accuracy of ``head`` on recorded inputs, in :func:`top1_accuracy`'s batches."""
    predictions = [
        np.argmax(head.forward([features[start : start + batch_size]]), axis=1)
        for start in range(0, len(features), batch_size)
    ]
    return float(np.mean(np.concatenate(predictions) == labels))


def fit_classifier_head(
    network: Network,
    train: Dataset,
    ridge: float = 1e-3,
    batch_size: int = 64,
) -> None:
    """Fit the output Dense layer by one-vs-all ridge regression.

    Replaces the head's weight and bias in place.  Targets are +/-1
    one-vs-all scores, so the logits land on an O(1) scale — which makes
    the paper's sigma_YL values (0.1 .. a few) directly meaningful, as
    in Fig. 3 where accuracy falls off over sigma_YL in [0, ~4].
    """
    head = _fittable_head(network, train.num_classes)
    features = _collect_head_features(network, head.name, train.images, batch_size)
    _fit_head(head, features, train, ridge)


def pretrain(
    network: Network,
    train: Dataset,
    test: Dataset,
    ridge: float = 1e-3,
    batch_size: int = 64,
) -> Dict[str, float]:
    """Fit the head and report train/test accuracy.

    The fit changes only the head, so the trunk runs once per image: the
    recorded head inputs feed the fit and both accuracies.  The head sees
    the same ``batch_size``-row operands as in a full forward, so the
    accuracies equal :func:`top1_accuracy` on the fitted network.
    """
    head = _fittable_head(network, train.num_classes)
    train_features = _collect_head_features(network, head.name, train.images, batch_size)
    test_features = _collect_head_features(network, head.name, test.images, batch_size)
    _fit_head(head, train_features, train, ridge)
    return {
        "train_accuracy": _head_accuracy(head, train_features, train.labels, batch_size),
        "test_accuracy": _head_accuracy(head, test_features, test.labels, batch_size),
    }
