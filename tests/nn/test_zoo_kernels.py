"""Whole-model checks of the layer kernels on every zoo model.

* ``Network.forward`` output, and every intermediate activation, equals
  the per-sample oracle (``reference_layers.py``) byte for byte at
  batch 1 and batch 64: the batch sizes of batch-1 inference and of the
  sigma search's accuracy passes.
* Every layer but ``Dense`` and the depthwise convolutions is batch
  invariant: a batch of B gives the same bytes as B batch-1 calls.
* Injection replay (``Network.forward_from``) from an analyzed layer
  gives the bytes of a full forward with the same tap, through the
  residual adds and concats of every zoo graph.
"""

import numpy as np
import pytest

from repro.models import MODEL_NAMES, build_model
from repro.nn import Conv2D, Dense
from tests.nn.reference_layers import reference_forward

MODELS = ["lenet", *MODEL_NAMES]


@pytest.fixture(scope="module", params=MODELS)
def net(request):
    return build_model(request.param, num_classes=8, seed=11)


def per_sample_convs(net):
    """Convolutions that take the per-sample path (P % 8 != 0)."""
    return [
        layer.name
        for layer in net.layers
        if isinstance(layer, Conv2D)
        and (layer.output_shape[1] * layer.output_shape[2]) % 8
        and not (layer.kernel == 1 and layer.stride == 1 and layer.padding == 0)
    ]


def is_depthwise(layer):
    return isinstance(layer, Conv2D) and layer.groups > 1 and layer.weight.shape[1] == 1


@pytest.mark.parametrize("batch", [1, 64])
def test_forward_matches_oracle(net, batch):
    x = np.random.default_rng(batch).standard_normal((batch,) + net.input_shape)
    got = net.run_all(x)
    want = net.run_all(x, forward_fn=reference_forward)
    moved = [n for n in want.names() if got[n].tobytes() != want[n].tobytes()]
    assert not moved
    assert net.forward(x).tobytes() == want[net.output_name].tobytes()


@pytest.mark.parametrize("name", ["googlenet", "vgg19"])
def test_per_sample_convolutions_are_covered(name):
    # Their 2x2 maps (P = 4) take the per-sample path; the oracle test
    # above runs them.
    net = build_model(name, num_classes=8, seed=11)
    assert len(per_sample_convs(net)) == 4


def test_layers_are_batch_invariant(net):
    batch = 16
    x = np.random.default_rng(3).standard_normal((batch,) + net.input_shape)
    values = net.run_all(x)
    variant = []
    for layer in net.layers:
        if isinstance(layer, Dense) or is_depthwise(layer):
            # Dense runs one GEMM over the batch and the depthwise
            # einsum contracts the batch too: both pick kernels by N.
            continue
        arrays = [values[n] for n in layer.inputs]
        whole = layer.forward(arrays)
        singles = np.concatenate(
            [layer.forward([a[i : i + 1] for a in arrays]) for i in range(batch)]
        )
        if whole.tobytes() != singles.tobytes():
            variant.append(layer.name)
    assert not variant


def test_replay_matches_tapped_forward(net):
    x = np.random.default_rng(5).standard_normal((2,) + net.input_shape)
    cache = net.run_all(x)
    analyzed = net.analyzed_layer_names
    moved = []
    for start in {analyzed[0], analyzed[len(analyzed) // 2], analyzed[-1]}:
        noise = np.random.default_rng(7).standard_normal(
            cache[net[start].inputs[0]].shape
        )

        def tap(value, noise=noise):
            return value + noise

        want = net.forward(x, taps={start: tap})
        if net.forward_from(cache, start, tap).tobytes() != want.tobytes():
            moved.append(start)
    assert not moved
