"""Memory bound of a batch-64 fp64 forward.

A forward pass holds its live activations plus each layer's temporary
buffers.  The convolution gathers run per block of samples within
``COLUMN_BUDGET_BYTES`` and LRN sums in place, so no temporary grows
with the batch beyond an activation's size.  The bounds sit about 20%
above the measured peaks (alexnet 25.2 MB, nin 16.8 MB, vgg19 13.8 MB);
gathering a whole batch-64 column matrix at once peaked at 58.2, 64.2
and 82.7 MB.  ``tracemalloc`` counts the bytes numpy requests, so the
figures do not depend on the host.
"""

import tracemalloc

import numpy as np
import pytest

from repro.models import build_model

BOUNDS_MB = {"alexnet": 30.0, "nin": 20.0, "vgg19": 17.0}


@pytest.mark.parametrize("name", sorted(BOUNDS_MB))
def test_batch64_forward_peak(name):
    net = build_model(name, num_classes=8, seed=11)
    x = np.random.default_rng(0).standard_normal((64,) + net.input_shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        net.forward(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= BOUNDS_MB[name]
