"""The run path never imports scipy.

scipy is a test-only dependency (the SLSQP oracle and the smoothing
oracle use it).  A subprocess pretrains lenet, optimizes it, compiles
the allocation and runs it on the integer runtime, then reports
whether anything along the way imported scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = """
import sys

import numpy as np

from repro import PrecisionOptimizer
from repro.config import ProfileSettings, SearchSettings
from repro.data import SyntheticImageNet
from repro.models import pretrained_model
from repro.quant.runtime import RuntimeSpec, build_quantized_network

source = SyntheticImageNet(num_classes=4, seed=321)
network, __, test, __ = pretrained_model(
    "lenet", source=source, train_count=64, test_count=32, seed=321
)
optimizer = PrecisionOptimizer(
    network,
    test,
    profile_settings=ProfileSettings(num_images=4, num_delta_points=4),
    search_settings=SearchSettings(tolerance=0.05, num_trials=1),
    refine=False,
)
outcome = optimizer.optimize("input", accuracy_drop=0.05)
quantized = build_quantized_network(network, outcome.result.allocation, RuntimeSpec())
logits = quantized.forward(test.images[:8])
assert np.all(np.isfinite(logits))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_optimize_and_quantized_forward_leave_scipy_unimported():
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
