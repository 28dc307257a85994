"""The run path imports only what ``pyproject.toml`` declares.

scipy is a test-only dependency (the SLSQP oracle and the smoothing
oracle use it); networkx is no dependency at all; ``http.server`` is
needed only by the live ``/metrics`` endpoint.  A subprocess pretrains
lenet, optimizes it, compiles the allocation and runs it on the integer
runtime, then reports which of them anything along the way imported.
A second subprocess imports the package and its CLI and reports every
third-party top-level module that brought in.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import json
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
print(json.dumps(sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("scipy", "networkx") or name == "http.server"
)))
"""

IMPORT_SCRIPT = """
import json
import sys

before = set(sys.modules)
import repro
import repro.cli

loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"repro"})))
"""


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared_dependencies():
    """Top-level module names of ``[project] dependencies``."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S)
    assert block is not None
    names = re.findall(r"[\"']([A-Za-z0-9_.-]+)", block.group(1))
    return {name.lower().replace("-", "_") for name in names}


def test_optimize_and_quantized_forward_leave_scipy_unimported():
    assert _run(SCRIPT) == []


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="needs sys.stdlib_module_names"
)
def test_package_imports_only_declared_dependencies():
    declared = _declared_dependencies()
    assert "numpy" in declared
    assert set(_run(IMPORT_SCRIPT)) <= declared
