"""Tests of the end-to-end benchmark harness (outside the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

The harness tests run the ``--smoke`` (lenet) versions of the workloads
at seed 1; the compare tests use synthetic runs.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load(name: str):
    # By path, under a private name: the harness's ``trace`` module
    # would otherwise be found as (or shadow) the standard library's.
    spec = importlib.util.spec_from_file_location(f"e2e_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare = _load("compare")
trace = _load("trace")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    # run.py finds the program under its own checkout; an inherited
    # PYTHONPATH must not supply it from elsewhere.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )


def printed(stdout: str):
    """(workload, metric, unit) of every metric line, and the JSON result."""
    lines = stdout.splitlines()
    rows = {(p[0], p[1], p[3]) for p in (line.split() for line in lines[:-1]) if len(p) == 4}
    return rows, json.loads(lines[-1])


@pytest.fixture(scope="module")
def smoke():
    start = time.perf_counter()
    proc = run_bench("--smoke", "--seed", "1")
    return proc, time.perf_counter() - start


def test_smoke_prints_every_end_to_end_metric_with_its_unit(smoke):
    proc, elapsed = smoke
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60
    rows, result = printed(proc.stdout)
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"]:
            assert (workload["name"], metric["name"], metric["unit"]) in rows
            entry = result["workloads"][workload["name"]]["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"] and entry["value"] > 0


def test_smoke_has_no_failed_operations(smoke):
    proc, _ = smoke
    _, result = printed(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for outcome in result["workloads"].values():
        assert outcome["correct"] and outcome["failed"] == 0


def test_trace_prints_every_per_layer_metric_with_its_unit():
    proc = run_bench("--smoke", "--seed", "1", "--workload", "nin-scheme2-b32", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    rows, result = printed(proc.stdout)
    for metric in SPEC["per_layer"]:
        assert ("nin-scheme2-b32", metric["name"], metric["unit"]) in rows
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"]["trace.coverage"]["value"] >= 0.95


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = run_bench("--workload", "nin-scheme2-b32", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_shim_target_is_reported_and_removed_shims_restore(monkeypatch):
    from repro.nn.graph import Network

    original = Network.forward
    monkeypatch.setattr(
        trace,
        "SHIMS",
        [
            ("repro.nn.graph", "Network.forward", "nn.forward", None),
            ("repro.nn.graph", "Network.no_such_method", "nn.conv", None),
        ],
    )
    tracer = trace.Tracer()
    tracer.install()
    assert Network.forward is not original
    tracer.uninstall()
    assert Network.forward is original
    assert tracer.missing == ["repro.nn.graph:Network.no_such_method"]
    values, missing = trace.layer_metrics(tracer)
    assert "nn.conv.s" in missing and "nn.conv.s" not in values
    assert "nn.forward.calls" in values


def test_self_time_excludes_children():
    tracer = trace.Tracer()
    with tracer.span("harness.fp64_pass"):
        with tracer.span("nn.forward"):
            with tracer.span("nn.conv"):
                time.sleep(0.02)
            time.sleep(0.01)
    folded = trace.Folded(tracer)
    assert folded.own("nn.forward") == pytest.approx(
        folded.inclusive("nn.forward") - folded.inclusive("nn.conv")
    )
    assert folded.own("nn.forward") < folded.inclusive("nn.conv")


# -- compare.py ---------------------------------------------------------
def test_spread_wider_than_bound_is_unresolved():
    a = [100, 80, 120, 100, 90, 110]
    b = [101, 81, 121, 99, 91, 109]
    assert compare.status(a, b, "lower", 0.10) == "unresolved"


def test_spread_wider_than_bound_but_every_run_better_is_better():
    a = [100, 130, 160]
    b = [50, 60, 70]
    assert compare.status(a, b, "lower", 0.10) == "better"


def test_regression_beyond_bound_and_within_bound():
    a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.status(a, [x * 1.2 for x in a], "lower", 0.10) == "REGRESSION"
    assert compare.status(a, [x * 1.05 for x in a], "lower", 0.10) == "ok"
    assert compare.status(a, [x * 0.8 for x in a], "higher", 0.10) == "REGRESSION"


def test_compare_exits_1_on_a_regression(tmp_path):
    def results(values):
        runs = [
            {"workloads": {"nin-scheme2-b32": {"metrics": {"setup_s": {"value": v, "unit": "s"}}}}}
            for v in values
        ]
        path = tmp_path / f"{values[0]}.json"
        path.write_text(json.dumps({"runs": runs}))
        return path

    base = results([1.0, 1.01, 0.99])
    assert compare.main([str(base), str(results([1.5, 1.51, 1.49]))]) == 1
    assert compare.main([str(base), str(results([1.02, 1.0, 1.01]))]) == 0


def test_pairs_rule_needs_nine_of_ten_wins_and_a_gap_beyond_iqr():
    a = [100.0 + i for i in range(10)]
    nine = [x - 20 for x in a[:9]] + [a[9] + 1]
    assert compare.claim(a, nine, "lower") == (9, 10, True)
    eight = [x - 20 for x in a[:8]] + [a[8] + 1, a[9] + 1]
    assert compare.claim(a, eight, "lower")[2] is False
    # Ties count for neither side: 8 wins and 2 ties is 8/10.
    tied = [x - 20 for x in a[:8]] + a[8:]
    assert compare.claim(a, tied, "lower") == (8, 10, False)
    small = [x - 0.5 for x in a]
    assert compare.claim(a, small, "lower") == (10, 10, False)
