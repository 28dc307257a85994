"""Workloads of the end-to-end benchmark (see README.md beside this file).

A workload is one model, one sigma-search scheme and one inference batch
size, run as a single-threaded closed loop with one client.  The model
is pretrained (set-up), then every round runs

1. the optimize grid {1%, 5%} x {input, mac} cold: a fresh
   ``PrecisionOptimizer`` over an empty cache directory;
2. the same grid ``WARM_REPEATS`` times, each on a fresh optimizer over
   that directory, so every cell is restored from the cache;
3. the compile of the grid's 1%/input allocation into a quantized
   network, plus one warm-up forward (set-up work); and
4. inference passes over a stream of images drawn with the run's seed,
   at the workload's batch size, alternating quantized and fp64, each
   forward call timed.

The model and its data come from ``MODEL_SEED``, not from the run's
seed: where the sigma search lands, and so how many evaluations, backoff
validations and bits it costs, differs from model to model by more than
the benchmark's bounds.  The seed draws the inference images, whose
content does not change the work a forward pass does.

An operation is one grid cell, one compile or one forward call.  An
exception or a failed correctness check counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, ContextManager, Dict, List, Optional, Tuple

import numpy as np

from repro.data import SyntheticImageNet
from repro.experiments import ExperimentConfig, make_context
from repro.pipeline import PrecisionOptimizer
from repro.quant.runtime import QuantizedNetwork, RuntimeSpec, build_quantized_network

from trace import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
#: Scratch space for cache directories and trace files; the benchmark
#: reads and writes nothing outside its checkout.
OUT_DIR = HERE / "out"
#: Seed of every model, its training and evaluation data, and the
#: pipeline's noise streams (the pins in expected.json hold for it).
MODEL_SEED = 20190325
#: Sample index of the inference stream is this plus the run's seed, so
#: it never coincides with the training (1) or evaluation (2) sample.
STREAM_SAMPLE = 1000
#: Grid cells in the order a sweep visits them.
GRID: Tuple[Tuple[float, str], ...] = (
    (0.01, "input"),
    (0.01, "mac"),
    (0.05, "input"),
    (0.05, "mac"),
)
#: The cell whose allocation the inference passes deploy; its budget is
#: also the bound on the measured integer top-1 drop.
DEPLOYED = (0.01, "input")
WARM_REPEATS = 20
SETUP_REPEATS = 3
SIZES = dict(num_classes=8, train_count=256, test_count=128, profile_images=16, profile_points=6)
SMOKE_SIZES = dict(num_classes=8, train_count=96, test_count=48, profile_images=8, profile_points=4)

Span = Callable[[str], ContextManager[None]]


def _no_span(name: str) -> ContextManager[None]:
    return nullcontext()


@dataclass(frozen=True)
class Workload:
    model: str
    scheme: str
    batch: int
    #: Rounds every run completes; further rounds follow while they fit
    #: into ``--seconds``.
    rounds: int
    #: Quantized + fp64 pass pairs per round.
    passes: int
    sizes: Dict[str, int] = field(default_factory=lambda: dict(SIZES))


#: alexnet/scheme1: the sigma search dominates the cold grid, and batch-1
#: inference is bound by per-call overhead, im2col and GEMM.
#: nin/scheme2: the sigma search is negligible, so injection replay and
#: validation dominate the cold grid, and batch-32 inference is bound by
#: activation packing.  Round and pass counts keep each run near 45 s on
#: 2 cores (768 and 64 timed calls per kind).
WORKLOADS: Dict[str, Workload] = {
    "alexnet-scheme1-b1": Workload("alexnet", "scheme1", batch=1, rounds=2, passes=3),
    "nin-scheme2-b32": Workload("nin", "scheme2", batch=32, rounds=4, passes=4),
}


def smoke(workload: Workload) -> Workload:
    """The lenet version of a workload: same loop, tiny sizes, one round."""
    return replace(workload, model="lenet", rounds=1, passes=1, sizes=dict(SMOKE_SIZES))


def cell_identity(outcome) -> Dict[str, object]:
    """Everything a grid cell decides; cold and warm runs must agree."""
    result = outcome.result
    return {
        "bitwidths": outcome.bitwidths,
        "formats": {a.name: [a.integer_bits, a.fraction_bits] for a in result.allocation},
        "xi": {name: float(value) for name, value in result.xi.items()},
        "sigma": float(outcome.sigma_result.sigma),
        "allocation_sigma": float(result.sigma),
        "target_accuracy": float(outcome.sigma_result.target_accuracy),
        "baseline_accuracy": float(outcome.baseline_accuracy),
        "validated_accuracy": outcome.validated_accuracy,
        "backoff_steps": outcome.backoff_steps,
        "degraded": outcome.degraded,
    }


def cell_label(cell: Tuple[float, str]) -> str:
    return f"{cell[0]}/{cell[1]}"


def load_pins(name: str) -> Dict[str, dict]:
    """Pinned grid cells of this workload's model."""
    return json.loads((HERE / "expected.json").read_text())["workloads"][name]


def _median(values: List[float]) -> Optional[float]:
    return float(statistics.median(values)) if values else None


class Ledger:
    """Operations attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, problem: str) -> None:
        self.failed += 1
        print(f"FAILED: {problem}", file=sys.stderr)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.fail(problem)


@dataclass
class RoundRecord:
    """What one round did, beyond its timings (read by the traced run)."""

    cache: Dict[str, int] = field(default_factory=dict)
    backoff_steps: int = 0
    degraded: int = 0
    quantized: Optional[QuantizedNetwork] = None


class Run:
    """One workload in one process: set-up, rounds, checks, metrics."""

    def __init__(self, name: str, workload: Workload, seed: int, work_dir: Path, pinned: bool):
        self.workload = workload
        self.work_dir = work_dir
        self.pins = load_pins(name) if pinned else {}
        source = SyntheticImageNet(num_classes=workload.sizes["num_classes"], seed=MODEL_SEED)
        #: The inference stream: the model's task, a sample of its own.
        self.images = source.sample(workload.sizes["test_count"], seed=STREAM_SAMPLE + seed).images
        self.ledger = Ledger()
        self.samples: Dict[str, List[float]] = {
            key: []
            for key in (
                "setup", "compile", "cold", "warm",
                "quant_pass", "fp64_pass", "quant_call", "fp64_call",
            )
        }
        self.context = None
        #: First cold grid's cells; every later grid must match them.
        self.reference: Optional[Dict[Tuple[float, str], dict]] = None
        #: First pass's logits digest per kind ("quant", "fp64").
        self.digests: Dict[str, str] = {}
        self.compiled_once = False

    # -- set-up --------------------------------------------------------
    def set_up(self) -> None:
        """Pretrain the model afresh; later rounds use the newest one."""
        config = ExperimentConfig(
            model=self.workload.model,
            scheme=self.workload.scheme,
            seed=MODEL_SEED,
            no_cache=True,
            **self.workload.sizes,
        )
        start = time.perf_counter()
        self.context = make_context(config, use_cache=False)
        self.samples["setup"].append(time.perf_counter() - start)

    def _optimizer(self, cache_dir: Path) -> PrecisionOptimizer:
        config = self.context.config
        return PrecisionOptimizer(
            self.context.network,
            self.context.test,
            profile_settings=config.profile_settings(),
            search_settings=config.search_settings(),
            scheme=config.scheme,
            cache=cache_dir,
        )

    # -- one round -----------------------------------------------------
    def _grid(self, cache_dir: Path, label: str):
        """Every grid cell on one fresh optimizer; None marks a failed cell."""
        outcomes: Dict[Tuple[float, str], object] = {}
        optimizer, error = None, ""
        try:
            optimizer = self._optimizer(cache_dir)
        except Exception:
            error = traceback.format_exc()
        for cell in GRID:
            self.ledger.attempted += 1
            outcomes[cell] = None
            if optimizer is None:
                self.ledger.fail(f"{label} optimizer for {cell_label(cell)}: {error}")
                continue
            try:
                outcomes[cell] = optimizer.optimize(cell[1], cell[0])
            except Exception:
                self.ledger.fail(f"{label} cell {cell_label(cell)}: {traceback.format_exc()}")
        return optimizer, outcomes

    @staticmethod
    def _count_cache(record: RoundRecord, optimizer) -> None:
        if optimizer is None or optimizer.cache is None:
            return
        for key, value in optimizer.cache.counters.as_dict().items():
            record.cache[key] = record.cache.get(key, 0) + value

    def _check_cold(self, cells: Dict[Tuple[float, str], Optional[dict]]) -> None:
        if self.reference is None:
            self.reference = cells
            for cell, identity in cells.items():
                pin = self.pins.get(cell_label(cell))
                if pin is None or identity is None:
                    continue
                observed = {key: identity[key] for key in pin}
                self.ledger.check(
                    observed == pin,
                    f"cell {cell_label(cell)} differs from expected.json: "
                    f"{json.dumps(observed, sort_keys=True)}",
                )
            return
        for cell, identity in cells.items():
            if identity is not None:
                self.ledger.check(
                    identity == self.reference[cell],
                    f"cold cell {cell_label(cell)} differs from the first cold grid",
                )

    def round(self, span: Span = _no_span) -> RoundRecord:
        """Cold grid, compile, then warm grids interleaved with passes.

        Interleaving spreads every metric's samples over the round, so a
        slow spell of the host moves each median less.
        """
        record = RoundRecord()
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work_dir))
        try:
            with span("harness.cold_grid"):
                start = time.perf_counter()
                optimizer, outcomes = self._grid(cache_dir, "cold")
                self.samples["cold"].append(time.perf_counter() - start)
            self._count_cache(record, optimizer)
            cold = {cell: cell_identity(o) if o is not None else None for cell, o in outcomes.items()}
            for outcome in outcomes.values():
                if outcome is not None:
                    record.backoff_steps += outcome.backoff_steps
                    record.degraded += int(outcome.degraded)
            self._check_cold(cold)
            deployed = outcomes[DEPLOYED]
            if deployed is None:
                self.ledger.fail(f"no {cell_label(DEPLOYED)} allocation to deploy")
            else:
                record.quantized = self._compile(deployed.result.allocation, span)
            passes = self.workload.passes
            for slot in range(passes):
                for _ in range(slot, WARM_REPEATS, passes):
                    self._warm_grid(cache_dir, cold, record, span)
                if record.quantized is not None:
                    self._pass("quant", record.quantized.forward, span)
                    self._pass("fp64", self.context.network.forward, span)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return record

    def _warm_grid(self, cache_dir: Path, cold: dict, record: RoundRecord, span: Span) -> None:
        with span("harness.warm_grid"):
            start = time.perf_counter()
            optimizer, warm = self._grid(cache_dir, "warm")
            self.samples["warm"].append((time.perf_counter() - start) * 1e3)
        self._count_cache(record, optimizer)
        for cell, outcome in warm.items():
            if outcome is not None and cold[cell] is not None:
                self.ledger.check(
                    cell_identity(outcome) == cold[cell],
                    f"warm cell {cell_label(cell)} differs from the cold cell",
                )

    def _compile(self, allocation, span: Span) -> Optional[QuantizedNetwork]:
        network = self.context.network
        first = self.images[: self.workload.batch]
        self.ledger.attempted += 1
        with span("harness.compile"):
            start = time.perf_counter()
            try:
                quantized = build_quantized_network(network, allocation, RuntimeSpec())
                logits = quantized.forward(first)
            except Exception:
                self.ledger.fail(f"quantized compile: {traceback.format_exc()}")
                return None
            self.samples["compile"].append(time.perf_counter() - start)
        if not self.compiled_once:
            self.compiled_once = True
            reference = QuantizedNetwork(
                network, allocation, RuntimeSpec(backend="reference")
            ).forward(first)
            self.ledger.check(
                np.array_equal(reference, logits),
                "fast and reference quantized backends differ on the first batch",
            )
            self._check_accuracy(quantized)
        quantized.reset_traffic()
        return quantized

    def _check_accuracy(self, quantized: QuantizedNetwork) -> None:
        """Integer top-1 drop on the evaluation set within the deployed budget.

        The evaluation set is the one the optimizer validated the
        allocation on, so the budget is a promise about exactly it.
        """
        test = self.context.test
        batch = self.workload.batch

        def accuracy(forward: Callable[[np.ndarray], np.ndarray]) -> float:
            logits = np.concatenate(
                [forward(test.images[i : i + batch]) for i in range(0, len(test), batch)]
            )
            return float(np.mean(np.argmax(logits.reshape(len(test), -1), axis=1) == test.labels))

        baseline = accuracy(self.context.network.forward)
        measured = accuracy(quantized.forward)
        drop = (baseline - measured) / baseline if baseline > 0 else 0.0
        self.ledger.check(
            drop <= DEPLOYED[0] + 1e-9,
            f"integer top-1 drop {drop:.4f} exceeds the {DEPLOYED[0]:.0%} budget "
            f"(fp64 {baseline:.4f}, quantized {measured:.4f})",
        )

    def _pass(self, kind: str, forward: Callable[[np.ndarray], np.ndarray], span: Span) -> None:
        images = self.images
        batch = self.workload.batch
        calls = self.samples[f"{kind}_call"]
        outputs = []
        with span(f"harness.{kind}_pass"):
            start = time.perf_counter()
            try:
                for offset in range(0, len(images), batch):
                    self.ledger.attempted += 1
                    begin = time.perf_counter()
                    outputs.append(forward(images[offset : offset + batch]))
                    calls.append((time.perf_counter() - begin) * 1e3)
            except Exception:
                self.ledger.fail(f"{kind} forward: {traceback.format_exc()}")
                return
            self.samples[f"{kind}_pass"].append(time.perf_counter() - start)
        logits = np.concatenate(outputs)
        digest = hashlib.sha256(logits.tobytes()).hexdigest()
        expected = self.digests.setdefault(kind, digest)
        self.ledger.check(digest == expected, f"{kind} pass logits differ from the first pass")

    # -- metrics -------------------------------------------------------
    def measured_seconds(self) -> float:
        """Time spent inside timed regions so far (checks excluded)."""
        s = self.samples
        return (
            sum(s["cold"]) + sum(s["warm"]) / 1e3 + sum(s["compile"])
            + sum(s["quant_pass"]) + sum(s["fp64_pass"])
        )

    def end_to_end(self) -> Dict[str, float]:
        s = self.samples
        images = len(self.images)
        setup, compile_s = _median(s["setup"]), _median(s["compile"])
        values = {
            "setup_s": setup + compile_s if setup is not None and compile_s is not None else None,
            "optimize_grid_cold_s": _median(s["cold"]),
            "optimize_grid_warm_ms": _median(s["warm"]),
            "quant_images_per_s": _median([images / t for t in s["quant_pass"]]),
            "fp64_images_per_s": _median([images / t for t in s["fp64_pass"]]),
            "quant_latency_p50_ms": _median(s["quant_call"]),
            "fp64_latency_p50_ms": _median(s["fp64_call"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return {name: value for name, value in values.items() if value is not None}

    @staticmethod
    def round_layer_metrics(record: RoundRecord) -> Dict[str, float]:
        """Per-layer numbers the program counts itself, for one round."""
        c = record.cache
        lookups = c.get("hits", 0) + c.get("misses", 0)
        values: Dict[str, float] = {f"cache.{key}": value for key, value in c.items()}
        values["cache.hit_ratio"] = c.get("hits", 0) / lookups if lookups else 0.0
        values["pipeline.backoff_steps"] = record.backoff_steps
        values["optimize.degraded"] = record.degraded
        if record.quantized is not None:
            bits = record.quantized.measured_input_bits()
            values["quant.act_bytes_per_image"] = sum(bits.values()) / 8.0
            values["quant.weight_bytes"] = record.quantized.packed_weight_nbytes()
        return values


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    #: Per-layer metrics whose shims found no target.
    missing: List[str] = field(default_factory=list)


def run_workload(name: str, seed: int, seconds: float, trace: bool, is_smoke: bool) -> Result:
    """Run one workload and return its metrics (end-to-end or per-layer)."""
    workload = smoke(WORKLOADS[name]) if is_smoke else WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        run = Run(name, workload, seed, work_dir, pinned=not is_smoke)
        run.set_up()
        if not trace:
            # Set-ups repeat between rounds rather than back to back, so
            # their median, too, samples the whole run.
            start = time.perf_counter()
            done, last = 0, 0.0
            while done < workload.rounds or time.perf_counter() - start + last <= seconds:
                begin = time.perf_counter()
                run.round()
                if len(run.samples["setup"]) < SETUP_REPEATS:
                    run.set_up()
                last = time.perf_counter() - begin
                done += 1
            while len(run.samples["setup"]) < SETUP_REPEATS:
                run.set_up()
            return Result(run.ledger.attempted, run.ledger.failed, run.end_to_end())
        # Traced run: one untraced round (the overhead baseline, and it
        # warms every lazy path), then the same round traced.  Overhead
        # compares the timed regions only: the first round also runs the
        # one-off backend and accuracy checks.
        run.round()
        plain = run.measured_seconds()
        tracer = Tracer()
        tracer.install()
        try:
            record = run.round(tracer.span)
        finally:
            tracer.uninstall()
        traced = run.measured_seconds() - plain
        values, missing = layer_metrics(tracer)
        values.update(run.round_layer_metrics(record))
        values["trace.overhead_ratio"] = traced / plain
        path = OUT_DIR / f"trace-{name}{'-smoke' if is_smoke else ''}-seed{seed}.jsonl"
        tracer.write_jsonl(path)
        print(f"# spans written to {path}", file=sys.stderr)
        return Result(run.ledger.attempted, run.ledger.failed, values, missing)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
