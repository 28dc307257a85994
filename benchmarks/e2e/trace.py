"""Per-layer tracing for the end-to-end benchmark, taken from outside.

:class:`Tracer` replaces public functions of each layer with timing
shims.  Every shim patches the name in the module that looks it up
(``repro.pipeline.optimizer.find_sigma``, not
``repro.analysis.sigma_search.find_sigma``), so the program runs exactly
the code it always runs and nothing under ``src/`` changes.  Spans stay
in memory as ``(name, start, end, parent)`` records and are written out
as JSONL when the run ends.

A span's self time is its duration minus the time its child spans
cover.  :func:`layer_metrics` folds the spans into the per-layer
metrics that ``BENCHMARK.json`` lists.  A shim whose target no longer
exists is reported as missing, together with every metric that needs
it, and the run still completes.

The tracer assumes one thread: the benchmark runs the engine serially,
so spans nest strictly and children's durations never overlap.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Observe = Callable[["Tracer", tuple, dict, Any], None]

#: Layer types of ``repro.nn.layers`` grouped the way per-layer metrics
#: report them.  LRN counts as elementwise: it is the only normalisation
#: in the zoo models the benchmark runs, and only alexnet has it.
LAYER_GROUPS = {
    "Conv2D": "nn.conv",
    "Dense": "nn.dense",
    "MaxPool2D": "nn.pool",
    "AvgPool2D": "nn.pool",
    "GlobalAvgPool": "nn.pool",
    "ReLU": "nn.elementwise",
    "Softmax": "nn.elementwise",
    "LRN": "nn.elementwise",
    "ChannelAffine": "nn.elementwise",
    "Add": "nn.elementwise",
    "Concat": "nn.elementwise",
    "Flatten": "nn.elementwise",
}

#: Quantized-runtime helpers that ``repro.quant.runtime.network`` looks up.
QUANT_KERNELS = {
    "quantize_to_codes": "quant.quantize",
    "pack_codes": "quant.pack",
    "unpack_codes": "quant.unpack",
    "im2col": "quant.im2col",
    "extract_windows": "quant.im2col",
    "integer_gemm": "quant.gemm",
    "requantize": "quant.requantize",
}


# ----------------------------------------------------------------------
# Observers: counts taken at the same boundaries as the spans
# ----------------------------------------------------------------------
def _engine_timings(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    stages = result.timings.as_dict()
    for stage in ("reference", "replay", "reduce"):
        tracer.add(f"engine.{stage}_s", stages.get(stage, 0.0))


def _engine_trials(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("engine.trials", int(result.cells.size))


def _forward_images(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    if not tracer.within("quant.forward"):
        x = args[1] if len(args) > 1 else kwargs["x"]
        tracer.add("nn.forward.images", int(x.shape[0]))


def _gemm_macs(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    a, b = args[0], args[1]
    tracer.add("quant.gemm.macs", int(a.shape[0]) * int(a.shape[1]) * int(b.shape[1]))


#: (module, attribute path, span name, observer) for every shim.
#: ``validate`` times every ``top1_accuracy`` call of the pipeline: the
#: allocation validations and the one float baseline per optimizer.
SHIMS: List[Tuple[str, str, str, Optional[Observe]]] = [
    ("repro.pipeline.optimizer", "find_sigma", "sigma_search.find_sigma", None),
    ("repro.analysis.sigma_search", "Scheme1Evaluator.accuracy", "sigma_search.eval", None),
    ("repro.analysis.sigma_search", "Scheme2Evaluator.accuracy", "sigma_search.eval", None),
    ("repro.analysis.sigma_search", "perturb_logits", "sigma_search.noise", None),
    ("repro.analysis.profiler", "ErrorProfiler.profile", "profiler.profile", None),
    ("repro.analysis.profiler", "ErrorProfiler.profile_around", "profiler.profile_around", None),
    ("repro.analysis.profiler", "fit_line", "profiler.fit", None),
    ("repro.engine.campaign", "InjectionEngine.run", "engine.run", _engine_timings),
    ("repro.engine.campaign", "run_layer_campaign", "engine.layer", _engine_trials),
    ("repro.nn.graph", "Network.forward", "nn.forward", _forward_images),
    *[
        ("repro.nn.layers", f"{cls}.forward", group, None)
        for cls, group in LAYER_GROUPS.items()
    ],
    ("repro.pipeline.optimizer", "PrecisionOptimizer.__init__", "pipeline.init", None),
    ("repro.pipeline.optimizer", "PrecisionOptimizer.optimize", "pipeline.optimize", None),
    ("repro.pipeline.optimizer", "top1_accuracy", "validate", None),
    ("repro.pipeline.optimizer", "measure_ranges", "stats.measure_ranges", None),
    ("repro.pipeline.optimizer", "allocate_optimized", "optimize.allocate", None),
    ("repro.cache.store", "ResultCache.get_json", "cache.get", None),
    ("repro.cache.store", "ResultCache.get_arrays", "cache.get", None),
    ("repro.cache.store", "ResultCache.put_json", "cache.put", None),
    ("repro.cache.store", "ResultCache.put_arrays", "cache.put", None),
    ("repro.quant.runtime.network", "QuantizedNetwork.forward", "quant.forward", None),
    *[
        ("repro.quant.runtime.network", attr, name, _gemm_macs if attr == "integer_gemm" else None)
        for attr, name in QUANT_KERNELS.items()
    ],
]

#: Scheme-1 noise taps are closures built per batch, so the shim wraps
#: the factory and times each tap it returns.
TAP_FACTORY = ("repro.analysis.sigma_search", "multi_layer_uniform_taps", "sigma_search.noise")


class Tracer:
    """In-memory span recorder plus the shims that feed it."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index]``; parents precede children.
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        #: ``module:attribute`` of every shim whose target is gone.
        self.missing: List[str] = []
        #: Span names produced only by missing shims.
        self.missing_spans: set = set()
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any, bool]] = []

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def within(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the stack."""
        return any(self.spans[i][0] == name for i in self._stack)

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- shims ---------------------------------------------------------
    def _resolve(self, module_name: str, path: str) -> Tuple[Any, str, Any]:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        own = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, replacement)

    def _shim(self, target: Callable, name: str, observe: Optional[Observe]) -> Callable:
        tracer = self

        def shim(*args: Any, **kwargs: Any) -> Any:
            index = tracer._open(name)
            try:
                result = target(*args, **kwargs)
            finally:
                tracer._close(index)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return shim

    def _tap_factory_shim(self, target: Callable, name: str) -> Callable:
        tracer = self

        def timed(tap: Callable) -> Callable:
            def traced_tap(x: Any) -> Any:
                index = tracer._open(name)
                try:
                    return tap(x)
                finally:
                    tracer._close(index)

            return traced_tap

        def factory(*args: Any, **kwargs: Any) -> Dict[str, Callable]:
            return {layer: timed(tap) for layer, tap in target(*args, **kwargs).items()}

        return factory

    def install(self) -> None:
        """Patch every shim target; missing targets are recorded."""
        for module_name, path, name, observe in SHIMS:
            try:
                owner, attr, target = self._resolve(module_name, path)
            except (ImportError, AttributeError):
                self._mark_missing(module_name, path, name)
                continue
            self._patch(owner, attr, self._shim(target, name, observe))
        module_name, path, name = TAP_FACTORY
        try:
            owner, attr, target = self._resolve(module_name, path)
        except (ImportError, AttributeError):
            self._mark_missing(module_name, path, name)
        else:
            self._patch(owner, attr, self._tap_factory_shim(target, name))

    def _mark_missing(self, module_name: str, path: str, name: str) -> None:
        self.missing.append(f"{module_name}:{path}")
        self.missing_spans.add(name)

    def uninstall(self) -> None:
        """Put every patched attribute back as it was."""
        while self._restore:
            owner, attr, original, own = self._restore.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output --------------------------------------------------------
    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent})
                    + "\n"
                )


# ----------------------------------------------------------------------
# Folding spans into per-layer metrics
# ----------------------------------------------------------------------
#: Spans whose descendants are accounted to them rather than to the
#: layer the descendant's own name says: layer forwards inside the
#: quantized runtime are its float layers, and forwards inside the
#: engine are replay work.
OWNERS = ("quant.forward", "engine.run")
#: Harness root wrapping the quantized compile and its warm-up forward;
#: everything under it is compile (set-up) work, not steady-state quant.
COMPILE_ROOT = "harness.compile"


class Folded:
    """Per-key inclusive time, self time and call count."""

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        owner: List[Optional[str]] = [None] * len(spans)
        compiling = [False] * len(spans)
        self.incl: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.root_s = 0.0
        self.root_self_s = 0.0
        executed: set = set()
        for index, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                parent_name = spans[parent][0]
                owner[index] = parent_name if parent_name in OWNERS else owner[parent]
                compiling[index] = compiling[parent] or parent_name == COMPILE_ROOT
            duration = end - start
            own = duration - covered[index]
            if parent < 0:
                self.root_s += duration
                self.root_self_s += own
            key = self._key(name, owner[index], compiling[index])
            self.incl[key] = self.incl.get(key, 0.0) + duration
            self.self_s[key] = self.self_s.get(key, 0.0) + own
            self.calls[key] = self.calls.get(key, 0) + 1
            if name == "sigma_search.noise":
                # An evaluation that drew noise ran; one that did not
                # was answered from a memo.
                ancestor = parent
                while ancestor >= 0 and spans[ancestor][0] != "sigma_search.eval":
                    ancestor = spans[ancestor][3]
                if ancestor >= 0:
                    executed.add(ancestor)
        self.executed_evals = len(executed)
        self.counters = dict(tracer.counters)
        self.missing = set(tracer.missing_spans)

    @staticmethod
    def _key(name: str, owner: Optional[str], compiling: bool) -> str:
        if compiling:
            return "quant.compile"
        if name.startswith("nn.") and owner == "quant.forward":
            return "quant.forward.inner" if name == "nn.forward" else "quant.float_layers"
        if name.startswith("nn.") and owner == "engine.run":
            return "engine.run.inner"
        return name

    def inclusive(self, key: str) -> float:
        return self.incl.get(key, 0.0)

    def own(self, key: str) -> float:
        return self.self_s.get(key, 0.0)

    def count(self, key: str) -> int:
        return self.calls.get(key, 0)

    def counter(self, key: str) -> float:
        return self.counters.get(key, 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> Tuple[Dict[str, float], List[str]]:
    """Span-derived per-layer metrics, and the names that are missing."""
    f = Folded(tracer)
    values: Dict[str, float] = {}
    missing: List[str] = []

    def put(metric: str, needs: Tuple[str, ...], compute: Callable[[], float]) -> None:
        if any(name in f.missing for name in needs):
            missing.append(metric)
        else:
            values[metric] = compute()

    find, evals, noise = "sigma_search.find_sigma", "sigma_search.eval", "sigma_search.noise"
    put(f"{find}.s", (find,), lambda: f.inclusive(find))
    put(f"{evals}.calls", (evals,), lambda: f.count(evals))
    put(f"{evals}.executed", (evals, noise), lambda: f.executed_evals)
    put(f"{evals}.self_s", (evals,), lambda: f.own(evals))
    put(
        f"{evals}.memo_hit_ratio",
        (evals, noise),
        lambda: _ratio(f.count(evals) - f.executed_evals, f.count(evals)),
    )
    put(f"{noise}.s", (noise,), lambda: f.inclusive(noise))
    put(
        "sigma_search.cold_share",
        (find,),
        lambda: _ratio(f.inclusive(find), f.inclusive("harness.cold_grid")),
    )

    for name in ("profiler.profile", "profiler.profile_around"):
        put(f"{name}.s", (name,), lambda name=name: f.inclusive(name))
    put("profiler.fit_self_s", ("profiler.fit",), lambda: f.own("profiler.fit"))

    put("engine.run.calls", ("engine.run",), lambda: f.count("engine.run"))
    put("engine.run.s", ("engine.run",), lambda: f.inclusive("engine.run"))
    for stage in ("reference", "replay", "reduce"):
        metric = f"engine.{stage}_s"
        put(metric, ("engine.run",), lambda metric=metric: f.counter(metric))
    put("engine.trials", ("engine.layer",), lambda: f.counter("engine.trials"))

    put("nn.forward.calls", ("nn.forward",), lambda: f.count("nn.forward"))
    put("nn.forward.images", ("nn.forward",), lambda: f.counter("nn.forward.images"))
    put("nn.forward.self_s", ("nn.forward",), lambda: f.own("nn.forward"))
    for group in sorted(set(LAYER_GROUPS.values())):
        put(f"{group}.s", (group,), lambda group=group: f.inclusive(group))

    put("validate.calls", ("validate",), lambda: f.count("validate"))
    put("validate.s", ("validate",), lambda: f.inclusive("validate"))
    put("stats.measure_ranges.s", ("stats.measure_ranges",), lambda: f.inclusive("stats.measure_ranges"))
    put("pipeline.init.s", ("pipeline.init",), lambda: f.inclusive("pipeline.init"))
    put("pipeline.optimize.self_s", ("pipeline.optimize",), lambda: f.own("pipeline.optimize"))
    put("optimize.allocate.calls", ("optimize.allocate",), lambda: f.count("optimize.allocate"))
    put("optimize.allocate.s", ("optimize.allocate",), lambda: f.inclusive("optimize.allocate"))
    put("cache.get.s", ("cache.get",), lambda: f.inclusive("cache.get"))
    put("cache.put.s", ("cache.put",), lambda: f.inclusive("cache.put"))

    kernels = sorted(set(QUANT_KERNELS.values()))
    for name in kernels:
        put(f"{name}.s", (name,), lambda name=name: f.inclusive(name))
    put(
        "quant.float_layers.s",
        ("quant.forward",),
        lambda: f.inclusive("quant.float_layers"),
    )
    put(
        "quant.forward.self_s",
        ("quant.forward", "nn.forward"),
        lambda: f.own("quant.forward") + f.own("quant.forward.inner"),
    )
    put(
        "quant.pack_unpack_share",
        ("quant.forward", "quant.pack", "quant.unpack"),
        lambda: _ratio(
            f.inclusive("quant.pack") + f.inclusive("quant.unpack"),
            f.inclusive("quant.forward"),
        ),
    )
    put("quant.gemm.calls", ("quant.gemm",), lambda: f.count("quant.gemm"))
    put(
        "quant.calls_per_forward",
        ("quant.forward", *kernels),
        lambda: _ratio(
            sum(f.count(name) for name in kernels) + f.count("quant.float_layers"),
            f.count("quant.forward"),
        ),
    )
    put("quant.gemm.macs", ("quant.gemm",), lambda: f.counter("quant.gemm.macs"))
    put(
        "quant.gemm.gmacs_per_s",
        ("quant.gemm",),
        lambda: _ratio(f.counter("quant.gemm.macs"), f.inclusive("quant.gemm")) / 1e9,
    )
    # Coverage: the share of traced wall time spent inside some layer's
    # span rather than in the benchmark's own loop.
    values["trace.coverage"] = 1.0 - _ratio(f.root_self_s, f.root_s)
    return values, missing
