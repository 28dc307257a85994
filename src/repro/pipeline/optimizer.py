"""End-to-end precision optimization facade.

:class:`PrecisionOptimizer` strings together the paper's stages with
caching, so the expensive parts run once per network:

1. measure per-layer statistics (``#Input``, ``#MAC``, ``max|X_K|``),
2. profile ``lambda_K / theta_K`` by error injection (Sec. V-A),
3. binary-search the output error budget ``sigma_YL`` for the accuracy
   constraint (Sec. V-C, Scheme 1 or 2),
4. optimize the error shares ``xi`` for an objective and emit bitwidths
   (Sec. V-D), and
5. validate the allocation on the actual quantized network, optionally
   searching the weight bitwidth afterwards (Sec. V-E).

"Changing the user constraints only requires re-running the last
optimization step" — the caches make that true here as well.

Resilience: with a persistent ``cache``, every expensive stage
(per-layer profiles, sigma evaluations, whole outcomes) is published as
soon as it finishes, so a re-run after a crash resumes from the last
completed unit of work; ``strict`` escalates guardrail
warnings and solver degradation to errors; otherwise profiles that admit
no Eq. 8 solution degrade to equal-xi with the outcome tagged
``degraded=True``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..analysis.profiler import ErrorProfiler, ProfileReport
from ..analysis.sigma_search import (
    Scheme1Evaluator,
    Scheme2Evaluator,
    SigmaSearchResult,
    find_sigma,
)
from ..cache import ResultCache, dataset_digest, make_key, network_digest, open_cache
from ..config import (
    ParallelSettings,
    ProfileSettings,
    SearchSettings,
    TelemetrySettings,
)
from ..data import Dataset
from ..errors import ReproError
from ..models.evaluate import top1_accuracy
from ..nn.graph import Network
from ..nn.statistics import LayerStats, measure_ranges, ordered_stats
from ..optimize.allocator import (
    AllocationResult,
    allocate_equal_scheme,
    allocate_optimized,
)
from ..telemetry.manifest import build_manifest
from ..telemetry.session import Telemetry
from ..weights.search import WeightSearchResult, search_weight_bitwidth


@dataclass
class OptimizationOutcome:
    """A finished optimization: allocation + validation evidence."""

    result: AllocationResult
    sigma_result: SigmaSearchResult
    baseline_accuracy: float
    validated_accuracy: Optional[float] = None
    weight_search: Optional[WeightSearchResult] = None
    #: Times the sigma budget was shrunk because true-quantization
    #: validation came in below target (0 on the common path).
    backoff_steps: int = 0
    #: Run provenance (config hash, git SHA, seeds, versions) — see
    #: :func:`repro.telemetry.build_manifest`.  Default-on; attached by
    #: :class:`PrecisionOptimizer` regardless of telemetry settings.
    manifest: Optional[Dict[str, Any]] = None

    @property
    def bitwidths(self) -> Dict[str, int]:
        return self.result.bitwidths()

    @property
    def meets_constraint(self) -> Optional[bool]:
        if self.validated_accuracy is None:
            return None
        return self.validated_accuracy >= self.sigma_result.target_accuracy

    @property
    def degraded(self) -> bool:
        """True when the xi fell back to the equal scheme."""
        return self.result.degraded


class PrecisionOptimizer:
    """Profile once, then optimize for any objective and constraint."""

    def __init__(
        self,
        network: Network,
        dataset: Dataset,
        profile_settings: Optional[ProfileSettings] = None,
        search_settings: Optional[SearchSettings] = None,
        scheme: str = "scheme1",
        batch_size: int = 64,
        refine: bool = True,
        strict: bool = False,
        transient_retries: int = 2,
        verify: bool = True,
        parallel: Optional[ParallelSettings] = None,
        telemetry: Union[None, TelemetrySettings, Telemetry] = None,
        cache: Union[None, str, "Path", ResultCache] = None,
    ):
        if scheme not in ("scheme1", "scheme2"):
            raise ReproError('scheme must be "scheme1" or "scheme2"')
        self.network = network
        self.dataset = dataset
        self.profile_settings = profile_settings or ProfileSettings()
        self.search_settings = search_settings or SearchSettings()
        self.scheme = scheme
        self.batch_size = batch_size
        #: Observability session (spans + metrics, opt-in via
        #: ``TelemetrySettings``) shared by every stage of this
        #: pipeline.  The run manifest is default-on: it is built here
        #: and attached to every outcome even with tracing disabled.
        self.telemetry = Telemetry.create(telemetry)
        #: Injection-engine execution knobs (jobs, backend, batching)
        #: for both profiling campaigns; None keeps engine defaults.
        self.parallel = parallel or ParallelSettings()
        #: Persistent content-addressed result cache (``repro.cache``):
        #: a directory path or open :class:`ResultCache`, or None for
        #: off (the default).  Feeds every expensive surface — per-layer
        #: fits, sigma evaluations, stats,
        #: baseline accuracy, and whole optimization outcomes — and is
        #: guaranteed bit-identical to recomputation.
        self.cache = open_cache(cache, metrics=self.telemetry.metrics)
        self._digests: Optional[Tuple[str, str]] = None
        #: Re-profile around the operating Deltas once sigma is known
        #: (the paper's iterative Delta guessing, Sec. V-A).
        self.refine = refine
        #: Strict mode: guardrail diagnostics and Eq. 8 failures
        #: raise instead of warning/degrading.
        self.strict = strict
        #: Transient-evaluator retries during the sigma search.
        self.transient_retries = transient_retries
        #: Pre-run static verification (graph structure, shape
        #: re-inference, parameter dtypes) and post-allocation audits
        #: (overflow, negative-F, xi invariants, Eq. 5 fit gates).
        #: Strict mode escalates findings to errors; the default routes
        #: them through the resilience diagnostics as warnings.
        self.verify = verify
        if verify:
            self._verify_network()
        if self.telemetry.manifest is None:
            self.telemetry.manifest = build_manifest(
                config=self._manifest_config(),
                seed=self.search_settings.seed,
                model=network.name,
            )
        self._stats: Optional[Dict[str, LayerStats]] = None
        self._profiles: Optional[ProfileReport] = None
        self._refined: Dict[float, ProfileReport] = {}
        self._baseline_accuracy: Optional[float] = None
        self._sigma_cache: Dict[float, SigmaSearchResult] = {}
        self._scheme1_evaluator: Optional[Scheme1Evaluator] = None
        self._scheme2_evaluator: Optional[Scheme2Evaluator] = None

    # ------------------------------------------------------------------
    def _manifest_config(self) -> Dict[str, Any]:
        """The knobs that determine this run's numerical outputs."""
        return {
            "network": self.network.name,
            "scheme": self.scheme,
            "batch_size": self.batch_size,
            "refine": self.refine,
            "strict": self.strict,
            "profile": dataclasses.asdict(self.profile_settings),
            "search": dataclasses.asdict(self.search_settings),
            "parallel": dataclasses.asdict(self.parallel),
        }

    def _cache_digests(self) -> Tuple[str, str]:
        """(network digest, dataset digest), computed once per instance."""
        if self._digests is None:
            self._digests = (
                network_digest(self.network),
                dataset_digest(self.dataset),
            )
        return self._digests

    @property
    def layer_names(self) -> List[str]:
        return self.network.analyzed_layer_names

    def baseline_accuracy(self) -> float:
        """Float (exact) top-1 accuracy on the evaluation dataset."""
        if self._baseline_accuracy is None and self.cache is not None:
            net, data = self._cache_digests()
            key = make_key(
                {
                    "kind": "baseline-accuracy",
                    "network": net,
                    "dataset": data,
                    "batch_size": self.batch_size,
                }
            )
            stored = self.cache.get_json("baseline", key)
            if isinstance(stored, dict) and "accuracy" in stored:
                self._baseline_accuracy = float(stored["accuracy"])
            else:
                self._baseline_accuracy = top1_accuracy(
                    self.network, self.dataset, batch_size=self.batch_size
                )
                self.cache.put_json(
                    "baseline", key, {"accuracy": self._baseline_accuracy}
                )
        if self._baseline_accuracy is None:
            self._baseline_accuracy = top1_accuracy(
                self.network, self.dataset, batch_size=self.batch_size
            )
        return self._baseline_accuracy

    def stats(self) -> Dict[str, LayerStats]:
        """Per-layer statistics, measuring max|X_K| on the dataset."""
        if self._stats is None and self.cache is not None:
            net, data = self._cache_digests()
            # Per-layer maxima are exact order-independent reductions,
            # so batch_size stays out of the key.
            key = make_key(
                {"kind": "layer-stats", "network": net, "dataset": data}
            )
            stored = self.cache.get_json("stats", key)
            if isinstance(stored, dict) and "layers" in stored:
                self._stats = {
                    entry["name"]: LayerStats(
                        name=entry["name"],
                        num_inputs=int(entry["num_inputs"]),
                        num_macs=int(entry["num_macs"]),
                        max_abs_input=float(entry["max_abs_input"]),
                    )
                    for entry in stored["layers"]
                }
            else:
                self._stats = measure_ranges(
                    self.network,
                    self.dataset.images,
                    batch_size=self.batch_size,
                )
                self.cache.put_json(
                    "stats",
                    key,
                    {
                        "layers": [
                            {
                                "name": s.name,
                                "num_inputs": s.num_inputs,
                                "num_macs": s.num_macs,
                                "max_abs_input": s.max_abs_input,
                            }
                            for s in self._stats.values()
                        ]
                    },
                )
        if self._stats is None:
            self._stats = measure_ranges(
                self.network, self.dataset.images, batch_size=self.batch_size
            )
        return self._stats

    def ordered_stats(self) -> List[LayerStats]:
        return ordered_stats(self.network, self.stats())

    def profile(self, progress: bool = False) -> ProfileReport:
        """lambda/theta for every analyzed layer (cached).

        With a persistent cache each layer's campaign sums are stored as
        soon as that layer finishes, so a re-run after a crash
        re-profiles only the layers that never finished.
        """
        if self._profiles is None:
            profiler = ErrorProfiler(
                self.network,
                self.dataset.images,
                settings=self.profile_settings,
                batch_size=min(self.batch_size, 32),
                strict=self.strict,
                parallel=self.parallel,
                telemetry=self.telemetry,
                cache=self.cache,
            )
            self._profiles = profiler.profile(progress=progress)
        return self._profiles

    # ------------------------------------------------------------------
    def sigma_for_drop(self, accuracy_drop: float) -> SigmaSearchResult:
        """Binary search for the tolerable sigma_YL (cached per drop).

        With a persistent cache every accuracy evaluation is memoized,
        so a re-run after a crash mid-search replays the finished
        probes from the cache instead of re-measuring them.
        """
        if accuracy_drop not in self._sigma_cache:
            if self.scheme == "scheme2":
                if self._scheme2_evaluator is None:
                    self._scheme2_evaluator = Scheme2Evaluator(
                        self.network,
                        self.dataset,
                        batch_size=self.batch_size,
                        num_trials=self.search_settings.num_trials,
                        seed=self.search_settings.seed,
                        telemetry=self.telemetry,
                        cache=self.cache,
                    )
                evaluator = self._scheme2_evaluator
            else:
                # One evaluator across all accuracy drops: its
                # (sigma, scheme, seed) memo makes the shared
                # doubling-phase probes free after the first search.
                if self._scheme1_evaluator is None:
                    self._scheme1_evaluator = Scheme1Evaluator(
                        self.network,
                        self.dataset,
                        self.profile().profiles,
                        batch_size=self.batch_size,
                        num_trials=self.search_settings.num_trials,
                        seed=self.search_settings.seed,
                        telemetry=self.telemetry,
                        cache=self.cache,
                    )
                evaluator = self._scheme1_evaluator
            self._sigma_cache[accuracy_drop] = find_sigma(
                evaluator.accuracy,
                self.baseline_accuracy(),
                accuracy_drop,
                self.search_settings,
                transient_retries=self.transient_retries,
                telemetry=self.telemetry,
                evaluations_saved_fn=lambda: evaluator.cache_hits,
            )
        return self._sigma_cache[accuracy_drop]

    def profiles_for_drop(self, accuracy_drop: float):
        """Profiles to allocate with: refined around the operating point.

        The initial wide-grid fit is conservative when the allocator
        requests Deltas near or beyond the grid top.  With ``refine``
        enabled, a second injection campaign re-measures lambda/theta
        on grids centred on the equal-scheme operating Deltas for this
        accuracy constraint (the paper's iterative Delta guessing).
        """
        if not self.refine:
            return self.profile().profiles
        if accuracy_drop not in self._refined:
            from ..analysis.sigma_search import deltas_for_sigma

            sigma = self.sigma_for_drop(accuracy_drop).sigma
            coarse = self.profile().profiles
            operating = deltas_for_sigma(coarse, sigma)
            floor = {
                name: max(delta, 1e-9)
                for name, delta in operating.items()
            }
            profiler = ErrorProfiler(
                self.network,
                self.dataset.images,
                settings=self.profile_settings,
                batch_size=min(self.batch_size, 32),
                strict=self.strict,
                parallel=self.parallel,
                telemetry=self.telemetry,
                cache=self.cache,
            )
            self._refined[accuracy_drop] = profiler.profile_around(floor)
        return self._refined[accuracy_drop].profiles

    # ------------------------------------------------------------------
    def optimize(
        self,
        objective="input",
        accuracy_drop: float = 0.01,
        validate: bool = True,
        search_weights: bool = False,
        weight_start_bits: int = 16,
    ) -> OptimizationOutcome:
        """Run the full flow for one objective and accuracy constraint.

        If true-quantization validation lands below target (possible on
        small evaluation sets, where the constraint sits inside
        measurement noise), the sigma budget is shrunk by 7% and the
        allocation recomputed, a few times at most — keeping the
        paper's "no accuracy criterion was violated" guarantee.
        """
        objective_label = (
            objective
            if isinstance(objective, str)
            else getattr(objective, "name", str(objective))
        )
        # Whole-outcome memoization: a named-objective run is a pure
        # function of the key below, so a warm sweep restores the
        # allocation without touching the pipeline.  Custom objectives
        # are opaque and bypass it.
        outcome_key: Optional[str] = None
        if isinstance(objective, str):
            outcome_key = self._outcome_key(
                objective, accuracy_drop, validate, search_weights,
                weight_start_bits,
            )
            restored = self._restore_outcome(outcome_key)
            if restored is not None:
                return restored
        with self.telemetry.tracer.span(
            "pipeline.optimize",
            objective=objective_label,
            accuracy_drop=float(accuracy_drop),
            scheme=self.scheme,
        ) as pipeline_span, self.telemetry.resources.measure(
            "pipeline.optimize", span=pipeline_span
        ):
            sigma_result = self.sigma_for_drop(accuracy_drop)
            profiles = self.profiles_for_drop(accuracy_drop)
            sigma = sigma_result.sigma
            backoff = 0
            max_backoffs = 6 if validate else 0
            while True:
                result = allocate_optimized(
                    objective,
                    profiles,
                    self.stats(),
                    sigma,
                    ordered_names=self.layer_names,
                    strict=self.strict,
                    telemetry=self.telemetry,
                )
                outcome, weight_search_failed = self._finish(
                    result, sigma_result, validate, search_weights,
                    weight_start_bits, accuracy_drop,
                )
                outcome.backoff_steps = backoff
                acceptable = (
                    not validate
                    or (outcome.meets_constraint and not weight_search_failed)
                )
                if acceptable or backoff >= max_backoffs:
                    pipeline_span.set(
                        sigma=float(sigma),
                        backoff_steps=backoff,
                        degraded=outcome.degraded,
                    )
                    if outcome_key is not None:
                        self._store_outcome(outcome_key, outcome)
                    return outcome
                sigma *= 0.93
                backoff += 1

    def equal_scheme(
        self,
        accuracy_drop: float = 0.01,
        validate: bool = True,
    ) -> OptimizationOutcome:
        """The analytic equal-share allocation (no objective).

        Validated once, never backed off.  Its outcome is memoized in
        the persistent cache like :meth:`optimize`'s, keyed by the
        ``equal`` allocator.
        """
        outcome_key = self._outcome_key(
            "equal", accuracy_drop, validate, False, 16, allocator="equal"
        )
        restored = self._restore_outcome(outcome_key)
        if restored is not None:
            return restored
        sigma_result = self.sigma_for_drop(accuracy_drop)
        result = allocate_equal_scheme(
            self.profiles_for_drop(accuracy_drop),
            self.stats(),
            sigma_result.sigma,
            ordered_names=self.layer_names,
        )
        outcome, __ = self._finish(result, sigma_result, validate, False, 16,
                                   accuracy_drop)
        self._store_outcome(outcome_key, outcome)
        return outcome

    # ------------------------------------------------------------------
    def _outcome_key(
        self,
        objective: str,
        accuracy_drop: float,
        validate: bool,
        search_weights: bool,
        weight_start_bits: int,
        allocator: str = "optimized",
    ) -> str:
        net, data = self._cache_digests()
        return make_key(
            {
                "kind": "outcome",
                "network": net,
                "dataset": data,
                "allocator": allocator,
                "objective": objective,
                "accuracy_drop": float(accuracy_drop),
                "validate": validate,
                "search_weights": search_weights,
                "weight_start_bits": weight_start_bits,
                "scheme": self.scheme,
                "batch_size": self.batch_size,
                "refine": self.refine,
                "strict": self.strict,
                "profile": dataclasses.asdict(self.profile_settings),
                "search": dataclasses.asdict(self.search_settings),
            }
        )

    def _store_outcome(
        self, key: str, outcome: OptimizationOutcome
    ) -> None:
        if self.cache is None:
            return
        from ..quant.serialization import allocation_to_dict

        result = outcome.result
        sig = outcome.sigma_result
        weight = outcome.weight_search
        self.cache.put_json(
            "outcome",
            key,
            {
                "allocation": allocation_to_dict(result.allocation),
                "xi": {k: float(v) for k, v in result.xi.items()},
                "deltas": {k: float(v) for k, v in result.deltas.items()},
                "sigma": float(result.sigma),
                "objective": result.objective.name,
                "degraded": bool(result.degraded),
                "sigma_result": {
                    "sigma": float(sig.sigma),
                    "baseline_accuracy": float(sig.baseline_accuracy),
                    "target_accuracy": float(sig.target_accuracy),
                    "achieved_accuracy": float(sig.achieved_accuracy),
                    "evaluations": [
                        [float(s), float(a)] for s, a in sig.evaluations
                    ],
                    "elapsed_seconds": float(sig.elapsed_seconds),
                    "num_evaluations_saved": int(sig.num_evaluations_saved),
                },
                "baseline_accuracy": float(outcome.baseline_accuracy),
                "validated_accuracy": (
                    None
                    if outcome.validated_accuracy is None
                    else float(outcome.validated_accuracy)
                ),
                "backoff_steps": int(outcome.backoff_steps),
                "weight_search": (
                    None
                    if weight is None
                    else {
                        "bits": int(weight.bits),
                        "accuracy": float(weight.accuracy),
                        "evaluations": int(weight.evaluations),
                    }
                ),
            },
        )

    def _restore_outcome(self, key: str) -> Optional[OptimizationOutcome]:
        """Rebuild a finished optimization from its cached JSON form.

        The restored allocation goes through the same static audit as
        a fresh one (``verify=True``) before it is handed back — a
        damaged or stale entry can therefore never return silently.
        """
        if self.cache is None:
            return None
        from ..optimize.objective import equal_objective, resolve_objective
        from ..quant.serialization import allocation_from_dict

        stored = self.cache.get_json("outcome", key)
        if not isinstance(stored, dict):
            return None
        try:
            allocation = allocation_from_dict(stored["allocation"])
            result = AllocationResult(
                allocation=allocation,
                xi={k: float(v) for k, v in stored["xi"].items()},
                deltas={k: float(v) for k, v in stored["deltas"].items()},
                sigma=float(stored["sigma"]),
                objective=(
                    equal_objective(self.layer_names)
                    if stored["objective"] == "equal"
                    else resolve_objective(stored["objective"], self.stats())
                ),
                solution=None,
                degraded=bool(stored["degraded"]),
            )
            sig = stored["sigma_result"]
            sigma_result = SigmaSearchResult(
                sigma=float(sig["sigma"]),
                baseline_accuracy=float(sig["baseline_accuracy"]),
                target_accuracy=float(sig["target_accuracy"]),
                achieved_accuracy=float(sig["achieved_accuracy"]),
                evaluations=[
                    (float(s), float(a)) for s, a in sig["evaluations"]
                ],
                elapsed_seconds=float(sig["elapsed_seconds"]),
                num_evaluations_saved=int(
                    sig.get("num_evaluations_saved", 0)
                ),
            )
            weight = stored.get("weight_search")
            weight_search = (
                None
                if weight is None
                else WeightSearchResult(
                    bits=int(weight["bits"]),
                    accuracy=float(weight["accuracy"]),
                    evaluations=int(weight["evaluations"]),
                )
            )
            outcome = OptimizationOutcome(
                result=result,
                sigma_result=sigma_result,
                baseline_accuracy=float(stored["baseline_accuracy"]),
                validated_accuracy=(
                    None
                    if stored.get("validated_accuracy") is None
                    else float(stored["validated_accuracy"])
                ),
                weight_search=weight_search,
                backoff_steps=int(stored.get("backoff_steps", 0)),
                manifest=(
                    self.telemetry.manifest.as_dict()
                    if self.telemetry.manifest is not None
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError, ReproError):
            # Malformed or schema-drifted entry: behave exactly like a
            # miss and let the pipeline recompute (then overwrite it).
            return None
        if self.verify:
            # Same allocation audit a fresh run gets (overflow, xi
            # invariants, format sanity) — cache restoration is not a
            # verification bypass.
            self._audit_allocation(result)
        self.telemetry.metrics.counter("repro_outcome_restored_total").inc()
        return outcome

    # ------------------------------------------------------------------
    def _verify_network(self) -> None:
        """Pass-1 static verification before any data is executed.

        Structure, shape re-inference, and parameter dtypes (see
        :mod:`repro.check`).  Findings flow through the resilience
        :func:`~repro.resilience.enforce` machinery: strict mode
        raises :class:`~repro.errors.NumericalGuardError`, the default
        emits :class:`~repro.errors.DegradedResultWarning`.
        """
        from ..check import verify_network
        from ..resilience.guards import enforce

        diagnostics = verify_network(self.network).to_diagnostics(
            stage="static_check"
        )
        if diagnostics:
            enforce(
                diagnostics,
                strict=self.strict,
                context=(
                    f"pre-run static verification of network "
                    f"{self.network.name!r}"
                ),
            )

    def _audit_allocation(self, result: AllocationResult) -> None:
        """Static audit of a finished allocation (overflow, xi, widths).

        Eq. 5 fit quality is already gated during profiling
        (:func:`~repro.resilience.check_profile_fit`), so only the
        format and xi audits run here.
        """
        from ..check import audit_allocation_result
        from ..resilience.guards import enforce

        report = audit_allocation_result(
            result, stats=self.stats(), network=self.network
        )
        diagnostics = report.to_diagnostics(stage="allocation_audit")
        if diagnostics:
            enforce(
                diagnostics,
                strict=self.strict,
                context=f"static audit of the {result.objective.name!r} "
                "allocation",
            )

    # ------------------------------------------------------------------
    def _finish(
        self,
        result: AllocationResult,
        sigma_result: SigmaSearchResult,
        validate: bool,
        search_weights: bool,
        weight_start_bits: int,
        accuracy_drop: float,
    ):
        """Validate and (optionally) weight-search one allocation.

        Returns ``(outcome, weight_search_failed)``; a failed weight
        search means the input allocation left no margin for any weight
        quantization, which the caller treats like a validation miss
        (shrink the budget and retry).
        """
        from ..errors import SearchError

        if self.verify:
            self._audit_allocation(result)
        validated = None
        if validate:
            with self.telemetry.tracer.span(
                "pipeline.validate", objective=result.objective.name
            ) as validate_span:
                validated = top1_accuracy(
                    self.network,
                    self.dataset,
                    taps=result.allocation.taps(self.network),
                    batch_size=self.batch_size,
                )
                validate_span.set(accuracy=float(validated))
        weight_search = None
        weight_search_failed = False
        if search_weights:
            try:
                weight_search = search_weight_bitwidth(
                    self.network,
                    self.dataset,
                    self.baseline_accuracy(),
                    accuracy_drop,
                    input_taps=result.allocation.taps(self.network),
                    start_bits=weight_start_bits,
                    batch_size=self.batch_size,
                )
            except SearchError:
                weight_search_failed = True
        manifest = self.telemetry.manifest
        outcome = OptimizationOutcome(
            result=result,
            sigma_result=sigma_result,
            baseline_accuracy=self.baseline_accuracy(),
            validated_accuracy=validated,
            weight_search=weight_search,
            manifest=manifest.as_dict() if manifest is not None else None,
        )
        return outcome, weight_search_failed
