"""Per-layer lambda/theta profiling by error injection (paper Sec. V-A).

For each analyzed layer K the profiler:

1. records the exact network output Y_L on a profiling set,
2. injects ``U[-Delta, Delta]`` noise into layer K's input for ~20
   values of ``Delta``,
3. measures the std of the induced output error sigma_{Y_K->L}, and
4. fits the line ``Delta_XK = lambda_K * sigma_{Y_K->L} + theta_K``.

The paper reports 20 delta points and 50-200 images give stable fits.
Partial re-execution (Network.forward_from) makes step 2 cost only the
layers downstream of K.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cache import ResultCache, array_digest, make_key, network_digest
from ..config import ParallelSettings, ProfileSettings
from ..engine.campaign import InjectionEngine
from ..errors import ProfilingError
from ..nn.graph import Network
from ..resilience.guards import (
    Diagnostic,
    check_finite_array,
    check_profile_fit,
    enforce,
)
from ..telemetry.session import Telemetry
from .regression import LinearFit, fit_line


@dataclass
class LayerErrorProfile:
    """Measured cross-layer error relationship for one layer (Eq. 5)."""

    name: str
    lam: float
    theta: float
    r_squared: float
    max_relative_error: float
    deltas: np.ndarray = field(repr=False)
    sigmas: np.ndarray = field(repr=False)
    #: Guardrail findings for this layer's fit (empty on a clean fit).
    diagnostics: List[Diagnostic] = field(default_factory=list, repr=False)

    def delta_for_sigma(self, sigma: float) -> float:
        """Predict Delta_XK for a target sigma_{Y_K->L} (Eq. 5/7)."""
        return self.lam * sigma + self.theta

    @property
    def fit(self) -> LinearFit:
        """The regression as a :class:`LinearFit` (for diagnostics)."""
        return LinearFit(
            slope=self.lam,
            intercept=self.theta,
            r_squared=self.r_squared,
            max_relative_error=self.max_relative_error,
        )


@dataclass
class ProfileReport:
    """Profiles for every analyzed layer plus bookkeeping."""

    profiles: Dict[str, LayerErrorProfile]
    num_images: int
    elapsed_seconds: float
    #: Per-stage wall-clock seconds (reference/replay/reduce/fit)
    #: from the engine's instrumentation; empty for reports assembled
    #: outside a campaign (e.g. resumed from disk).
    timings: Dict[str, float] = field(default_factory=dict)
    #: Fraction of total network MACs each layer's replay recomputes
    #: (``graphutils.replay_cost_fraction``).
    replay_fractions: Dict[str, float] = field(default_factory=dict)
    #: Workers the campaign ran on: ``jobs`` capped at the available
    #: cores (1 = serial).
    jobs: int = 1
    #: Layers whose (sq_sums, counts) came from the persistent result
    #: cache instead of a fresh injection campaign.
    cache_hits: int = 0

    def __getitem__(self, name: str) -> LayerErrorProfile:
        return self.profiles[name]

    def __iter__(self):
        return iter(self.profiles.values())

    def __len__(self) -> int:
        return len(self.profiles)

    def worst_fit(self) -> LayerErrorProfile:
        """The layer with the largest relative fit error (paper: <= ~10%)."""
        return max(self.profiles.values(), key=lambda p: p.max_relative_error)

    @property
    def diagnostics(self) -> List[Diagnostic]:
        """Every guardrail finding across all layers."""
        found: List[Diagnostic] = []
        for profile in self.profiles.values():
            found.extend(profile.diagnostics)
        return found


class ErrorProfiler:
    """Measures lambda_K / theta_K for the analyzed layers of a network."""

    def __init__(
        self,
        network: Network,
        images: np.ndarray,
        settings: Optional[ProfileSettings] = None,
        batch_size: int = 32,
        delta_relative: bool = True,
        strict: bool = False,
        parallel: Optional[ParallelSettings] = None,
        telemetry: Optional[Telemetry] = None,
        cache: Optional[ResultCache] = None,
    ):
        self.network = network
        self.images = np.asarray(images, dtype=np.float64)
        self.settings = settings or ProfileSettings()
        self.batch_size = batch_size
        #: Engine execution knobs (jobs, retries).
        self.parallel = parallel or ParallelSettings()
        #: Persistent result cache (None = off).  Each layer's raw
        #: (sq_sums, counts) campaign output is cached independently, so
        #: adding one layer to a profiled network only pays for the
        #: delta.  Keys exclude jobs: the engine guarantees bit-identical
        #: sums for any worker count.
        self.cache = cache
        self._net_digest: Optional[str] = None
        #: Observability session shared with the engine (spans/metrics
        #: only; never feeds back into the measurements).
        self.telemetry = Telemetry.create(telemetry)
        #: When true, each layer's delta grid spans a fixed fraction of
        #: that layer's input scale (keeps the regression in the regime
        #: where the linear model holds for layers of any magnitude).
        self.delta_relative = delta_relative
        #: Strict mode escalates degenerate-fit diagnostics (lambda <= 0,
        #: near-zero R^2) to errors; otherwise they become warnings and
        #: are attached to the resulting profiles.  NaN/Inf measurements
        #: always raise.
        self.strict = strict
        if self.images.shape[0] < 1:
            raise ProfilingError("profiling needs at least one image")
        enforce(
            check_finite_array(self.images, "profiling", layer="<input>"),
            strict=True,
            context="profiling input images",
        )

    # ------------------------------------------------------------------
    def _network_digest(self) -> str:
        if self._net_digest is None:
            self._net_digest = network_digest(self.network)
        return self._net_digest

    def _layer_key(
        self,
        name: str,
        position: int,
        grid: np.ndarray,
        images_digest: str,
    ) -> str:
        """Cache key for one layer's campaign sums.

        Everything that determines the bits of (sq_sums, counts) is
        here: the trial RNG streams are keyed on (seed, layer position,
        batch index, grid index, repeat), so ``batch_size`` belongs in
        the key while worker counts do not.
        """
        return make_key(
            {
                "kind": "profile-layer",
                "network": self._network_digest(),
                "images": images_digest,
                "seed": self.settings.seed,
                "num_repeats": self.settings.num_repeats,
                "batch_size": self.batch_size,
                "layer": name,
                "position": position,
                "grid": grid,
            }
        )

    def _delta_grid(self, input_scale: float) -> np.ndarray:
        s = self.settings
        if self.delta_relative:
            low = input_scale * s.delta_min
            high = input_scale * s.delta_max
        else:
            low, high = s.delta_min, s.delta_max
        return np.geomspace(low, high, s.num_delta_points)

    def _input_scales(self) -> Dict[str, float]:
        """Per-layer input std on the first profiling batch."""
        scales: Dict[str, float] = {}
        batch = self.images[: self.batch_size]

        def make_tap(name: str):
            def tap(x: np.ndarray) -> np.ndarray:
                scales[name] = float(x.std()) or 1.0
                return x

            return tap

        taps = {
            name: make_tap(name) for name in self.network.analyzed_layer_names
        }
        self.network.forward(batch, taps=taps)
        return scales

    # ------------------------------------------------------------------
    def profile(
        self,
        layer_names: Optional[Sequence[str]] = None,
        progress: bool = False,
    ) -> ProfileReport:
        """Run the full injection campaign and fit Eq. 5 per layer."""
        names = list(layer_names or self.network.analyzed_layer_names)
        for name in names:
            if name not in self.network:
                raise ProfilingError(f"unknown layer {name!r}")
        scales = self._input_scales()
        grids = {
            name: self._delta_grid(scales.get(name, 1.0)) for name in names
        }
        return self.profile_with_grids(grids, progress=progress)

    def profile_around(
        self,
        operating_deltas: Dict[str, float],
        span_down: float = 8.0,
        span_up: float = 2.0,
        progress: bool = False,
    ) -> ProfileReport:
        """Re-profile with grids centred on known operating points.

        Implements the paper's iterative Delta guessing (Sec. V-A): once
        a first optimization round predicts the Delta each layer will
        actually use, a second regression over ``[delta/span_down,
        delta*span_up]`` measures lambda/theta in exactly the regime the
        allocator exploits, removing the extrapolation conservatism of
        the initial wide grid.
        """
        grids = {}
        for name, delta in operating_deltas.items():
            if delta <= 0:
                raise ProfilingError(
                    f"operating delta for {name!r} must be positive"
                )
            grids[name] = np.geomspace(
                delta / span_down, delta * span_up, self.settings.num_delta_points
            )
        return self.profile_with_grids(grids, progress=progress)

    def profile_with_grids(
        self,
        grids: Dict[str, np.ndarray],
        progress: bool = False,
    ) -> ProfileReport:
        """Injection campaign over explicit per-layer delta grids."""
        start_time = time.perf_counter()
        names = list(grids)
        for name in names:
            if name not in self.network:
                raise ProfilingError(f"unknown layer {name!r}")
            if len(grids[name]) != self.settings.num_delta_points:
                raise ProfilingError(
                    f"grid for {name!r} must have "
                    f"{self.settings.num_delta_points} points"
                )
        settings = self.settings
        num_images = min(settings.num_images, self.images.shape[0])
        images = self.images[:num_images]

        # Per-layer persistent cache lookup: a layer's campaign sums are
        # independent of which other layers share the campaign, so each
        # (layer, grid) pair restores separately and only the missing
        # layers pay for an injection run.
        cached_sums: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        layer_keys: Dict[str, str] = {}
        if self.cache is not None:
            images_digest = array_digest(images)
            positions = {
                layer.name: index
                for index, layer in enumerate(self.network.layers)
            }
            for name in names:
                layer_keys[name] = self._layer_key(
                    name, positions[name], grids[name], images_digest
                )
                entry = self.cache.get_arrays("profile", layer_keys[name])
                if (
                    entry is not None
                    and "sq_sums" in entry
                    and "counts" in entry
                ):
                    cached_sums[name] = (entry["sq_sums"], entry["counts"])
        missing = [name for name in names if name not in cached_sums]

        tracer = self.telemetry.tracer
        with tracer.span(
            "profiler.profile",
            num_layers=len(names),
            num_images=num_images,
            num_delta_points=settings.num_delta_points,
            num_repeats=settings.num_repeats,
            jobs=self.parallel.jobs,
            cache_hits=len(cached_sums),
        ):
            timings: Dict[str, float] = {}
            replay_fractions: Dict[str, float] = {}
            jobs = 1
            sq_sums = {name: cached_sums[name][0] for name in cached_sums}
            counts = {name: cached_sums[name][1] for name in cached_sums}

            def publish(
                name: str, layer_sums: np.ndarray, layer_counts: np.ndarray
            ) -> None:
                # Stored the moment a layer is reduced, so a crash later
                # in the campaign keeps every finished layer: a re-run
                # with the same cache restores them and replays the rest.
                if self.cache is not None:
                    self.cache.put_arrays(
                        "profile",
                        layer_keys[name],
                        {"sq_sums": layer_sums, "counts": layer_counts},
                        meta={"layer": name},
                    )

            if missing:
                engine = InjectionEngine(
                    self.network, self.parallel, telemetry=self.telemetry
                )
                campaign = engine.run(
                    images,
                    {name: grids[name] for name in missing},
                    num_repeats=settings.num_repeats,
                    seed=settings.seed,
                    batch_size=self.batch_size,
                    progress=progress,
                    on_layer=publish,
                )
                sq_sums.update(campaign.sq_sums)
                counts.update(campaign.counts)
                timings = campaign.timings.as_dict()
                replay_fractions = campaign.replay_fractions
                jobs = campaign.jobs

            fit_start = time.perf_counter()
            profiles: Dict[str, LayerErrorProfile] = {}
            with tracer.span("profiler.fit", num_layers=len(names)):
                for name in names:
                    with tracer.span("profiler.fit_layer", layer=name) as fs:
                        sigmas = np.sqrt(
                            sq_sums[name] / np.maximum(counts[name], 1.0)
                        )
                        deltas = grids[name]
                        # Guards the disconnected-layer case: injections
                        # that never reach the output leave every sigma at
                        # (numerically) zero.  Tolerance instead of == 0.0:
                        # float64 underflow in the squared-error
                        # accumulation can leave denormal residue that is
                        # equally unusable for the regression.
                        if np.all(sigmas <= np.finfo(np.float64).tiny):
                            raise ProfilingError(
                                f"layer {name!r} never perturbed the "
                                "output; it may be disconnected from the "
                                "network output"
                            )
                        fit = fit_line(sigmas, deltas)
                        fs.set(
                            lam=float(fit.slope),
                            theta=float(fit.intercept),
                            r_squared=float(fit.r_squared),
                        )
                        diagnostics = enforce(
                            check_profile_fit(
                                name, fit.slope, fit.intercept, fit.r_squared
                            ),
                            strict=self.strict,
                            context=(
                                f"profiling regression for layer {name!r}"
                            ),
                        )
                        profiles[name] = LayerErrorProfile(
                            name=name,
                            lam=fit.slope,
                            theta=fit.intercept,
                            r_squared=fit.r_squared,
                            max_relative_error=fit.max_relative_error,
                            deltas=deltas,
                            sigmas=sigmas,
                            diagnostics=diagnostics,
                        )
            timings["fit"] = time.perf_counter() - fit_start
        elapsed = time.perf_counter() - start_time
        return ProfileReport(
            profiles=profiles,
            num_images=num_images,
            elapsed_seconds=elapsed,
            timings=timings,
            replay_fractions=replay_fractions,
            jobs=jobs,
            cache_hits=len(cached_sums),
        )
