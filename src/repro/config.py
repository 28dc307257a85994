"""Global defaults shared across the repro library.

Every experiment in the paper depends on a handful of knobs (how many
images to profile on, how many delta points per regression, search
tolerances).  The defaults here mirror the paper's reported settings
where speed allows, and provide reduced "fast" profiles for tests and
benchmarks on the pure-Python substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seed used by every deterministic component unless overridden.
DEFAULT_SEED = 20190325

#: dtype for all activation math.  float64 keeps the reference forward
#: pass far below injected-noise magnitudes (paper used float32 on GPU;
#: we need extra headroom because injected deltas go down to 2**-20).
DTYPE = "float64"

#: Paper Sec. V-A: ~20 delta points per layer regression.
PAPER_REGRESSION_POINTS = 20

#: Paper Sec. V-A: 50-200 images give stable regressions.
PAPER_PROFILE_IMAGES = 50

#: Paper Sec. V-C: binary search stops when bounds are closer than 0.01.
SIGMA_SEARCH_TOLERANCE = 0.01

#: Paper Sec. V-C: initial guess for the sigma upper bound.
SIGMA_SEARCH_INITIAL_UPPER = 1.0

#: Hard cap on any single bitwidth (fixed-point words wider than this
#: are indistinguishable from exact for our value ranges).
MAX_BITWIDTH = 32

#: Smallest total bitwidth a layer may be assigned.
MIN_BITWIDTH = 1


@dataclass(frozen=True)
class ProfileSettings:
    """Settings for the error-injection profiling stage (Sec. V-A)."""

    num_images: int = PAPER_PROFILE_IMAGES
    num_delta_points: int = PAPER_REGRESSION_POINTS
    #: Delta grid endpoints, as fractions of each layer's input std
    #: (the profiler's default relative mode) or absolute values.  The
    #: initial grid is deliberately conservative; the pipeline refines
    #: it around the operating point (paper Sec. V-A: "Guess an initial
    #: value of Delta ... change the value ... and loop").
    delta_min: float = 2.0 ** -9
    delta_max: float = 2.0 ** -2
    #: Independent noise realizations averaged per delta point.
    num_repeats: int = 2
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.num_images < 1:
            raise ValueError("num_images must be >= 1")
        if self.num_delta_points < 2:
            raise ValueError("need at least 2 delta points for a regression")
        if not 0 < self.delta_min < self.delta_max:
            raise ValueError("require 0 < delta_min < delta_max")
        if self.num_repeats < 1:
            raise ValueError("num_repeats must be >= 1")


@dataclass(frozen=True)
class SearchSettings:
    """Settings for the sigma binary search (Sec. V-C)."""

    tolerance: float = SIGMA_SEARCH_TOLERANCE
    initial_upper: float = SIGMA_SEARCH_INITIAL_UPPER
    max_doublings: int = 16
    num_images: int = 200
    #: Noise realizations averaged per accuracy test.  Paper Fig. 3:
    #: "Each point is the average of 3 measurements."
    num_trials: int = 3
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.initial_upper <= 0:
            raise ValueError("initial_upper must be positive")
        if self.num_trials < 1:
            raise ValueError("num_trials must be >= 1")


@dataclass(frozen=True)
class ParallelSettings:
    """Execution knobs for the injection engine.

    The engine's determinism contract (``docs/performance.md``): fitted
    lambda/theta are bitwise identical for any ``jobs`` and work order,
    because every trial draws from its own
    ``np.random.SeedSequence``-spawned stream and per-trial sums are
    reduced in a fixed order.
    """

    #: Worker count for the layer-level campaign pool.  1 = run inline
    #: (no pool); N > 1 runs the per-layer injection campaigns on a
    #: thread pool of N workers, capped at the available cores.
    jobs: int = 1
    #: Retries for worker tasks that fail with a TransientError before
    #: the failure is surfaced as a ProfilingError.
    transient_retries: int = 2

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.transient_retries < 0:
            raise ValueError("transient_retries must be >= 0")


@dataclass(frozen=True)
class TelemetrySettings:
    """Observability knobs (see ``docs/observability.md``).

    Run manifests are default-on and independent of these settings;
    tracing spans and the metrics registry are opt-in via ``enabled``
    because they buffer events for the lifetime of a run.  Telemetry
    never changes numerical results: fitted lambda/theta and allocator
    outputs are bit-identical with tracing on or off.
    """

    #: Collect tracing spans and metrics for this run.
    enabled: bool = False
    #: Write the JSONL trace here when the run finishes ("" = no file;
    #: a non-empty path implies ``enabled``).
    trace_path: str = ""
    #: Directory for the append-only lifecycle event bus ("" = no
    #: events).  Unlike ``trace_path`` this is streamed *during* the
    #: run, so ``repro monitor`` can tail it; it does not imply
    #: ``enabled``.
    events_dir: str = ""
    #: Sample process resources (RSS / CPU / GC) at stage boundaries
    #: when telemetry is active.  Off the numeric hot path either way.
    sample_resources: bool = True

    @property
    def active(self) -> bool:
        """True when any telemetry collection should happen."""
        return self.enabled or bool(self.trace_path)


#: Fast settings used by the test-suite and quick examples.
FAST_PROFILE = ProfileSettings(num_images=16, num_delta_points=8)
FAST_SEARCH = SearchSettings(num_images=64, tolerance=0.02)
