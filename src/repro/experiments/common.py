"""Shared experiment scaffolding.

Every table/figure driver works from an :class:`ExperimentContext`: a
pretrained network replica, its train/test datasets, and a configured
:class:`~repro.pipeline.PrecisionOptimizer`.  Sizes default to values
that finish quickly on the numpy substrate; benchmarks can scale them
up via :class:`ExperimentConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..config import (
    DEFAULT_SEED,
    ParallelSettings,
    ProfileSettings,
    SearchSettings,
    TelemetrySettings,
)
from ..data import Dataset, SyntheticImageNet
from ..models import pretrained_model
from ..nn import Network
from ..pipeline import PrecisionOptimizer
from ..telemetry.session import Telemetry


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment drivers."""

    model: str = "alexnet"
    num_classes: int = 16
    train_count: int = 512
    test_count: int = 256
    profile_images: int = 32
    profile_points: int = 10
    profile_repeats: int = 2
    #: Paper Fig. 3: each accuracy point averages 3 measurements.
    search_trials: int = 3
    #: "scheme1" (equal-scheme uniform injection, the paper's primary
    #: accuracy test) or "scheme2" (fast Gaussian logits approximation).
    scheme: str = "scheme1"
    seed: int = DEFAULT_SEED
    #: Escalate guardrail warnings and solver degradation to errors.
    strict: bool = False
    #: Worker count for the injection engine's layer-level pool
    #: (``--jobs``; 1 = serial, deterministic either way).
    jobs: int = 1
    #: Collect tracing spans and metrics (``--telemetry``); numerical
    #: results are bit-identical on or off.
    telemetry: bool = False
    #: Write the JSONL trace here when set (``--trace-out``; implies
    #: telemetry collection).
    trace_out: str = ""
    #: Directory for live lifecycle events (``--events-dir``); ""
    #: disables the event bus.  ``repro monitor`` tails this.
    events_dir: str = ""
    #: Persistent result-cache directory (``--cache-dir``).  "" means
    #: "use $REPRO_CACHE_DIR if set, else no persistent cache".
    cache_dir: str = ""
    #: Force the persistent cache off even if a directory or the
    #: environment names one (``--no-cache``).
    no_cache: bool = False

    def profile_settings(self) -> ProfileSettings:
        return ProfileSettings(
            num_images=self.profile_images,
            num_delta_points=self.profile_points,
            num_repeats=self.profile_repeats,
            seed=self.seed,
        )

    def search_settings(self) -> SearchSettings:
        return SearchSettings(
            num_images=self.test_count,
            num_trials=self.search_trials,
            seed=self.seed,
        )

    def parallel_settings(self) -> ParallelSettings:
        return ParallelSettings(jobs=self.jobs)

    def telemetry_settings(self) -> TelemetrySettings:
        return TelemetrySettings(
            enabled=self.telemetry,
            trace_path=self.trace_out,
            events_dir=self.events_dir,
        )

    def resolved_cache_dir(self) -> Optional[str]:
        """The cache directory to use, or None for no persistent cache.

        Precedence: ``no_cache`` kills it outright; an explicit
        ``cache_dir`` wins; otherwise ``$REPRO_CACHE_DIR`` opts in.
        Note the *library* default is off — only an explicit flag or
        the environment enables persistence.
        """
        if self.no_cache:
            return None
        if self.cache_dir:
            return self.cache_dir
        import os

        from ..cache import CACHE_DIR_ENV

        return os.environ.get(CACHE_DIR_ENV) or None


@dataclass
class ExperimentContext:
    """A ready-to-analyze pretrained network."""

    config: ExperimentConfig
    network: Network
    train: Dataset
    test: Dataset
    pretrain_info: Dict[str, float]
    optimizer: PrecisionOptimizer


_CONTEXT_CACHE: Dict[ExperimentConfig, ExperimentContext] = {}


def make_context(
    config: Optional[ExperimentConfig] = None,
    use_cache: bool = True,
    telemetry: Optional[Telemetry] = None,
) -> ExperimentContext:
    """Build (or fetch) the context for a configuration.

    Contexts are cached per exact configuration: several benchmarks
    share the same pretrained model and profiling run, mirroring the
    paper's "profile once, re-optimize cheaply" workflow.

    ``telemetry`` is the session the optimizer records into (default: a
    new one from ``config``'s settings).  A context built on a given
    session is not cached: its spans belong to that session's run.
    """
    config = config or ExperimentConfig()
    use_cache = use_cache and telemetry is None
    if use_cache and config in _CONTEXT_CACHE:
        return _CONTEXT_CACHE[config]
    source = SyntheticImageNet(num_classes=config.num_classes, seed=config.seed)
    network, train, test, info = pretrained_model(
        config.model,
        source=source,
        train_count=config.train_count,
        test_count=config.test_count,
        seed=config.seed,
    )
    optimizer = PrecisionOptimizer(
        network,
        test,
        profile_settings=config.profile_settings(),
        search_settings=config.search_settings(),
        scheme=config.scheme,
        strict=config.strict,
        parallel=config.parallel_settings(),
        telemetry=(
            telemetry if telemetry is not None else config.telemetry_settings()
        ),
        cache=config.resolved_cache_dir(),
    )
    context = ExperimentContext(
        config=config,
        network=network,
        train=train,
        test=test,
        pretrain_info=info,
        optimizer=optimizer,
    )
    if use_cache:
        _CONTEXT_CACHE[config] = context
    return context


def clear_context_cache() -> None:
    """Drop all cached contexts (frees model + profiling memory)."""
    _CONTEXT_CACHE.clear()
