"""Fault-injection harness for chaos-testing the pipeline.

Resilience claims are worthless untested: this module wraps the real
substrate objects and injects configurable faults on a *seeded,
deterministic schedule*, so the `tests/resilience/` suite can prove
every degradation path end-to-end — NaN activations must trip the
guardrails, transient evaluator exceptions must be retried, a simulated
crash mid-profiling must be resumable, and SLSQP non-convergence must
degrade to equal-xi.

Nothing here is imported by the production pipeline; it is a test
harness shipped as library code so downstream users can chaos-test
their own deployments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Set

import numpy as np

from ..errors import OptimizationError, ReproError, TransientError


class SimulatedCrash(ReproError):
    """Stands in for a process kill / OOM in chaos tests.

    Raised (rather than actually killing the interpreter) so tests can
    observe the half-finished state exactly as a restarted process
    would find it on disk.
    """


@dataclass
class FaultSchedule:
    """Deterministic schedule over a monotonically counted event stream.

    Explicit indices (``at``) fire exactly at those 0-based event
    counts; a ``rate`` adds seeded random faults on top.  The rate
    stream draws one random number per *event* (not per miss), so the
    same seed faults at the same event indices whatever ``at`` indices
    or ``max_faults`` cap are combined with it.  ``max_faults`` caps
    the *total* across both sources: an event where ``at`` and the
    rate stream coincide counts as one fault, and once the cap is
    reached no further event faults, including later ``at`` indices.

    One schedule instance is consumed by exactly one injector in
    exactly one process — its counters are its state.  Sending a
    schedule into a process-pool worker would silently fork that state
    (each process advancing its own copy), so consumption from a
    second process raises :class:`~repro.errors.ReproError`; give each
    worker its own schedule instead.
    """

    at: Set[int] = field(default_factory=set)
    rate: float = 0.0
    seed: int = 0
    max_faults: Optional[int] = None

    def __post_init__(self) -> None:
        self.at = set(self.at)
        self._rng = np.random.default_rng(self.seed)
        self._calls = 0
        self._fired = 0
        self._consumer_pid: Optional[int] = None

    @classmethod
    def once(cls, at_call: int) -> "FaultSchedule":
        return cls(at={at_call})

    @property
    def calls(self) -> int:
        """Events observed so far."""
        return self._calls

    @property
    def fired(self) -> int:
        """Faults actually injected so far."""
        return self._fired

    def should_fault(self) -> bool:
        """Advance the event counter; True when this event faults."""
        pid = os.getpid()
        if self._consumer_pid is None:
            self._consumer_pid = pid
        elif pid != self._consumer_pid:
            raise ReproError(
                "FaultSchedule is single-consumer: it started counting "
                f"in process {self._consumer_pid} but was consumed from "
                f"process {pid} (a pickled copy in a pool worker would "
                "fork its counters); give each worker its own schedule"
            )
        index = self._calls
        self._calls += 1
        # Draw the rate stream unconditionally so its fault indices
        # don't shift when `at` hits or the cap intervene.
        rate_hit = self.rate > 0 and bool(self._rng.random() < self.rate)
        if self.max_faults is not None and self._fired >= self.max_faults:
            return False
        hit = index in self.at or rate_hit
        if hit:
            self._fired += 1
        return hit


class ChaosNetwork:
    """A :class:`~repro.nn.graph.Network` wrapper that injects faults.

    Each forward-style call (``forward``, ``run_all``, ``forward_from``)
    counts as one event against the schedules; a vectorized
    ``forward_from_many`` counts one event *per stacked trial*, so the
    injection engine and the legacy trial-at-a-time loop consume the
    schedule identically and fault at the same trial:

    * ``nan_schedule`` — corrupt a slice of the output with NaN,
    * ``transient_schedule`` — raise :class:`~repro.errors.TransientError`,
    * ``crash_schedule`` — raise :class:`SimulatedCrash` (mid-run kill).

    Everything else delegates to the wrapped network, so the chaos
    wrapper drops into any API slot a real ``Network`` fits.
    """

    def __init__(
        self,
        network,
        nan_schedule: Optional[FaultSchedule] = None,
        transient_schedule: Optional[FaultSchedule] = None,
        crash_schedule: Optional[FaultSchedule] = None,
    ):
        self._network = network
        self.nan_schedule = nan_schedule
        self.transient_schedule = transient_schedule
        self.crash_schedule = crash_schedule

    # -- fault core ----------------------------------------------------
    def _pre_call(self) -> bool:
        """Raise scheduled exceptions; return whether to NaN the output."""
        if self.crash_schedule and self.crash_schedule.should_fault():
            raise SimulatedCrash("chaos: simulated crash mid-forward")
        if self.transient_schedule and self.transient_schedule.should_fault():
            raise TransientError("chaos: transient evaluator fault")
        return bool(self.nan_schedule and self.nan_schedule.should_fault())

    @staticmethod
    def _corrupt(array: np.ndarray) -> np.ndarray:
        out = np.array(array, dtype=np.float64, copy=True)
        flat = out.reshape(-1)
        flat[:: max(1, flat.size // 7)] = np.nan
        return out

    # -- forward surface -----------------------------------------------
    def forward(self, x, taps=None):
        poison = self._pre_call()
        out = self._network.forward(x, taps=taps)
        return self._corrupt(out) if poison else out

    def run_all(self, x, forward_fn=None):
        self._pre_call()
        return self._network.run_all(x, forward_fn=forward_fn)

    def forward_from(self, cache, layer, tap, forward_fn=None):
        poison = self._pre_call()
        out = self._network.forward_from(
            cache, layer, tap, forward_fn=forward_fn
        )
        return self._corrupt(out) if poison else out

    def forward_from_many(self, cache, layer, taps, forward_fn=None):
        # One schedule event per trial (crash/transient faults raise
        # here, before any replay work, just as the serial loop would
        # fault before that trial's forward_from).
        poison = [self._pre_call() for __ in taps]
        out = self._network.forward_from_many(
            cache, layer, taps, forward_fn=forward_fn
        )
        if any(poison):
            out = np.array(out, dtype=np.float64, copy=True)
            for index, hit in enumerate(poison):
                if hit:
                    out[index] = self._corrupt(out[index])
        return out

    # -- transparent delegation ----------------------------------------
    def __getattr__(self, name: str):
        return getattr(self._network, name)

    def __getitem__(self, name: str):
        return self._network[name]

    def __contains__(self, name: str) -> bool:
        return name in self._network

    def __len__(self) -> int:
        return len(self._network)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChaosNetwork({self._network!r})"


def flaky(
    fn: Callable,
    schedule: FaultSchedule,
    exception: Callable[[str], Exception] = TransientError,
):
    """Wrap any callable so scheduled calls raise instead of running."""

    def wrapper(*args, **kwargs):
        if schedule.should_fault():
            raise exception(
                f"chaos: injected fault on call {schedule.calls - 1}"
            )
        return fn(*args, **kwargs)

    return wrapper


def broken_solver(
    fail_times: Optional[int] = None,
    message: str = "chaos: SLSQP did not converge",
):
    """A drop-in for ``optimize_xi`` that fails its first N calls.

    ``fail_times=None`` fails forever — the knob for proving the
    equal-xi degradation endgame; a finite count proves multi-start
    recovery.  Accepts (and records) the retry kwargs the fallback
    chain passes, then delegates to the real solver once exhausted.
    """
    from ..optimize.sqp import optimize_xi

    state = {"calls": 0}

    def solver(objective, profiles, sigma, **kwargs):
        state["calls"] += 1
        if fail_times is None or state["calls"] <= fail_times:
            raise OptimizationError(message)
        return optimize_xi(objective, profiles, sigma, **kwargs)

    solver.state = state
    return solver


def crash_after_layers(
    completed: int,
    num_delta_points: int,
    num_repeats: int,
    num_batches: int = 1,
) -> FaultSchedule:
    """Schedule a crash once ``completed`` layers finished replaying.

    Helper for resume tests against the joint engine campaign of
    :meth:`~repro.analysis.profiler.ErrorProfiler.profile` (serial
    engine, cache cold).  In network-forward events the campaign issues
    one scale pass, one ``run_all`` per batch for the reference stage,
    then for each layer in turn ``num_batches * num_delta_points *
    num_repeats`` replayed trials.  The crash fires on the first trial
    of layer ``completed`` — i.e. after exactly that many layers were
    reduced and published to the cache.
    """
    per_layer = num_batches * num_delta_points * num_repeats
    return FaultSchedule.once(1 + num_batches + completed * per_layer)
