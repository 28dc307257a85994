"""End-to-end chaos tests: every degradation path, proven on a real model.

These are the acceptance tests for the resilience layer: a simulated
crash mid-run must resume from the persistent cache without redoing
finished layers or sigma evaluations, NaN activations must trip the
guardrails, transient evaluator faults must be retried, and forced
SLSQP failure must degrade to an equal-xi allocation tagged
``degraded=True`` instead of raising.
"""

import numpy as np
import pytest

import repro.engine.campaign as campaign
from repro.analysis.profiler import ErrorProfiler
from repro.analysis.sigma_search import Scheme1Evaluator, find_sigma
from repro.cache import ResultCache
from repro.config import ProfileSettings, SearchSettings
from repro.errors import (
    DegradedResultWarning,
    NumericalGuardError,
    ReproError,
    RetryExhaustedError,
    TransientError,
)
from repro.models import build_model, lsuv_calibrate
from repro.pipeline import PrecisionOptimizer, describe_outcome
from repro.resilience import (
    ChaosNetwork,
    FaultSchedule,
    SimulatedCrash,
    broken_solver,
    crash_after_layers,
    flaky,
)

SETTINGS = ProfileSettings(num_images=8, num_delta_points=6, seed=99)
SEARCH = SearchSettings(num_images=64, tolerance=0.05, num_trials=1, seed=99)


class TestFaultSchedule:
    def test_explicit_indices_fire_exactly(self):
        sched = FaultSchedule(at={1, 3})
        assert [sched.should_fault() for __ in range(5)] == [
            False, True, False, True, False,
        ]
        assert sched.fired == 2

    def test_max_faults_caps_injection(self):
        sched = FaultSchedule(rate=1.0, max_faults=2)
        fired = sum(sched.should_fault() for __ in range(10))
        assert fired == 2

    def test_seeded_rate_is_deterministic(self):
        a = FaultSchedule(rate=0.5, seed=3)
        b = FaultSchedule(rate=0.5, seed=3)
        assert [a.should_fault() for __ in range(20)] == [
            b.should_fault() for __ in range(20)
        ]

    def test_max_faults_exact_when_at_and_rate_interleave(self):
        # rate=1.0 fires on events 0,1,2; the cap must then silence the
        # later explicit indices 5 and 9 — exactly max_faults total.
        sched = FaultSchedule(at={0, 5, 9}, rate=1.0, max_faults=3)
        hits = [sched.should_fault() for __ in range(20)]
        assert hits == [True, True, True] + [False] * 17
        assert sched.fired == 3

    def test_coinciding_at_and_rate_count_as_one_fault(self):
        sched = FaultSchedule(at={0}, rate=1.0, max_faults=2)
        assert [sched.should_fault() for __ in range(5)] == [
            True, True, False, False, False,
        ]
        assert sched.fired == 2

    def test_at_hits_do_not_shift_the_rate_stream(self):
        plain = FaultSchedule(rate=0.3, seed=7)
        mixed = FaultSchedule(at={2}, rate=0.3, seed=7)
        base = {i for i in range(50) if plain.should_fault()}
        combined = {i for i in range(50) if mixed.should_fault()}
        assert combined == base | {2}

    def test_consumption_from_second_process_raises(self, monkeypatch):
        import repro.resilience.chaos as chaos_mod

        sched = FaultSchedule(at={1})
        assert sched.should_fault() is False  # binds the consumer pid
        elsewhere = chaos_mod.os.getpid() + 1
        monkeypatch.setattr(chaos_mod.os, "getpid", lambda: elsewhere)
        with pytest.raises(ReproError, match="single-consumer"):
            sched.should_fault()


class TestNaNGuardrail:
    def test_nan_activations_trip_profiler_guard(self, lenet, datasets):
        __, test = datasets
        chaos = ChaosNetwork(lenet, nan_schedule=FaultSchedule.once(2))
        profiler = ErrorProfiler(chaos, test.images, settings=SETTINGS)
        with pytest.raises(NumericalGuardError) as excinfo:
            profiler.profile()
        diags = excinfo.value.diagnostics
        assert diags and diags[0].code == "non_finite"
        assert diags[0].layer in lenet.analyzed_layer_names

    def test_nan_accuracy_trips_sigma_search_guard(self):
        from repro.errors import SearchError

        def poisoned_accuracy(sigma):
            return float("nan")

        with pytest.raises(SearchError, match="numerically broken"):
            find_sigma(poisoned_accuracy, 0.8, 0.05, SEARCH)


class TestTransientRetry:
    def test_flaky_evaluator_is_retried(self):
        def accuracy(sigma):
            return 0.9 if sigma <= 0.5 else 0.4

        flaky_fn = flaky(accuracy, FaultSchedule(at={0, 3}))
        result = find_sigma(flaky_fn, 0.9, 0.05, SEARCH)
        assert result.sigma > 0

    def test_persistent_faults_exhaust_retries(self):
        def accuracy(sigma):
            return 0.9

        always_bad = flaky(accuracy, FaultSchedule(rate=1.0))
        with pytest.raises(RetryExhaustedError):
            find_sigma(always_bad, 0.9, 0.05, SEARCH)

    def test_transient_network_fault_retried_end_to_end(
        self, lenet, datasets, lenet_profiles
    ):
        __, test = datasets
        chaos = ChaosNetwork(
            lenet, transient_schedule=FaultSchedule.once(0)
        )
        evaluator = Scheme1Evaluator(
            chaos,
            test.subset(32),
            lenet_profiles.profiles,
            batch_size=32,
            num_trials=1,
            seed=5,
        )

        def accuracy(sigma):
            try:
                return evaluator.accuracy(sigma)
            except TransientError:
                raise  # let find_sigma's retry loop handle it

        result = find_sigma(accuracy, 0.8, 0.10, SEARCH)
        assert result.sigma > 0
        assert chaos.transient_schedule.fired == 1


def _published_profiles(store):
    """Per-layer profile entries in a cache directory."""
    root = store / "objects" / "profile"
    return {p.name for p in root.rglob("*") if p.is_file()}


class TestCrashAndResume:
    """Acceptance: kill mid-run, re-run on the same cache, redo nothing."""

    def test_crash_then_resume_skips_completed_layers(
        self, lenet, datasets, tmp_path, monkeypatch
    ):
        __, test = datasets
        layers = lenet.analyzed_layer_names
        assert len(layers) >= 3, "test needs a multi-layer network"
        completed = 2
        store = tmp_path / "store"

        chaos = ChaosNetwork(
            lenet,
            crash_schedule=crash_after_layers(
                completed,
                SETTINGS.num_delta_points,
                SETTINGS.num_repeats,
            ),
        )
        profiler = ErrorProfiler(
            chaos, test.images, settings=SETTINGS, cache=ResultCache(store)
        )
        with pytest.raises(SimulatedCrash):
            profiler.profile()
        # every layer that finished before the crash is already stored
        published = _published_profiles(store)
        assert len(published) == completed

        replayed = []
        real_campaign = campaign.run_layer_campaign

        def spy(*args, **kwargs):
            replayed.append(kwargs["name"])
            return real_campaign(*args, **kwargs)

        monkeypatch.setattr(campaign, "run_layer_campaign", spy)
        fresh = ErrorProfiler(
            lenet, test.images, settings=SETTINGS, cache=ResultCache(store)
        )
        report = fresh.profile()
        assert set(report.profiles) == set(layers)
        assert report.cache_hits == completed
        # only the unfinished layers were replayed...
        assert replayed == layers[completed:]
        # ...and only their entries were written (the reference
        # activations and the finished layers came back from the cache)
        assert fresh.cache.counters.writes == len(layers) - completed
        after = _published_profiles(store)
        assert published < after and len(after) == len(layers)

    def test_resumed_profiles_match_uninterrupted_run(
        self, lenet, datasets, tmp_path
    ):
        __, test = datasets
        clean = ErrorProfiler(lenet, test.images, settings=SETTINGS).profile()

        store = tmp_path / "store"
        chaos = ChaosNetwork(
            lenet,
            crash_schedule=crash_after_layers(
                1, SETTINGS.num_delta_points, SETTINGS.num_repeats
            ),
        )
        with pytest.raises(SimulatedCrash):
            ErrorProfiler(
                chaos, test.images, settings=SETTINGS, cache=ResultCache(store)
            ).profile()
        resumed = ErrorProfiler(
            lenet, test.images, settings=SETTINGS, cache=ResultCache(store)
        ).profile()
        assert resumed.cache_hits == 1
        for name, expected in clean.profiles.items():
            got = resumed.profiles[name]
            assert got.lam == expected.lam
            assert got.theta == expected.theta
            assert np.array_equal(got.sigmas, expected.sigmas)
            assert np.array_equal(got.deltas, expected.deltas)

    def test_optimizer_resumes_profile_and_sigma(
        self, lenet, datasets, tmp_path
    ):
        """A crash mid-sigma-search resumes from the sigma_eval memos."""
        __, test = datasets

        def optimizer(network, cache=None):
            return PrecisionOptimizer(
                network,
                test,
                profile_settings=SETTINGS,
                search_settings=SEARCH,
                refine=False,
                cache=cache,
            )

        # Count forward events on an uninterrupted run to aim the crash
        # at the middle of the sigma search.
        counter = FaultSchedule()
        probe = optimizer(ChaosNetwork(lenet, crash_schedule=counter))
        probe.profile()
        probe.baseline_accuracy()
        search_start = counter.calls
        expected = probe.sigma_for_drop(0.05)
        search_end = counter.calls
        assert len(expected.evaluations) >= 3

        store = tmp_path / "store"
        crash_at = (search_start + search_end) // 2
        crashed = optimizer(
            ChaosNetwork(lenet, crash_schedule=FaultSchedule.once(crash_at)),
            cache=store,
        )
        crashed.profile()
        crashed.baseline_accuracy()
        with pytest.raises(SimulatedCrash):
            crashed.sigma_for_drop(0.05)
        memos = list((store / "objects" / "sigma_eval").rglob("*.json"))
        assert 0 < len(memos) < len(expected.evaluations)

        resumed = optimizer(lenet, cache=store)
        result = resumed.sigma_for_drop(0.05)
        assert result.sigma == expected.sigma
        assert result.evaluations == expected.evaluations
        assert resumed.profile().cache_hits == len(lenet.analyzed_layer_names)
        # the probes finished before the crash came back from the memos
        assert result.num_evaluations_saved >= len(memos)

        outcome = resumed.optimize("input", accuracy_drop=0.05)
        assert outcome.sigma_result.sigma == expected.sigma
        assert set(outcome.bitwidths) == set(lenet.analyzed_layer_names)


class TestSharedCacheCannotGoStale:
    """One cache serves every setting and model without going stale.

    Resume state keyed on the network name alone would hand a changed
    setting the old result and refuse a second model; cache keys cover
    every result-determining setting, so both simply miss and compute.
    """

    def test_changed_profile_points_reprofile(self, lenet, datasets, tmp_path):
        __, test = datasets
        store = tmp_path / "store"
        six = ProfileSettings(num_images=8, num_delta_points=6, seed=99)
        ten = ProfileSettings(num_images=8, num_delta_points=10, seed=99)
        ErrorProfiler(
            lenet, test.images, settings=six, cache=ResultCache(store)
        ).profile()
        shared = ErrorProfiler(
            lenet, test.images, settings=ten, cache=ResultCache(store)
        ).profile()
        fresh = ErrorProfiler(lenet, test.images, settings=ten).profile()
        assert shared.cache_hits == 0
        for name, expected in fresh.profiles.items():
            assert len(shared.profiles[name].deltas) == 10
            assert shared.profiles[name].lam == expected.lam
            assert shared.profiles[name].theta == expected.theta

    def test_changed_scheme_searches_again(self, lenet, datasets, tmp_path):
        __, test = datasets
        store = tmp_path / "store"

        def sigma(scheme, cache=None):
            return PrecisionOptimizer(
                lenet,
                test,
                profile_settings=SETTINGS,
                search_settings=SEARCH,
                scheme=scheme,
                refine=False,
                cache=cache,
            ).sigma_for_drop(0.05)

        scheme1 = sigma("scheme1", cache=store)
        shared = sigma("scheme2", cache=store)
        fresh = sigma("scheme2")
        # the two schemes disagree here, so reuse would show
        assert fresh.sigma != scheme1.sigma
        assert shared.sigma == fresh.sigma
        assert shared.evaluations == fresh.evaluations

    def test_two_models_share_one_cache(
        self, lenet, source, datasets, tmp_path
    ):
        train, test = datasets
        other = build_model("lenet", num_classes=source.num_classes, seed=7)
        lsuv_calibrate(other, train.images[:32])
        store = tmp_path / "store"
        ErrorProfiler(
            lenet, test.images, settings=SETTINGS, cache=ResultCache(store)
        ).profile()
        shared = ErrorProfiler(
            other, test.images, settings=SETTINGS, cache=ResultCache(store)
        ).profile()
        fresh = ErrorProfiler(other, test.images, settings=SETTINGS).profile()
        assert shared.cache_hits == 0
        for name, expected in fresh.profiles.items():
            assert shared.profiles[name].lam == expected.lam
            assert np.array_equal(shared.profiles[name].sigmas, expected.sigmas)


class TestSolverDegradation:
    """Acceptance: forced SLSQP failure returns degraded equal-xi."""

    def test_forced_failure_degrades_to_equal_xi(self, lenet, datasets):
        __, test = datasets
        opt = PrecisionOptimizer(
            lenet,
            test,
            profile_settings=SETTINGS,
            search_settings=SEARCH,
            refine=False,
            xi_solver=broken_solver(fail_times=None),
        )
        with pytest.warns(DegradedResultWarning):
            outcome = opt.optimize(
                "input", accuracy_drop=0.05, validate=False
            )
        assert outcome.degraded is True
        shares = set(round(x, 9) for x in outcome.result.xi.values())
        assert len(shares) == 1  # equal-xi fallback
        assert "DEGRADED" in describe_outcome(outcome)

    def test_strict_mode_raises_instead_of_degrading(self, lenet, datasets):
        __, test = datasets
        opt = PrecisionOptimizer(
            lenet,
            test,
            profile_settings=SETTINGS,
            search_settings=SEARCH,
            refine=False,
            strict=True,
            xi_solver=broken_solver(fail_times=None),
        )
        with pytest.raises(RetryExhaustedError):
            opt.optimize("input", accuracy_drop=0.05, validate=False)

    def test_multi_start_recovery_is_not_degraded(self, lenet, datasets):
        __, test = datasets
        opt = PrecisionOptimizer(
            lenet,
            test,
            profile_settings=SETTINGS,
            search_settings=SEARCH,
            refine=False,
            xi_solver=broken_solver(fail_times=1),
        )
        outcome = opt.optimize("input", accuracy_drop=0.05, validate=False)
        assert outcome.degraded is False
        assert outcome.result.fallback.attempts == 2
