"""End-to-end pipeline caching: cold == warm, corruption, auditing."""

import pytest

from repro import PrecisionOptimizer
from repro.cache import ResultCache
from repro.config import ParallelSettings, ProfileSettings, SearchSettings

TEST_SEED = 1234

PROFILE = ProfileSettings(
    num_images=8, num_delta_points=4, num_repeats=1, seed=TEST_SEED
)
SEARCH = SearchSettings(tolerance=0.05, num_trials=1, seed=TEST_SEED)


def make_optimizer(lenet, dataset, cache, **kwargs):
    """A fresh optimizer: only the persistent cache can carry state."""
    return PrecisionOptimizer(
        lenet,
        dataset,
        profile_settings=PROFILE,
        search_settings=SEARCH,
        scheme="scheme2",
        cache=cache,
        **kwargs,
    )


def fingerprint(outcome):
    return {
        "bitwidths": dict(outcome.bitwidths),
        "xi": dict(outcome.result.xi),
        "deltas": dict(outcome.result.deltas),
        "sigma": outcome.result.sigma,
        "baseline": outcome.baseline_accuracy,
        "validated": outcome.validated_accuracy,
        "degraded": outcome.degraded,
    }


@pytest.fixture()
def dataset(datasets):
    __, test = datasets
    return test.subset(48)


class TestPipelineCache:
    def test_cache_off_by_default(self, lenet, dataset):
        optimizer = PrecisionOptimizer(lenet, dataset)
        assert optimizer.cache is None

    def test_cache_accepts_path_and_instance(self, lenet, dataset, tmp_path):
        by_path = make_optimizer(lenet, dataset, str(tmp_path / "a"))
        assert isinstance(by_path.cache, ResultCache)
        store = ResultCache(tmp_path / "b")
        assert make_optimizer(lenet, dataset, store).cache is store

    def test_cold_warm_bit_identity(self, lenet, dataset, tmp_path):
        cache = tmp_path / "store"
        cold = make_optimizer(lenet, dataset, cache).optimize(
            "input", accuracy_drop=0.05
        )
        warm_opt = make_optimizer(lenet, dataset, cache)
        warm = warm_opt.optimize("input", accuracy_drop=0.05)
        assert fingerprint(warm) == fingerprint(cold)
        assert warm_opt.cache.counters.hits > 0
        assert warm_opt.cache.counters.misses == 0

    def test_equal_scheme_outcome_is_memoized(self, lenet, dataset, tmp_path):
        """equal_scheme restores through the outcome key, allocator in it."""
        cache = tmp_path / "store"
        cold = make_optimizer(lenet, dataset, cache).equal_scheme(0.05)
        warm_opt = make_optimizer(lenet, dataset, cache)
        warm = warm_opt.equal_scheme(0.05)
        assert fingerprint(warm) == fingerprint(cold)
        assert warm.result.objective == cold.result.objective
        assert warm_opt.cache.counters.misses == 0
        restored = warm_opt.telemetry.metrics.counter(
            "repro_outcome_restored_total"
        )
        assert restored.value == 1
        optimized = warm_opt.optimize("input", 0.05)
        assert restored.value == 1  # another allocator, another key
        assert optimized.result.objective.name == "input"

    def test_warm_run_matches_uncached(self, lenet, dataset, tmp_path):
        cache = tmp_path / "store"
        make_optimizer(lenet, dataset, cache).optimize("input", 0.05)
        warm = make_optimizer(lenet, dataset, cache).optimize("input", 0.05)
        plain = make_optimizer(lenet, dataset, None).optimize("input", 0.05)
        assert fingerprint(warm) == fingerprint(plain)

    def test_warm_run_never_profiles(self, lenet, dataset, tmp_path, monkeypatch):
        """A full outcome hit restores without touching the profiler."""
        cache = tmp_path / "store"
        make_optimizer(lenet, dataset, cache).optimize("input", 0.05)
        from repro.analysis import profiler as profiler_module

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("profiler ran on a warm outcome")

        monkeypatch.setattr(
            profiler_module.ErrorProfiler, "profile_with_grids", boom
        )
        warm = make_optimizer(lenet, dataset, cache).optimize("input", 0.05)
        assert warm.meets_constraint

    def test_parallel_knobs_share_entries(self, lenet, dataset, tmp_path):
        """jobs is excluded from every key by design."""
        cache = tmp_path / "store"
        cold = make_optimizer(lenet, dataset, cache).optimize("input", 0.05)
        warm_opt = make_optimizer(
            lenet,
            dataset,
            cache,
            parallel=ParallelSettings(jobs=2),
        )
        warm = warm_opt.optimize("input", 0.05)
        assert fingerprint(warm) == fingerprint(cold)
        assert warm_opt.cache.counters.misses == 0

    def test_corrupt_store_recomputes_transparently(
        self, lenet, dataset, tmp_path
    ):
        cache_dir = tmp_path / "store"
        cold = make_optimizer(lenet, dataset, cache_dir).optimize(
            "input", 0.05
        )
        store = ResultCache(cache_dir)
        for path in store.objects_dir.rglob("*"):
            if path.is_file():
                path.write_bytes(b"flipped bits everywhere")
        recompute_opt = make_optimizer(lenet, dataset, cache_dir)
        recomputed = recompute_opt.optimize("input", 0.05)
        assert fingerprint(recomputed) == fingerprint(cold)
        assert recompute_opt.cache.counters.corrupt > 0

    def test_restored_outcome_is_audited(
        self, lenet, dataset, tmp_path, monkeypatch
    ):
        """Cache restoration is not a verification bypass (repro.check)."""
        cache = tmp_path / "store"
        make_optimizer(lenet, dataset, cache).optimize("input", 0.05)
        audited = []
        original = PrecisionOptimizer._audit_allocation

        def spy(self, result):
            audited.append(result)
            return original(self, result)

        monkeypatch.setattr(PrecisionOptimizer, "_audit_allocation", spy)
        warm_opt = make_optimizer(lenet, dataset, cache)
        warm = warm_opt.optimize("input", 0.05)
        assert warm_opt.cache.counters.hits > 0
        assert audited and audited[0] is warm.result

    def test_callable_objective_bypasses_outcome_cache(
        self, lenet, dataset, tmp_path
    ):
        """Custom objectives are not JSON-able; only named ones persist."""
        from repro.optimize import input_bandwidth_objective

        cache = tmp_path / "store"
        opt = make_optimizer(lenet, dataset, cache)
        objective = input_bandwidth_objective(opt.stats())
        opt.optimize(objective, accuracy_drop=0.05)
        assert not list((opt.cache.objects_dir / "outcome").rglob("*.json"))
