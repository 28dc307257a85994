"""Persistent caching of per-layer injection campaigns."""

import numpy as np
import pytest

from repro.analysis import ErrorProfiler
from repro.cache import ResultCache
from repro.config import ParallelSettings, ProfileSettings

TEST_SEED = 1234

SETTINGS = ProfileSettings(
    num_images=8, num_delta_points=4, num_repeats=1, seed=TEST_SEED
)


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "store")


def fits_of(report):
    return {p.name: (p.lam, p.theta) for p in report}


def make_profiler(lenet, images, cache, **kwargs):
    return ErrorProfiler(lenet, images, SETTINGS, cache=cache, **kwargs)


class TestProfilerCache:
    def test_cold_warm_bit_identity(self, lenet, images, cache):
        cold = make_profiler(lenet, images, cache).profile()
        assert cold.cache_hits == 0
        warm = make_profiler(lenet, images, cache).profile()
        assert warm.cache_hits == len(lenet.analyzed_layer_names)
        assert fits_of(warm) == fits_of(cold)

    def test_no_cache_matches_cached(self, lenet, images, cache):
        cached = make_profiler(lenet, images, cache).profile()
        plain = make_profiler(lenet, images, None).profile()
        assert fits_of(plain) == fits_of(cached)

    def test_partial_recompute_on_new_layer(self, lenet, images, cache):
        """A grown grid set only pays for the delta (per-layer keys)."""
        names = list(lenet.analyzed_layer_names)
        grid = np.linspace(1e-4, 1e-2, SETTINGS.num_delta_points)
        subset = {name: grid for name in names[:2]}
        first = make_profiler(lenet, images, cache).profile_with_grids(subset)
        assert first.cache_hits == 0
        superset = {name: grid for name in names[:3]}
        second = make_profiler(lenet, images, cache).profile_with_grids(
            superset
        )
        assert second.cache_hits == 2
        assert fits_of(second)[names[0]] == fits_of(first)[names[0]]

    def test_grid_change_invalidates(self, lenet, images, cache):
        names = list(lenet.analyzed_layer_names)[:1]
        grid = np.linspace(1e-4, 1e-2, SETTINGS.num_delta_points)
        make_profiler(lenet, images, cache).profile_with_grids(
            {names[0]: grid}
        )
        nudged = grid.copy()
        nudged[-1] = np.nextafter(nudged[-1], np.inf)
        report = make_profiler(lenet, images, cache).profile_with_grids(
            {names[0]: nudged}
        )
        assert report.cache_hits == 0

    def test_seed_change_invalidates(self, lenet, images, cache):
        make_profiler(lenet, images, cache).profile()
        other = ErrorProfiler(
            lenet,
            images,
            ProfileSettings(
                num_images=8,
                num_delta_points=4,
                num_repeats=1,
                seed=TEST_SEED + 1,
            ),
            cache=cache,
        )
        assert other.profile().cache_hits == 0

    def test_image_change_invalidates(self, lenet, images, cache):
        make_profiler(lenet, images, cache).profile()
        nudged = images.copy()
        nudged[0, 0, 0, 0] = np.nextafter(nudged[0, 0, 0, 0], np.inf)
        assert make_profiler(lenet, nudged, cache).profile().cache_hits == 0

    def test_parallel_knobs_do_not_fragment_keys(self, lenet, images, cache):
        """jobs is excluded from keys by design."""
        serial = make_profiler(lenet, images, cache).profile()
        parallel = make_profiler(
            lenet,
            images,
            cache,
            parallel=ParallelSettings(jobs=2),
        ).profile()
        assert parallel.cache_hits == len(lenet.analyzed_layer_names)
        assert fits_of(parallel) == fits_of(serial)

    def test_corrupt_entry_recomputed_transparently(
        self, lenet, images, cache
    ):
        cold = make_profiler(lenet, images, cache).profile()
        for path in cache.objects_dir.rglob("*"):
            if path.is_file():
                path.write_bytes(b"corrupted beyond repair")
        recomputed = make_profiler(lenet, images, cache).profile()
        assert recomputed.cache_hits == 0
        assert cache.counters.corrupt > 0
        assert fits_of(recomputed) == fits_of(cold)
        # The rewritten entries serve hits again.
        warm = make_profiler(lenet, images, cache).profile()
        assert warm.cache_hits == len(lenet.analyzed_layer_names)
