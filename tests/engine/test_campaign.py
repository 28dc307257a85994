"""End-to-end determinism of the injection engine.

The acceptance bar for every way of running a campaign — serial, a
thread pool of any size, cache cold or warm, telemetry on or off — is
byte identity of the per-layer ``(sq_sums, counts)`` with the
batch-major loop in ``tests/engine/oracle.py``, which shares the
engine's coordinate-keyed RNG streams.
"""

import os

import numpy as np
import pytest

import repro.engine.campaign as campaign_module
from repro.analysis import ErrorProfiler
from repro.cache import ResultCache, array_digest
from repro.config import ParallelSettings, ProfileSettings, TelemetrySettings
from repro.engine import InjectionEngine
from repro.errors import ProfilingError, RetryExhaustedError, TransientError
from repro.nn import NetworkBuilder
from repro.telemetry import Telemetry
from tests.engine.oracle import profile_serial

TEST_SEED = 1234

SETTINGS = ProfileSettings(
    num_images=12, num_delta_points=4, num_repeats=2, seed=TEST_SEED
)
# batch_size=4 gives three profiling batches, covering the multi-batch
# reduction order in one go.
BATCH_SIZE = 4


def profile(lenet, images, *, parallel=None, grids=None, telemetry=None):
    profiler = ErrorProfiler(
        lenet,
        images,
        SETTINGS,
        batch_size=BATCH_SIZE,
        parallel=parallel,
        telemetry=telemetry,
    )
    if grids is not None:
        return profiler.profile_with_grids(grids)
    return profiler.profile()


def assert_reports_bitwise_equal(a, b):
    assert set(a.profiles) == set(b.profiles)
    for name in a.profiles:
        pa, pb = a[name], b[name]
        assert pa.lam == pb.lam
        assert pa.theta == pb.theta
        assert pa.sigmas.tobytes() == pb.sigmas.tobytes()
        assert pa.deltas.tobytes() == pb.deltas.tobytes()


@pytest.fixture(scope="module")
def profiling_images(datasets):
    __, test = datasets
    return test.images[: SETTINGS.num_images]


@pytest.fixture(scope="module")
def grids(lenet):
    return {
        name: np.geomspace(1e-3, 0.2, SETTINGS.num_delta_points)
        for name in lenet.analyzed_layer_names
    }


@pytest.fixture(scope="module")
def oracle_sums(lenet, profiling_images, grids):
    return profile_serial(
        lenet,
        profiling_images,
        grids,
        num_repeats=SETTINGS.num_repeats,
        seed=SETTINGS.seed,
        batch_size=BATCH_SIZE,
    )


@pytest.fixture(scope="module")
def engine_report(lenet, profiling_images):
    return profile(lenet, profiling_images)


def campaign_sums(lenet, images, grids, *, jobs, telemetry, cache_dir):
    """Per-layer ``(sq_sums, counts)`` of one campaign.

    Without a cache they come straight from the engine.  With one they
    are what the profiler published to the store on a cold run, and a
    warm re-run must restore every layer from there.
    """
    parallel = ParallelSettings(jobs=jobs)
    session = Telemetry(TelemetrySettings(enabled=telemetry))
    if cache_dir is None:
        result = InjectionEngine(lenet, parallel, telemetry=session).run(
            images,
            grids,
            num_repeats=SETTINGS.num_repeats,
            seed=SETTINGS.seed,
            batch_size=BATCH_SIZE,
        )
        return result.sq_sums, result.counts
    profilers = [
        ErrorProfiler(
            lenet,
            images,
            SETTINGS,
            batch_size=BATCH_SIZE,
            parallel=parallel,
            telemetry=session,
            cache=ResultCache(cache_dir),
        )
        for __ in range(2)
    ]
    cold = profilers[0].profile_with_grids(grids)
    warm = profilers[1].profile_with_grids(grids)
    assert (cold.cache_hits, warm.cache_hits) == (0, len(grids))
    assert_reports_bitwise_equal(cold, warm)
    positions = {layer.name: i for i, layer in enumerate(lenet.layers)}
    digest = array_digest(images[: SETTINGS.num_images])
    sq_sums, counts = {}, {}
    for name, grid in grids.items():
        key = profilers[0]._layer_key(name, positions[name], grid, digest)
        entry = profilers[0].cache.get_arrays("profile", key)
        sq_sums[name], counts[name] = entry["sq_sums"], entry["counts"]
    return sq_sums, counts


class TestLoopMatchesOracle:
    @pytest.mark.parametrize("telemetry", [False, True], ids=["telemetry-off", "telemetry-on"])
    @pytest.mark.parametrize("cache", [False, True], ids=["cache-off", "cache-on"])
    @pytest.mark.parametrize("jobs", [1, 2, 3], ids=["serial", "jobs2", "jobs3"])
    def test_bitwise_identical(
        self, lenet, profiling_images, grids, oracle_sums, tmp_path,
        jobs, cache, telemetry,
    ):
        sq_sums, counts = campaign_sums(
            lenet,
            profiling_images,
            grids,
            jobs=jobs,
            telemetry=telemetry,
            cache_dir=tmp_path / "store" if cache else None,
        )
        want_sums, want_counts = oracle_sums
        assert list(sq_sums) == list(grids)
        for name in grids:
            assert sq_sums[name].tobytes() == want_sums[name].tobytes()
            assert counts[name].tobytes() == want_counts[name].tobytes()


class TestReportedJobs:
    def test_jobs_capped_at_available_cores(self, lenet, profiling_images):
        available = len(os.sched_getaffinity(0))
        report = profile(
            lenet,
            profiling_images,
            parallel=ParallelSettings(jobs=available + 2),
        )
        assert report.jobs == available


class TestWorkerPoolEvents:
    def test_pooled_run_streams_layer_lifecycle(
        self, lenet, profiling_images, engine_report, tmp_path
    ):
        from repro.telemetry.events import read_bus_events, validate_bus_path

        telemetry = Telemetry(
            TelemetrySettings(enabled=True, events_dir=str(tmp_path))
        )
        report = profile(
            lenet,
            profiling_images,
            parallel=ParallelSettings(jobs=2),
            telemetry=telemetry,
        )
        telemetry.close()
        assert_reports_bitwise_equal(report, engine_report)

        path = tmp_path / "events.jsonl"
        assert validate_bus_path(path) == []
        events = read_bus_events(path)
        layer_events = [
            e for e in events
            if e["type"] == "stage"
            and e["name"].startswith("engine.layer/")
        ]
        queued = [e for e in layer_events if e["event"] == "queued"]
        done = [e for e in layer_events if e["event"] == "done"]
        layers = {e["name"] for e in queued}
        assert len(queued) == len(done) == len(layers) > 0
        assert all(e["attrs"]["retries"] == 0 for e in done)
        phases = {e["name"] for e in events if e["type"] == "stage"}
        assert "engine.replay" in phases


class TestOrderingInvariance:
    """Reordering the layer traversal must not move a single bit.

    Each trial's RNG stream is keyed by its (layer_position, batch,
    delta, repeat) coordinate, never by visit order, so a reversed
    layer dict is the same campaign.
    """

    @pytest.mark.parametrize("pooled", [False, True])
    def test_reversed_layer_order(self, lenet, profiling_images, grids, pooled):
        parallel = ParallelSettings(jobs=2 if pooled else 1)
        forward = profile(lenet, profiling_images, parallel=parallel, grids=grids)
        reversed_grids = dict(reversed(list(grids.items())))
        backward = profile(
            lenet, profiling_images, parallel=parallel, grids=reversed_grids
        )
        assert_reports_bitwise_equal(forward, backward)


def tiny_network(seed=0):
    b = NetworkBuilder("tiny", (2, 6, 6), seed=seed)
    b.conv("c1", 3, 3)
    b.conv("c2", 4, 3)
    b.global_pool("gap")
    b.dense("fc", 5)
    return b.build()


class TestFailurePaths:
    """Worker failures must surface through the resilience layer."""

    def test_worker_crash_names_layer(self):
        net = tiny_network()
        calls = {"count": 0}
        original = net["gap"].forward

        def flaky(arrays):
            # Let the reference pass through, then crash every replay.
            calls["count"] += 1
            if calls["count"] > 1:
                raise RuntimeError("boom")
            return original(arrays)

        net["gap"].forward = flaky
        engine = InjectionEngine(net, ParallelSettings(jobs=2))
        rng = np.random.default_rng(TEST_SEED)
        images = rng.standard_normal((4, 2, 6, 6))
        grids = {"c1": np.array([0.01, 0.1])}
        with pytest.raises(ProfilingError, match="'c1' crashed"):
            engine.run(images, grids, num_repeats=1, seed=TEST_SEED)

    def test_transient_errors_exhaust_retries(self, monkeypatch):
        def always_transient(network, caches, **task):
            raise TransientError("worker evicted")

        monkeypatch.setattr(
            campaign_module, "run_layer_campaign", always_transient
        )
        net = tiny_network()
        engine = InjectionEngine(
            net, ParallelSettings(jobs=2, transient_retries=2)
        )
        rng = np.random.default_rng(TEST_SEED)
        images = rng.standard_normal((4, 2, 6, 6))
        grids = {"c1": np.array([0.01, 0.1])}
        with pytest.raises(RetryExhaustedError) as excinfo:
            engine.run(images, grids, num_repeats=1, seed=TEST_SEED)
        # initial attempt + transient_retries resubmissions, all logged
        assert len(excinfo.value.attempts) == 3

    def test_serial_engine_error_passes_through(self):
        net = tiny_network()
        calls = {"count": 0}
        original = net["gap"].forward

        def flaky(arrays):
            calls["count"] += 1
            if calls["count"] > 1:
                raise RuntimeError("boom")
            return original(arrays)

        net["gap"].forward = flaky
        engine = InjectionEngine(net, ParallelSettings())
        rng = np.random.default_rng(TEST_SEED)
        images = rng.standard_normal((4, 2, 6, 6))
        with pytest.raises(RuntimeError):
            engine.run(
                images,
                {"c1": np.array([0.01])},
                num_repeats=1,
                seed=TEST_SEED,
            )
