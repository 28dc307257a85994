"""End-to-end telemetry guarantees on real pipeline runs.

The two hard contracts (ISSUE 4 acceptance):

* **Zero numerical effect** — lambda/theta fits and full optimization
  outcomes are bit-identical with telemetry on or off, across serial,
  thread-pool, and process-pool execution.
* **Trace integrity** — every event in an exported trace validates
  against the schema, process-pool worker spans arrive exactly once,
  export ordering is deterministic, and the root span subsumes the
  per-stage timings (total >= 95% of their sum).
"""

import numpy as np
import pytest

from repro.analysis import ErrorProfiler
from repro.cli import main
from repro.config import ParallelSettings, ProfileSettings, TelemetrySettings
from repro.pipeline import PrecisionOptimizer
from repro.telemetry import Telemetry, read_events, validate_events

TEST_SEED = 1234

SETTINGS = ProfileSettings(
    num_images=8, num_delta_points=4, num_repeats=2, seed=TEST_SEED
)


def profile(lenet, images, *, telemetry=None, parallel=None):
    profiler = ErrorProfiler(
        lenet,
        images,
        SETTINGS,
        batch_size=4,
        parallel=parallel,
        telemetry=telemetry,
    )
    return profiler.profile(), profiler.telemetry


def assert_fits_bitwise_equal(a, b):
    assert set(a.profiles) == set(b.profiles)
    for name in a.profiles:
        pa, pb = a[name], b[name]
        assert pa.lam == pb.lam
        assert pa.theta == pb.theta
        assert np.array_equal(pa.sigmas, pb.sigmas)
        assert np.array_equal(pa.deltas, pb.deltas)


@pytest.fixture(scope="module")
def profiling_images(datasets):
    __, test = datasets
    return test.images[: SETTINGS.num_images]


@pytest.fixture(scope="module")
def baseline_report(lenet, profiling_images):
    report, _ = profile(lenet, profiling_images)
    return report


class TestBitIdenticalFits:
    def test_telemetry_on_matches_off_serial(
        self, lenet, profiling_images, baseline_report
    ):
        session = Telemetry(TelemetrySettings(enabled=True))
        report, _ = profile(lenet, profiling_images, telemetry=session)
        assert_fits_bitwise_equal(baseline_report, report)

    def test_telemetry_on_matches_off_thread_pool(
        self, lenet, profiling_images, baseline_report
    ):
        session = Telemetry(TelemetrySettings(enabled=True))
        report, _ = profile(
            lenet,
            profiling_images,
            telemetry=session,
            parallel=ParallelSettings(jobs=2, backend="thread"),
        )
        assert_fits_bitwise_equal(baseline_report, report)

    def test_telemetry_on_matches_off_process_pool(
        self, lenet, profiling_images, baseline_report
    ):
        session = Telemetry(TelemetrySettings(enabled=True))
        report, _ = profile(
            lenet,
            profiling_images,
            telemetry=session,
            parallel=ParallelSettings(jobs=2, backend="process"),
        )
        assert_fits_bitwise_equal(baseline_report, report)

    def test_disabled_session_records_nothing(
        self, lenet, profiling_images
    ):
        _, session = profile(lenet, profiling_images)
        assert not session.enabled
        assert session.tracer.events() == []


class TestTraceIntegrity:
    @pytest.fixture(scope="class")
    def traced_run(self, lenet, profiling_images):
        session = Telemetry(TelemetrySettings(enabled=True))
        report, _ = profile(lenet, profiling_images, telemetry=session)
        return report, session

    def test_every_event_validates(self, traced_run):
        _, session = traced_run
        assert validate_events(session.events()) == []

    def test_single_connected_root(self, traced_run):
        _, session = traced_run
        spans = [e for e in session.events() if e["type"] == "span"]
        roots = [s for s in spans if s["parent_id"] is None]
        assert len(roots) == 1
        assert roots[0]["name"] == "profiler.profile"
        ids = {s["span_id"] for s in spans}
        assert all(
            s["parent_id"] in ids for s in spans if s["parent_id"] is not None
        )

    def test_root_total_covers_stage_sum(self, traced_run):
        report, session = traced_run
        spans = [e for e in session.events() if e["type"] == "span"]
        root = next(s for s in spans if s["parent_id"] is None)
        stage_sum = sum(report.timings.values())
        assert stage_sum > 0
        assert root["duration"] >= 0.95 * stage_sum

    def test_stage_timings_match_engine_spans(self, traced_run):
        report, session = traced_run
        spans = [e for e in session.events() if e["type"] == "span"]
        for stage in ("reference", "plan", "replay", "reduce"):
            # reduce runs once per layer, so its spans add up.
            durations = [
                s["duration"] for s in spans if s["name"] == f"engine.{stage}"
            ]
            assert durations
            assert report.timings[stage] == pytest.approx(sum(durations))

    def test_trial_counters_recorded(self, traced_run):
        _, session = traced_run
        counters = session.metrics.snapshot()["counters"]
        num_layers = 4  # lenet: conv1..conv3 + fc
        num_batches = SETTINGS.num_images // 4  # batch_size=4 in profile()
        expected = (
            num_layers
            * num_batches
            * SETTINGS.num_delta_points
            * SETTINGS.num_repeats
        )
        assert counters["repro_trials_injected_total"] == expected
        dispatches = counters.get(
            "repro_kernel_fast_dispatch_total", 0
        ) + counters.get("repro_kernel_legacy_dispatch_total", 0)
        assert dispatches > 0

    def test_export_ordering_deterministic(self, traced_run):
        _, session = traced_run
        assert session.events() == session.events()


class TestProcessPoolTrace:
    @pytest.fixture(scope="class")
    def process_run(self, lenet, profiling_images):
        session = Telemetry(TelemetrySettings(enabled=True))
        report, _ = profile(
            lenet,
            profiling_images,
            telemetry=session,
            parallel=ParallelSettings(jobs=2, backend="process"),
        )
        return report, session

    def test_worker_spans_exactly_once(self, process_run):
        report, session = process_run
        spans = [e for e in session.events() if e["type"] == "span"]
        layer_spans = [s for s in spans if s["name"] == "engine.layer"]
        # One campaign span per profiled layer, no duplicates, no drops.
        labels = sorted(s["attributes"]["layer"] for s in layer_spans)
        assert labels == sorted(report.profiles)
        assert len({s["span_id"] for s in spans}) == len(spans)

    def test_worker_spans_reparented_under_replay(self, process_run):
        _, session = process_run
        spans = [e for e in session.events() if e["type"] == "span"]
        replay = next(s for s in spans if s["name"] == "engine.replay")
        layer_spans = [s for s in spans if s["name"] == "engine.layer"]
        assert layer_spans
        for span in layer_spans:
            assert span["parent_id"] == replay["span_id"]
            assert span["worker"] != "main"

    def test_events_sorted_by_start(self, process_run):
        _, session = process_run
        spans = [e for e in session.events() if e["type"] == "span"]
        starts = [s["start"] for s in spans]
        assert starts == sorted(starts)

    def test_merged_events_validate(self, process_run):
        _, session = process_run
        assert validate_events(session.events()) == []


class TestOptimizerManifest:
    @pytest.fixture(scope="class")
    def outcomes(self, lenet, datasets):
        __, test = datasets

        def run(telemetry):
            optimizer = PrecisionOptimizer(
                lenet,
                test,
                profile_settings=SETTINGS,
                telemetry=telemetry,
            )
            return optimizer.optimize(objective="input", accuracy_drop=0.02)

        off = run(None)
        on = run(TelemetrySettings(enabled=True))
        return off, on

    def test_outcome_bit_identical(self, outcomes):
        off, on = outcomes
        assert off.result.sigma == on.result.sigma
        assert off.result.xi == on.result.xi
        assert off.validated_accuracy == on.validated_accuracy
        assert [
            (layer.name, layer.integer_bits, layer.fraction_bits)
            for layer in off.result.allocation
        ] == [
            (layer.name, layer.integer_bits, layer.fraction_bits)
            for layer in on.result.allocation
        ]

    def test_manifest_default_on(self, outcomes):
        off, on = outcomes
        for outcome in outcomes:
            assert outcome.manifest is not None
            assert len(outcome.manifest["config_hash"]) == 16
            assert outcome.manifest["seed"] is not None
            assert outcome.manifest["model"] == "lenet"
        # Telemetry doesn't change the configuration identity.
        assert off.manifest["config_hash"] == on.manifest["config_hash"]


class TestCliTraceSmoke:
    FAST = [
        "--model",
        "lenet",
        "--train-count",
        "96",
        "--test-count",
        "48",
        "--profile-images",
        "8",
        "--profile-points",
        "4",
        "--seed",
        "321",
    ]

    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "run.jsonl"
        code = main(["profile", *self.FAST, "--trace-out", str(path)])
        assert code == 0
        return path

    def test_trace_written_and_valid(self, trace_path):
        events = read_events(trace_path)
        assert validate_events(events) == []
        kinds = [e["type"] for e in events]
        assert kinds[0] == "manifest"
        assert kinds[-1] == "metrics"
        assert "span" in kinds

    def test_trace_validate_command(self, trace_path, capsys):
        assert main(["trace", "validate", str(trace_path)]) == 0
        assert "all events valid" in capsys.readouterr().out

    def test_trace_summarize_command(self, trace_path, capsys):
        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "manifest: config" in out
        assert "profiler.profile" in out
        assert "root total" in out

    def test_validate_rejects_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": 1, "type": "bogus"}\n')
        assert main(["trace", "validate", str(bad)]) == 1
