"""Campaign engine end-to-end: cells, fault isolation, resume, strict.

The acceptance tests for ``repro ablate``: an injected chaos crash in
one matrix cell must become a structured ``failed`` row while every
other cell completes bit-identically to a clean run, and re-running on
the same cache directory must restore every cached outcome and
re-execute only the crashed cell (and cells that cannot be cached).
"""

from dataclasses import replace

import pytest

from repro.errors import ReproError
from repro.experiments import (
    AblationSpec,
    ExperimentConfig,
    build_campaign_cells,
    run_ablation_campaign,
)
from repro.resilience import SimulatedCrash

TINY = ExperimentConfig(
    model="lenet",
    num_classes=8,
    train_count=96,
    test_count=48,
    profile_images=8,
    profile_points=4,
    search_trials=1,
    seed=1234,
)

SPEC = AblationSpec(models=("lenet",), components=("xi",))

CHAOS_CELL = "component/xi:equal/lenet"


def _comparable(row):
    """Row payload minus fields that legitimately differ across runs."""
    payload = row.as_dict()
    payload.pop("elapsed_seconds")
    payload.pop("cache_counters")
    payload.pop("resumed")
    return payload


@pytest.fixture(scope="module")
def clean_report():
    return run_ablation_campaign(SPEC, config=TINY)


@pytest.fixture(scope="module")
def cached_config(tmp_path_factory):
    store = tmp_path_factory.mktemp("campaign-cache")
    return replace(TINY, cache_dir=str(store))


@pytest.fixture(scope="module")
def chaos_report(cached_config):
    spec = replace(SPEC, chaos_cells=(CHAOS_CELL,))
    return run_ablation_campaign(spec, config=cached_config)


@pytest.fixture(scope="module")
def resumed_report(chaos_report, cached_config):
    # Same campaign on the same cache, chaos removed: the baseline's
    # outcome is restored, only the crashed cell re-runs.
    return run_ablation_campaign(SPEC, config=cached_config)


class TestCellGrid:
    def test_cell_ids_are_stable_and_matrix_major(self):
        cells = build_campaign_cells(
            AblationSpec(
                models=("lenet",),
                components=("xi",),
                scenarios=("drop:loose",),
            ),
            TINY,
        )
        assert [c.cell_id for c in cells] == [
            "component/baseline/lenet",
            "component/xi:equal/lenet",
            "scenario/drop:loose/lenet",
        ]

    def test_drop_scenario_overrides_the_campaign_drop(self):
        cells = build_campaign_cells(
            AblationSpec(
                models=("lenet",), components=(), scenarios=("drop:loose",)
            ),
            TINY,
        )
        assert cells[-1].accuracy_drop == 0.5

    def test_unknown_chaos_cell_rejected(self):
        with pytest.raises(ReproError, match="chaos cells"):
            build_campaign_cells(
                replace(SPEC, chaos_cells=("component/nope/lenet",)), TINY
            )


class TestCleanCampaign:
    def test_every_cell_ok(self, clean_report):
        assert [r.status for r in clean_report.rows] == ["ok", "ok"]
        assert clean_report.num_failed == 0

    def test_importance_measured_for_the_toggled_component(
        self, clean_report
    ):
        assert [e.component for e in clean_report.importance] == ["xi"]
        entry = clean_report.importance[0]
        assert entry.cost_delta is not None
        assert entry.accuracy_delta is not None
        assert not entry.critical

    def test_manifest_attached(self, clean_report):
        assert clean_report.manifest.get("config_hash")
        assert clean_report.manifest["config"]["num_cells"] == 2

    def test_report_lines_render(self, clean_report):
        text = "\n".join(clean_report.lines())
        assert "component importance" in text
        assert "2 cells" in text


class TestChaosFaultIsolation:
    def test_chaos_cell_becomes_structured_failed_row(self, chaos_report):
        failed = {
            r.cell_id: r for r in chaos_report.rows if r.status == "failed"
        }
        assert set(failed) == {CHAOS_CELL}
        failure = failed[CHAOS_CELL].failure
        assert failure is not None
        assert failure.error_class == "SimulatedCrash"
        assert failure.stage != ""
        assert len(failure.traceback_digest) == 12

    def test_other_cells_bit_identical_to_clean_run(
        self, clean_report, chaos_report
    ):
        clean = {r.cell_id: r for r in clean_report.rows}
        for row in chaos_report.rows:
            if row.status == "failed":
                continue
            assert _comparable(row) == _comparable(clean[row.cell_id])

    def test_failed_variant_reported_critical(self, chaos_report):
        entry = chaos_report.importance[0]
        assert entry.critical
        assert entry.score == float("inf")


class TestResume:
    def test_only_the_failed_cell_reexecutes(
        self, chaos_report, resumed_report
    ):
        assert chaos_report.executed_cell_ids == [
            "component/baseline/lenet",
            CHAOS_CELL,
        ]
        assert resumed_report.executed_cell_ids == [CHAOS_CELL]

    def test_ok_rows_loaded_as_resumed(self, chaos_report, resumed_report):
        assert not any(r.resumed for r in chaos_report.rows)
        by_id = {r.cell_id: r for r in resumed_report.rows}
        assert by_id["component/baseline/lenet"].resumed
        assert not by_id[CHAOS_CELL].resumed

    def test_resumed_campaign_matches_the_clean_run(
        self, clean_report, resumed_report
    ):
        assert resumed_report.num_failed == 0
        clean = {r.cell_id: r for r in clean_report.rows}
        for row in resumed_report.rows:
            # resume marks reused rows; the measurement must not move
            assert _comparable(row) == _comparable(clean[row.cell_id])

    def test_equal_allocator_cells_resume_too(
        self, resumed_report, cached_config, clean_report
    ):
        again = run_ablation_campaign(SPEC, config=cached_config)
        assert again.executed_cell_ids == []
        assert all(r.resumed for r in again.rows)
        clean = {r.cell_id: _comparable(r) for r in clean_report.rows}
        assert {r.cell_id: _comparable(r) for r in again.rows} == clean

    def test_only_crashed_and_uncached_cells_reexecute(self, tmp_path):
        spec = AblationSpec(models=("lenet",), components=("cache", "scheme"))
        crashed_cell = "component/scheme:scheme2/lenet"
        config = replace(TINY, cache_dir=str(tmp_path / "store"))
        crashed = run_ablation_campaign(
            replace(spec, chaos_cells=(crashed_cell,)), config=config
        )
        assert [r.cell_id for r in crashed.rows if r.status == "failed"] == [
            crashed_cell
        ]
        resumed = run_ablation_campaign(spec, config=config)
        assert resumed.num_failed == 0
        assert resumed.executed_cell_ids == [
            "component/cache:off/lenet",
            crashed_cell,
        ]
        clean = {
            r.cell_id: _comparable(r)
            for r in run_ablation_campaign(spec, config=TINY).rows
        }
        assert {r.cell_id: _comparable(r) for r in resumed.rows} == clean


class TestStrictMode:
    def test_strict_restores_fail_fast(self):
        spec = replace(
            SPEC, chaos_cells=("component/baseline/lenet",)
        )
        with pytest.raises(SimulatedCrash):
            run_ablation_campaign(
                spec, config=replace(TINY, strict=True)
            )


class TestScenarioAndFallbackCells:
    def test_scenario_cells_execute_and_get_verdicts(self):
        report = run_ablation_campaign(
            AblationSpec(
                models=("lenet",),
                components=(),
                scenarios=("topology:tiny", "drop:loose"),
            ),
            config=TINY,
        )
        assert [r.status for r in report.rows] == ["ok", "ok", "ok"]
        verdicts = {e.scenario: e.verdict for e in report.scenarios}
        assert set(verdicts) == {"topology:tiny", "drop:loose"}
        assert verdicts["drop:loose"] in ("ok", "degraded")


class TestCampaignEvents:
    """Ablation lifecycle on the event bus: chaos, then resume."""

    def _events(self, run_dir):
        from repro.telemetry.events import read_bus_events, validate_bus_path

        path = run_dir / "events.jsonl"
        assert validate_bus_path(path) == []
        return read_bus_events(path)

    def test_chaos_then_resume_stream_lifecycle(self, tmp_path):
        config = replace(TINY, cache_dir=str(tmp_path / "store"))
        spec = replace(SPEC, chaos_cells=(CHAOS_CELL,))
        run_ablation_campaign(
            spec,
            config=replace(config, events_dir=str(tmp_path / "chaos")),
        )
        events = self._events(tmp_path / "chaos")
        run_events = [e for e in events if e["type"] == "run"]
        assert [e["event"] for e in run_events] == ["started", "finished"]
        assert run_events[0]["attrs"]["kind"] == "ablate"
        assert run_events[0]["attrs"]["total_cells"] == 2
        assert run_events[-1]["attrs"] == {
            "cells_done": 1, "cells_failed": 1,
        }
        by_cell = {}
        for event in events:
            if event["type"] == "cell":
                by_cell.setdefault(event["name"], []).append(event)
        assert [e["event"] for e in by_cell[CHAOS_CELL]] == [
            "queued", "running", "failed",
        ]
        assert by_cell[CHAOS_CELL][-1]["attrs"]["error_class"] == (
            "SimulatedCrash"
        )
        baseline = by_cell["component/baseline/lenet"]
        assert [e["event"] for e in baseline] == [
            "queued", "running", "done",
        ]
        assert baseline[-1]["attrs"]["elapsed_seconds"] >= 0

        # Resume (chaos removed, same cache): the ok row's outcome
        # restores as a cached hit, only the crashed cell runs again.
        run_ablation_campaign(
            SPEC,
            config=replace(config, events_dir=str(tmp_path / "resume")),
        )
        resumed = self._events(tmp_path / "resume")
        by_cell = {}
        for event in resumed:
            if event["type"] == "cell":
                by_cell.setdefault(event["name"], []).append(event)
        baseline = by_cell["component/baseline/lenet"]
        assert [e["event"] for e in baseline] == [
            "queued", "running", "cached-hit", "done",
        ]
        assert baseline[2]["attrs"]["resumed"] is True
        assert [e["event"] for e in by_cell[CHAOS_CELL]] == [
            "queued", "running", "done",
        ]
