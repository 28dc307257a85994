"""The cell executor: grid semantics, naive-loop parity, fault boundary."""

from dataclasses import replace

import pytest

from repro.errors import ReproError
from repro.experiments import (
    Cell,
    CellRow,
    ExperimentConfig,
    SweepSpec,
    clear_context_cache,
    make_context,
    run_sweep,
)

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


def exploding(config):
    """A context whose optimizer raises on every cell."""
    context = make_context(config, use_cache=False)

    def optimize(objective, accuracy_drop):
        raise ValueError("injected cell failure")

    context.optimizer.optimize = optimize
    return context


def exploding_on_mac(config):
    """A context whose optimizer raises on the MAC objective only."""
    context = make_context(config, use_cache=False)
    real = context.optimizer.optimize

    def optimize(objective, accuracy_drop):
        if objective == "mac":
            raise ValueError("injected cell failure")
        return real(objective, accuracy_drop=accuracy_drop)

    context.optimizer.optimize = optimize
    return context


class TestSweepSpec:
    def test_cell_order_is_model_major_drops_before_objectives(self):
        spec = SweepSpec(
            models=("a", "b"),
            accuracy_drops=(0.01, 0.05),
            objectives=("input", "mac"),
        )
        cells = list(spec.cells())
        assert spec.num_cells == len(cells) == 8
        assert cells[0] == ("a", 0.01, "input")
        assert cells[1] == ("a", 0.01, "mac")
        assert cells[2] == ("a", 0.05, "input")
        assert cells[4] == ("b", 0.01, "input")

    def test_empty_spec_rejected(self):
        with pytest.raises(ReproError):
            run_sweep(SweepSpec(models=()))


class TestRunSweep:
    @pytest.fixture(scope="class")
    def report(self):
        spec = SweepSpec(
            models=("lenet",),
            accuracy_drops=(0.05,),
            objectives=("input", "mac"),
        )
        yield run_sweep(spec, TINY)
        clear_context_cache()

    def test_covers_every_cell(self, report):
        assert [(c.accuracy_drop, c.objective) for c in report.cells] == [
            (0.05, "input"),
            (0.05, "mac"),
        ]
        assert all(c.elapsed_seconds >= 0 for c in report.cells)

    def test_matches_naive_per_cell_loop(self, report):
        """Scheduling only reorders work; every number is identical."""
        context = make_context(TINY, use_cache=False)
        for cell in report.cells:
            outcome = context.optimizer.optimize(
                cell.objective, accuracy_drop=cell.accuracy_drop
            )
            assert cell.bitwidths == outcome.bitwidths
            assert cell.sigma == outcome.result.sigma
            assert cell.baseline_accuracy == outcome.baseline_accuracy
            assert cell.validated_accuracy == outcome.validated_accuracy

    def test_report_rendering(self, report):
        lines = report.lines()
        assert len(lines) == len(report.cells) + 1
        assert "2 cells" in lines[-1]
        assert "(off)" in lines[-1]  # no cache directory configured
        rows = report.rows()
        assert rows[0]["model"] == "lenet"
        assert rows[0]["meets_constraint"] in (True, False, None)

    def test_cache_counters_empty_without_cache(self, report):
        assert report.cache_counters == {}

    def test_keep_going_records_failure_and_continues(self):
        cells = [
            Cell("lenet", 0.05, "input"),
            Cell("lenet", 0.05, "mac", context_factory=exploding_on_mac),
        ]
        report = run_sweep(cells, TINY)
        assert [c.status for c in report.cells] == ["ok", "failed"]
        assert report.failed == [report.cells[1]]
        failed = report.cells[1]
        assert failed.objective == "mac"
        assert failed.failure.error_class == "ValueError"
        row = failed.as_dict()
        assert row["status"] == "failed"
        assert row["failure"]["traceback_digest"]
        assert CellRow.from_dict(row) == failed
        lines = report.lines()
        assert any("[FAILED]" in line for line in lines)
        assert "1 failed" in lines[-1]

    def test_strict_fails_fast(self):
        cells = [Cell("lenet", 0.05, "mac", context_factory=exploding_on_mac)]
        with pytest.raises(ValueError):
            run_sweep(cells, replace(TINY, strict=True))

    def test_context_failure_fails_every_cell_of_that_model(self):
        spec = SweepSpec(
            models=("lenet",),
            accuracy_drops=(0.01, 0.05),
            objectives=("input",),
        )

        def broken_factory(config):
            raise RuntimeError("no substrate for you")

        cells = [
            Cell(*cell, context_factory=broken_factory)
            for cell in spec.cells()
        ]
        report = run_sweep(cells, TINY)
        assert len(report.failed) == len(report.cells) == spec.num_cells
        assert {r.failure.stage for r in report.cells} == {"context"}

    def test_row_round_trips_through_its_dict(self, report):
        for row in report.cells:
            assert CellRow.from_dict(row.as_dict()) == row

    def test_persistent_rerun_restores_every_cell(self, tmp_path):
        clear_context_cache()
        spec = SweepSpec(
            models=("lenet",), accuracy_drops=(0.05,), objectives=("input",)
        )
        config = replace(TINY, cache_dir=str(tmp_path / "store"))
        try:
            cold = run_sweep(spec, config)
            clear_context_cache()  # force a fresh optimizer
            warm = run_sweep(spec, config)
        finally:
            clear_context_cache()
        assert warm.cache_counters.get("hits", 0) > 0
        assert warm.cache_counters.get("misses", 0) == 0
        assert cold.cells != []
        assert [c.resumed for c in warm.cells] == [True] * len(warm.cells)
        assert [c.identity_dict() for c in cold.cells] == [
            c.identity_dict() for c in warm.cells
        ]


class TestSweepEvents:
    """The scheduler's event-bus emission (and its zero numeric effect)."""

    SPEC = SweepSpec(
        models=("lenet",), accuracy_drops=(0.05,), objectives=("input",)
    )
    CELL = "lenet/drop=0.05/input"

    def _events(self, run_dir):
        from repro.telemetry.events import read_bus_events, validate_bus_path

        path = run_dir / "events.jsonl"
        assert validate_bus_path(path) == []
        return read_bus_events(path)

    def test_events_on_is_bit_identical_to_off(self, tmp_path):
        clear_context_cache()
        try:
            plain = run_sweep(self.SPEC, TINY)
            clear_context_cache()
            emitting = run_sweep(
                self.SPEC,
                replace(TINY, events_dir=str(tmp_path / "run")),
            )
        finally:
            clear_context_cache()
        assert len(plain.cells) == len(emitting.cells) == 1
        for off_cell, on_cell in zip(plain.cells, emitting.cells):
            off_row = off_cell.as_dict()
            on_row = on_cell.as_dict()
            off_row.pop("elapsed_seconds")
            on_row.pop("elapsed_seconds")
            assert off_row == on_row

        events = self._events(tmp_path / "run")
        run_events = [e for e in events if e["type"] == "run"]
        assert [e["event"] for e in run_events] == ["started", "finished"]
        assert run_events[0]["attrs"]["total_cells"] == 1
        assert run_events[0]["attrs"]["kind"] == "sweep"
        assert run_events[-1]["attrs"]["cells_done"] == 1

        cell_events = [e for e in events if e["type"] == "cell"]
        assert [e["event"] for e in cell_events] == [
            "queued", "running", "done",
        ]
        assert {e["name"] for e in cell_events} == {self.CELL}
        done = cell_events[-1]["attrs"]
        assert done["elapsed_seconds"] >= 0
        assert done["peak_rss_bytes"] > 0

        # The engine streams its stage lifecycle into the same file
        # (per-layer task events additionally appear under pooled runs).
        stages = {e["name"] for e in events if e["type"] == "stage"}
        assert {"engine.reference",
                "engine.replay", "engine.reduce"} <= stages

    def test_warm_rerun_emits_cached_hit(self, tmp_path):
        clear_context_cache()
        config = replace(
            TINY,
            cache_dir=str(tmp_path / "store"),
            events_dir=str(tmp_path / "warm"),
        )
        try:
            run_sweep(self.SPEC, replace(config, events_dir=""))
            clear_context_cache()
            run_sweep(self.SPEC, config)
        finally:
            clear_context_cache()
        events = self._events(tmp_path / "warm")
        states = [e["event"] for e in events if e["type"] == "cell"]
        assert "cached-hit" in states
        done = next(
            e for e in events
            if e["type"] == "cell" and e["event"] == "done"
        )
        assert done["attrs"]["cache_hits"] > 0
        assert done["attrs"]["cache_misses"] == 0

    def test_failed_cell_emits_failed_event(self, tmp_path):
        run_sweep(
            [Cell("lenet", 0.05, "input", context_factory=exploding)],
            replace(TINY, events_dir=str(tmp_path / "run")),
        )
        events = self._events(tmp_path / "run")
        failed = [
            e for e in events
            if e["type"] == "cell" and e["event"] == "failed"
        ]
        assert len(failed) == 1
        assert failed[0]["name"] == self.CELL
        assert failed[0]["attrs"]["error_class"] == "ValueError"

    def test_no_events_dir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        clear_context_cache()
        try:
            run_sweep(self.SPEC, TINY)
        finally:
            clear_context_cache()
        assert list(tmp_path.rglob("events*.jsonl")) == []
