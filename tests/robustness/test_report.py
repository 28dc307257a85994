"""Importance ranking and scenario verdicts from synthetic rows."""

from repro.experiments import CellRow
from repro.robustness import FailureRecord, build_report


def _row(
    cell_id,
    kind="component",
    group="",
    variant="baseline",
    status="ok",
    objective="input",
    **overrides,
):
    defaults = dict(
        model="lenet",
        accuracy_drop=0.05,
        elapsed_seconds=1.0,
        sigma=0.4,
        effective_input_bits=5.0,
        effective_mac_bits=6.0,
        baseline_accuracy=0.9,
        validated_accuracy=0.88,
        target_accuracy=0.85,
        degraded=False,
        bitwidths={"fc": 5},
    )
    defaults.update(overrides)
    return CellRow(
        cell_id=cell_id,
        kind=kind,
        group=group,
        variant=variant,
        status=status,
        objective=objective,
        **defaults,
    )


BASELINE = _row("component/baseline/lenet")


class TestImportance:
    def test_deltas_measured_against_the_model_baseline(self):
        variant = _row(
            "component/xi:equal/lenet",
            group="xi",
            variant="xi:equal",
            validated_accuracy=0.86,
            effective_input_bits=5.5,
            elapsed_seconds=0.8,
        )
        report = build_report([BASELINE, variant], elapsed_seconds=2.0)
        assert len(report.importance) == 1
        entry = report.importance[0]
        assert entry.component == "xi"
        assert abs(entry.accuracy_delta - (-0.02)) < 1e-12
        assert abs(entry.cost_delta - 0.5) < 1e-12
        assert abs(entry.wall_delta - (-0.2)) < 1e-12
        assert abs(entry.score - (0.5 + 100 * 0.02)) < 1e-9
        assert not entry.critical and not entry.harmful

    def test_mac_objective_uses_mac_bits(self):
        base = _row(
            "component/baseline/lenet", objective="mac"
        )
        variant = _row(
            "component/scheme:scheme2/lenet",
            group="scheme",
            variant="scheme:scheme2",
            objective="mac",
            effective_mac_bits=7.0,
        )
        report = build_report([base, variant], elapsed_seconds=1.0)
        assert abs(report.importance[0].cost_delta - 1.0) < 1e-12

    def test_failed_variant_is_critical_and_ranked_first(self):
        crashed = _row(
            "component/xi:equal/lenet",
            group="xi",
            variant="xi:equal",
            status="failed",
            failure=FailureRecord("X", "m", "allocation", "d" * 12),
        )
        mild = _row(
            "component/cache:off/lenet",
            group="cache",
            variant="cache:off",
            effective_input_bits=5.01,
        )
        report = build_report([BASELINE, crashed, mild], elapsed_seconds=1.0)
        assert [e.component for e in report.importance] == [
            "xi",
            "cache",
        ]
        first = report.importance[0]
        assert first.critical
        assert first.score == float("inf")
        assert first.cost_delta is None

    def test_harmful_component_flagged(self):
        # Toggling the component OFF saved bits and kept the
        # constraint: the baseline is better off without it.
        better_without = _row(
            "component/scheme:scheme2/lenet",
            group="scheme",
            variant="scheme:scheme2",
            effective_input_bits=4.5,
        )
        report = build_report(
            [BASELINE, better_without], elapsed_seconds=1.0
        )
        assert report.importance[0].harmful

    def test_constraint_missing_variant_not_flagged_harmful(self):
        cheaper_but_broken = _row(
            "component/xi:equal/lenet",
            group="xi",
            variant="xi:equal",
            effective_input_bits=4.0,
            validated_accuracy=0.5,
        )
        report = build_report(
            [BASELINE, cheaper_but_broken], elapsed_seconds=1.0
        )
        assert not report.importance[0].harmful


class TestScenarios:
    def test_verdicts(self):
        rows = [
            _row(
                "scenario/input:noise/lenet",
                kind="scenario",
                group="input:noise",
                variant="input:noise",
            ),
            _row(
                "scenario/drop:tight/lenet",
                kind="scenario",
                group="drop:tight",
                variant="drop:tight",
                degraded=True,
            ),
            _row(
                "scenario/input:scale/lenet",
                kind="scenario",
                group="input:scale",
                variant="input:scale",
                validated_accuracy=0.8,
            ),
            _row(
                "scenario/topology:deep/lenet",
                kind="scenario",
                group="topology:deep",
                variant="topology:deep",
                status="failed",
                failure=FailureRecord("X", "m", "profiling", "e" * 12),
            ),
        ]
        report = build_report(rows, elapsed_seconds=1.0)
        verdicts = {e.scenario: e.verdict for e in report.scenarios}
        assert verdicts == {
            "input:noise": "ok",
            "drop:tight": "degraded",
            "input:scale": "miss",
            "topology:deep": "failed",
        }


class TestReportShape:
    def test_as_dict_schema(self):
        report = build_report([BASELINE], elapsed_seconds=1.0)
        payload = report.as_dict()
        assert payload["schema_version"] == 1
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["cell_id"] == BASELINE.cell_id

    def test_resumed_rows_excluded_from_cache_totals(self):
        executed = _row(
            "component/baseline/lenet", cache_counters={"hits": 3}
        )
        resumed = _row(
            "component/cache:off/lenet",
            group="cache",
            variant="cache:off",
            cache_counters={"hits": 7},
        )
        resumed.resumed = True
        report = build_report([executed, resumed], elapsed_seconds=1.0)
        assert report.cache_counters == {"hits": 3}
        assert report.executed_cell_ids == [executed.cell_id]

    def test_lines_mention_failures_and_counts(self):
        crashed = _row(
            "component/xi:equal/lenet",
            group="xi",
            variant="xi:equal",
            status="failed",
            failure=FailureRecord("Boom", "m", "allocation", "f" * 12),
        )
        lines = build_report(
            [BASELINE, crashed], elapsed_seconds=1.0
        ).lines()
        text = "\n".join(lines)
        assert "1 failed" in text
        assert "FAILED component/xi:equal/lenet" in text
        assert "CRITICAL" in text
