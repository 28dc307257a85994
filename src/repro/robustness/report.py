"""Campaign reporting: measured component importance + scenario verdicts.

The ablation matrix answers "does this component matter?" by
differencing each variant row against the baseline row of the same
model.  Three deltas are measured per variant:

``accuracy_delta``   validated accuracy, variant minus baseline,
``cost_delta``       effective bits under the campaign objective
                     (input-bandwidth or MAC-energy bits), variant
                     minus baseline — negative means the variant found
                     a *cheaper* allocation,
``wall_delta``       cell wall-clock, variant minus baseline.

Importance is ranked by a single score, ``|cost_delta| + 100 *
|accuracy_delta|`` (one accuracy point weighs as much as a full
effective bit); a variant that *failed* outranks every finished one —
a component whose removal crashes the pipeline is load-bearing by
definition.  A variant is flagged **harmful** when toggling the
component off both kept the accuracy constraint and saved effective
bits: the baseline would be better off without it.

Scenario rows get a verdict instead of a delta: ``ok``, ``degraded``
(the pipeline finished on its fallback path), ``miss`` (finished but
below the accuracy target), or ``failed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..experiments.scheduler import CellRow

#: Effective-bits saving below which a variant is measurement noise.
HARMFUL_BITS_THRESHOLD = 0.01

#: Rank weight of one accuracy point relative to one effective bit.
ACCURACY_WEIGHT = 100.0


@dataclass
class ImportanceEntry:
    """Measured importance of one matrix variant vs. its baseline."""

    component: str
    variant: str
    model: str
    status: str
    accuracy_delta: Optional[float]
    cost_delta: Optional[float]
    wall_delta: Optional[float]
    score: float
    #: The variant crashed: the component is load-bearing.
    critical: bool
    #: Removing the component kept the constraint and saved bits.
    harmful: bool

    def as_dict(self) -> Dict[str, Any]:
        return {
            "component": self.component,
            "variant": self.variant,
            "model": self.model,
            "status": self.status,
            "accuracy_delta": self.accuracy_delta,
            "cost_delta": self.cost_delta,
            "wall_delta": self.wall_delta,
            "score": self.score,
            "critical": self.critical,
            "harmful": self.harmful,
        }


@dataclass
class ScenarioEntry:
    """Verdict of one scenario cell."""

    scenario: str
    model: str
    status: str
    verdict: str
    validated_accuracy: Optional[float]
    target_accuracy: Optional[float]
    effective_bits: Optional[float]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "model": self.model,
            "status": self.status,
            "verdict": self.verdict,
            "validated_accuracy": self.validated_accuracy,
            "target_accuracy": self.target_accuracy,
            "effective_bits": self.effective_bits,
        }


@dataclass
class AblationReport:
    """Everything a finished campaign measured."""

    rows: List["CellRow"] = field(default_factory=list)
    importance: List[ImportanceEntry] = field(default_factory=list)
    scenarios: List[ScenarioEntry] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    cache_counters: Dict[str, int] = field(default_factory=dict)
    cache_dir: Optional[str] = None
    manifest: Dict[str, Any] = field(default_factory=dict)
    #: Cells actually executed this run (resumed rows excluded).
    executed_cell_ids: List[str] = field(default_factory=list)

    @property
    def num_failed(self) -> int:
        return sum(1 for row in self.rows if row.status == "failed")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": 1,
            "rows": [row.as_dict() for row in self.rows],
            "importance": [entry.as_dict() for entry in self.importance],
            "scenarios": [entry.as_dict() for entry in self.scenarios],
            "elapsed_seconds": self.elapsed_seconds,
            "cache_counters": dict(self.cache_counters),
            "cache_dir": self.cache_dir,
            "manifest": dict(self.manifest),
            "executed_cell_ids": list(self.executed_cell_ids),
        }

    def lines(self) -> List[str]:
        """Human-readable campaign report."""
        out: List[str] = []
        if self.importance:
            out.append("component importance (most important first):")
            for entry in self.importance:
                out.append("  " + _importance_line(entry))
        if self.scenarios:
            out.append("scenario robustness:")
            for scenario in self.scenarios:
                out.append("  " + _scenario_line(scenario))
        from ..experiments.scheduler import summary_line

        out.append(
            summary_line(self.rows, self.elapsed_seconds,
                         self.cache_counters, self.cache_dir)
        )
        for row in self.rows:
            if row.status != "failed" or row.failure is None:
                continue
            out.append(
                f"  FAILED {row.cell_id}: {row.failure.error_class} at "
                f"{row.failure.stage} ({row.failure.traceback_digest})"
            )
        return out


def _importance_line(entry: ImportanceEntry) -> str:
    if entry.critical:
        detail = "CRITICAL (variant failed)"
    else:
        detail = (
            f"d_acc={_fmt(entry.accuracy_delta, '+.4f')} "
            f"d_bits={_fmt(entry.cost_delta, '+.3f')} "
            f"d_wall={_fmt(entry.wall_delta, '+.2f')}s"
        )
        if entry.harmful:
            detail += " HARMFUL"
    return (
        f"{entry.component:<10} {entry.variant:<18} {entry.model:<10} "
        f"score={entry.score:8.3f}  {detail}"
    )


def _scenario_line(entry: ScenarioEntry) -> str:
    return (
        f"{entry.scenario:<16} {entry.model:<10} [{entry.verdict}] "
        f"acc={_fmt(entry.validated_accuracy, '.4f')} "
        f"target={_fmt(entry.target_accuracy, '.4f')} "
        f"bits={_fmt(entry.effective_bits, '.2f')}"
    )


def _fmt(value: Optional[float], spec: str) -> str:
    return "n/a" if value is None else format(value, spec)


# ----------------------------------------------------------------------
def _cost_bits(row: "CellRow") -> Optional[float]:
    if row.objective == "mac":
        return row.effective_mac_bits
    return row.effective_input_bits


def _importance_entries(
    rows: Sequence["CellRow"],
) -> List[ImportanceEntry]:
    baselines = {
        row.model: row
        for row in rows
        if row.kind == "component" and row.group == "" and row.status == "ok"
    }
    entries: List[ImportanceEntry] = []
    for row in rows:
        if row.kind != "component" or row.group == "":
            continue
        baseline = baselines.get(row.model)
        if row.status == "failed" or baseline is None:
            entries.append(
                ImportanceEntry(
                    component=row.group,
                    variant=row.variant,
                    model=row.model,
                    status=row.status,
                    accuracy_delta=None,
                    cost_delta=None,
                    wall_delta=None,
                    score=float("inf"),
                    critical=True,
                    harmful=False,
                )
            )
            continue
        accuracy_delta = _delta(
            row.validated_accuracy, baseline.validated_accuracy
        )
        cost_delta = _delta(_cost_bits(row), _cost_bits(baseline))
        wall_delta = row.elapsed_seconds - baseline.elapsed_seconds
        score = 0.0
        if cost_delta is not None:
            score += abs(cost_delta)
        if accuracy_delta is not None:
            score += ACCURACY_WEIGHT * abs(accuracy_delta)
        harmful = (
            cost_delta is not None
            and cost_delta <= -HARMFUL_BITS_THRESHOLD
            and row.meets_constraint is not False
        )
        entries.append(
            ImportanceEntry(
                component=row.group,
                variant=row.variant,
                model=row.model,
                status=row.status,
                accuracy_delta=accuracy_delta,
                cost_delta=cost_delta,
                wall_delta=wall_delta,
                score=score,
                critical=False,
                harmful=harmful,
            )
        )
    entries.sort(key=lambda entry: (-entry.score, entry.variant, entry.model))
    return entries


def _delta(
    variant: Optional[float], baseline: Optional[float]
) -> Optional[float]:
    if variant is None or baseline is None:
        return None
    return variant - baseline


def _scenario_entries(
    rows: Sequence["CellRow"],
) -> List[ScenarioEntry]:
    entries: List[ScenarioEntry] = []
    for row in rows:
        if row.kind != "scenario":
            continue
        if row.status == "failed":
            verdict = "failed"
        elif row.degraded:
            verdict = "degraded"
        elif row.meets_constraint is False:
            verdict = "miss"
        else:
            verdict = "ok"
        entries.append(
            ScenarioEntry(
                scenario=row.group,
                model=row.model,
                status=row.status,
                verdict=verdict,
                validated_accuracy=row.validated_accuracy,
                target_accuracy=row.target_accuracy,
                effective_bits=_cost_bits(row),
            )
        )
    return entries


def build_report(
    rows: Sequence["CellRow"],
    elapsed_seconds: float,
    manifest: Optional[Dict[str, Any]] = None,
    cache_dir: Optional[str] = None,
) -> AblationReport:
    """Score importance and verdicts from the executor's rows."""
    totals: Dict[str, int] = {}
    for row in rows:
        if row.resumed:
            continue  # restoring an outcome is not campaign work
        for key, value in row.cache_counters.items():
            totals[key] = totals.get(key, 0) + value
    return AblationReport(
        rows=list(rows),
        importance=_importance_entries(rows),
        scenarios=_scenario_entries(rows),
        elapsed_seconds=elapsed_seconds,
        cache_counters=totals,
        cache_dir=cache_dir,
        manifest=dict(manifest or {}),
        executed_cell_ids=[row.cell_id for row in rows if not row.resumed],
    )


__all__ = [
    "ACCURACY_WEIGHT",
    "HARMFUL_BITS_THRESHOLD",
    "AblationReport",
    "ImportanceEntry",
    "ScenarioEntry",
    "build_report",
]
