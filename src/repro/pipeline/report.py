"""Plain-text table rendering for experiment outputs.

Benchmarks print the same rows the paper's tables report; this module
keeps the formatting in one place.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    float_format: str = "{:.2f}",
) -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    cells = [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    rule = "-" * len(header)
    body = [
        "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        for row in cells
    ]
    return "\n".join([header, rule] + body)


def bitwidth_row(
    label: str, bitwidths: Mapping[str, int], order: Sequence[str]
) -> Dict[str, object]:
    """One labelled per-layer bitwidth row (Table II style)."""
    row: Dict[str, object] = {"scheme": label}
    for name in order:
        row[name] = bitwidths[name]
    return row


def savings_row(
    label: str,
    effective_input: float,
    effective_mac: float,
    bw_save_pct: Optional[float] = None,
    energy_save_pct: Optional[float] = None,
) -> Dict[str, object]:
    """One Table III row fragment."""
    row: Dict[str, object] = {
        "scheme": label,
        "eff_input_bits": effective_input,
        "eff_mac_bits": effective_mac,
    }
    if bw_save_pct is not None:
        row["bw_save_%"] = bw_save_pct
    if energy_save_pct is not None:
        row["energy_save_%"] = energy_save_pct
    return row


def describe_profile_timings(report) -> str:
    """One-paragraph stage/cost breakdown of a ProfileReport.

    Shows the engine's per-stage wall-clock split (reference forward,
    injection replay, reduction, line fitting) and the
    per-layer replay-cost fractions that explain where the injection
    budget goes; see ``docs/performance.md``.
    """
    lines: List[str] = []
    if report.timings:
        total = sum(report.timings.values())
        parts = "  ".join(
            f"{name} {seconds:.2f}s"
            for name, seconds in report.timings.items()
        )
        jobs = f", jobs={report.jobs}" if getattr(report, "jobs", 1) != 1 else ""
        lines.append(f"stages ({total:.2f}s total{jobs}): {parts}")
    if report.replay_fractions:
        parts = "  ".join(
            f"{name} {fraction:.0%}"
            for name, fraction in sorted(
                report.replay_fractions.items(),
                key=lambda item: -item[1],
            )
        )
        lines.append(f"replay cost fractions: {parts}")
    return "\n".join(lines) if lines else "(no stage timings recorded)"


def describe_manifest(manifest: Mapping[str, object]) -> str:
    """One provenance line from an outcome's manifest dict."""
    git = str(manifest.get("git_sha") or "n/a")[:12]
    versions = manifest.get("versions") or {}
    numpy_version = (
        versions.get("numpy", "?") if isinstance(versions, Mapping) else "?"
    )
    return (
        f"manifest: config {manifest.get('config_hash', '?')}  git {git}  "
        f"seed {manifest.get('seed')}  model {manifest.get('model') or 'n/a'}"
        f"  numpy {numpy_version}"
    )


def describe_outcome(outcome, stats=None, profile_report=None) -> str:
    """Multi-line human-readable report of an OptimizationOutcome.

    Includes the sigma search evidence, per-layer formats (with xi
    shares), validation results, the run-provenance manifest, and —
    when ``stats`` is given — the effective bitwidths under both of the
    paper's objectives.  Pass the ``ProfileReport`` as
    ``profile_report`` to also include the per-stage timing breakdown.
    """
    lines: List[str] = []
    allocation = outcome.result.allocation
    manifest = getattr(outcome, "manifest", None)
    if manifest:
        lines.append(describe_manifest(manifest))
    lines.append(
        f"objective: {outcome.result.objective.name}  "
        f"sigma_YL: {outcome.result.sigma:.4f} "
        f"(search found {outcome.sigma_result.sigma:.4f} in "
        f"{outcome.sigma_result.num_evaluations} accuracy evaluations"
        + (
            f", backed off {outcome.backoff_steps}x)"
            if outcome.backoff_steps
            else ")"
        )
    )
    if getattr(outcome.result, "degraded", False):
        lines.append(
            "DEGRADED: the profiles admit no Eq. 8 solution, so xi fell "
            "back to the equal scheme; the allocation is feasible but "
            "conservative"
        )
    rows = []
    for layer in allocation:
        row: Dict[str, object] = {
            "layer": layer.name,
            "I": layer.integer_bits,
            "F": layer.fraction_bits,
            "bits": layer.total_bits,
            "xi": round(outcome.result.xi.get(layer.name, 0.0), 4),
        }
        rows.append(row)
    lines.append(format_table(rows))
    if stats is not None:
        rho_in = {name: float(stats[name].num_inputs) for name in allocation.names}
        rho_mac = {name: float(stats[name].num_macs) for name in allocation.names}
        lines.append(
            f"effective bitwidth: input-weighted "
            f"{allocation.effective_bitwidth(rho_in):.2f}, MAC-weighted "
            f"{allocation.effective_bitwidth(rho_mac):.2f}"
        )
    lines.append(
        f"accuracy: baseline {outcome.baseline_accuracy:.4f}, target "
        f"{outcome.sigma_result.target_accuracy:.4f}"
        + (
            f", quantized {outcome.validated_accuracy:.4f} "
            f"({'constraint met' if outcome.meets_constraint else 'VIOLATED'})"
            if outcome.validated_accuracy is not None
            else " (not validated)"
        )
    )
    if outcome.weight_search is not None:
        lines.append(
            f"weight bitwidth (Sec. V-E): {outcome.weight_search.bits} "
            f"({outcome.weight_search.evaluations} evaluations)"
        )
    if profile_report is not None:
        lines.append(describe_profile_timings(profile_report))
    return "\n".join(lines)
