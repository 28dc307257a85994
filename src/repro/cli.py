"""Command-line interface: the repo as a precision-optimization tool.

The paper's artifact (MUPOD) was "an open source precision optimization
framework ... integrated into Caffe"; this CLI is the equivalent entry
point for the substrate replica.  Subcommands:

``zoo``       list the model zoo and analyzed-layer counts
``check``     static graph/allocation verifier + numerical lint pass
``profile``   measure lambda/theta for every analyzed layer (Sec. V-A)
``optimize``  full pipeline for one objective + accuracy constraint
``run-quantized``  execute an allocation with the integer runtime
              (bit-packed weights + integer GEMM) and report measured
              vs analytic accuracy drop and memory traffic
``table2``    regenerate Table II (AlexNet, two objectives)
``table3``    regenerate Table III rows for chosen networks
``fig2``      linearity measurement (Fig. 2)
``fig3``      accuracy vs sigma under both schemes (Fig. 3)
``fig4``      NiN per-layer energy anatomy (Fig. 4)
``cost``      analytic vs search cost comparison (Sec. VI-A)
``sweep``     incremental grid sweep with cross-cell work sharing
              (``--workers N`` fans it out to work-stealing processes)
``worker``    attach one work-stealing worker to a distributed sweep
              run directory (any host sharing the filesystem)
``ablate``    ablation & scenario-robustness campaign with
              fault-isolated cells and measured component importance
``monitor``   live view of an in-progress run's event bus (progress,
              ETA, stragglers, cache hit-rate; optional /metrics port)
``bench``     benchmark regression ledger: record BENCH_*.json
              payloads, flag wall-clock/traffic regressions
``cache``     persistent result-cache stats / GC / integrity verify

Every subcommand accepts ``--cache-dir DIR`` (persist expensive results
content-addressed under DIR and reuse them across runs; also enabled by
``$REPRO_CACHE_DIR``) and ``--no-cache`` (force it off); see
``docs/caching.md``.

The cache is also the resume mechanism: re-running a crashed command
with the same ``--cache-dir`` restores every finished layer profile,
sigma evaluation and outcome and recomputes only the rest.

Every subcommand accepts ``--strict`` (escalate guardrail warnings and
solver degradation to hard errors); see ``docs/resilience.md``.

Run ``python -m repro <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bench.cli import add_bench_arguments, run_bench
from .cache.cli import add_cache_arguments, run_cache
from .check.cli import add_check_arguments, run_check
from .experiments import (
    AblationSpec,
    ExperimentConfig,
    SweepSpec,
    make_context,
    run_ablation_campaign,
    run_cost_comparison,
    run_fig2,
    run_fig3,
    run_fig4,
    run_suite,
    run_sweep,
    run_table2,
    run_table3,
)
from .models import MODEL_NAMES, PAPER_LAYER_COUNTS, build_model
from .pipeline import describe_manifest, describe_profile_timings, format_table


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="alexnet", help="zoo model name")
    parser.add_argument("--seed", type=int, default=20190325)
    parser.add_argument("--train-count", type=int, default=384)
    parser.add_argument("--test-count", type=int, default=256)
    parser.add_argument("--profile-images", type=int, default=24)
    parser.add_argument("--profile-points", type=int, default=8)
    parser.add_argument(
        "--scheme",
        choices=["scheme1", "scheme2"],
        default="scheme1",
        help="accuracy test for the sigma search (Sec. V-C)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker count for the injection engine's layer-level pool "
            "(results are bit-identical for any N; see "
            "docs/performance.md)"
        ),
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help=(
            "escalate numerical guardrail warnings and solver "
            "degradation to hard errors (no equal-xi fallback)"
        ),
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help=(
            "collect tracing spans and metrics for this run (numerical "
            "results stay bit-identical; see docs/observability.md)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        default="",
        metavar="PATH",
        help=(
            "write the run's JSONL trace (spans + manifest + metrics) "
            "to PATH; implies --telemetry"
        ),
    )
    parser.add_argument(
        "--events-dir",
        default="",
        metavar="DIR",
        help=(
            "append live lifecycle events (cell/stage queued, running, "
            "cached-hit, done, failed) to DIR/events.jsonl while the "
            "run executes; `repro monitor DIR` tails them"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default="",
        metavar="DIR",
        help=(
            "persist expensive results (fits, sigma "
            "evaluations, outcomes) content-addressed under DIR and "
            "reuse them across runs; $REPRO_CACHE_DIR also enables "
            "this (see docs/caching.md)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="force the persistent result cache off",
    )


def _config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        model=args.model,
        train_count=args.train_count,
        test_count=args.test_count,
        profile_images=args.profile_images,
        profile_points=args.profile_points,
        scheme=args.scheme,
        seed=args.seed,
        strict=args.strict,
        jobs=args.jobs,
        telemetry=args.telemetry,
        trace_out=args.trace_out,
        events_dir=args.events_dir,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
    )


def _export_trace(context) -> None:
    """Write the optimizer's trace when ``--trace-out`` was given."""
    path = context.optimizer.telemetry.export()
    if path is not None:
        print(f"trace written to {path}")


def _print_cache_summary(context) -> None:
    """One-line hit/miss accounting when the persistent cache is on."""
    cache = context.optimizer.cache
    if cache is not None:
        print(cache.describe())


# ----------------------------------------------------------------------
def cmd_zoo(args: argparse.Namespace) -> int:
    rows = []
    for name in MODEL_NAMES:
        network = build_model(name)
        rows.append(
            {
                "model": name,
                "analyzed_layers": len(network.analyzed_layer_names),
                "paper_layers": PAPER_LAYER_COUNTS[name],
                "total_layers": len(network),
                "parameters": network.num_parameters(),
            }
        )
    print(format_table(rows))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    context = make_context(_config(args))
    report = context.optimizer.profile()
    rows = [
        {
            "layer": p.name,
            "lambda": p.lam,
            "theta": p.theta,
            "R^2": p.r_squared,
            "max_rel_err": p.max_relative_error,
        }
        for p in report
    ]
    print(format_table(rows, float_format="{:.4g}"))
    print(
        f"profiled {report.num_images} images in "
        f"{report.elapsed_seconds:.1f}s; worst fit "
        f"{report.worst_fit().max_relative_error:.1%}"
    )
    print(describe_profile_timings(report))
    _print_cache_summary(context)
    _export_trace(context)
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    context = make_context(_config(args))
    outcome = context.optimizer.optimize(
        args.objective,
        accuracy_drop=args.drop,
        search_weights=args.weights,
    )
    rows = [
        {
            "layer": name,
            "bits": bits,
            "xi": round(outcome.result.xi[name], 4),
        }
        for name, bits in outcome.bitwidths.items()
    ]
    print(format_table(rows))
    print(
        f"sigma_YL={outcome.sigma_result.sigma:.4f}  "
        f"baseline acc {outcome.baseline_accuracy:.3f}  "
        f"quantized acc {outcome.validated_accuracy:.3f}  "
        f"constraint {'met' if outcome.meets_constraint else 'VIOLATED'}"
    )
    if outcome.degraded:
        print(
            "WARNING: xi optimization degraded to the equal scheme "
            "(the profiles admit no Eq. 8 solution); allocation is "
            "conservative"
        )
    if outcome.weight_search is not None:
        print(f"weight bitwidth (Sec. V-E search): {outcome.weight_search.bits}")
    if args.output:
        from .quant import save_allocation

        provenance = {
            "model": args.model,
            "objective": args.objective,
            "accuracy_drop": args.drop,
            "sigma": outcome.result.sigma,
            "baseline_accuracy": outcome.baseline_accuracy,
            "validated_accuracy": outcome.validated_accuracy,
            "degraded": outcome.degraded,
        }
        path = save_allocation(
            outcome.result.allocation, args.output, provenance=provenance
        )
        print(f"allocation written to {path}")
    if outcome.manifest:
        print(describe_manifest(outcome.manifest))
    _print_cache_summary(context)
    _export_trace(context)
    return 0 if outcome.meets_constraint else 1


def cmd_run_quantized(args: argparse.Namespace) -> int:
    """Execute an allocation end to end on the integer runtime.

    The pipeline's accuracy numbers come from *simulated* quantization
    (float forward with rounding taps); this command runs the real
    thing — bit-packed weights, integer GEMMs, per-layer requantization
    — and cross-checks measured accuracy drop and measured activation
    traffic against the analytic predictions.  Exit code 1 when the
    measured drop exceeds the budget.
    """
    import numpy as np

    from .hardware.bandwidth import layer_traffic_bits
    from .models.evaluate import relative_drop
    from .quant import load_allocation
    from .quant.runtime import RuntimeSpec, build_quantized_network

    context = make_context(_config(args))
    baseline = context.optimizer.baseline_accuracy()
    simulated_accuracy = None
    if args.allocation:
        allocation = load_allocation(args.allocation)
    else:
        outcome = context.optimizer.optimize(
            args.objective, accuracy_drop=args.drop
        )
        allocation = outcome.result.allocation
        simulated_accuracy = outcome.validated_accuracy
    spec = RuntimeSpec(
        weight_bits=args.weight_bits,
        backend=args.backend,
        pack_activations=not args.no_pack,
    )
    quantized = build_quantized_network(
        context.network, allocation, spec, cache=context.optimizer.cache
    )
    predictions = quantized.predict(
        context.test.images, batch_size=args.batch_size
    )
    measured = float(np.mean(predictions == context.test.labels))
    measured_drop = relative_drop(baseline, measured)

    analytic_bits = layer_traffic_bits(context.optimizer.stats(), allocation)
    measured_bits = quantized.measured_input_bits()
    rows = [
        {
            "layer": entry.name,
            "bits": entry.total_bits,
            "analytic_kB": analytic_bits[entry.name] / 8192.0,
            "measured_kB": measured_bits[entry.name] / 8192.0,
        }
        for entry in allocation
    ]
    print(format_table(rows, float_format="{:.3f}"))
    print(
        f"packed weights: {quantized.packed_weight_nbytes()} B "
        f"({spec.weight_bits}-bit, backend={spec.backend})"
    )
    print(
        f"baseline acc {baseline:.3f}  quantized acc {measured:.3f}  "
        f"measured drop {measured_drop:.2%} (budget {args.drop:.2%})"
    )
    if simulated_accuracy is not None:
        print(
            f"simulated (tap) acc {simulated_accuracy:.3f}  "
            f"runtime-vs-sim gap {measured - simulated_accuracy:+.3f}"
        )
    budget_met = measured_drop <= args.drop + 1e-9
    print(f"accuracy budget {'met' if budget_met else 'VIOLATED'}")
    _print_cache_summary(context)
    _export_trace(context)
    return 0 if budget_met else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    models = args.models.split(",") if args.models else [args.model]
    spec = SweepSpec(
        models=tuple(models),
        accuracy_drops=tuple(float(d) for d in args.drops.split(",")),
        objectives=tuple(args.objectives.split(",")),
    )
    if args.workers > 1 or args.run_dir:
        from .cache.leases import LeaseSettings
        from .experiments.distributed import (
            DistributedSettings,
            run_sweep_distributed,
        )

        report = run_sweep_distributed(
            spec,
            config=_config(args),
            distribution=DistributedSettings(workers=args.workers),
            lease=LeaseSettings(ttl_seconds=args.lease_ttl),
            run_dir=args.run_dir or None,
        )
    else:
        report = run_sweep(spec, config=_config(args))
    for line in report.lines():
        print(line)
    if args.output:
        import json

        from pathlib import Path

        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "cells": report.rows(),
                    "elapsed_seconds": report.elapsed_seconds,
                    "cache_counters": report.cache_counters,
                    "cache_dir": report.cache_dir,
                },
                indent=2,
            )
        )
        print(f"sweep results written to {path}")
    return 1 if report.failed else 0


def cmd_worker(args: argparse.Namespace) -> int:
    from .cache.leases import LeaseSettings
    from .experiments.distributed import run_worker

    report = run_worker(
        args.run_dir,
        worker_id=args.worker_id or None,
        settings=LeaseSettings(
            ttl_seconds=args.lease_ttl,
            heartbeat_seconds=args.heartbeat,
            poll_seconds=args.poll,
        ),
        max_cells=args.max_cells,
        progress=True,
    )
    print(
        f"worker {report.worker_id}: {report.cells_published} cells "
        f"published ({report.leases_stolen} leases stolen) in "
        f"{report.elapsed_seconds:.2f}s"
    )
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    models = args.models.split(",") if args.models else [args.model]
    config = _config(args)
    if args.smoke:
        from dataclasses import replace

        config = replace(
            config,
            num_classes=8,
            train_count=96,
            test_count=48,
            profile_images=8,
            profile_points=4,
            search_trials=1,
        )
    spec = AblationSpec(
        models=tuple(models),
        accuracy_drop=args.drop,
        objective=args.objective,
        components=(
            tuple(args.components.split(",")) if args.components else None
        ),
        scenarios=(
            tuple(args.scenarios.split(",")) if args.scenarios else ()
        ),
        chaos_cells=tuple(args.chaos_cell),
    )
    report = run_ablation_campaign(spec, config=config, progress=True)
    for line in report.lines():
        print(line)
    manifest = report.manifest
    if manifest:
        print(f"campaign config {manifest.get('config_hash', 'n/a')}")
    if args.output:
        import json

        from pathlib import Path

        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report.as_dict(), indent=2))
        print(f"campaign report written to {path}")
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    result = run_table2(_config(args), accuracy_drop=args.drop)
    print(format_table(result.rows()))
    print(
        f"input-bit saving {result.input_saving_percent:+.1f}%  "
        f"MAC-bit saving {result.mac_saving_percent:+.1f}%  "
        f"sigma={result.sigma:.3f}"
    )
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    models = args.models.split(",") if args.models else MODEL_NAMES[:4]
    drops = [float(d) for d in args.drops.split(",")]
    rows = run_table3(
        models, drops, config=_config(args), baseline=args.baseline
    )
    print(format_table([r.as_dict() for r in rows]))
    return 0


def cmd_fig2(args: argparse.Namespace) -> int:
    result = run_fig2(_config(args))
    print(format_table(result.summary_rows(), float_format="{:.4g}"))
    print(
        f"median max-rel-err {result.median_relative_error:.1%}, "
        f"worst {result.worst_relative_error:.1%}"
    )
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    result = run_fig3(_config(args))
    print(format_table(result.rows(), float_format="{:.3f}"))
    print(
        f"output error: std={result.error_std:.3f} "
        f"excess_kurtosis={result.error_excess_kurtosis:.3f}"
    )
    return 0


def cmd_fig4(args: argparse.Namespace) -> int:
    result = run_fig4(_config(args), accuracy_drop=args.drop)
    print(format_table(result.rows, float_format="{:.0f}"))
    print(
        f"energy saving {result.energy_save_percent:+.1f}%  "
        f"bandwidth change {result.bandwidth_change_percent:+.1f}%"
    )
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    only = args.only.split(",") if args.only else None
    results = run_suite(
        _config(args),
        table3_models=args.models.split(",") if args.models else ("alexnet",),
        only=only,
        output_dir=args.output or None,
        verbose=True,
    )
    timings = results["_timings"]
    total = sum(timings.values())
    print(f"suite finished: {len(timings)} experiments in {total:.1f}s")
    if args.output:
        print(f"artifacts in {args.output}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Summarize or validate a JSONL trace file (``--trace-out``)."""
    from .telemetry import read_events, render_summary, validate_path

    if args.action == "validate":
        problems = validate_path(args.trace)
        if problems:
            for problem in problems:
                print(problem)
            return 1
        print(f"{args.trace}: all events valid")
        return 0
    # Summarize must degrade gracefully: a missing, empty, or mid-write
    # truncated trace gets a clear message and exit 1, not a traceback.
    try:
        events = read_events(args.trace, skip_partial_tail=True)
    except OSError as exc:
        print(f"trace summarize: cannot read {args.trace}: {exc}")
        return 1
    except ValueError as exc:
        print(f"trace summarize: {args.trace} is not a valid trace: {exc}")
        return 1
    if not events:
        print(
            f"trace summarize: {args.trace} contains no complete events "
            "(empty or still being written)"
        )
        return 1
    print(render_summary(events, max_depth=args.max_depth or None))
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    """Tail a run's event bus: progress, ETA, stragglers, /metrics."""
    import threading
    import time

    from .telemetry.events import discover_event_files
    from .telemetry.live import (
        MetricsEndpoint,
        RunMonitor,
        render_status,
        update_metrics,
    )

    if args.self_scrape and args.metrics_port is None:
        print("monitor: --self-scrape requires --metrics-port")
        return 1
    files = discover_event_files(args.run_dir)
    if not files:
        print(
            f"monitor: no event files (events*.jsonl) under "
            f"{args.run_dir}; run with --events-dir to emit them"
        )
        return 1
    monitor = RunMonitor(args.run_dir)
    lock = threading.Lock()

    def render() -> str:
        # Scrapes arrive on endpoint threads while the main loop polls.
        with lock:
            monitor.poll()
            return update_metrics(monitor.state).render_prometheus()

    endpoint = None
    if args.metrics_port is not None:
        endpoint = MetricsEndpoint(render, port=args.metrics_port).start()
        print(
            f"serving metrics on http://{endpoint.host}:{endpoint.port}"
            "/metrics"
        )
    try:
        if args.self_scrape:
            import urllib.request

            assert endpoint is not None
            url = f"http://{endpoint.host}:{endpoint.port}/metrics"
            with urllib.request.urlopen(url, timeout=10) as response:
                body = response.read().decode("utf-8")
            print(body, end="")
            return 0 if "repro_monitor_cells_total" in body else 1
        while True:
            with lock:
                monitor.poll()
                status = render_status(
                    monitor.state,
                    straggler_factor=args.straggler_factor,
                )
            print(status)
            if args.once or monitor.state.finished:
                break
            print()
            time.sleep(args.interval)
    finally:
        if endpoint is not None:
            if args.serve_seconds > 0:  # pragma: no cover - interactive
                time.sleep(args.serve_seconds)
            endpoint.stop()
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    result = run_cost_comparison(_config(args), accuracy_drop=args.drop)
    print(
        f"analytic: {result.analytic_total_seconds:.1f}s, "
        f"{result.analytic_accuracy_evaluations} accuracy evals\n"
        f"search:   {result.search_seconds:.1f}s, "
        f"{result.search_accuracy_evaluations} accuracy evals\n"
        f"ratio: {result.evaluation_ratio:.1f}x"
    )
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zoo", help="list the model zoo")
    p.set_defaults(func=cmd_zoo)

    p = sub.add_parser(
        "check",
        help="static graph/allocation verifier + numerical lint pass",
        description="Static analysis: verify a model pipeline (graph "
        "structure, shapes, dtypes, ranges, allocation audits) or lint "
        "source files.  See docs/static-analysis.md.",
    )
    add_check_arguments(p)
    p.set_defaults(func=run_check)

    p = sub.add_parser("profile", help="measure lambda/theta (Sec. V-A)")
    _add_common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("optimize", help="full pipeline for one objective")
    _add_common(p)
    p.add_argument("--objective", choices=["input", "mac"], default="input")
    p.add_argument("--drop", type=float, default=0.01)
    p.add_argument(
        "--weights", action="store_true", help="also search weight bitwidth"
    )
    p.add_argument(
        "--output", default="", help="write the allocation JSON to this path"
    )
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser(
        "run-quantized",
        help="execute an allocation on the integer low-bit runtime",
        description="Run a bitwidth allocation for real: quantize "
        "weights into bit-packed buffers, execute conv/dense layers as "
        "integer GEMMs with per-layer requantization, and report "
        "measured vs analytic accuracy drop and activation traffic.  "
        "Without --allocation the full optimization pipeline runs "
        "first.  Exit 1 when the measured drop exceeds --drop.  See "
        "docs/quantized-execution.md.",
    )
    _add_common(p)
    p.add_argument(
        "--allocation",
        default="",
        metavar="FILE",
        help="allocation JSON from `optimize --output` "
        "(default: run the optimizer first)",
    )
    p.add_argument("--objective", choices=["input", "mac"], default="input")
    p.add_argument(
        "--drop",
        type=float,
        default=0.01,
        help="relative accuracy-drop budget the measured drop is "
        "checked against",
    )
    p.add_argument(
        "--weight-bits",
        type=int,
        default=16,
        help="packed weight word length (2-16)",
    )
    p.add_argument(
        "--backend",
        choices=["reference", "fast"],
        default="fast",
        help="integer-GEMM backend (bit-identical)",
    )
    p.add_argument(
        "--no-pack",
        action="store_true",
        help="skip moving activations through packed buffers "
        "(results identical; traffic counted analytically)",
    )
    p.add_argument("--batch-size", type=int, default=64)
    p.set_defaults(func=cmd_run_quantized)

    p = sub.add_parser("table2", help="regenerate Table II")
    _add_common(p)
    p.add_argument("--drop", type=float, default=0.01)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("table3", help="regenerate Table III rows")
    _add_common(p)
    p.add_argument("--models", default="", help="comma-separated zoo names")
    p.add_argument("--drops", default="0.01,0.05")
    p.add_argument("--baseline", choices=["uniform", "search"], default="uniform")
    p.set_defaults(func=cmd_table3)

    p = sub.add_parser("fig2", help="linearity measurement (Fig. 2)")
    _add_common(p)
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("fig3", help="accuracy vs sigma (Fig. 3)")
    _add_common(p)
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("fig4", help="NiN energy anatomy (Fig. 4)")
    _add_common(p)
    p.add_argument("--drop", type=float, default=0.05)
    p.set_defaults(func=cmd_fig4)

    p = sub.add_parser(
        "trace",
        help="summarize or validate a JSONL telemetry trace",
        description="Inspect a trace produced with --trace-out: "
        "'summarize' renders the span tree with total/self times; "
        "'validate' schema-checks every event.  See "
        "docs/observability.md.",
    )
    p.add_argument("action", choices=["summarize", "validate"])
    p.add_argument("trace", help="path to the .jsonl trace file")
    p.add_argument(
        "--max-depth",
        type=int,
        default=0,
        help="limit the rendered span tree depth (0 = unlimited)",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "monitor",
        help="live view of an in-progress run's event bus",
        description="Tail the events*.jsonl files a run writes with "
        "--events-dir and render progress, ETA, straggler cells, cache "
        "hit rate, and failures.  --metrics-port serves the same state "
        "as a Prometheus text exposition at /metrics.  Safe to run "
        "while the emitting process is mid-write.  See "
        "docs/observability.md.",
    )
    p.add_argument(
        "run_dir",
        help="directory containing events*.jsonl (an --events-dir), "
        "or one event file",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="render a single status block and exit (CI / scripting)",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="poll interval for the live view (default 2s)",
    )
    p.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve GET /metrics on this port (0 = ephemeral)",
    )
    p.add_argument(
        "--serve-seconds",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the metrics endpoint up this long after the view "
        "exits (default 0)",
    )
    p.add_argument(
        "--self-scrape",
        action="store_true",
        help="scrape this monitor's own /metrics once, print the "
        "payload, and exit (CI smoke; requires --metrics-port)",
    )
    p.add_argument(
        "--straggler-factor",
        type=float,
        default=3.0,
        metavar="X",
        help="flag running cells slower than X times the mean cell "
        "time (default 3)",
    )
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser(
        "bench",
        help="benchmark regression ledger: record / report",
        description="Maintain a history of BENCH_*.json payloads keyed "
        "by manifest provenance (git SHA, config hash) and flag "
        "wall-clock / traffic regressions between the two most recent "
        "entries of each series.  'report' is non-blocking by default; "
        "--strict exits 1 on findings.  See docs/observability.md.",
    )
    add_bench_arguments(p)
    p.set_defaults(func=run_bench)

    p = sub.add_parser("cost", help="analytic vs search cost (Sec. VI-A)")
    _add_common(p)
    p.add_argument("--drop", type=float, default=0.05)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser(
        "sweep",
        help="incremental grid sweep with cross-cell work sharing",
        description="Run a (model x drop x objective) grid through one "
        "optimizer per model, sharing profiles, stats, and sigma "
        "evaluations across cells — and across runs with --cache-dir.  "
        "Bit-identical to looping `repro optimize` per cell.  A crashing "
        "cell becomes a [FAILED] row and the rest still run (--strict "
        "fails fast); the exit status is 1 when any cell failed.  See "
        "docs/caching.md.",
    )
    _add_common(p)
    p.add_argument(
        "--models",
        default="",
        help="comma-separated zoo names (default: --model)",
    )
    p.add_argument("--drops", default="0.01,0.05")
    p.add_argument("--objectives", default="input,mac")
    p.add_argument("--output", default="", help="write cell JSON here")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "fan the grid out to N local work-stealing worker "
            "processes coordinating through lease files (rows are "
            "bit-identical for any N; see docs/distributed.md)"
        ),
    )
    p.add_argument(
        "--run-dir",
        default="",
        metavar="DIR",
        help=(
            "distributed run directory (plan, leases, published cells, "
            "per-worker event shards); reusing a DIR resumes it cell-"
            "granularly, and `repro worker DIR` attaches more workers "
            "— including from other hosts sharing the filesystem"
        ),
    )
    p.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help=(
            "seconds without a heartbeat before a worker's cell lease "
            "expires and the cell is re-dispatched"
        ),
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "worker",
        help="attach a work-stealing worker to a distributed sweep",
        description="Attach one worker to an existing distributed run "
        "directory (created by `repro sweep --workers N --run-dir "
        "DIR`): scan the plan's pending cells, claim one at a time via "
        "an atomic lease file, execute it through the scheduler cell "
        "path, publish the row atomically, and exit when every cell "
        "has a published result.  Run any number of these, on any "
        "host sharing the directory.  See docs/distributed.md.",
    )
    p.add_argument("run_dir", help="distributed run directory")
    p.add_argument(
        "--worker-id",
        default="",
        help="stable worker name (default: generated from pid)",
    )
    p.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="lease TTL (must match across workers of one run)",
    )
    p.add_argument(
        "--heartbeat",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="heartbeat period (default: TTL / 4)",
    )
    p.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="idle rescan period while other workers hold all leases",
    )
    p.add_argument(
        "--max-cells",
        type=int,
        default=0,
        metavar="N",
        help="claim at most N cells, then exit (0 = unlimited)",
    )
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "ablate",
        help="ablation & scenario-robustness campaign",
        description="Run the ablation matrix (baseline + one variant "
        "per toggled component) and optional scenario cells for the "
        "chosen models, with every cell fault-isolated: a crash "
        "becomes a structured failed row and the rest of the campaign "
        "completes.  Re-running with the same --cache-dir resumes: cells "
        "whose outcome is cached are restored, the rest re-execute; "
        "--strict restores fail-fast.  See docs/robustness.md.",
    )
    _add_common(p)
    p.add_argument(
        "--models",
        default="",
        help="comma-separated zoo names (default: --model)",
    )
    p.add_argument("--drop", type=float, default=0.05)
    p.add_argument("--objective", choices=["input", "mac"], default="input")
    p.add_argument(
        "--components",
        default="",
        help=(
            "comma-separated component toggles to ablate "
            "(xi,cache,scheme,backend; default all)"
        ),
    )
    p.add_argument(
        "--scenarios",
        default="",
        help=(
            "comma-separated scenario names to run "
            "(e.g. input:noise,weights:noise,topology:tiny,drop:tight)"
        ),
    )
    p.add_argument(
        "--chaos-cell",
        action="append",
        default=[],
        metavar="CELL_ID",
        help=(
            "inject a simulated crash into this cell (repeatable); "
            "proves the fault-isolation contract end-to-end"
        ),
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="tiny substrate sizes for CI smoke runs",
    )
    p.add_argument(
        "--output", default="", help="write the campaign report JSON here"
    )
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser(
        "cache",
        help="persistent result-cache stats / GC / verify",
        description="Operate on a persistent result cache directory: "
        "'stats' prints entry/byte counts per namespace, 'gc' evicts "
        "least-recently-used entries down to --max-bytes, 'verify' "
        "re-checksums every entry (exit 1 on corruption).  See "
        "docs/caching.md.",
    )
    add_cache_arguments(p)
    p.set_defaults(func=run_cache)

    p = sub.add_parser("suite", help="run the full evaluation suite")
    _add_common(p)
    p.add_argument("--only", default="", help="comma-separated experiments")
    p.add_argument("--models", default="", help="models for the table3 part")
    p.add_argument("--output", default="", help="export JSON artifacts here")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
