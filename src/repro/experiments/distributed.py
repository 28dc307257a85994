"""Distributed sweep execution: work-stealing workers over the shared store.

The incremental scheduler (:mod:`repro.experiments.scheduler`) removes
*rework* from a sweep; this module removes the *single process*.  A
distributed sweep is a directory — the **run directory**, typically
inside or beside the content-addressed store — that any number of
worker processes, on any number of hosts sharing that filesystem,
attach to:

``sweep-plan.json``
    The grid (``SweepSpec``), the substrate configuration
    (``ExperimentConfig``), and a fingerprint over every
    result-determining field (selected via the key-field registry).  A
    worker refuses to attach when its plan's fingerprint disagrees —
    mixing configurations in one run directory would silently corrupt
    the report.
``cells/<slug>.json``
    One published result per finished cell, written atomically
    (temp file + ``os.replace``).  Publication is **idempotent**: a
    cell's row is a pure function of the plan (timing and worker
    attribution aside), so duplicate completion republishes identical
    rows and the last writer wins.
``leases/<slug>.lease``
    In-flight claims (:mod:`repro.cache.leases`): O_CREAT|O_EXCL
    acquisition, mtime heartbeats, TTL expiry, atomic steal.  A worker
    SIGKILLed mid-cell stops heartbeating; after the TTL any other
    worker steals the lease and re-executes the cell.
``events-<worker>.jsonl``
    Per-worker event-bus shards (plus ``events-coordinator.jsonl``),
    discoverable by :func:`repro.telemetry.events.discover_event_files`
    — ``repro monitor <run-dir>`` aggregates them into one live view.
``workers/<worker>.json`` / ``manifest.json``
    Per-worker resource-profiler samples, folded into the run manifest
    by the coordinator.

**Work stealing** is scan-and-claim: each worker walks the plan's cells
in grid order, skips published ones, and claims the first cell that has
no live lease.  There is no queue service and no leader — a worker that
finishes early immediately picks up the next pending cell, and a cell
whose lease expired is re-dispatched to whoever scans it next.

**Bit-identity**: a worker runs each claimed cell through the same
:class:`~repro.experiments.scheduler.CellExecutor` as the serial
:func:`~repro.experiments.scheduler.run_sweep` and publishes that
:class:`~repro.experiments.scheduler.CellRow`, so report rows are
bit-identical to the serial sweep (and to the naive per-cell loop) for
any worker count, any interleaving, and any crash/re-dispatch history.
Only timing, ``resumed`` and cache traffic vary — compare rows with
:meth:`~repro.experiments.scheduler.CellRow.identity_dict`.

See ``docs/distributed.md`` for the protocol and multi-host setup.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..cache.keys import KEY_FIELD_REGISTRY, KEYED, make_key
from ..cache.leases import (
    LEASE_SUFFIX,
    LeaseHeartbeat,
    LeaseSettings,
    acquire_lease,
    lease_is_expired,
    steal_expired_lease,
)
from ..errors import ReproError, ResumeError
from ..telemetry.events import EventBus, open_event_bus
from ..telemetry.manifest import build_manifest
from ..telemetry.resources import sample_resources
from ..telemetry.session import Telemetry
from .common import ExperimentConfig, make_context
from .scheduler import (
    Cell,
    CellExecutor,
    CellRow,
    SweepReport,
    SweepSpec,
    sweep_cell_id,
)

PathLike = Union[str, Path]
GridCell = Tuple[str, float, str]

#: Bumped when the run-directory layout changes incompatibly (2: cells
#: publish :meth:`~repro.experiments.scheduler.CellRow.as_dict`).
DISTRIBUTED_SCHEMA_VERSION = 2

PLAN_FILE = "sweep-plan.json"
MANIFEST_FILE = "manifest.json"
CELLS_DIR = "cells"
LEASES_DIR = "leases"
WORKERS_DIR = "workers"
COORDINATOR_EVENTS = "events-coordinator.jsonl"


@dataclass(frozen=True)
class DistributedSettings:
    """Coordinator-side fan-out knobs.

    ``workers`` and ``spawn`` are excluded from cache keys by the
    executor's determinism contract: rows are bit-identical for any
    worker count and spawn mechanism.
    """

    #: Local workers the coordinator launches (more may attach).
    workers: int = 1
    #: "subprocess" (``repro worker`` child processes, the production
    #: path) or "thread" (in-process worker loops; used by tests and
    #: race harnesses — cells still coordinate only through files).
    spawn: str = "subprocess"


@dataclass(frozen=True)
class SweepPlan:
    """The published description every worker executes against."""

    spec: SweepSpec
    config: ExperimentConfig
    fingerprint: str
    #: Benchmark/test mode: replace cell execution with a deterministic
    #: synthetic payload that sleeps this long.  Measures the
    #: coordination layer itself (claim, heartbeat, publish) with
    #: latency-bound cells; 0 (the default) runs real cells.
    synthetic_seconds: float = 0.0


def _registry_keyed_fields(obj: Any, class_name: str) -> Dict[str, Any]:
    """The KEYED fields of a registered dataclass, by registry."""
    table = KEY_FIELD_REGISTRY[class_name]
    out: Dict[str, Any] = {}
    for name, disposition in sorted(table.items()):
        if disposition == KEYED:
            value = getattr(obj, name)
            if isinstance(value, tuple):
                value = list(value)
            out[name] = value
    return out


def plan_fingerprint(
    spec: SweepSpec,
    config: ExperimentConfig,
    synthetic_seconds: float = 0.0,
) -> str:
    """Content-addressed identity of a distributed run.

    Folds exactly the registry-KEYED fields of the spec and config —
    the fields that can change result bits — plus the synthetic-mode
    knob.  Worker counts, lease timing, telemetry, and cache wiring are
    excluded: they never change what a cell computes.
    """
    return make_key(
        {
            "kind": "distributed-sweep",
            "schema": DISTRIBUTED_SCHEMA_VERSION,
            "spec": _registry_keyed_fields(spec, "SweepSpec"),
            "config": _registry_keyed_fields(config, "ExperimentConfig"),
            "synthetic_seconds": float(synthetic_seconds),
        }
    )


def cell_slug(model: str, drop: float, objective: str) -> str:
    """Filesystem-safe unique name of one grid cell."""
    return f"{model}__drop{drop:g}__{objective}"


def _atomic_write_json(path: Path, payload: Any) -> None:
    """Write-then-rename publication (atomic on POSIX)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# Plan publication / attachment
# ----------------------------------------------------------------------
def publish_plan(
    run_dir: PathLike,
    spec: SweepSpec,
    config: ExperimentConfig,
    synthetic_seconds: float = 0.0,
) -> SweepPlan:
    """Create (or validate and reuse) a run directory's plan.

    Re-publishing into an existing run directory is the **resume**
    path: the plan must fingerprint-match, published cells are kept,
    and only missing cells execute.  A mismatch is refused — a run
    directory binds to exactly one configuration.
    """
    run_path = Path(run_dir)
    plan = SweepPlan(
        spec=spec,
        config=config,
        fingerprint=plan_fingerprint(spec, config, synthetic_seconds),
        synthetic_seconds=float(synthetic_seconds),
    )
    plan_path = run_path / PLAN_FILE
    if plan_path.exists():
        existing = load_plan(run_dir)
        if existing.fingerprint != plan.fingerprint:
            raise ResumeError(
                f"run directory {run_path} holds a different sweep "
                f"(plan fingerprint {existing.fingerprint[:12]} != "
                f"{plan.fingerprint[:12]}); use a fresh --run-dir or "
                "delete the old one"
            )
        return existing
    payload = {
        "schema": DISTRIBUTED_SCHEMA_VERSION,
        "fingerprint": plan.fingerprint,
        "synthetic_seconds": plan.synthetic_seconds,
        "spec": {
            "models": list(spec.models),
            "accuracy_drops": [float(d) for d in spec.accuracy_drops],
            "objectives": list(spec.objectives),
        },
        "config": dataclasses.asdict(config),
    }
    _atomic_write_json(plan_path, payload)
    return plan


def load_plan(run_dir: PathLike) -> SweepPlan:
    """Attach to a run directory; raises when no valid plan exists.

    Every way a plan can be unusable — unreadable, not JSON, another
    schema, malformed fields, a stale fingerprint — raises
    :class:`~repro.errors.ResumeError` naming the plan file.
    """
    plan_path = Path(run_dir) / PLAN_FILE
    try:
        payload = json.loads(plan_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ResumeError(
            f"{plan_path} is not a distributed sweep run directory "
            f"(no readable plan): {exc}"
        ) from exc
    except ValueError as exc:
        raise ResumeError(f"{plan_path} is not valid JSON: {exc}") from exc
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != DISTRIBUTED_SCHEMA_VERSION:
        raise ResumeError(
            f"{plan_path}: plan schema {schema!r} is not "
            f"{DISTRIBUTED_SCHEMA_VERSION}"
        )
    try:
        spec_raw = payload["spec"]
        spec = SweepSpec(
            models=tuple(str(m) for m in spec_raw["models"]),
            accuracy_drops=tuple(
                float(d) for d in spec_raw["accuracy_drops"]
            ),
            objectives=tuple(str(o) for o in spec_raw["objectives"]),
        )
        config = ExperimentConfig(**payload["config"])
        synthetic = float(payload.get("synthetic_seconds", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        # Unknown or missing fields, wrong container types: a plan
        # written by another code version or edited by hand.
        raise ResumeError(f"{plan_path}: malformed plan: {exc!r}") from exc
    fingerprint = plan_fingerprint(spec, config, synthetic)
    if fingerprint != payload.get("fingerprint"):
        raise ResumeError(
            f"{plan_path}: stored fingerprint does not match the "
            "recomputed one; the plan file was edited or the code "
            "version changed (CODE_SALT) — start a fresh run directory"
        )
    return SweepPlan(
        spec=spec,
        config=config,
        fingerprint=fingerprint,
        synthetic_seconds=synthetic,
    )


# ----------------------------------------------------------------------
# Cell publication
# ----------------------------------------------------------------------
def result_path(run_dir: PathLike, cell: GridCell) -> Path:
    return Path(run_dir) / CELLS_DIR / (cell_slug(*cell) + ".json")


def lease_path(run_dir: PathLike, cell: GridCell) -> Path:
    return Path(run_dir) / LEASES_DIR / (cell_slug(*cell) + LEASE_SUFFIX)


def load_cell_row(
    run_dir: PathLike, cell: GridCell
) -> Optional[Dict[str, Any]]:
    """A published cell row, or None (missing/torn = not published)."""
    try:
        payload = json.loads(
            result_path(run_dir, cell).read_text(encoding="utf-8")
        )
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    return payload


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------
def _synthetic_cell_row(plan: SweepPlan, cell: Cell) -> CellRow:
    """Deterministic pseudo-result for coordination-layer benchmarks.

    Values are pure functions of (fingerprint, cell), so synthetic rows
    obey the same identity contract as real ones: any worker count and
    any re-dispatch history publishes identical rows.
    """
    import hashlib

    drop = cell.accuracy_drop
    slug = cell_slug(cell.model, drop, cell.objective)
    digest = hashlib.sha256(
        f"{plan.fingerprint}/{slug}".encode("utf-8")
    ).hexdigest()
    unit = int(digest[:8], 16) / float(2**32)
    time.sleep(plan.synthetic_seconds)
    return cell.row(
        sigma=round(0.05 + 0.5 * unit, 6),
        effective_input_bits=round(4.0 + 8.0 * unit, 6),
        effective_mac_bits=round(8.0 + 16.0 * unit, 6),
        baseline_accuracy=1.0,
        validated_accuracy=round(1.0 - drop * unit, 6),
        target_accuracy=round(1.0 - drop, 6),
        bitwidths={"synthetic": 8},
        degraded=False,
    )


def cell_executor(
    plan: SweepPlan, telemetry: Optional[Telemetry] = None
) -> CellExecutor:
    """The executor a worker runs its claimed cells through.

    The worker-local config strips run-level observability: the run
    directory owns the event lifecycle.  Each worker builds its own
    contexts, so a cell's cache counters are its own traffic even when
    thread workers share a process.
    """
    config = replace(plan.config, events_dir="", trace_out="")
    compute = None
    if plan.synthetic_seconds > 0:
        compute = partial(_synthetic_cell_row, plan)
    return CellExecutor(
        config,
        telemetry or Telemetry(),
        make=partial(make_context, use_cache=False),
        compute=compute,
    )


# ----------------------------------------------------------------------
# Worker loop
# ----------------------------------------------------------------------
@dataclass
class WorkerReport:
    """What one worker did before running out of work."""

    worker_id: str
    cells_claimed: int = 0
    cells_published: int = 0
    leases_stolen: int = 0
    elapsed_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "cells_claimed": self.cells_claimed,
            "cells_published": self.cells_published,
            "leases_stolen": self.leases_stolen,
            "elapsed_seconds": self.elapsed_seconds,
        }


def default_worker_id() -> str:
    return f"w{os.getpid()}-{uuid.uuid4().hex[:4]}"


def _write_worker_record(
    run_dir: Path, report: WorkerReport
) -> None:
    """Publish the worker's resource-profiler sample for the manifest."""
    record = report.as_dict()
    record["resources"] = dataclasses.asdict(sample_resources())
    _atomic_write_json(
        run_dir / WORKERS_DIR / f"{report.worker_id}.json", record
    )


def _claim_one(
    run_dir: Path,
    plan: SweepPlan,
    worker_id: str,
    settings: LeaseSettings,
    report: WorkerReport,
) -> Tuple[Optional[GridCell], Optional[Any], bool]:
    """Scan for the first claimable cell.

    Returns ``(cell, lease, pending_elsewhere)``; ``cell`` is None when
    nothing was claimable, and ``pending_elsewhere`` says whether any
    unpublished cell is still held by a live lease (so the caller
    should poll rather than exit).
    """
    pending_elsewhere = False
    for cell in plan.spec.cells():
        if result_path(run_dir, cell).exists():
            continue
        path = lease_path(run_dir, cell)
        lease = acquire_lease(path, worker_id, settings)
        if lease is None and lease_is_expired(path, settings):
            lease = steal_expired_lease(path, worker_id, settings)
            if lease is not None:
                report.leases_stolen += 1
        if lease is None:
            pending_elsewhere = True
            continue
        # The previous holder may have published between our result
        # check and the claim; the lease makes this re-check stable.
        if result_path(run_dir, cell).exists():
            lease.release()
            continue
        return cell, lease, pending_elsewhere
    return None, None, pending_elsewhere


def run_worker(
    run_dir: PathLike,
    worker_id: Optional[str] = None,
    settings: Optional[LeaseSettings] = None,
    max_cells: int = 0,
    progress: bool = False,
) -> WorkerReport:
    """Attach one work-stealing worker to a run directory.

    Claims pending cells one at a time (grid order, earliest first),
    runs each through the cell executor under a heartbeating lease,
    publishes the row atomically, and exits when every cell of the
    plan has a published result (or ``max_cells`` was reached).  A
    failing cell publishes its ``failed`` row, so a deterministically
    crashing cell is not re-dispatched forever.  Safe to run any
    number of these concurrently, on any host that shares the run
    directory.
    """
    run_path = Path(run_dir)
    plan = load_plan(run_path)
    settings = settings or LeaseSettings()
    worker_id = worker_id or default_worker_id()
    report = WorkerReport(worker_id=worker_id)
    telemetry = Telemetry()
    telemetry.event_bus = bus = EventBus(
        run_path / f"events-{worker_id}.jsonl"
    )
    executor = cell_executor(plan, telemetry)
    start = time.perf_counter()
    bus.run_started(total_cells=0, kind="worker", worker=worker_id)
    try:
        while True:
            cell, lease, pending = _claim_one(
                run_path, plan, worker_id, settings, report
            )
            if cell is None or lease is None:
                if not pending:
                    break  # every cell is published
                time.sleep(settings.poll_seconds)
                continue
            report.cells_claimed += 1
            with LeaseHeartbeat(lease, settings):
                row = executor.run(Cell(*cell))
            _atomic_write_json(result_path(run_path, cell), row.as_dict())
            lease.release()
            report.cells_published += 1
            if progress:  # pragma: no cover - console nicety
                print(f"  [{worker_id}] {row.cell_id} published")
            if max_cells and report.cells_claimed >= max_cells:
                break
    finally:
        report.elapsed_seconds = time.perf_counter() - start
        bus.run_finished(
            worker=worker_id,
            cells_claimed=report.cells_claimed,
            cells_published=report.cells_published,
            leases_stolen=report.leases_stolen,
        )
        bus.close()
        try:
            _write_worker_record(run_path, report)
        except OSError:  # pragma: no cover - record is best-effort
            pass
    return report


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
def _spawn_worker_process(
    run_dir: Path, worker_id: str, settings: LeaseSettings
) -> "subprocess.Popen[bytes]":
    """One ``repro worker`` child sharing this interpreter/environment."""
    argv = [
        sys.executable,
        "-m",
        "repro",
        "worker",
        str(run_dir),
        "--worker-id",
        worker_id,
        "--lease-ttl",
        str(settings.ttl_seconds),
        "--heartbeat",
        str(settings.heartbeat_seconds),
        "--poll",
        str(settings.poll_seconds),
    ]
    return subprocess.Popen(argv)


def collect_report(
    run_dir: PathLike, plan: Optional[SweepPlan] = None
) -> SweepReport:
    """Assemble the sweep report from published rows, in grid order.

    Row order — and therefore the rendered report — is the plan's cell
    order, independent of which worker finished which cell when.
    Raises when any cell has no published row (the run is incomplete;
    attach more workers or re-run the coordinator to finish it).
    """
    run_path = Path(run_dir)
    plan = plan or load_plan(run_path)
    report = SweepReport(cache_dir=plan.config.resolved_cache_dir())
    missing: List[str] = []
    for cell in plan.spec.cells():
        row = load_cell_row(run_path, cell)
        if row is None:
            missing.append(sweep_cell_id(*cell))
            continue
        report.cells.append(CellRow.from_dict(row))
    if missing:
        raise ReproError(
            f"distributed sweep incomplete: {len(missing)} cells have "
            f"no published result ({', '.join(missing[:4])}"
            + ("..." if len(missing) > 4 else "")
            + "); attach more workers or re-run to finish"
        )
    return report


def _worker_records(run_dir: Path) -> Dict[str, Any]:
    records: Dict[str, Any] = {}
    workers_dir = run_dir / WORKERS_DIR
    if not workers_dir.is_dir():
        return records
    for path in sorted(workers_dir.glob("*.json")):
        try:
            records[path.stem] = json.loads(
                path.read_text(encoding="utf-8")
            )
        except (OSError, ValueError):  # pragma: no cover - torn record
            continue
    return records


def write_run_manifest(
    run_dir: PathLike, plan: SweepPlan, elapsed_seconds: float
) -> Dict[str, Any]:
    """Fold per-worker resource samples into the run manifest."""
    run_path = Path(run_dir)
    manifest = build_manifest(
        config={
            "kind": "distributed-sweep",
            "fingerprint": plan.fingerprint,
            "models": list(plan.spec.models),
            "accuracy_drops": [float(d) for d in plan.spec.accuracy_drops],
            "objectives": list(plan.spec.objectives),
            "synthetic_seconds": plan.synthetic_seconds,
        },
        seed=plan.config.seed,
        model=",".join(plan.spec.models),
    )
    workers = _worker_records(run_path)
    num_cells = plan.spec.num_cells
    payload = {
        "schema": DISTRIBUTED_SCHEMA_VERSION,
        "manifest": manifest.as_dict(),
        "workers": workers,
        "num_workers": len(workers),
        "num_cells": num_cells,
        "elapsed_seconds": elapsed_seconds,
        "cells_per_second": (
            num_cells / elapsed_seconds if elapsed_seconds > 0 else 0.0
        ),
    }
    _atomic_write_json(run_path / MANIFEST_FILE, payload)
    return payload


def run_sweep_distributed(
    spec: Optional[SweepSpec] = None,
    config: Optional[ExperimentConfig] = None,
    distribution: Optional[DistributedSettings] = None,
    lease: Optional[LeaseSettings] = None,
    run_dir: Optional[PathLike] = None,
    synthetic_seconds: float = 0.0,
    progress: bool = False,
) -> SweepReport:
    """Execute a sweep grid across work-stealing workers.

    Publishes the plan into ``run_dir`` (a temporary directory when
    None), launches ``distribution.workers`` local workers, waits for
    them, and assembles the report from the published rows.  Extra
    workers — including on other hosts sharing the directory — may
    attach at any time with ``repro worker <run-dir>``.  Re-running
    against an existing run directory resumes it: published cells are
    kept, only missing ones execute.
    """
    spec = spec or SweepSpec()
    config = config or ExperimentConfig()
    distribution = distribution or DistributedSettings()
    lease = lease or LeaseSettings()
    if distribution.workers < 1:
        raise ReproError("distributed sweep needs at least one worker")
    if distribution.spawn not in ("subprocess", "thread"):
        raise ReproError(
            f"unknown spawn mechanism {distribution.spawn!r} "
            "(subprocess or thread)"
        )
    temp_dir: Optional[tempfile.TemporaryDirectory[str]] = None
    if run_dir is None:
        temp_dir = tempfile.TemporaryDirectory(prefix="repro-sweep-")
        run_dir = temp_dir.name
    run_path = Path(run_dir)
    try:
        plan = publish_plan(run_path, spec, config, synthetic_seconds)
        bus = open_event_bus(run_path, filename=COORDINATOR_EVENTS)
        start = time.perf_counter()
        bus.run_started(
            total_cells=plan.spec.num_cells,
            kind="sweep-distributed",
            workers=distribution.workers,
        )
        for cell in plan.spec.cells():
            if not result_path(run_path, cell).exists():
                bus.cell("queued", sweep_cell_id(*cell))
        try:
            worker_ids = [
                f"w{index}" for index in range(distribution.workers)
            ]
            if distribution.spawn == "thread":
                threads = [
                    threading.Thread(
                        target=run_worker,
                        args=(run_path,),
                        kwargs={"worker_id": wid, "settings": lease},
                        name=f"repro-worker-{wid}",
                    )
                    for wid in worker_ids
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            else:
                procs = [
                    _spawn_worker_process(run_path, wid, lease)
                    for wid in worker_ids
                ]
                failed = [
                    proc.args for proc in procs if proc.wait() != 0
                ]
                if failed:
                    raise ReproError(
                        f"{len(failed)} worker process(es) exited "
                        "non-zero; see their output above"
                    )
            elapsed = time.perf_counter() - start
            report = collect_report(run_path, plan)
            report.elapsed_seconds = elapsed
            write_run_manifest(run_path, plan, elapsed)
        finally:
            bus.run_finished()
            bus.close()
        if progress:  # pragma: no cover - console nicety
            for line in report.lines():
                print("  " + line)
        return report
    finally:
        if temp_dir is not None:
            temp_dir.cleanup()


__all__ = [
    "CELLS_DIR",
    "COORDINATOR_EVENTS",
    "DISTRIBUTED_SCHEMA_VERSION",
    "DistributedSettings",
    "LEASES_DIR",
    "MANIFEST_FILE",
    "PLAN_FILE",
    "SweepPlan",
    "WORKERS_DIR",
    "WorkerReport",
    "cell_slug",
    "collect_report",
    "cell_executor",
    "default_worker_id",
    "lease_path",
    "load_cell_row",
    "load_plan",
    "plan_fingerprint",
    "publish_plan",
    "result_path",
    "run_sweep_distributed",
    "run_worker",
    "write_run_manifest",
]
