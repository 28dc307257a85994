"""Distributed sweep executor: plans, workers, chaos, bit-identity.

The contract under test (``docs/distributed.md``): report rows are
bit-identical to the serial scheduler for any worker count, any claim
interleaving, and any crash/steal/re-dispatch history — only
``elapsed_seconds`` and worker attribution may differ.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cache.leases import LeaseSettings, acquire_lease
from repro.errors import ReproError, ResumeError
from repro.experiments import (
    Cell,
    ExperimentConfig,
    SweepSpec,
    clear_context_cache,
    run_sweep,
)
from repro.experiments.distributed import (
    DistributedSettings,
    cell_executor,
    cell_slug,
    collect_report,
    lease_path,
    load_cell_row,
    load_plan,
    plan_fingerprint,
    publish_plan,
    result_path,
    run_sweep_distributed,
    run_worker,
)

#: Smallest real substrate (matches tests/cache/test_scheduler.py).
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

SPEC = SweepSpec(
    models=("lenet",), accuracy_drops=(0.01, 0.05), objectives=("input", "mac")
)

#: Fast lease timing for tests; TTL still far above heartbeat.
FAST = LeaseSettings(ttl_seconds=5.0, heartbeat_seconds=0.1, poll_seconds=0.05)


def _synthetic_plan(tmp_path, spec=SPEC, seconds=0.05):
    return publish_plan(tmp_path, spec, TINY, synthetic_seconds=seconds)


def _identity_rows(report):
    return [cell.identity_dict() for cell in report.cells]


class TestPlan:
    def test_publish_then_load_roundtrip(self, tmp_path):
        plan = _synthetic_plan(tmp_path)
        loaded = load_plan(tmp_path)
        assert loaded == plan

    def test_republish_same_plan_resumes(self, tmp_path):
        first = _synthetic_plan(tmp_path)
        again = _synthetic_plan(tmp_path)
        assert again.fingerprint == first.fingerprint

    def test_mismatched_plan_refused(self, tmp_path):
        _synthetic_plan(tmp_path)
        other = replace(TINY, seed=999)
        with pytest.raises(ResumeError, match="different sweep"):
            publish_plan(tmp_path, SPEC, other, synthetic_seconds=0.05)

    def test_edited_plan_file_refused(self, tmp_path):
        _synthetic_plan(tmp_path)
        plan_file = tmp_path / "sweep-plan.json"
        payload = json.loads(plan_file.read_text())
        payload["config"]["seed"] = 4321  # result-determining edit
        plan_file.write_text(json.dumps(payload))
        with pytest.raises(ReproError, match="fingerprint"):
            load_plan(tmp_path)

    @pytest.mark.parametrize(
        "edit",
        [
            # a field this code version does not know, as in plans
            # written by older versions
            lambda payload: payload["config"].update(checkpoint="/tmp/x"),
            lambda payload: payload.pop("spec"),
            lambda payload: payload.update(config=["lenet"]),
        ],
        ids=["unknown-config-field", "missing-spec", "non-dict-config"],
    )
    def test_malformed_plan_raises_resume_error(self, tmp_path, edit):
        _synthetic_plan(tmp_path)
        plan_file = tmp_path / "sweep-plan.json"
        payload = json.loads(plan_file.read_text())
        edit(payload)
        plan_file.write_text(json.dumps(payload))
        with pytest.raises(ResumeError, match="sweep-plan.json"):
            load_plan(tmp_path)

    def test_missing_plan_is_a_clear_error(self, tmp_path):
        with pytest.raises(ReproError, match="not a distributed sweep"):
            load_plan(tmp_path)

    def test_fingerprint_keyed_fields_only(self):
        base = plan_fingerprint(SPEC, TINY)
        # Coordination/observability knobs must not change the identity.
        assert plan_fingerprint(SPEC, replace(TINY, jobs=4)) == base
        assert plan_fingerprint(SPEC, replace(TINY, events_dir="x")) == base
        assert plan_fingerprint(SPEC, replace(TINY, cache_dir="y")) == base
        # Result-determining fields must.
        assert plan_fingerprint(SPEC, replace(TINY, seed=1)) != base
        assert (
            plan_fingerprint(SweepSpec(models=("nin",)), TINY) != base
        )
        assert plan_fingerprint(SPEC, TINY, synthetic_seconds=1.0) != base


class TestWorker:
    def test_single_worker_drains_the_grid(self, tmp_path):
        plan = _synthetic_plan(tmp_path)
        report = run_worker(tmp_path, worker_id="w0", settings=FAST)
        assert report.cells_published == plan.spec.num_cells
        for cell in plan.spec.cells():
            assert result_path(tmp_path, cell).exists()
            assert not lease_path(tmp_path, cell).exists()

    def test_worker_skips_published_cells(self, tmp_path):
        _synthetic_plan(tmp_path)
        run_worker(tmp_path, worker_id="w0", settings=FAST)
        again = run_worker(tmp_path, worker_id="w1", settings=FAST)
        assert again.cells_claimed == 0

    def test_max_cells_bounds_one_workers_share(self, tmp_path):
        _synthetic_plan(tmp_path)
        report = run_worker(
            tmp_path, worker_id="w0", settings=FAST, max_cells=1
        )
        assert report.cells_claimed == 1

    def test_worker_writes_event_shard_and_record(self, tmp_path):
        _synthetic_plan(tmp_path)
        run_worker(tmp_path, worker_id="w0", settings=FAST)
        shard = tmp_path / "events-w0.jsonl"
        assert shard.exists()
        events = [
            json.loads(line) for line in shard.read_text().splitlines()
        ]
        kinds = [(e["type"], e["event"]) for e in events]
        assert ("run", "started") in kinds
        assert ("run", "finished") in kinds
        assert ("cell", "done") in kinds
        record = json.loads((tmp_path / "workers" / "w0.json").read_text())
        assert record["cells_published"] == SPEC.num_cells
        assert record["resources"]["peak_rss_bytes"] > 0

    def test_worker_waits_out_a_live_lease_then_finishes(self, tmp_path):
        plan = _synthetic_plan(
            tmp_path, spec=SweepSpec(models=("lenet",),
                                     accuracy_drops=(0.01,),
                                     objectives=("input",)),
        )
        cell = next(plan.spec.cells())
        held = acquire_lease(lease_path(tmp_path, cell), "other", FAST)

        def release_soon():
            time.sleep(0.3)
            held.release()

        releaser = threading.Thread(target=release_soon)
        releaser.start()
        report = run_worker(tmp_path, worker_id="w0", settings=FAST)
        releaser.join()
        assert report.cells_published == 1


class TestRace:
    def test_two_workers_race_one_cell_exactly_one_result(self, tmp_path):
        """Both workers contend for a single-cell grid; the loser must
        neither double-execute nor double-publish."""
        plan = _synthetic_plan(
            tmp_path,
            spec=SweepSpec(models=("lenet",), accuracy_drops=(0.01,),
                           objectives=("input",)),
            seconds=0.3,
        )
        reports = {}

        def attach(name):
            reports[name] = run_worker(
                tmp_path, worker_id=name, settings=FAST
            )

        threads = [
            threading.Thread(target=attach, args=(f"w{i}",))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        claims = sum(r.cells_claimed for r in reports.values())
        published = sum(r.cells_published for r in reports.values())
        assert claims == 1
        assert published == 1
        cell = next(plan.spec.cells())
        results = list((tmp_path / "cells").glob("*.json"))
        assert len(results) == 1
        assert load_cell_row(tmp_path, cell)["status"] == "ok"

    def test_many_workers_full_grid_identity(self, tmp_path):
        plan = _synthetic_plan(tmp_path, seconds=0.02)
        threads = [
            threading.Thread(
                target=run_worker,
                args=(tmp_path,),
                kwargs={"worker_id": f"w{i}", "settings": FAST},
            )
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        report = collect_report(tmp_path, plan)
        assert len(report.cells) == plan.spec.num_cells

    def test_duplicate_completion_publishes_identical_row(self, tmp_path):
        """A stalled worker finishing after a steal republishes the
        same bits — idempotent publication, last writer wins."""
        plan = _synthetic_plan(tmp_path)
        cell = Cell(*next(plan.spec.cells()))
        first = cell_executor(plan).run(cell)
        second = cell_executor(plan).run(cell)
        assert first.identity_dict() == second.identity_dict()


class TestChaos:
    def _spawn_worker(self, run_dir, worker_id, ttl):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker", str(run_dir),
                "--worker-id", worker_id,
                "--lease-ttl", str(ttl),
                "--heartbeat", "0.1",
                "--poll", "0.05",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def test_sigkilled_worker_lease_expires_and_cell_redispatches(
        self, tmp_path
    ):
        """The headline chaos contract: SIGKILL mid-cell, the lease
        expires after its TTL, another worker steals and re-executes,
        and the final report is bit-identical to serial."""
        spec = SweepSpec(
            models=("lenet",), accuracy_drops=(0.01, 0.05),
            objectives=("input",),
        )
        run_dir = tmp_path / "run"
        plan = publish_plan(run_dir, spec, TINY, synthetic_seconds=3.0)
        ttl = 0.8
        victim = self._spawn_worker(run_dir, "victim", ttl)
        try:
            # Wait until the victim holds a lease (is mid-cell).
            deadline = time.time() + 30.0
            leases = run_dir / "leases"
            while time.time() < deadline:
                if leases.is_dir() and list(leases.glob("*.lease")):
                    break
                time.sleep(0.05)
            held = list(leases.glob("*.lease"))
            assert held, "victim never claimed a cell"
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10)
        finally:
            if victim.poll() is None:  # pragma: no cover - cleanup
                victim.kill()
        assert not list((run_dir / "cells").glob("*.json"))
        # The orphaned lease is still on disk, heartbeat dead.
        assert list(leases.glob("*.lease"))
        rescuer = run_worker(
            run_dir,
            worker_id="rescuer",
            settings=LeaseSettings(
                ttl_seconds=ttl, heartbeat_seconds=0.1, poll_seconds=0.05
            ),
        )
        assert rescuer.leases_stolen >= 1
        assert rescuer.cells_published == spec.num_cells
        distributed = collect_report(run_dir, plan)
        serial_dir = tmp_path / "serial"
        serial_plan = publish_plan(
            serial_dir, spec, TINY, synthetic_seconds=3.0
        )
        run_worker(serial_dir, worker_id="solo", settings=FAST)
        serial = collect_report(serial_dir, serial_plan)
        assert _identity_rows(distributed) == _identity_rows(serial)

    def test_failed_cell_publishes_failure_row_not_livelock(self, tmp_path):
        """A deterministically-crashing cell must not re-dispatch
        forever: the failure row is published and the grid completes."""
        bad = replace(TINY, model="lenet", train_count=-1)  # invalid
        spec = SweepSpec(
            models=("lenet",), accuracy_drops=(0.01,), objectives=("input",)
        )
        plan = publish_plan(tmp_path, spec, bad)
        report = run_worker(tmp_path, worker_id="w0", settings=FAST)
        assert report.cells_published == 1
        row = load_cell_row(tmp_path, next(plan.spec.cells()))
        assert row["status"] == "failed"
        assert row["failure"]["error_class"]
        collected = collect_report(tmp_path, plan)
        assert collected.failed == collected.cells
        assert collected.cells[0].failure.error_class == (
            row["failure"]["error_class"]
        )


class TestCoordinator:
    def test_thread_fanout_identity_across_worker_counts(self, tmp_path):
        reports = {}
        for workers in (1, 3):
            reports[workers] = run_sweep_distributed(
                SPEC,
                TINY,
                distribution=DistributedSettings(
                    workers=workers, spawn="thread"
                ),
                lease=FAST,
                run_dir=tmp_path / f"w{workers}",
                synthetic_seconds=0.05,
            )
        assert _identity_rows(reports[1]) == _identity_rows(reports[3])
        assert len(reports[1].cells) == SPEC.num_cells

    def test_rows_in_grid_order_regardless_of_completion(self, tmp_path):
        report = run_sweep_distributed(
            SPEC,
            TINY,
            distribution=DistributedSettings(workers=3, spawn="thread"),
            lease=FAST,
            run_dir=tmp_path,
            synthetic_seconds=0.05,
        )
        expected = [
            (model, drop, objective) for model, drop, objective in SPEC.cells()
        ]
        actual = [
            (cell.model, cell.accuracy_drop, cell.objective)
            for cell in report.cells
        ]
        assert actual == expected

    def test_incomplete_run_collect_raises(self, tmp_path):
        plan = _synthetic_plan(tmp_path)
        run_worker(tmp_path, worker_id="w0", settings=FAST, max_cells=1)
        with pytest.raises(ReproError, match="incomplete"):
            collect_report(tmp_path, plan)

    def test_resume_executes_only_missing_cells(self, tmp_path):
        _synthetic_plan(tmp_path)
        run_worker(tmp_path, worker_id="w0", settings=FAST, max_cells=2)
        report = run_sweep_distributed(
            SPEC,
            TINY,
            distribution=DistributedSettings(workers=1, spawn="thread"),
            lease=FAST,
            run_dir=tmp_path,
            synthetic_seconds=0.05,
        )
        assert len(report.cells) == SPEC.num_cells
        record = json.loads(
            (tmp_path / "workers" / "w0.json").read_text()
        )
        assert record["cells_published"] == 2  # first worker's share kept

    def test_manifest_folds_worker_resources(self, tmp_path):
        run_sweep_distributed(
            SPEC,
            TINY,
            distribution=DistributedSettings(workers=2, spawn="thread"),
            lease=FAST,
            run_dir=tmp_path,
            synthetic_seconds=0.05,
        )
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["num_cells"] == SPEC.num_cells
        assert manifest["num_workers"] == 2
        assert manifest["cells_per_second"] > 0
        assert manifest["manifest"]["config_hash"]
        for record in manifest["workers"].values():
            assert record["resources"]["peak_rss_bytes"] > 0

    def test_bad_settings_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="at least one worker"):
            run_sweep_distributed(
                SPEC, TINY,
                distribution=DistributedSettings(workers=0),
                run_dir=tmp_path,
            )
        with pytest.raises(ReproError, match="spawn"):
            run_sweep_distributed(
                SPEC, TINY,
                distribution=DistributedSettings(workers=1, spawn="mpi"),
                run_dir=tmp_path,
            )


@pytest.mark.slow
class TestRealCellIdentity:
    def test_distributed_real_grid_bit_identical_to_serial(self, tmp_path):
        spec = SweepSpec(
            models=("lenet",), accuracy_drops=(0.05,),
            objectives=("input", "mac"),
        )
        serial = run_sweep(spec, TINY)
        distributed = run_sweep_distributed(
            spec,
            TINY,
            distribution=DistributedSettings(workers=2, spawn="thread"),
            lease=FAST,
            run_dir=tmp_path,
        )
        assert _identity_rows(distributed) == _identity_rows(serial)

    def test_cold_grid_cache_totals_match_serial(self, tmp_path):
        """Rows carry per-cell cache deltas, so one worker reports the
        same hits and misses as the serial sweep on a cold store."""
        totals = {}
        for label in ("serial", "distributed"):
            clear_context_cache()
            config = replace(TINY, cache_dir=str(tmp_path / label / "store"))
            if label == "serial":
                report = run_sweep(SPEC, config)
            else:
                report = run_sweep_distributed(
                    SPEC,
                    config,
                    distribution=DistributedSettings(
                        workers=1, spawn="thread"
                    ),
                    lease=FAST,
                    run_dir=tmp_path / label / "run",
                )
            totals[label] = {
                key: report.cache_counters.get(key, 0)
                for key in ("hits", "misses")
            }
            assert totals[label]["misses"] > 0
        clear_context_cache()
        assert totals["distributed"] == totals["serial"]

    def test_warm_distributed_sweep_marks_every_cell_restored(self, tmp_path):
        config = replace(TINY, cache_dir=str(tmp_path / "store"))
        spec = SweepSpec(
            models=("lenet",), accuracy_drops=(0.05,), objectives=("input",)
        )
        reports = [
            run_sweep_distributed(
                spec,
                config,
                distribution=DistributedSettings(workers=1, spawn="thread"),
                lease=FAST,
                run_dir=tmp_path / run,
            )
            for run in ("cold", "warm")
        ]
        cold, warm = reports
        assert [c.resumed for c in cold.cells] == [False]
        assert [c.resumed for c in warm.cells] == [True]
        assert _identity_rows(warm) == _identity_rows(cold)
        events = [
            json.loads(line)
            for line in (tmp_path / "warm" / "events-w0.jsonl")
            .read_text()
            .splitlines()
        ]
        states = [e["event"] for e in events if e["type"] == "cell"]
        assert states == ["running", "cached-hit", "done"]

    def test_cell_slug_roundtrip_unique(self):
        slugs = {cell_slug(*cell) for cell in SPEC.cells()}
        assert len(slugs) == SPEC.num_cells
