"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


FAST = [
    "--model",
    "lenet",
    "--train-count",
    "128",
    "--test-count",
    "64",
    "--profile-images",
    "8",
    "--profile-points",
    "6",
    "--seed",
    "321",
]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_model_choicelessly(self):
        # model is free-form; the zoo lookup raises at run time instead
        args = build_parser().parse_args(["profile", "--model", "nope"])
        assert args.model == "nope"

    def test_optimize_defaults(self):
        args = build_parser().parse_args(["optimize"])
        assert args.objective == "input"
        assert args.drop == 0.01
        assert not args.weights

    def test_scheme_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--scheme", "scheme9"])

    def test_resilience_flags_default_off(self):
        args = build_parser().parse_args(["optimize"])
        assert args.strict is False
        # resuming is re-running on the same --cache-dir; no extra flag
        assert not hasattr(args, "resume")

    def test_resilience_flags_parse(self):
        args = build_parser().parse_args(["optimize", "--strict"])
        assert args.strict is True

    def test_ablate_defaults(self):
        args = build_parser().parse_args(["ablate"])
        assert args.drop == 0.05
        assert args.objective == "input"
        assert args.components == ""
        assert args.scenarios == ""
        assert args.chaos_cell == []
        assert args.smoke is False

    def test_ablate_chaos_cell_repeatable(self):
        args = build_parser().parse_args(
            [
                "ablate",
                "--chaos-cell",
                "component/baseline/lenet",
                "--chaos-cell",
                "component/xi:equal/lenet",
            ]
        )
        assert len(args.chaos_cell) == 2


class TestCommands:
    def test_zoo(self, capsys):
        assert main(["zoo"]) == 0
        out = capsys.readouterr().out
        assert "alexnet" in out and "resnet152" in out

    def test_profile(self, capsys):
        assert main(["profile"] + FAST) == 0
        out = capsys.readouterr().out
        assert "lambda" in out and "conv1" in out

    def test_optimize(self, capsys):
        code = main(["optimize", "--drop", "0.05"] + FAST)
        out = capsys.readouterr().out
        assert code == 0
        assert "constraint met" in out

    def test_optimize_rerun_on_same_cache_dir_resumes(self, capsys, tmp_path):
        from repro.experiments.common import clear_context_cache

        store = tmp_path / "store"
        args = ["optimize", "--drop", "0.05", "--cache-dir", str(store)] + FAST

        def run():
            clear_context_cache()  # a fresh process would start cold
            assert main(args) == 0
            lines = capsys.readouterr().out.splitlines()
            return [line for line in lines if not line.startswith("cache ")]

        first = run()
        objects = store / "objects"
        for namespace in ("profile", "sigma_eval", "outcome"):
            assert list((objects / namespace).rglob("*")), namespace
        # a second run restores from the cache and agrees
        assert run() == first

    def test_ablate_smoke_with_chaos_and_report(self, capsys, tmp_path):
        out_path = tmp_path / "ablate.json"
        code = main(
            [
                "ablate",
                "--model",
                "lenet",
                "--smoke",
                "--components",
                "xi",
                "--chaos-cell",
                "component/xi:equal/lenet",
                "--output",
                str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "component importance" in out
        assert "1 failed" in out
        assert "SimulatedCrash" in out
        assert out_path.exists()
        import json

        payload = json.loads(out_path.read_text())
        assert payload["schema_version"] == 1
        statuses = {r["cell_id"]: r["status"] for r in payload["rows"]}
        assert statuses == {
            "component/baseline/lenet": "ok",
            "component/xi:equal/lenet": "failed",
        }

    def test_sweep_keep_going_completes(self, capsys):
        # A crashing cell becomes a [FAILED] row, the rest of the grid
        # still runs, and the exit status reports the failure.
        args = ["sweep", "--drops", "0.05", "--objectives", "input,mac"]
        assert main(args + FAST) == 0
        out = capsys.readouterr().out
        assert "2 cells" in out
        assert "FAILED" not in out
        assert main(args + FAST + ["--train-count", "-1"]) == 1
        out = capsys.readouterr().out
        assert out.count("[FAILED]") == 2
        assert "2 cells" in out and "2 failed" in out

    def test_fig2(self, capsys):
        assert main(["fig2"] + FAST) == 0
        out = capsys.readouterr().out
        assert "max_rel_err" in out

    def test_fig3(self, capsys):
        assert main(["fig3"] + FAST) == 0
        out = capsys.readouterr().out
        assert "equal_scheme" in out


class TestSuiteCommand:
    def test_suite_with_subset_and_export(self, capsys, tmp_path):
        code = main(
            ["suite", "--only", "fig1", "--output", str(tmp_path)] + FAST
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "suite finished" in out
        assert (tmp_path / "fig1.json").exists()


@pytest.mark.slow
class TestSlowCommands:
    def test_table2(self, capsys):
        assert main(["table2", "--drop", "0.05"] + FAST) == 0
        out = capsys.readouterr().out
        assert "saving" in out

    def test_cost(self, capsys):
        assert main(["cost", "--drop", "0.05"] + FAST) == 0
        out = capsys.readouterr().out
        assert "ratio" in out


class TestRunQuantized:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["run-quantized"])
        assert args.allocation == ""
        assert args.weight_bits == 16
        assert args.backend == "fast"
        assert args.no_pack is False
        assert args.drop == 0.01

    def test_backend_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-quantized", "--backend", "cuda"])

    def test_executes_saved_allocation(self, capsys, tmp_path):
        path = tmp_path / "alloc.json"
        assert (
            main(["optimize", "--drop", "0.05", "--output", str(path)] + FAST)
            == 0
        )
        capsys.readouterr()
        code = main(
            ["run-quantized", "--allocation", str(path), "--drop", "0.05"]
            + FAST
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "accuracy budget met" in out
        assert "measured" in out

    def test_reference_backend_unpacked_matches_budget(self, capsys, tmp_path):
        path = tmp_path / "alloc.json"
        main(["optimize", "--drop", "0.05", "--output", str(path)] + FAST)
        capsys.readouterr()
        code = main(
            [
                "run-quantized",
                "--allocation",
                str(path),
                "--drop",
                "0.05",
                "--backend",
                "reference",
                "--no-pack",
            ]
            + FAST
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "accuracy budget met" in out
