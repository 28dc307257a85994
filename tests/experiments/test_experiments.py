"""Smoke + behaviour tests for the experiment drivers on a small model."""

import pytest

from repro.experiments import (
    ExperimentConfig,
    clear_context_cache,
    make_context,
    run_additivity_check,
    run_cost_comparison,
    run_fig1,
    run_fig2,
    run_fig3,
    run_negative_fraction_ablation,
    run_profile_stability,
    run_scheme_agreement,
    run_xi_ablation,
)


CFG = ExperimentConfig(
    model="lenet",
    num_classes=8,
    train_count=192,
    test_count=96,
    profile_images=12,
    profile_points=6,
    seed=77,
)


@pytest.fixture(scope="module")
def context():
    return make_context(CFG)


class TestContextCache:
    def test_same_config_returns_same_context(self, context):
        assert make_context(CFG) is context

    def test_different_config_differs(self, context):
        other = make_context(
            ExperimentConfig(
                model="lenet",
                num_classes=8,
                train_count=192,
                test_count=96,
                profile_images=12,
                profile_points=6,
                seed=78,
            )
        )
        assert other is not context

    def test_cache_can_be_cleared(self):
        cfg = ExperimentConfig(model="lenet", train_count=64, test_count=32,
                               profile_images=4, profile_points=4, seed=5)
        first = make_context(cfg)
        clear_context_cache()
        assert make_context(cfg) is not first

    def test_pretrain_info_present(self, context):
        assert context.pretrain_info["test_accuracy"] > 0.3


class TestFig1(object):
    def test_error_shapes(self, context):
        result = run_fig1(context=context, delta=1.0)
        input_shape = result.shape("layer_input")
        output_shape = result.shape("network_output")
        # injected input error is uniform: strongly negative kurtosis
        assert input_shape.excess_kurtosis < -0.5
        # final-layer error is much closer to Gaussian (Fig. 3 histogram)
        assert abs(output_shape.excess_kurtosis) < abs(
            input_shape.excess_kurtosis
        )

    def test_unknown_probe_raises(self, context):
        result = run_fig1(context=context)
        with pytest.raises(KeyError):
            result.shape("nowhere")


class TestFig2:
    def test_series_per_layer(self, context):
        result = run_fig2(context=context)
        assert len(result.series) == len(
            context.network.analyzed_layer_names
        )

    def test_fit_quality_band(self, context):
        result = run_fig2(context=context)
        assert result.median_relative_error < 0.25
        assert result.worst_relative_error < 0.6

    def test_summary_rows(self, context):
        rows = run_fig2(context=context).summary_rows()
        assert {"layer", "lambda", "theta", "R^2", "max_rel_err"} == set(
            rows[0]
        )


class TestFig3:
    def test_accuracy_monotone_along_sigma(self, context):
        result = run_fig3(
            context=context, sigmas=[0.1, 1.0, 8.0], with_corners=False
        )
        accs = [p.gaussian_approx_accuracy for p in result.points]
        assert accs[0] >= accs[-1]

    def test_schemes_track_each_other(self, context):
        result = run_fig3(
            context=context, sigmas=[0.25, 1.0], with_corners=False
        )
        for p in result.points:
            assert p.scheme_gap < 0.35

    def test_corner_bars_present_when_requested(self, context):
        result = run_fig3(context=context, sigmas=[0.5], with_corners=True)
        p = result.points[0]
        assert p.corner_min_accuracy is not None
        assert p.corner_min_accuracy <= p.corner_max_accuracy

    def test_final_error_is_near_gaussian(self, context):
        result = run_fig3(
            context=context, sigmas=[0.5], with_corners=False
        )
        assert abs(result.error_excess_kurtosis) < 1.0


class TestAblations:
    def test_xi_ablation_optimized_not_worse(self, context):
        result = run_xi_ablation(context=context, objective="mac")
        assert result.optimized_cost_bits <= result.equal_cost_bits * 1.05

    def test_scheme_agreement(self, context):
        result = run_scheme_agreement(context=context)
        assert result.relative_gap < 0.8

    def test_profile_stability(self, context):
        result = run_profile_stability(
            context=context, image_counts=(8, 16), point_counts=(6,)
        )
        assert result.worst_spread < 0.5

    def test_negative_fraction_never_hurts(self, context):
        result = run_negative_fraction_ablation(context=context)
        assert result.cost_with_dropping <= result.cost_without_dropping

    def test_additivity_within_tolerance(self, context):
        """Eq. 6 check: measured joint sigma within 35% of the RSS value."""
        result = run_additivity_check(context=context, sigma=0.5)
        assert result.relative_error < 0.35


class TestCostComparison:
    def test_analytic_needs_fewer_evaluations(self, context):
        result = run_cost_comparison(context=context, accuracy_drop=0.05)
        assert result.evaluation_ratio >= 1.0
        assert result.analytic_total_seconds > 0

    def test_reoptimize_is_cheap(self, context):
        """Paper Sec. VI-A: changing objectives only reruns the last step."""
        result = run_cost_comparison(context=context, accuracy_drop=0.05)
        assert result.reoptimize_seconds < result.analytic_total_seconds


class TestChannelwiseAblation:
    def test_refinement_never_hurts_bits(self, context):
        from repro.experiments import run_channelwise_ablation

        result = run_channelwise_ablation(context=context, objective="input")
        assert result.channelwise_effective_bits <= (
            result.layerwise_effective_bits
        )

    def test_accuracy_preserved(self, context):
        from repro.experiments import run_channelwise_ablation

        result = run_channelwise_ablation(context=context, objective="input")
        assert result.channelwise_accuracy >= result.layerwise_accuracy - 0.05


class TestSuite:
    def test_selected_experiments_run_and_export(self, context, tmp_path):
        from repro.experiments import run_suite

        results = run_suite(
            CFG,
            only=["fig1", "ablation_negative_f"],
            output_dir=tmp_path,
        )
        assert "fig1" in results and "ablation_negative_f" in results
        assert (tmp_path / "fig1.json").exists()
        assert (tmp_path / "_timings.json").exists()

    def test_unknown_experiment_rejected(self):
        from repro.experiments import run_suite

        with pytest.raises(ValueError):
            run_suite(CFG, only=["figure_nine"])


class TestClippingAblation:
    def test_clipping_saves_bits_safely(self, context):
        from repro.experiments import run_clipping_ablation

        result = run_clipping_ablation(context=context, percentile=99.0)
        assert result.clipped_effective_bits <= result.unclipped_effective_bits
        assert result.clipped_accuracy >= result.unclipped_accuracy - 0.06


class TestBudgetAudit:
    def test_audit_runs_and_is_safe(self, context):
        from repro.experiments import run_budget_audit

        result = run_budget_audit(context=context, num_images=32)
        assert result.joint_utilization < 1.5
        assert len(result.layers) == len(
            context.network.analyzed_layer_names
        )


class TestDropSweep:
    """``run_drop_sweep`` is a one-model grid of the cell executor."""

    def test_sweep_points_ordered_and_safe(self, context):
        from repro.experiments import run_drop_sweep

        result = run_drop_sweep(
            context=context, accuracy_drops=(0.10, 0.02)
        )
        assert [c.accuracy_drop for c in result.cells] == [0.02, 0.10]
        for cell in result.cells:
            assert cell.status == "ok"
            assert cell.meets_constraint

    def test_looser_constraint_never_needs_more_bits(self, context):
        from repro.experiments import run_drop_sweep

        result = run_drop_sweep(
            context=context, accuracy_drops=(0.02, 0.05, 0.15)
        )
        bits = [c.effective_input_bits for c in result.cells]
        assert all(b1 >= b2 - 0.3 for b1, b2 in zip(bits, bits[1:]))
        sigmas = [c.sigma for c in result.cells]
        assert sigmas == sorted(sigmas)

    def test_rows_structure(self, context):
        from repro.experiments import run_drop_sweep

        result = run_drop_sweep(context=context, accuracy_drops=(0.05,))
        assert {"accuracy_drop", "sigma", "effective_input_bits",
                "effective_mac_bits", "validated_accuracy"} <= set(
            result.rows()[0]
        )
