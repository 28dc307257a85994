"""Ablation matrix generation: one toggle per variant, baseline first."""

import pytest

from repro.errors import ReproError
from repro.experiments import ExperimentConfig
from repro.robustness import (
    DEFAULT_COMPONENTS,
    MatrixVariant,
    build_matrix,
)

CONFIG = ExperimentConfig(model="lenet")


class TestBuildMatrix:
    def test_baseline_first_and_names_unique(self):
        variants = build_matrix(CONFIG)
        assert variants[0].is_baseline
        assert variants[0].name == "baseline"
        names = [v.name for v in variants]
        assert len(set(names)) == len(names)

    def test_every_default_component_represented(self):
        variants = build_matrix(CONFIG)
        components = {v.component for v in variants if not v.is_baseline}
        assert components == set(DEFAULT_COMPONENTS)

    def test_component_subset_preserves_order(self):
        variants = build_matrix(CONFIG, components=("cache", "xi"))
        assert [v.component for v in variants] == ["", "cache", "xi"]

    def test_unknown_component_rejected(self):
        with pytest.raises(ReproError, match="unknown ablation components"):
            build_matrix(CONFIG, components=("warp-drive",))

    def test_scheme_variant_toggles_to_the_other_scheme(self):
        from dataclasses import replace

        s1 = build_matrix(CONFIG, components=("scheme",))[1]
        assert s1.config_overrides == {"scheme": "scheme2"}
        s2 = build_matrix(
            replace(CONFIG, scheme="scheme2"), components=("scheme",)
        )[1]
        assert s2.config_overrides == {"scheme": "scheme1"}

    def test_backend_variants_cover_the_other_backends(self):
        from dataclasses import replace

        serial_config = CONFIG  # jobs=1
        names = {
            v.name
            for v in build_matrix(serial_config, components=("backend",))
            if not v.is_baseline
        }
        assert names == {"backend:thread"}

        pooled = replace(CONFIG, jobs=4)
        names = {
            v.name
            for v in build_matrix(pooled, components=("backend",))
            if not v.is_baseline
        }
        assert names == {"backend:serial"}


class TestMatrixVariant:
    def test_apply_replaces_config_fields(self):
        variant = MatrixVariant(
            name="x",
            component="cache",
            description="",
            config_overrides={"no_cache": True},
        )
        applied = variant.apply(CONFIG)
        assert applied.no_cache is True
        assert applied.model == CONFIG.model

    def test_apply_without_overrides_returns_config_unchanged(self):
        variant = MatrixVariant(name="x", component="", description="")
        assert variant.apply(CONFIG) is CONFIG

    def test_invalid_allocator_rejected(self):
        with pytest.raises(ReproError, match="allocator"):
            MatrixVariant(
                name="x", component="xi", description="", allocator="magic"
            )

    def test_as_dict_round_trips_the_knobs(self):
        variant = MatrixVariant(
            name="x",
            component="backend",
            description="d",
            config_overrides={"jobs": 2},
            allocator="equal",
        )
        payload = variant.as_dict()
        assert payload["config_overrides"] == {"jobs": 2}
        assert payload["allocator"] == "equal"
