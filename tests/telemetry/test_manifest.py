"""Run manifests: hash stability, field lifting, description."""

import pytest

from repro.telemetry import manifest as manifest_module
from repro.telemetry import (
    RunManifest,
    build_manifest,
    config_hash,
    git_revision,
    package_versions,
)


class TestConfigHash:
    def test_stable_across_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_sixteen_hex_chars(self):
        digest = config_hash({"model": "lenet"})
        assert len(digest) == 16
        int(digest, 16)

    def test_exotic_values_fall_back_to_str(self):
        class Weird:
            def __repr__(self):
                return "weird"

        value = Weird()
        assert config_hash({"x": value}) == config_hash({"x": value})


class TestBuildManifest:
    def test_lifts_seed_and_model_into_config(self):
        manifest = build_manifest(
            config={"drop": 0.01}, seed=321, model="lenet", include_git=False
        )
        assert manifest.seed == 321
        assert manifest.model == "lenet"
        assert manifest.config["seed"] == 321
        assert manifest.config["model"] == "lenet"
        assert manifest.git_sha is None

    def test_explicit_config_seed_wins(self):
        manifest = build_manifest(
            config={"seed": 999}, seed=321, include_git=False
        )
        assert manifest.config["seed"] == 999

    def test_same_inputs_same_hash(self):
        kwargs = dict(config={"drop": 0.01}, seed=1, model="nin", include_git=False)
        assert (
            build_manifest(**kwargs).config_hash
            == build_manifest(**kwargs).config_hash
        )

    def test_versions_include_python(self):
        versions = package_versions()
        assert "python" in versions
        assert "numpy" in versions  # the substrate always has numpy

    def test_as_dict_json_shape(self):
        data = build_manifest(config={"a": 1}, include_git=False).as_dict()
        for key in ("config_hash", "seed", "model", "git_sha", "versions",
                    "created_at", "config"):
            assert key in data

    def test_describe_one_liner(self):
        manifest = RunManifest(
            config_hash="deadbeef00112233",
            seed=7,
            model="alexnet",
            git_sha="0123456789abcdef0123",
            versions={"numpy": "2.0"},
        )
        line = manifest.describe()
        assert "config deadbeef00112233" in line
        assert "git 0123456789ab" in line  # truncated to 12 chars
        assert "seed 7" in line
        assert "model alexnet" in line
        assert "\n" not in line


@pytest.fixture
def fresh_provenance():
    """Empty the per-process git and version caches around a test."""
    manifest_module._process_git_revision.cache_clear()
    manifest_module._process_versions.cache_clear()
    yield
    manifest_module._process_git_revision.cache_clear()
    manifest_module._process_versions.cache_clear()


class TestGitRevision:
    def test_inside_repo_returns_sha(self):
        sha = git_revision()
        # The test suite runs from the repo; outside one None is fine.
        if sha is not None:
            assert len(sha) == 40

    def test_outside_repo_returns_none(self, tmp_path):
        assert git_revision(cwd=str(tmp_path)) is None

    def test_missing_git_binary_returns_none(self, monkeypatch):
        import subprocess

        def no_git(*args, **kwargs):
            raise OSError("git not found")

        monkeypatch.setattr(subprocess, "run", no_git)
        assert git_revision() is None

    def test_git_failure_returns_none(self, monkeypatch):
        import subprocess

        def failing(*args, **kwargs):
            raise subprocess.SubprocessError("timed out")

        monkeypatch.setattr(subprocess, "run", failing)
        assert git_revision() is None

    def test_manifest_survives_without_git(
        self, monkeypatch, tmp_path, fresh_provenance
    ):
        # A run outside any repo still produces a manifest; the sha is
        # simply absent from provenance.
        manifest = build_manifest({"model": "lenet"})
        monkeypatch.chdir(tmp_path)
        without = build_manifest({"model": "lenet"})
        assert without.git_sha is None
        assert without.config_hash == manifest.config_hash


class TestProvenanceCache:
    def test_git_runs_once_per_directory(self, monkeypatch, fresh_provenance):
        import subprocess

        calls = []
        real_run = subprocess.run

        def counting(*args, **kwargs):
            calls.append(kwargs.get("cwd"))
            return real_run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting)
        first = build_manifest({"model": "lenet"})
        second = build_manifest({"model": "nin"})
        assert len(calls) == 1
        assert first.git_sha == second.git_sha

    def test_removed_working_directory_gives_no_sha(self, monkeypatch, tmp_path):
        gone = tmp_path / "gone"
        gone.mkdir()
        monkeypatch.chdir(gone)
        gone.rmdir()
        assert build_manifest({"model": "lenet"}).git_sha is None

    def test_versions_match_package_versions(self, fresh_provenance):
        manifest = build_manifest({"a": 1}, include_git=False)
        assert manifest.versions == package_versions()
        # Each manifest owns its dict; the cache cannot be mutated.
        manifest.versions["numpy"] = "edited"
        assert build_manifest({"a": 1}, include_git=False).versions == package_versions()
