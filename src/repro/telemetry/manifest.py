"""Run manifests: what exact configuration produced a result.

Every pipeline run (and benchmark payload) carries a manifest so a
number in ``BENCH_profiler.json`` or a Table II row can be traced back
to the config hash, git revision, seed material, model, and package
versions that produced it.  Manifests are default-on — they cost one
hash and one (gated) ``git rev-parse`` — unlike tracing, which is
opt-in via :class:`repro.config.TelemetrySettings`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from importlib import metadata
from typing import Any, Dict, Mapping, Optional

import numpy as np


def config_hash(config: Mapping[str, Any]) -> str:
    """Stable short hash of a configuration mapping.

    Canonical JSON (sorted keys, ``str()`` fallback for exotic values)
    keeps the hash independent of dict insertion order.
    """
    canonical = json.dumps(dict(config), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The current git commit SHA, or None outside a repo / without git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    sha = proc.stdout.strip()
    return sha or None


def package_versions() -> Dict[str, str]:
    """Versions of the interpreter and the numeric stack (if installed).

    numpy is already imported; scipy's version is read from its
    installed distribution's metadata, so asking for it never imports
    scipy.
    """
    versions = {"python": platform.python_version(), "numpy": str(np.__version__)}
    try:
        versions["scipy"] = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        pass
    return versions


@functools.lru_cache(maxsize=None)
def _process_git_revision(cwd: str) -> Optional[str]:
    """:func:`git_revision` of ``cwd``, resolved once per process."""
    return git_revision(cwd)


@functools.lru_cache(maxsize=1)
def _process_versions() -> Dict[str, str]:
    """:func:`package_versions`, read once per process (do not mutate)."""
    return package_versions()


@dataclass
class RunManifest:
    """Provenance record attached to pipeline runs and benchmark JSON."""

    config_hash: str
    seed: Optional[int] = None
    model: Optional[str] = None
    git_sha: Optional[str] = None
    versions: Dict[str, str] = field(default_factory=dict)
    created_at: str = ""
    config: Dict[str, Any] = field(default_factory=dict)
    #: Per-stage resource summary (peak RSS, CPU seconds, ...) folded
    #: in at export time by :meth:`repro.telemetry.session.Telemetry.
    #: export`.  Provenance only — never part of the config hash.
    resources: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def describe(self) -> str:
        """One-line human summary for reports."""
        git = (self.git_sha or "n/a")[:12]
        numpy_version = self.versions.get("numpy", "?")
        return (
            f"config {self.config_hash}  git {git}  seed {self.seed}  "
            f"model {self.model or 'n/a'}  numpy {numpy_version}"
        )


def build_manifest(
    config: Optional[Mapping[str, Any]] = None,
    seed: Optional[int] = None,
    model: Optional[str] = None,
    include_git: bool = True,
) -> RunManifest:
    """Assemble the manifest for a run.

    ``config`` is any JSON-able mapping of the knobs that determine the
    run's outputs; its hash is the manifest's primary identity.  Seed
    and model are lifted out as first-class fields because they are the
    two most-queried provenance facts.  The git revision (per working
    directory) and the package versions are resolved once per process:
    every optimizer builds a manifest, and a ``git`` subprocess per
    build costs milliseconds.  They stay fixed for the life of the
    process: a later commit is not seen, and a failed lookup (no git,
    a timeout) leaves ``git_sha`` None in every later manifest too.
    """
    plain_config: Dict[str, Any] = dict(config or {})
    if seed is not None and "seed" not in plain_config:
        plain_config["seed"] = seed
    if model is not None and "model" not in plain_config:
        plain_config["model"] = model
    git_sha: Optional[str] = None
    if include_git:
        try:
            git_sha = _process_git_revision(os.getcwd())
        except FileNotFoundError:  # the working directory was removed
            git_sha = None
    return RunManifest(
        config_hash=config_hash(plain_config),
        seed=seed,
        model=model,
        git_sha=git_sha,
        versions=_process_versions().copy(),
        created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        config=plain_config,
    )
