"""Structured failure records for fault-isolated cells.

When a cell raises, aborting the whole run would throw away every
finished cell and hide which *stage* broke.  Instead the cell executor
converts the exception into a :class:`FailureRecord`: the error class,
a pipeline stage inferred from the traceback, and a short digest of the
traceback frames so identical failures can be grouped across cells and
across runs without shipping full tracebacks around.

This module depends only on the standard library, so
:mod:`repro.experiments.scheduler` can import it without cycles.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass
from types import TracebackType
from typing import Dict, List, Optional, Tuple

#: Traceback path fragments mapped to pipeline stages, checked in
#: order; the *deepest* matching frame wins, so an allocator error
#: raised while validating still classifies as "allocation".
_STAGE_MARKERS: Tuple[Tuple[str, str], ...] = (
    ("analysis/profiler", "profiling"),
    ("engine/", "profiling"),
    ("analysis/sigma_search", "sigma_search"),
    ("optimize/", "allocation"),
    ("weights/", "weight_search"),
    ("models/evaluate", "validation"),
    ("nn/statistics", "stats"),
    ("cache/", "cache"),
    ("pipeline/", "pipeline"),
    ("models/", "context"),
    ("data/", "context"),
    ("nn/", "context"),
)

#: Maximum characters of the error message kept in a record.
_MESSAGE_LIMIT = 500


@dataclass(frozen=True)
class FailureRecord:
    """A classified cell failure, compact enough to persist per cell."""

    error_class: str
    message: str
    #: Pipeline stage inferred from the traceback ("profiling",
    #: "sigma_search", "allocation", "validation", "context", ...;
    #: "unknown" when no repro frame is on the stack).
    stage: str
    #: 12-hex-char digest over the repro traceback frames
    #: (file basename, line, function) — stable across hosts and
    #: working directories, so equal digests mean equal failure paths.
    traceback_digest: str

    def as_dict(self) -> Dict[str, str]:
        return {
            "error_class": self.error_class,
            "error_message": self.message,
            "stage": self.stage,
            "traceback_digest": self.traceback_digest,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, str]) -> "FailureRecord":
        return cls(
            error_class=str(payload["error_class"]),
            message=str(payload["error_message"]),
            stage=str(payload["stage"]),
            traceback_digest=str(payload["traceback_digest"]),
        )


def _frames(tb: Optional[TracebackType]) -> List[traceback.FrameSummary]:
    return traceback.extract_tb(tb) if tb is not None else []


def _normalize(path: str) -> str:
    return path.replace("\\", "/")


def _stage_of(frames: List[traceback.FrameSummary], hint: str) -> str:
    stage = hint or "unknown"
    for frame in frames:  # deepest matching frame decides
        path = _normalize(frame.filename)
        if "/repro/" not in path and not path.startswith("repro/"):
            continue
        for marker, name in _STAGE_MARKERS:
            if marker in path:
                stage = name
                break
    return stage


def _digest(frames: List[traceback.FrameSummary]) -> str:
    parts = []
    for frame in frames:
        path = _normalize(frame.filename)
        basename = path.rsplit("/", 1)[-1]
        parts.append(f"{basename}:{frame.lineno}:{frame.name}")
    if not parts:
        parts = ["<no-traceback>"]
    joined = "\n".join(parts)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:12]


def classify_failure(
    exc: BaseException, stage_hint: str = ""
) -> FailureRecord:
    """Convert an exception into a stage-attributed failure record.

    ``stage_hint`` is used when the traceback contains no repro frames
    (e.g. an exception raised by a chaos hook before entering the
    pipeline).
    """
    frames = _frames(exc.__traceback__)
    message = str(exc)
    if len(message) > _MESSAGE_LIMIT:
        message = message[: _MESSAGE_LIMIT - 3] + "..."
    return FailureRecord(
        error_class=type(exc).__name__,
        message=message,
        stage=_stage_of(frames, stage_hint),
        traceback_digest=_digest(frames),
    )
