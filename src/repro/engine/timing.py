"""Per-stage timing instrumentation for injection campaigns.

The engine accounts wall-clock time to four stages so a slow profiling
run can be diagnosed at a glance (and so ``docs/performance.md`` can
report where the speedups come from):

``plan``       replay-plan construction (memoized; near-zero after warmup)
``reference``  clean forward passes that build the activation caches
``replay``     the injection trials themselves (the dominant stage)
``fit``        per-layer regression + diagnostics
``reduce``     fixed-order reduction of each layer's per-trial cells, run
               as soon as that layer's replay finishes (so it nests
               inside ``replay``, once per layer)

Timings are cumulative across workers, measured on whichever thread
runs the stage; with a pool the ``replay`` figure is summed CPU-side
work, while ``total`` stays wall clock.

:class:`StageTimings` is now a thin adapter over the tracing-span
model (:mod:`repro.telemetry.spans`): when a live tracer is attached,
each stage also opens an ``engine.<stage>`` span and the recorded
seconds come from that span's clock, so the legacy ``seconds`` dict and
the trace agree exactly.  Without a tracer it times stages directly —
same attribute surface, zero new dependencies on the hot path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from ..telemetry.spans import Span, Tracer


@dataclass
class StageTimings:
    """Cumulative seconds per campaign stage.

    ``tracer`` is optional and, when set, must be a *recording* tracer
    (pass None when telemetry is disabled — a ``NullTracer``'s frozen
    clock would zero out the timings).
    """

    seconds: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None

    @contextmanager
    def stage(
        self,
        name: str,
        parent_id: Optional[str] = None,
        **attributes: object,
    ) -> Iterator[Optional[Span]]:
        """Time one stage; yields the span when a tracer is attached."""
        if self.tracer is None:
            begin = time.perf_counter()
            try:
                yield None
            finally:
                self.add(name, time.perf_counter() - begin)
            return
        span: Optional[Span] = None
        try:
            with self.tracer.span(
                f"engine.{name}", parent_id=parent_id, **attributes
            ) as span:
                yield span
        finally:
            if span is not None:
                self.add(name, span.duration)

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def as_dict(self) -> Dict[str, float]:
        return dict(self.seconds)
