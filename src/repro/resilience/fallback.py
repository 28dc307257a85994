"""Transient-failure retries.

:func:`call_with_retries` is the generic transient-retry primitive the
sigma search uses for flaky accuracy evaluators.
"""

from __future__ import annotations

from typing import Callable, List, TypeVar

from ..errors import RetryExhaustedError, TransientError

T = TypeVar("T")


def call_with_retries(
    fn: Callable[..., T],
    *args,
    retries: int = 2,
    transient=(TransientError,),
    label: str = "call",
    **kwargs,
) -> T:
    """Invoke ``fn``, retrying up to ``retries`` times on transient errors.

    Anything not in ``transient`` propagates immediately; exhaustion
    raises :class:`~repro.errors.RetryExhaustedError` carrying every
    attempt's message.
    """
    failures: List[str] = []
    for attempt in range(retries + 1):
        try:
            return fn(*args, **kwargs)
        except transient as exc:  # noqa: PERF203 - retry loop
            failures.append(f"attempt {attempt + 1}: {exc}")
    raise RetryExhaustedError(
        f"{label} failed {retries + 1} times; last error: {failures[-1]}",
        attempts=failures,
    )
