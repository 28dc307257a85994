"""Store-side lease files: exclusive cell claims for distributed sweeps.

A distributed sweep (:mod:`repro.experiments.distributed`) fans cells
out to workers that share nothing but a directory — typically inside
(or beside) the content-addressed store.  Workers coordinate through
**lease files**: one file per in-flight cell, created atomically, so at
most one worker executes a cell at a time *in the common case*, and a
cell whose worker died is re-dispatched after a TTL.

The protocol (see ``docs/distributed.md``):

``acquire``
    ``os.open(path, O_CREAT | O_EXCL | O_WRONLY)`` — the POSIX atomic
    claim.  Exactly one concurrent caller wins; everyone else gets
    ``None``.  The file body is a single ``os.write`` of JSON metadata
    (owner, pid, host, a random fencing token, TTL) for humans and
    diagnostics; liveness never depends on parsing it.
``renew`` (heartbeat)
    ``os.utime(path)`` — the lease's **mtime is its heartbeat clock**.
    A single atomic syscall, no read-modify-write, and it works even if
    another process damaged the body.  Workers renew from a background
    thread (:class:`LeaseHeartbeat`) every ``heartbeat_seconds`` while
    the cell executes.
``expiry``
    A lease whose mtime is older than ``ttl_seconds`` belongs to a
    crashed or SIGKILLed worker (live workers renew at ``ttl / 4`` by
    default, so many missed beats separate "slow" from "dead").
``steal``
    ``os.rename(path, path + ".stale-<token>")`` — atomic: exactly one
    of any number of concurrent stealers wins the rename; losers get
    ``FileNotFoundError`` and walk away.  The winner removes the tomb
    and re-acquires fresh.
``release``
    ``os.unlink(path)``; a missing file (already stolen) is not an
    error — the worker finished anyway and publication is idempotent.

What leases do **not** guarantee: a worker stalled longer than the TTL
(not dead, just descheduled) can be stolen from and later finish its
cell anyway.  That is safe *by design*: results are published into the
store via atomic write-then-rename with content determined solely by
the cell's inputs, so duplicate completion publishes identical rows and
the last writer wins.  Leases are a throughput optimization — they
prevent duplicate work, not duplicate results.

Every filesystem mutation of a lease file lives in this module; the
concurrency analyzer (``repro check --concurrency``) flags lease-file
writes anywhere else (rule ``lease-write-outside-helper``).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

PathLike = Union[str, Path]

#: Bumped when the lease-file body layout changes incompatibly.
LEASE_SCHEMA_VERSION = 1

#: Filename suffix of live lease files.
LEASE_SUFFIX = ".lease"


@dataclass(frozen=True)
class LeaseSettings:
    """Timing knobs of the lease protocol.

    None of these can reach a numeric code path: they decide *when* a
    cell runs and on which worker, never what its result is (the
    distributed executor's bit-identity contract).  All three are
    classified ``non-numeric`` in the key-field registry.
    """

    #: Seconds without a heartbeat after which a lease is stealable.
    ttl_seconds: float = 60.0
    #: Heartbeat period; 0 means ``ttl_seconds / 4``.
    heartbeat_seconds: float = 0.0
    #: How long an idle worker waits before rescanning for work.
    poll_seconds: float = 0.5

    @property
    def effective_heartbeat(self) -> float:
        if self.heartbeat_seconds > 0:
            return self.heartbeat_seconds
        return max(self.ttl_seconds / 4.0, 0.05)


@dataclass
class Lease:
    """A successfully acquired claim on one cell."""

    path: Path
    owner: str
    #: Random fencing token unique to this acquisition; lets a steal
    #: tomb and diagnostics distinguish successive holders of one cell.
    token: str

    def renew(self) -> bool:
        """Heartbeat: bump the mtime clock.

        Returns False when the lease file no longer exists — it was
        stolen after this worker exceeded the TTL.  The worker should
        finish and publish anyway (publication is idempotent) but must
        know its exclusivity is gone.
        """
        try:
            os.utime(self.path)
        except OSError:
            return False
        return True

    def release(self) -> None:
        """Drop the claim; missing file (stolen) is not an error."""
        try:
            os.unlink(self.path)
        except OSError:
            pass


def acquire_lease(
    path: PathLike, owner: str, settings: Optional[LeaseSettings] = None
) -> Optional[Lease]:
    """Atomically claim ``path``; None when another holder beat us.

    The O_CREAT|O_EXCL open is the claim itself — it either creates the
    file (we won) or fails with EEXIST (someone else holds it).  The
    JSON body is advisory metadata; a reader that finds it torn
    mid-write must still honour the lease via its mtime.
    """
    settings = settings or LeaseSettings()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    token = uuid.uuid4().hex[:12]
    try:
        fd = os.open(
            str(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
        )
    except FileExistsError:
        return None
    body = {
        "schema": LEASE_SCHEMA_VERSION,
        "owner": str(owner),
        "token": token,
        "pid": os.getpid(),
        "host": socket.gethostname(),
        "ttl_seconds": float(settings.ttl_seconds),
    }
    try:
        os.write(fd, (json.dumps(body, sort_keys=True) + "\n").encode())
    finally:
        os.close(fd)
    return Lease(path=path, owner=str(owner), token=token)


def read_lease(path: PathLike) -> Optional[Dict[str, Any]]:
    """The advisory metadata of a lease file, or None when unreadable.

    A torn or damaged body does **not** mean the lease is invalid — the
    mtime clock, not the body, carries liveness.  Callers use this for
    diagnostics only.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    return payload


def lease_age_seconds(path: PathLike) -> Optional[float]:
    """Seconds since the lease's last heartbeat, or None if gone."""
    import time

    try:
        mtime = os.stat(path).st_mtime
    except OSError:
        return None
    return max(0.0, time.time() - mtime)


def lease_is_expired(
    path: PathLike, settings: Optional[LeaseSettings] = None
) -> bool:
    """True when the lease exists but its heartbeat exceeded the TTL.

    A missing file is *not* expired — it is released, and the cell's
    state is decided by whether a result was published.
    """
    settings = settings or LeaseSettings()
    age = lease_age_seconds(path)
    return age is not None and age > settings.ttl_seconds


def steal_expired_lease(
    path: PathLike,
    owner: str,
    settings: Optional[LeaseSettings] = None,
) -> Optional[Lease]:
    """Take over an expired lease; None when we lost the steal race.

    The steal is an atomic ``os.rename`` to a unique tomb name: of any
    number of workers that concurrently observed the expiry, exactly
    one rename succeeds.  The winner unlinks the tomb and acquires a
    fresh lease; losers (``FileNotFoundError``) return None and rescan.

    A loser whose expiry check ran before the winner's rename can still
    rename *after* the winner re-acquired, moving the winner's fresh
    lease into its tomb.  The tomb's mtime tells: a tomb that is not
    expired is linked back (``os.link`` never replaces an existing
    file) and the loser returns None.
    """
    settings = settings or LeaseSettings()
    path = Path(path)
    if not lease_is_expired(path, settings):
        return None
    tomb = path.with_name(
        path.name + f".stale-{uuid.uuid4().hex[:8]}"
    )
    try:
        os.rename(path, tomb)
    except OSError:
        return None  # another stealer won, or the holder released
    if not lease_is_expired(tomb, settings):
        try:
            os.link(tomb, path)
        except OSError:
            pass  # someone claimed the path meanwhile; theirs stands
        try:
            os.unlink(tomb)
        except OSError:
            pass
        return None
    try:
        os.unlink(tomb)
    except OSError:
        pass
    return acquire_lease(path, owner, settings)


class LeaseHeartbeat:
    """Background renewal of one lease while its cell executes.

    Starts a daemon thread that calls :meth:`Lease.renew` every
    ``settings.effective_heartbeat`` seconds until stopped.  If a
    renewal finds the lease gone (stolen after a stall), :attr:`lost`
    latches True and renewal stops — the worker finishes its cell and
    publishes regardless, relying on idempotent publication.
    """

    def __init__(self, lease: Lease, settings: LeaseSettings) -> None:
        self.lease = lease
        self.settings = settings
        self.lost = False
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _run(self) -> None:
        interval = self.settings.effective_heartbeat
        while not self._stop.wait(interval):
            if not self.lease.renew():
                self.lost = True
                return

    def start(self) -> "LeaseHeartbeat":
        thread = threading.Thread(
            target=self._run, name="repro-lease-heartbeat", daemon=True
        )
        thread.start()
        self._thread = thread
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "LeaseHeartbeat":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


__all__ = [
    "LEASE_SCHEMA_VERSION",
    "LEASE_SUFFIX",
    "Lease",
    "LeaseHeartbeat",
    "LeaseSettings",
    "acquire_lease",
    "lease_age_seconds",
    "lease_is_expired",
    "read_lease",
    "steal_expired_lease",
]
