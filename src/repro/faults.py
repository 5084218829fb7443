"""Fault-injection harness for the serving plane.

A :class:`FaultPlan` describes *deterministic* failures to inject into the
parallel execution path: kill the worker on every Nth task, delay every
Nth task by T seconds (a straggler), raise inside the kernel on every Nth
task, and corrupt the integrity header of the first C shipped payloads.

The plan is drawn **parent-side**: :class:`ExecutionRuntime` consults the
process-global active plan when it submits each task and ships the drawn
action *with* the task, so fault counting is deterministic regardless of
which worker picks the task up.  The worker merely performs whatever
action rode along (``os._exit``, ``sleep``, ``raise``).  Ship corruption
is applied parent-side too, by flipping the checksum word of the freshly
shipped segment — the next worker attach detects the mismatch exactly as
it would a torn write.

Usage (the chaos tests and the chaos gate in ``benchmarks/bench_serving.py``)::

    from repro import faults

    plan = faults.FaultPlan(kill_every=100, delay_every=70,
                            delay_seconds=0.3, corrupt_ships=1)
    with faults.inject(plan):
        ...  # every parallel batch in this block draws from the plan
    plan.stats()  # {"kills": 2, "delays": 1, ...}

The serial execution path never consults the plan: it is the trusted
degraded-mode oracle the supervision layer falls back to.

The durability plane (:mod:`repro.durability`) consults the plan too, at
its own crash points: ``crash_on_append_every`` hard-exits the process on
every Nth WAL append — with ``torn_write_bytes`` controlling how much of
the final record reaches disk first (``-1`` = the whole record, i.e. a
death *between* append and ack; ``k >= 0`` = a torn prefix of ``k``
bytes) — ``corrupt_record_every`` flips a byte in every Nth appended
record so replay must detect it, and ``crash_on_checkpoint_every``
hard-exits after a checkpoint's temp file is written but *before* the
atomic rename publishes it.  The crash drills in
``tests/test_crash_recovery.py`` are built on these hooks.

:meth:`FaultPlan.summary` reports **drawn vs performed** injections:
every draw is counted parent-side at the decision point; "performed" is
ticked by :func:`note_performed` / :func:`perform` in the process that
actually executes the action.  Worker-side actions (kill/delay/raise ride
to a *different* process that holds no plan) therefore show up as drawn
only — their effect is visible in the recovery counters
(``worker_deaths``, ``task_retries``, ...) instead.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.errors import InjectedFaultError, InvalidParameterError

__all__ = [
    "FaultPlan",
    "active",
    "clear",
    "draw_checkpoint_crash",
    "draw_ship_corruption",
    "draw_task_fault",
    "draw_wal_append_fault",
    "inject",
    "install",
    "note_performed",
    "perform",
]

#: Exit code used by the ``kill`` fault so a supervised death is
#: distinguishable from a genuine crash in worker logs.
KILL_EXIT_CODE = 86


class FaultPlan:
    """A deterministic schedule of injected faults.

    Parameters
    ----------
    kill_every:
        Kill the worker process (``os._exit``) on every Nth task
        (0 disables).  The parent sees a vanished pid and a task that
        never completes — the worker-death recovery path.
    delay_every:
        Sleep ``delay_seconds`` before every Nth task (0 disables) — the
        straggler/deadline-miss recovery path.
    delay_seconds:
        Straggler sleep duration.
    raise_every:
        Raise :class:`InjectedFaultError` inside the kernel on every Nth
        task (0 disables) — the transient-task-failure retry path.
    corrupt_ships:
        Corrupt the integrity header of the first C shipped payloads —
        the torn-segment detect/unlink/re-ship path.
    crash_on_append_every:
        Hard-exit the process on every Nth WAL append (0 disables) — the
        crash-recovery drill hook.
    torn_write_bytes:
        How much of the crashing append's record reaches disk: ``-1`` (the
        default) writes the whole record before dying — a death *between*
        append and ack — while ``k >= 0`` writes only the first ``k``
        bytes, leaving the torn tail replay must truncate.
    corrupt_record_every:
        Flip a byte in every Nth appended WAL record (0 disables) — replay
        must reject it with ``WalCorruptionError``, never deliver it.
    crash_on_checkpoint_every:
        Hard-exit on every Nth checkpoint write, after the temp file is
        durable but *before* the atomic rename publishes it (0 disables) —
        the checkpoint-atomicity drill hook.

    When several ``*_every`` patterns coincide on the same task ordinal,
    one fault is injected with priority kill > raise > delay (and, on a
    WAL append ordinal, crash > corrupt).
    """

    def __init__(
        self,
        *,
        kill_every: int = 0,
        delay_every: int = 0,
        delay_seconds: float = 0.05,
        raise_every: int = 0,
        corrupt_ships: int = 0,
        crash_on_append_every: int = 0,
        torn_write_bytes: int = -1,
        corrupt_record_every: int = 0,
        crash_on_checkpoint_every: int = 0,
    ) -> None:
        for name, value in (
            ("kill_every", kill_every),
            ("delay_every", delay_every),
            ("raise_every", raise_every),
            ("corrupt_ships", corrupt_ships),
            ("crash_on_append_every", crash_on_append_every),
            ("corrupt_record_every", corrupt_record_every),
            ("crash_on_checkpoint_every", crash_on_checkpoint_every),
        ):
            if value < 0:
                raise InvalidParameterError(f"{name} must be >= 0, got {value}")
        if delay_seconds < 0:
            raise InvalidParameterError(
                f"delay_seconds must be >= 0, got {delay_seconds}"
            )
        if torn_write_bytes < -1:
            raise InvalidParameterError(
                f"torn_write_bytes must be >= -1, got {torn_write_bytes}"
            )
        self.kill_every = int(kill_every)
        self.delay_every = int(delay_every)
        self.delay_seconds = float(delay_seconds)
        self.raise_every = int(raise_every)
        self.corrupt_ships = int(corrupt_ships)
        self.crash_on_append_every = int(crash_on_append_every)
        self.torn_write_bytes = int(torn_write_bytes)
        self.corrupt_record_every = int(corrupt_record_every)
        self.crash_on_checkpoint_every = int(crash_on_checkpoint_every)
        self._lock = threading.Lock()
        self._tasks_seen = 0
        self._ships_seen = 0
        self._appends_seen = 0
        self._checkpoints_seen = 0
        self._injected = {
            "kills": 0,
            "delays": 0,
            "raises": 0,
            "corruptions": 0,
            "wal_crashes": 0,
            "wal_corruptions": 0,
            "checkpoint_crashes": 0,
        }
        self._performed = {key: 0 for key in self._injected}

    # ------------------------------------------------------------------
    # Parent-side draws
    # ------------------------------------------------------------------
    def draw_task_fault(self) -> Optional[Tuple[Any, ...]]:
        """Draw the fault (if any) for the next submitted task.

        Returns ``None`` or an action tuple shipped with the task:
        ``("kill",)``, ``("raise", message)`` or ``("delay", seconds)``.
        """
        with self._lock:
            self._tasks_seen += 1
            ordinal = self._tasks_seen
            if self.kill_every and ordinal % self.kill_every == 0:
                self._injected["kills"] += 1
                return ("kill",)
            if self.raise_every and ordinal % self.raise_every == 0:
                self._injected["raises"] += 1
                return ("raise", f"injected fault on task #{ordinal}")
            if self.delay_every and ordinal % self.delay_every == 0:
                self._injected["delays"] += 1
                return ("delay", self.delay_seconds)
        return None

    def draw_ship_corruption(self) -> bool:
        """True if the payload being shipped right now should be corrupted."""
        with self._lock:
            self._ships_seen += 1
            if self._injected["corruptions"] < self.corrupt_ships:
                self._injected["corruptions"] += 1
                return True
        return False

    def draw_wal_append_fault(self) -> Optional[Tuple[Any, ...]]:
        """Draw the fault (if any) for the next WAL append.

        Returns ``None``, ``("crash", torn_write_bytes)`` — the appending
        process must write that many bytes of the record (``-1`` = all of
        it), fsync, and hard-exit — or ``("corrupt",)`` — the record is
        written with a flipped body byte so replay must detect it.  Crash
        wins when both patterns coincide on one ordinal.
        """
        with self._lock:
            self._appends_seen += 1
            ordinal = self._appends_seen
            if self.crash_on_append_every and ordinal % self.crash_on_append_every == 0:
                self._injected["wal_crashes"] += 1
                return ("crash", self.torn_write_bytes)
            if self.corrupt_record_every and ordinal % self.corrupt_record_every == 0:
                self._injected["wal_corruptions"] += 1
                return ("corrupt",)
        return None

    def draw_checkpoint_crash(self) -> bool:
        """True if the checkpoint being written now should die pre-rename."""
        with self._lock:
            self._checkpoints_seen += 1
            if (
                self.crash_on_checkpoint_every
                and self._checkpoints_seen % self.crash_on_checkpoint_every == 0
            ):
                self._injected["checkpoint_crashes"] += 1
                return True
        return False

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def note_performed(self, kind: str) -> None:
        """Record that a drawn ``kind`` was actually executed in-process."""
        with self._lock:
            if kind not in self._performed:
                raise InvalidParameterError(
                    f"unknown fault kind {kind!r}; one of "
                    f"{sorted(self._performed)}"
                )
            self._performed[kind] += 1

    def stats(self) -> Dict[str, int]:
        """Counts of injected faults (and draw totals) so far."""
        with self._lock:
            return {
                "tasks_seen": self._tasks_seen,
                "ships_seen": self._ships_seen,
                "appends_seen": self._appends_seen,
                "checkpoints_seen": self._checkpoints_seen,
                **dict(self._injected),
            }

    def summary(self) -> Dict[str, Any]:
        """Drawn vs performed injections, per fault kind.

        ``drawn`` counts every decision made at a parent-side draw point;
        ``performed`` counts executions :func:`note_performed` /
        :func:`perform` reported *in this process*.  Kill/delay/raise
        actions execute inside worker processes that hold no plan, so they
        appear as drawn-only here — the supervision counters
        (``worker_deaths``, ``task_retries``, ``deadline_misses``) are
        their witness.  Ship corruption and the durability crash points
        run in the installing process, so their two columns line up.
        """
        with self._lock:
            return {
                "drawn": dict(self._injected),
                "performed": dict(self._performed),
                "seen": {
                    "tasks": self._tasks_seen,
                    "ships": self._ships_seen,
                    "wal_appends": self._appends_seen,
                    "checkpoints": self._checkpoints_seen,
                },
            }

    def reset(self) -> None:
        """Zero the counters (the schedule restarts from task #1)."""
        with self._lock:
            self._tasks_seen = 0
            self._ships_seen = 0
            self._appends_seen = 0
            self._checkpoints_seen = 0
            for key in self._injected:
                self._injected[key] = 0
            for key in self._performed:
                self._performed[key] = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(kill_every={self.kill_every}, "
            f"delay_every={self.delay_every}, "
            f"delay_seconds={self.delay_seconds}, "
            f"raise_every={self.raise_every}, "
            f"corrupt_ships={self.corrupt_ships}, "
            f"crash_on_append_every={self.crash_on_append_every}, "
            f"corrupt_record_every={self.corrupt_record_every}, "
            f"crash_on_checkpoint_every={self.crash_on_checkpoint_every})"
        )


# ----------------------------------------------------------------------
# Process-global plan registry
# ----------------------------------------------------------------------
_ACTIVE: Optional[FaultPlan] = None
_ACTIVE_LOCK = threading.Lock()


def install(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the process-global active plan (replacing any)."""
    global _ACTIVE
    if not isinstance(plan, FaultPlan):
        raise InvalidParameterError(
            f"install expects a FaultPlan, got {type(plan).__name__}"
        )
    with _ACTIVE_LOCK:
        _ACTIVE = plan
    return plan


def clear() -> None:
    """Deactivate fault injection."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = None


def active() -> Optional[FaultPlan]:
    """The currently installed plan, or ``None``."""
    return _ACTIVE


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager: install ``plan`` for the block, then restore."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _ACTIVE = plan
    try:
        yield plan
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE = previous


def draw_task_fault() -> Optional[Tuple[Any, ...]]:
    """Draw from the active plan (None when injection is off)."""
    plan = _ACTIVE
    return plan.draw_task_fault() if plan is not None else None


def draw_ship_corruption() -> bool:
    """Ship-corruption draw from the active plan (False when off)."""
    plan = _ACTIVE
    return plan.draw_ship_corruption() if plan is not None else False


def draw_wal_append_fault() -> Optional[Tuple[Any, ...]]:
    """WAL-append fault draw from the active plan (None when off)."""
    plan = _ACTIVE
    return plan.draw_wal_append_fault() if plan is not None else None


def draw_checkpoint_crash() -> bool:
    """Checkpoint-crash draw from the active plan (False when off)."""
    plan = _ACTIVE
    return plan.draw_checkpoint_crash() if plan is not None else False


def note_performed(kind: str) -> None:
    """Tick the active plan's performed counter (no-op when off)."""
    plan = _ACTIVE
    if plan is not None:
        plan.note_performed(kind)


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
def perform(fault: Optional[Tuple[Any, ...]]) -> None:
    """Execute a fault action tuple inside the worker (no-op on ``None``).

    When the executing process happens to hold the plan itself (thread /
    serial executors, or the durability crash points), the corresponding
    ``performed`` counter is ticked first, so :meth:`FaultPlan.summary`
    lines drawn and performed up; a separate worker process holds no plan
    and the tick is a no-op there.
    """
    if fault is None:
        return
    kind = fault[0]
    if kind == "kill":
        note_performed("kills")
        # A hard exit, exactly like SIGKILL from the outside: no cleanup,
        # no exception back to the parent — the task simply never returns.
        os._exit(KILL_EXIT_CODE)
    if kind == "delay":
        note_performed("delays")
        time.sleep(fault[1])
        return
    if kind == "raise":
        note_performed("raises")
        raise InjectedFaultError(fault[1])
    raise InvalidParameterError(f"unknown fault action {fault!r}")
