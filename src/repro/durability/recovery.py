"""Crash recovery: latest valid checkpoint + WAL tail replay.

``recover()`` turns a durability directory back into a live
:class:`~repro.session.EgoSession`: it loads the newest checkpoint that
verifies, rebuilds the CSR snapshot from its arrays, replays every WAL
record past the checkpoint through the existing
:func:`~repro.dynamic.stream.apply_stream` path, and returns the session
together with a :class:`RecoveryReport` describing exactly what happened
(which checkpoint, how many events replayed, how many torn bytes were
dropped).  ``verify()`` is the fsck-style read-only mode: it validates
every checkpoint and decodes every WAL record without building a session
or repairing anything.

Determinism contract
--------------------
Replay drives the same ``insert_edge`` / ``delete_edge`` code the live
session ran, in the same order, from the same base state — so the
recovered topology is identical and ``scores()`` / ``top_k()`` are
**bit-identical** to a session that never crashed (the chaos drills in
``tests/test_crash_recovery.py`` assert this at every injected crash
point).  A WAL record whose event fails to apply (e.g. an insert of an
existing edge) is *skipped and counted*: the write-ahead discipline logs
before mutating, so an event that raised live was logged but never
applied — skipping it on replay reproduces the acknowledged state
exactly.

Memoised values are restored from the checkpoint only when there is no
WAL tail to replay (``values_restored`` in the report).  With a tail, the
values are dropped and recomputed on demand — incremental maintenance and
fresh recomputation agree only to float tolerance, and recovery refuses
to trade bit-identity for a warm cache.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import (
    CheckpointCorruptionError,
    GraphError,
    RecoveryError,
    WalCorruptionError,
)
from repro.graph.csr import CompactGraph

from repro.durability.checkpoint import CheckpointStore, _checkpoint_sequence
from repro.durability.manager import DEFAULT_CHECKPOINT_EVERY, DurabilityManager
from repro.durability.wal import (
    DEFAULT_FSYNC_INTERVAL,
    DEFAULT_SEGMENT_BYTES,
    SEGMENT_MAGIC,
    WriteAheadLog,
    scan_buffer,
)

__all__ = ["RecoveryReport", "recover", "verify"]


@dataclass
class RecoveryReport:
    """What a :func:`recover` (or :func:`verify`) run found and did.

    ``ok`` is the one-glance verdict: for a recovery it is always ``True``
    (failures raise instead); for a verify-only run it means a valid
    checkpoint exists and no WAL corruption was found (a torn tail does
    not clear it — that is the artefact recovery repairs, not an error).
    """

    directory: str
    verify_only: bool = False
    ok: bool = True
    checkpoint_path: Optional[str] = None
    checkpoint_sequence: int = 0
    wal_last_sequence: int = 0
    replayed_events: int = 0
    skipped_events: int = 0
    torn_bytes_dropped: int = 0
    segments_scanned: int = 0
    checkpoints_on_disk: int = 0
    invalid_checkpoints: List[str] = field(default_factory=list)
    wal_errors: List[str] = field(default_factory=list)
    values_restored: bool = False
    num_vertices: int = 0
    num_edges: int = 0
    elapsed_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly dict (the ``repro recover --json`` payload)."""
        return {
            "directory": self.directory,
            "verify_only": self.verify_only,
            "ok": self.ok,
            "checkpoint_path": self.checkpoint_path,
            "checkpoint_sequence": self.checkpoint_sequence,
            "wal_last_sequence": self.wal_last_sequence,
            "replayed_events": self.replayed_events,
            "skipped_events": self.skipped_events,
            "torn_bytes_dropped": self.torn_bytes_dropped,
            "segments_scanned": self.segments_scanned,
            "checkpoints_on_disk": self.checkpoints_on_disk,
            "invalid_checkpoints": list(self.invalid_checkpoints),
            "wal_errors": list(self.wal_errors),
            "values_restored": self.values_restored,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "elapsed_seconds": self.elapsed_seconds,
        }


def _rebuild_snapshot(payload: Dict[str, Any], path: str) -> CompactGraph:
    try:
        return CompactGraph(
            labels=payload["labels"],
            indptr=payload["indptr"],
            indices=payload["indices"],
        )
    except KeyError as exc:
        raise CheckpointCorruptionError(
            path, f"payload is missing the {exc.args[0]!r} field"
        ) from None


def recover(
    directory: Union[str, os.PathLike],
    *,
    resume: bool = True,
    restore_values: bool = True,
    backend: Optional[str] = None,
    fsync: str = "interval",
    fsync_interval: float = DEFAULT_FSYNC_INTERVAL,
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    retain_checkpoints: int = 3,
    **session_options,
):
    """Rebuild a session from a durability directory.

    Returns ``(session, report)``.  ``resume=True`` (the default)
    re-attaches the durability plane to the recovered session — later
    ``apply()`` calls continue the same WAL at the next sequence number —
    with the fsync/cadence knobs given here.  ``resume=False`` returns a
    plain in-memory session (useful for inspection and for oracles).

    ``backend`` overrides the checkpointed backend; every other keyword is
    forwarded to the :class:`~repro.session.EgoSession` constructor.

    Raises :class:`~repro.errors.RecoveryError` when the directory holds
    no valid checkpoint, and :class:`~repro.errors.WalCorruptionError`
    when the WAL tail needed for replay is corrupt (a torn tail is
    repaired, not an error).
    """
    from repro.dynamic.stream import apply_stream
    from repro.session import EgoSession

    start = time.perf_counter()
    root = Path(directory)
    report = RecoveryReport(directory=str(root))
    if not root.exists():
        raise RecoveryError(
            f"durability directory {str(root)!r} does not exist; nothing to "
            "recover"
        )
    store = CheckpointStore(root / "checkpoints")
    on_disk = store.list()
    report.checkpoints_on_disk = len(on_disk)
    for row in store.verify():
        if not row["valid"]:
            report.invalid_checkpoints.append(row["path"])
    payload = store.latest()
    if payload is None:
        raise RecoveryError(
            f"no valid checkpoint under {str(root)!r} "
            f"({len(on_disk)} file(s) on disk, all invalid or absent) — "
            "without a base snapshot there is no state to replay the WAL "
            "onto.  Was durability ever enabled on this directory?"
        )
    checkpoint_path = payload.pop("__path__")
    report.checkpoint_path = checkpoint_path
    report.checkpoint_sequence = int(payload.get("last_sequence", 0))
    snapshot = _rebuild_snapshot(payload, checkpoint_path)

    # Checkpoints of overlay-sourced sessions once recorded "dynamic"; any
    # backend other than the hash oracle recovers as "compact".
    session_backend = backend or (
        "hash" if payload.get("backend") == "hash" else "compact"
    )
    graph_id = session_options.pop("graph_id", None) or payload.get("graph_id")
    session = EgoSession(
        snapshot,
        backend=session_backend,
        graph_id=graph_id,
        **session_options,
    )

    # Opening the WAL repairs a torn tail in place (the crash artefact);
    # replay then raises on genuine corruption.
    wal = WriteAheadLog(
        root / "wal",
        fsync=fsync,
        fsync_interval=fsync_interval,
        segment_bytes=segment_bytes,
    )
    report.wal_last_sequence = wal.last_sequence
    report.segments_scanned = len(wal.segments())
    report.torn_bytes_dropped = wal.stats()["torn_bytes_dropped"]
    for record in wal.replay(after_sequence=report.checkpoint_sequence):
        try:
            apply_stream(session, (record.event,))
            report.replayed_events += 1
        except GraphError:
            # Logged but never applied live (the write-ahead discipline
            # logs first; the apply raised to the caller) — skipping
            # reproduces the acknowledged state exactly.
            report.skipped_events += 1

    if (
        restore_values
        and report.replayed_events == 0
        and report.skipped_events == 0
        and payload.get("values") is not None
    ):
        session._restore_values(payload["values"])
        report.values_restored = True

    if resume:
        manager = DurabilityManager(
            root,
            checkpoint_every=checkpoint_every,
            retain_checkpoints=retain_checkpoints,
            _wal=wal,
            _store=store,
        )
        session._attach_durability(manager, write_baseline=False)
    else:
        wal.close()

    report.num_vertices = session.num_vertices
    report.num_edges = session.num_edges
    report.elapsed_seconds = time.perf_counter() - start
    session.recovery_report = report
    return session, report


def verify(directory: Union[str, os.PathLike]) -> RecoveryReport:
    """fsck mode: validate a durability directory without touching it.

    Checks every checkpoint's magic/length/checksum header and decodes
    every WAL record, collecting problems into the report instead of
    raising; nothing is truncated, repaired or replayed.
    """
    start = time.perf_counter()
    root = Path(directory)
    report = RecoveryReport(directory=str(root), verify_only=True)
    if not root.exists():
        report.ok = False
        report.wal_errors.append(f"directory {str(root)!r} does not exist")
        report.elapsed_seconds = time.perf_counter() - start
        return report

    ckpt_dir = root / "checkpoints"
    if ckpt_dir.exists():
        store = CheckpointStore(ckpt_dir)
        rows = store.verify()
        report.checkpoints_on_disk = len(rows)
        best = 0
        for row in rows:
            if row["valid"]:
                best = max(best, row["sequence"] or 0)
            else:
                report.invalid_checkpoints.append(row["path"])
        report.checkpoint_sequence = best
        latest = store.latest()
        if latest is not None:
            report.checkpoint_path = latest["__path__"]

    wal_dir = root / "wal"
    segments = sorted(wal_dir.glob("wal-*.log")) if wal_dir.exists() else []
    report.segments_scanned = len(segments)
    last_sequence = 0
    for position, path in enumerate(segments):
        data = path.read_bytes()
        if len(data) < len(SEGMENT_MAGIC):
            report.torn_bytes_dropped += len(data)
            continue
        if data[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
            report.wal_errors.append(
                f"{path}: bad segment magic {data[: len(SEGMENT_MAGIC)]!r}"
            )
            continue
        try:
            records, _, torn_bytes = scan_buffer(
                data[len(SEGMENT_MAGIC) :],
                path=str(path),
                base_offset=len(SEGMENT_MAGIC),
            )
        except WalCorruptionError as exc:
            report.wal_errors.append(str(exc))
            continue
        if torn_bytes and position != len(segments) - 1:
            report.wal_errors.append(
                f"{path}: torn record in a non-final segment"
            )
        report.torn_bytes_dropped += torn_bytes
        if records:
            last_sequence = max(last_sequence, records[-1].sequence)
            report.replayed_events += len(records)
    report.wal_last_sequence = last_sequence
    report.ok = not report.wal_errors and report.checkpoint_path is not None
    report.elapsed_seconds = time.perf_counter() - start
    return report
