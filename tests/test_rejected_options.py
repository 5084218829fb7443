"""Removed and misspelled options fail at construction, naming the keyword.

A fault knob that no served path sets was deleted rather than kept as an
inert option; old code that still passes one must fail loudly where the
object is built, not later at the first mutation or query.
"""

from __future__ import annotations

import pytest

from repro.parallel.runtime import ExecutionRuntime, WorkerPool
from repro.serving import ServingGateway
from repro.session import EgoSession

EDGES = [(0, 1), (0, 2), (1, 2), (1, 3)]


@pytest.mark.parametrize(
    "build, keyword",
    [
        (lambda: EgoSession(EDGES, degraded_fallback=False), "degraded_fallback"),
        (lambda: EgoSession(EDGES, max_task_retries=0), "max_task_retries"),
        (lambda: EgoSession(EDGES, kernal="numpy"), "kernal"),
        (lambda: EgoSession(EDGES, backend="dynamic", kernal="numpy"), "kernal"),
        (lambda: EgoSession(EDGES, shards=2), "shards"),
        (lambda: EgoSession(EDGES, partitioner="community"), "partitioner"),
        (lambda: WorkerPool(2, worker_cache_limit=16), "worker_cache_limit"),
        (lambda: WorkerPool(2, neighbor_cache_limit=16), "neighbor_cache_limit"),
        (lambda: ExecutionRuntime(max_task_retries=0), "max_task_retries"),
        (lambda: WorkerPool(respawn_backoff=0.1), "respawn_backoff"),
        (lambda: WorkerPool(max_respawn_backoff=1.0), "max_respawn_backoff"),
        (lambda: ServingGateway(circuit_threshold=2), "circuit_threshold"),
        (lambda: ServingGateway(circuit_reset_seconds=1.0), "circuit_reset_seconds"),
    ],
)
def test_removed_or_misspelled_option_is_rejected(build, keyword):
    with pytest.raises(TypeError, match=keyword):
        build()


def test_overlay_options_are_still_accepted():
    with EgoSession(EDGES, rebuild_ratio=0.5, min_rebuild_deltas=4) as session:
        session.apply(("insert", 0, 3))
        assert session.scores() == EgoSession(EDGES + [(0, 3)]).scores()
