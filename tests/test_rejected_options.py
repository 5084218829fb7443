"""Removed and misspelled options fail at construction, naming the keyword.

A fault knob or execution-strategy option that no served path sets was
deleted rather than kept as an inert option; old code that still passes
one must fail loudly where the object is built (or the call is made), not
later at the first mutation or query.
"""

from __future__ import annotations

import pytest

from repro.dynamic.lazy_topk import LazyTopKMaintainer
from repro.dynamic.local_update import EgoBetweennessIndex
from repro.errors import InvalidParameterError
from repro.graph.csr import CompactGraph
from repro.graph.dynamic_csr import DynamicCompactGraph
from repro.parallel.engines import (
    edge_parallel_ego_betweenness,
    vertex_parallel_ego_betweenness,
)
from repro.parallel.runtime import ExecutionRuntime, WorkerPool
from repro.serving import ServingGateway
from repro.session import EgoSession

EDGES = [(0, 1), (0, 2), (1, 2), (1, 3)]
COMPACT = CompactGraph.from_edges(EDGES)


def _execute_with_schedule():
    with ExecutionRuntime(executor="serial") as runtime:
        runtime.execute(COMPACT, schedule="dynamic")


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
        # Execution strategy follows the platform and the caller's chunks.
        (lambda: EgoSession(EDGES, kernel="numpy"), "kernel"),
        (lambda: EgoSession(EDGES, auto_promote=False), "auto_promote"),
        (lambda: EgoSession(EDGES, rebuild_ratio=0.5), "rebuild_ratio"),
        (lambda: EgoSession(EDGES, min_rebuild_deltas=4), "min_rebuild_deltas"),
        (lambda: EgoSession(EDGES, auto_rebuild=False), "auto_rebuild"),
        (lambda: EgoSession(EDGES, maintain_summaries=True), "maintain_summaries"),
        (lambda: ExecutionRuntime(kernel="python"), "kernel"),
        (lambda: ExecutionRuntime(oversubscribe=2), "oversubscribe"),
        (_execute_with_schedule, "schedule"),
        (lambda: vertex_parallel_ego_betweenness(COMPACT, 2, schedule="dynamic"), "schedule"),
        (lambda: edge_parallel_ego_betweenness(COMPACT, 2, schedule="dynamic"), "schedule"),
        (lambda: EgoBetweennessIndex(COMPACT, rebuild_ratio=0.5), "rebuild_ratio"),
        (lambda: LazyTopKMaintainer(COMPACT, 2, auto_rebuild=False), "auto_rebuild"),
        # A session's consumers adopt its one topology without an option.
        (lambda: EgoBetweennessIndex(COMPACT, copy=False), "copy"),
        # Every scored overlay vertex holds its histogram: no summary mode.
        (lambda: DynamicCompactGraph(COMPACT, maintain_summaries=True), "maintain_summaries"),
    ],
)
def test_removed_or_misspelled_option_is_rejected(build, keyword):
    with pytest.raises(TypeError, match=keyword):
        build()


def test_dynamic_backend_is_rejected():
    with pytest.raises(InvalidParameterError) as err:
        EgoSession(EDGES, backend="dynamic")
    for name in ("'auto'", "'compact'", "'hash'"):
        assert name in str(err.value)


@pytest.mark.parametrize(
    "argv",
    [
        ["topk", "--dataset", "dblp", "--kernel", "numpy"],
        ["maintain", "--dataset", "dblp", "--kernel", "python"],
        ["serve", "--http", "127.0.0.1:0", "--kernel", "auto"],
    ],
)
def test_kernel_flag_is_rejected(argv, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "--kernel" in capsys.readouterr().err


def test_executor_module_is_gone():
    with pytest.raises(ImportError):
        import repro.parallel.executor  # noqa: F401
