"""The two parallel all-vertex engines: VertexPEBW and EdgePEBW.

Both engines compute the exact ego-betweenness of every vertex and agree with
the sequential computation for any worker count; they differ only in how the
per-vertex tasks are assigned to workers (see :mod:`repro.parallel.partition`
for the rationale).  Each engine returns a :class:`ParallelRunResult` that
carries the scores, the schedule and the per-worker load statistics the
Fig. 10 experiment reports.

Execution goes through the persistent
:class:`~repro.parallel.runtime.ExecutionRuntime` whenever a CSR snapshot
exists: pass ``runtime=`` to share one pool and one shipped payload across
many engine calls (an :class:`~repro.session.EgoSession` does this
automatically); without it each call builds an ephemeral runtime.  Each
engine always executes its own partition —
:func:`~repro.parallel.partition.block_partition` for VertexPEBW,
:func:`~repro.parallel.partition.balanced_partition` for EdgePEBW — so the
measured per-chunk times line up with the deterministic load model
(Fig. 10's quantity).  The hash-set oracle runs the same chunks serially
in this process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import BackendCapabilityError, InvalidParameterError
from repro.graph.csr import CompactGraph
from repro.graph.dynamic_csr import DynamicCompactGraph
from repro.graph.graph import Graph, Vertex
from repro.parallel.load_balance import LoadBalanceReport, simulate_schedule
from repro.parallel.partition import (
    balanced_partition,
    block_partition,
    vertex_work_estimates,
    vertex_work_estimates_csr,
)
from repro.parallel.runtime import ExecutionRuntime, ParallelBackend

__all__ = ["ParallelRunResult", "vertex_parallel_ego_betweenness", "edge_parallel_ego_betweenness"]


@dataclass
class ParallelRunResult:
    """Outcome of a parallel all-vertex ego-betweenness run.

    Attributes
    ----------
    scores:
        The exact ego-betweenness of every vertex.
    engine:
        ``"VertexPEBW"`` or ``"EdgePEBW"``.
    num_workers:
        The requested degree of parallelism.
    elapsed_seconds:
        End-to-end wall-clock time of the run (partitioning + setup +
        compute).
    setup_seconds:
        One-time execution overhead inside this run: worker-pool start-up
        plus graph-payload shipping.  0.0 when a warm
        :class:`ExecutionRuntime` served the run — the steady state of a
        long-lived service.
    compute_seconds:
        Wall-clock time of the chunk execution itself.  Speedup
        measurements should use this, not ``elapsed_seconds`` — the
        historical single-field timing silently charged the fork cost of
        the process pool to the parallel algorithm.
    load_report:
        Deterministic per-worker load statistics (estimated work per worker,
        simulated makespan and speedup) — the quantity Fig. 10's speedup
        curves are reproduced from.
    chunk_seconds:
        Measured kernel seconds per chunk of the engine's partition, one
        per worker — the chunks the load report models (an empty chunk
        reports 0.0).
    """

    scores: Dict[Vertex, float]
    engine: str
    num_workers: int
    elapsed_seconds: float
    load_report: LoadBalanceReport
    chunk_seconds: List[float] = field(default_factory=list)
    setup_seconds: float = 0.0
    compute_seconds: float = 0.0


def vertex_parallel_ego_betweenness(
    graph: Graph,
    num_workers: int,
    backend: "ParallelBackend | str" = ParallelBackend.SERIAL,
    graph_backend: str = "auto",
    runtime: Optional[ExecutionRuntime] = None,
    payload_key=None,
) -> ParallelRunResult:
    """VertexPEBW: vertex-partitioned parallel ego-betweenness.

    Vertices are assigned to workers in contiguous blocks of the degree
    ordering (highest degree first), which mirrors the per-vertex triangle
    enumeration of the paper's VertexPEBW and inherits its load imbalance.

    ``graph_backend`` selects the storage the kernels run on: ``"auto"``
    (default) and ``"compact"`` convert once to the CSR backend — workers
    then receive the two flat CSR arrays instead of rebuilt adjacency
    dictionaries — while ``"hash"`` keeps the original hash-set path, which
    runs serially (``backend="process"`` raises
    :class:`~repro.errors.BackendCapabilityError`).
    ``runtime`` (CSR path only) reuses a persistent
    :class:`ExecutionRuntime` across calls; ``payload_key`` is the
    ``(graph_id, version)`` store key forwarded to the runtime's payload
    store (sessions pass theirs so multi-tenant stores account bytes per
    graph).  Scores are identical across every combination.
    """
    return _run_engine(
        graph, num_workers, backend, engine="VertexPEBW",
        graph_backend=graph_backend, runtime=runtime, payload_key=payload_key,
    )


def edge_parallel_ego_betweenness(
    graph: Graph,
    num_workers: int,
    backend: "ParallelBackend | str" = ParallelBackend.SERIAL,
    graph_backend: str = "auto",
    runtime: Optional[ExecutionRuntime] = None,
    payload_key=None,
) -> ParallelRunResult:
    """EdgePEBW: edge-work-balanced parallel ego-betweenness.

    Vertex tasks are spread over workers so that every worker receives an
    approximately equal amount of *edge work* (the number of directed
    adjacency probes inside the ego networks), which is the Python analogue
    of parallelising over directed edges and restores load balance under
    degree skew.  See :func:`vertex_parallel_ego_betweenness` for
    ``graph_backend`` / ``runtime``.
    """
    return _run_engine(
        graph, num_workers, backend, engine="EdgePEBW",
        graph_backend=graph_backend, runtime=runtime, payload_key=payload_key,
    )


def _run_engine(
    graph: Graph,
    num_workers: int,
    backend: "ParallelBackend | str",
    engine: str,
    graph_backend: str = "auto",
    runtime: Optional[ExecutionRuntime] = None,
    payload_key=None,
) -> ParallelRunResult:
    from repro.core.csr_kernels import normalize_backend

    if num_workers < 1:
        raise InvalidParameterError("num_workers must be positive")
    backend = ParallelBackend(backend)
    graph_backend = normalize_backend(graph_backend)

    if isinstance(graph, DynamicCompactGraph):
        # A mutable overlay (e.g. a dynamic EgoSession's state) is frozen to
        # an immutable CSR snapshot for the duration of the run.
        graph = graph.snapshot()

    start = time.perf_counter()
    setup_seconds = 0.0
    compute_seconds = 0.0
    if graph_backend == "hash":
        if isinstance(graph, CompactGraph):
            graph = graph.to_graph()
        weights = vertex_work_estimates(graph)
        # Order tasks by decreasing estimated work (equivalently, roughly by
        # the degree order), so block partitions concentrate hubs as
        # VertexPEBW does.
        tasks: List[Vertex] = sorted(graph.vertices(), key=lambda v: -weights[v])
        if engine == "VertexPEBW":
            chunks = block_partition(tasks, num_workers)
        else:
            chunks = balanced_partition(tasks, weights, num_workers)
        exec_start = time.perf_counter()
        scores, chunk_seconds = _run_serial_hash(graph, chunks, backend)
        compute_seconds = time.perf_counter() - exec_start
    else:
        compact = graph if isinstance(graph, CompactGraph) else graph.to_compact()
        labels = compact.labels
        estimates = vertex_work_estimates_csr(compact)
        weights_by_id = {i: estimates[i] for i in range(len(labels))}
        task_ids = sorted(range(len(labels)), key=lambda i: -estimates[i])
        if engine == "VertexPEBW":
            id_chunks = block_partition(task_ids, num_workers)
        else:
            id_chunks = balanced_partition(task_ids, weights_by_id, num_workers)
        owns_runtime = runtime is None
        if owns_runtime:
            runtime = ExecutionRuntime(max_workers=num_workers, executor=backend)
        try:
            id_scores, batch = runtime.execute(
                compact,
                chunks=id_chunks,
                num_workers=num_workers,
                payload_key=payload_key,
            )
        finally:
            if owns_runtime:
                runtime.close()
        setup_seconds = batch.setup_seconds
        compute_seconds = batch.compute_seconds
        chunk_seconds = batch.chunk_seconds
        scores = {labels[i]: score for i, score in id_scores.items()}
        chunks = [[labels[i] for i in chunk] for chunk in id_chunks]
        weights = {labels[i]: estimates[i] for i in range(len(labels))}
    elapsed = time.perf_counter() - start
    report = simulate_schedule(chunks, weights, num_workers)
    return ParallelRunResult(
        scores=scores,
        engine=engine,
        num_workers=num_workers,
        elapsed_seconds=elapsed,
        load_report=report,
        chunk_seconds=chunk_seconds,
        setup_seconds=setup_seconds,
        compute_seconds=compute_seconds,
    )


def _run_serial_hash(
    graph: Graph,
    chunks: Sequence[Sequence[Vertex]],
    backend: ParallelBackend,
) -> Tuple[Dict[Vertex, float], List[float]]:
    """Run the chunks on the hash oracle, serially in this process."""
    from repro.core.ego_betweenness import ego_betweenness

    if backend is not ParallelBackend.SERIAL:
        raise BackendCapabilityError(
            "the hash-set oracle runs serially only; convert the graph to "
            "the 'compact' backend (CSR) to execute on worker processes"
        )

    merged: Dict[Vertex, float] = {}
    timings: List[float] = []
    for chunk in chunks:
        start = time.perf_counter()
        for p in chunk:
            merged[p] = ego_betweenness(graph, p)
        timings.append(time.perf_counter() - start)
    return merged, timings
