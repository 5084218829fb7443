"""The one-shot chunk runner for the parallel engines.

:func:`run_chunks` executes per-chunk ego-betweenness computations and
merges the results, dispatching on the *graph representation* it is
handed.

* A :class:`~repro.graph.csr.CompactGraph` routes through the
  :class:`~repro.parallel.runtime.ExecutionRuntime` as the single identity
  unit of one batch — flat CSR arrays shipped to workers via shared
  memory, once per graph version.
* A hash-set :class:`~repro.graph.graph.Graph` runs serially in the
  current process: it is the bit-identical oracle the CSR path is
  validated against, not a production path, so it has no worker pool.  A
  hash graph with ``backend="process"`` raises
  :class:`~repro.errors.BackendCapabilityError`.

``backend`` selects *how* CSR chunks execute: ``"serial"`` runs them in the
current process (tests, deterministic models), ``"process"`` on a worker
pool.  Callers that execute more than one batch should construct an
:class:`~repro.parallel.runtime.ExecutionRuntime` and pass it via
``runtime=`` so the pool and the shipped payload are reused; without one,
each call builds and tears down an ephemeral runtime.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import BackendCapabilityError
from repro.graph.csr import CompactGraph
from repro.graph.graph import Graph, Vertex
from repro.parallel.runtime import ExecutionRuntime, ParallelBackend

__all__ = ["ParallelBackend", "run_chunks"]


def run_chunks(
    source: Union[Graph, CompactGraph],
    chunks: Sequence[Sequence],
    backend: "ParallelBackend | str" = ParallelBackend.SERIAL,
    runtime: Optional[ExecutionRuntime] = None,
    payload_key=None,
) -> Tuple[Dict, List[float]]:
    """Execute the per-chunk computations and merge their results.

    Returns ``(scores, per_chunk_seconds)`` where ``per_chunk_seconds[i]``
    is the kernel time chunk ``i`` took (measured inside the worker).  The
    per-chunk times feed the load-balance analysis of Fig. 10.

    ``source`` decides the code path: a :class:`CompactGraph` executes on
    the :class:`ExecutionRuntime` (chunks contain dense vertex ids, scores
    are keyed by id); a hash :class:`Graph` runs the serial oracle (chunks
    contain labels, scores are keyed by label).
    """
    backend = ParallelBackend(backend)
    if isinstance(source, CompactGraph):
        return _run_chunks_runtime(source, chunks, backend, runtime, payload_key)
    return _run_serial_hash(source, chunks, backend)


def _run_chunks_runtime(
    compact: CompactGraph,
    chunks: Sequence[Sequence[int]],
    backend: ParallelBackend,
    runtime: Optional[ExecutionRuntime],
    payload_key=None,
) -> Tuple[Dict[int, float], List[float]]:
    """Execute a static chunk schedule through an (ephemeral?) runtime."""
    owns = runtime is None
    if owns:
        workers = sum(1 for chunk in chunks if chunk) or 1
        runtime = ExecutionRuntime(max_workers=workers, executor=backend)
    try:
        scores, batch = runtime.execute(compact, chunks=chunks, payload_key=payload_key)
        return scores, batch.chunk_seconds
    finally:
        if owns:
            runtime.close()


def _run_serial_hash(
    graph: Graph,
    chunks: Sequence[Sequence[Vertex]],
    backend: ParallelBackend = ParallelBackend.SERIAL,
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
