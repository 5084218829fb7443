"""Parallel all-vertex ego-betweenness computation (Section V).

Two engines are provided, mirroring the paper's VertexPEBW and EdgePEBW:

* :func:`~repro.parallel.engines.vertex_parallel_ego_betweenness`
  (VertexPEBW) — the unit of parallel work is a vertex; tasks are assigned to
  workers in contiguous blocks of the vertex ordering, so the skewed degree
  distribution of real graphs translates directly into skewed worker loads.
* :func:`~repro.parallel.engines.edge_parallel_ego_betweenness`
  (EdgePEBW) — the unit of accounting is the directed edge work inside each
  ego network; tasks are spread over workers so that every worker receives an
  approximately equal amount of edge work, which removes the skew and yields
  the higher speedups of Fig. 10.

Both engines produce exactly the same values as the sequential
:func:`repro.core.ego_betweenness.all_ego_betweenness` for every worker
count; only the partition differs, and each engine always executes its
own.

Execution is owned by the persistent
:class:`~repro.parallel.runtime.ExecutionRuntime` — a lazily-created,
reusable worker pool whose workers receive the flat CSR arrays once per
graph version through a zero-copy shared-memory transport and then execute
vertex chunks: the caller's chunks when it passes them (the engines pass
their partition), otherwise weight-balanced id ranges through the pool's
shared task queue.  Every graph is one payload, and every batch runs one
snapshot's ids through one batch core.  The hash-set oracle runs serially
in the engines themselves, and :mod:`repro.parallel.load_balance` provides
the deterministic speedup model used to reproduce the shape of Fig. 10
independently of Python's process-start overhead.
"""

from repro.parallel.engines import (
    ParallelRunResult,
    edge_parallel_ego_betweenness,
    vertex_parallel_ego_betweenness,
)
from repro.parallel.load_balance import LoadBalanceReport, simulate_schedule
from repro.parallel.partition import (
    balanced_partition,
    block_partition,
    vertex_work_estimates,
    vertex_work_estimates_csr,
)
from repro.parallel.runtime import (
    BatchStats,
    ExecutionRuntime,
    ParallelBackend,
    PayloadStore,
    RuntimeStats,
    WorkerPool,
    shared_payload_store,
    shared_worker_pool,
)

__all__ = [
    "vertex_parallel_ego_betweenness",
    "edge_parallel_ego_betweenness",
    "ParallelRunResult",
    "ParallelBackend",
    "ExecutionRuntime",
    "WorkerPool",
    "PayloadStore",
    "shared_worker_pool",
    "shared_payload_store",
    "RuntimeStats",
    "BatchStats",
    "block_partition",
    "balanced_partition",
    "vertex_work_estimates",
    "vertex_work_estimates_csr",
    "simulate_schedule",
    "LoadBalanceReport",
]
