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
count; only the schedule differs.

Execution is owned by the persistent
:class:`~repro.parallel.runtime.ExecutionRuntime` — a lazily-created,
reusable worker pool whose workers receive the flat CSR arrays once per
graph version through a zero-copy shared-memory transport and then execute
vertex chunks by id range (statically partitioned, or dynamically chunked
through the pool's shared task queue).  One batch core serves every
payload shape: a sharded graph is a list of shard units, an unsharded one
the single identity unit.  :mod:`repro.parallel.executor` keeps the
one-shot ``run_chunks`` entry point (the hash oracle runs serially there),
and :mod:`repro.parallel.load_balance` provides the deterministic speedup
model used to reproduce the shape of Fig. 10 independently of Python's
process-start overhead.
"""

from repro.parallel.engines import (
    ParallelRunResult,
    edge_parallel_ego_betweenness,
    vertex_parallel_ego_betweenness,
)
from repro.parallel.executor import ParallelBackend, run_chunks
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
    "run_chunks",
    "block_partition",
    "balanced_partition",
    "vertex_work_estimates",
    "vertex_work_estimates_csr",
    "simulate_schedule",
    "LoadBalanceReport",
]
