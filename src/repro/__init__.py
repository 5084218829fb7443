"""``repro`` — Efficient Top-k Ego-Betweenness Search (ICDE 2022), in Python.

A from-scratch reproduction of the paper's full system:

* the graph substrate (adjacency graph, degree-order orientation, triangle
  enumeration, generators, edge-list I/O) — :mod:`repro.graph`;
* exact ego-betweenness and the two top-k search algorithms with upper-bound
  pruning, BaseBSearch and OptBSearch — :mod:`repro.core`;
* dynamic maintenance under edge insertions/deletions, both the local
  all-vertex index and the lazy top-k maintainer — :mod:`repro.dynamic`;
* the vertex- and edge-parallel all-vertex engines, executed on shared
  serving infrastructure — reference-counted worker pools
  (:class:`repro.parallel.WorkerPool`), a multi-tenant shared-memory
  payload store keyed by ``(graph_id, version)``
  (:class:`repro.parallel.PayloadStore`) and the per-caller
  :class:`repro.parallel.ExecutionRuntime` composing them —
  :mod:`repro.parallel`;
* the async multi-tenant serving layer: a micro-batching gateway that
  coalesces concurrent requests into shared runtime passes
  (:class:`repro.serving.ServingGateway`) — :mod:`repro.serving`;
* the durability plane: a CRC-framed write-ahead log for the update
  stream, self-verifying CSR checkpoints and checkpoint+replay crash
  recovery (:class:`repro.durability.WriteAheadLog`,
  :func:`repro.durability.recover`) — :mod:`repro.durability`;
* the Brandes betweenness baseline (TopBW) — :mod:`repro.baselines`;
* synthetic dataset stand-ins and the experiment harness reproducing every
  table and figure of the evaluation — :mod:`repro.datasets`,
  :mod:`repro.experiments`.

The canonical API is the stateful :class:`repro.session.EgoSession` facade:
one object owns the graph, picks the storage backend once
(``auto | compact | hash``), keeps every memoised structure warm
across queries, and promotes itself from static search to dynamic
maintenance the moment the first edge update arrives.  The classic free
functions (:func:`top_k_ego_betweenness`, :func:`base_b_search`,
:func:`opt_b_search`) remain as documented compatibility wrappers — each
call runs through a throwaway session and returns bit-identical results.

Quickstart
----------
>>> from repro import EgoSession
>>> session = EgoSession([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
>>> len(session.top_k(2).entries)
2
>>> session.apply(("insert", 4, 0))  # static -> dynamic promotion
1
>>> session.stats().state
'dynamic'
"""

from repro.baselines import top_k_betweenness
from repro.durability import (
    CheckpointStore,
    DurabilityManager,
    RecoveryReport,
    WriteAheadLog,
)
from repro.core import (
    SearchStats,
    TopKResult,
    all_ego_betweenness,
    base_b_search,
    ego_betweenness,
    opt_b_search,
    static_upper_bound,
    top_k_ego_betweenness,
)
from repro.dynamic import EgoBetweennessIndex, LazyTopKMaintainer
from repro.errors import BackendCapabilityError, ReproError
from repro.graph import Graph
from repro.parallel import (
    ExecutionRuntime,
    PayloadStore,
    RuntimeStats,
    WorkerPool,
    edge_parallel_ego_betweenness,
    shared_payload_store,
    shared_worker_pool,
    vertex_parallel_ego_betweenness,
)
from repro.net import EgoClient, EgoServer, ServerStats
from repro.serving import GatewayStats, ServingGateway
from repro.session import EgoSession, Query, SessionStats

__version__ = "1.6.0"

__all__ = [
    "__version__",
    "EgoSession",
    "Query",
    "SessionStats",
    "Graph",
    "ReproError",
    "BackendCapabilityError",
    "ego_betweenness",
    "all_ego_betweenness",
    "static_upper_bound",
    "base_b_search",
    "opt_b_search",
    "top_k_ego_betweenness",
    "TopKResult",
    "SearchStats",
    "EgoBetweennessIndex",
    "LazyTopKMaintainer",
    "vertex_parallel_ego_betweenness",
    "edge_parallel_ego_betweenness",
    "ExecutionRuntime",
    "WorkerPool",
    "PayloadStore",
    "shared_worker_pool",
    "shared_payload_store",
    "RuntimeStats",
    "ServingGateway",
    "GatewayStats",
    "EgoServer",
    "ServerStats",
    "EgoClient",
    "WriteAheadLog",
    "CheckpointStore",
    "DurabilityManager",
    "RecoveryReport",
    "top_k_betweenness",
]
