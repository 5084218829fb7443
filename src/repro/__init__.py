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

``import repro`` loads no subpackage.  Each name in ``__all__`` imports its
module on first access, so ``from repro import EgoSession`` loads the
session and what it runs (graph, core, dynamic, parallel) but not the
serving, network, durability or baseline layers.

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

from importlib import import_module as _import_module

__version__ = "1.6.0"

#: Each public name, grouped by the module that holds it; a name's module
#: is imported on its first access (PEP 562 ``__getattr__``).
_EXPORTS = {
    "repro.session": ("EgoSession", "Query", "SessionStats"),
    "repro.graph": ("Graph",),
    "repro.errors": ("ReproError", "BackendCapabilityError"),
    "repro.core": (
        "ego_betweenness",
        "all_ego_betweenness",
        "static_upper_bound",
        "base_b_search",
        "opt_b_search",
        "top_k_ego_betweenness",
        "TopKResult",
        "SearchStats",
    ),
    "repro.dynamic": ("EgoBetweennessIndex", "LazyTopKMaintainer"),
    "repro.parallel": (
        "vertex_parallel_ego_betweenness",
        "edge_parallel_ego_betweenness",
        "ExecutionRuntime",
        "WorkerPool",
        "PayloadStore",
        "shared_worker_pool",
        "shared_payload_store",
        "RuntimeStats",
    ),
    "repro.serving": ("ServingGateway", "GatewayStats"),
    "repro.net": ("EgoServer", "ServerStats", "EgoClient"),
    "repro.durability": (
        "WriteAheadLog",
        "CheckpointStore",
        "DurabilityManager",
        "RecoveryReport",
    ),
    "repro.baselines": ("top_k_betweenness",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
