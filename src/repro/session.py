"""The unified, stateful entry point: :class:`EgoSession`.

The paper's system is one engine — static top-k search (BaseBSearch /
OptBSearch, Section III), dynamic maintenance (Section IV) and parallel
all-vertex computation (Section V) all operate over the same graph and the
same ego-betweenness values.  ``EgoSession`` is the API that matches that
architecture: **one object owns the graph, negotiates the storage backend
once, and keeps every memoised structure warm across queries**, instead of
a scatter of free functions that each take their own ``backend=`` string
and rebuild CSR caches per call.

Lifecycle
---------
A session is constructed from any graph source — a hash-set
:class:`~repro.graph.graph.Graph`, an immutable
:class:`~repro.graph.csr.CompactGraph` snapshot, a mutable
:class:`~repro.graph.dynamic_csr.DynamicCompactGraph` overlay, a plain edge
list, or a registry dataset name — and starts in the **static** state: the
graph is frozen as a CSR snapshot (an edge list is read straight into one,
with no hash graph in between), or, with ``backend="hash"``, read from the
hash-set oracle; queries (:meth:`EgoSession.top_k`,
:meth:`~EgoSession.score`, :meth:`~EgoSession.scores`) run on warm caches.

The moment the first update arrives (:meth:`~EgoSession.apply`), the
session **promotes itself** static → dynamic and from then on owns a
mutable topology.  Exact all-vertex values are maintained *on demand*: if
the session already holds a memoised values map at promotion (a
``scores()`` call happened), an
:class:`~repro.dynamic.local_update.EgoBetweennessIndex` (LocalInsert /
LocalDelete) is built immediately, **reusing the already-computed values
map** instead of recomputing every vertex, and each update patches it
incrementally.  If values were never demanded — e.g. a session that
only feeds lazy top-k maintainers — no index exists and updates cost only
the topology bookkeeping plus the attached maintainers; the index is
built by the first read of any kind (``score``, ``scores``,
``scores_batch``, a naive or parallel ``top_k``, or
``maintained_top_k(mode="index")``).  The promotion happens
exactly once; a session constructed with ``auto_promote=False`` instead
raises :class:`~repro.errors.BackendCapabilityError` so frozen read-only
services cannot be mutated by accident.

Backend negotiation
-------------------
``backend=`` accepts four values, resolved once at construction:

========== ==================================================================
``auto``   ``compact`` for static sources, ``dynamic`` when the source is
           already a ``DynamicCompactGraph`` overlay (the default).
``compact`` frozen ``CompactGraph`` CSR snapshot; promotes on first update.
``hash``   the hash-set ``Graph`` oracle end to end (the bit-identical
           reference backend; also promotes, onto the hash maintainers).
``dynamic`` like ``compact`` but updates are always welcome — the promotion
           ignores ``auto_promote``.
========== ==================================================================

Every legacy entry point (``top_k_ego_betweenness``, ``base_b_search``,
``opt_b_search``, the CLI) is a thin adapter that constructs a throwaway
session, so the results are bit-identical whichever door a caller uses —
``tests/test_session.py`` enforces it.

Examples
--------
>>> from repro.graph.graph import Graph
>>> session = EgoSession(Graph(edges=[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]))
>>> [v for v, _ in session.top_k(2)]
[1, 2]
>>> session.apply(("insert", 3, 4))
1
>>> session.stats().state
'dynamic'
>>> session.score(3) == session.scores()[3]
True
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import itertools

from repro._ordering import sort_key
from repro.core.base_search import _base_b_search_hash
from repro.core.csr_kernels import (
    all_ego_betweenness_csr,
    as_hash_graph,
    base_b_search_csr,
    describe_backends,
    ego_betweenness_csr_cached,
    opt_b_search_csr,
    static_bound_order,
)
from repro.core.ego_betweenness import all_ego_betweenness, ego_betweenness
from repro.core.opt_search import _opt_b_search_hash
from repro.core.topk import SearchStats, TopKResult, top_entries
from repro.dynamic.lazy_topk import LazyTopKMaintainer
from repro.dynamic.local_update import EgoBetweennessIndex
from repro.dynamic.stream import UpdateEvent
from repro.errors import (
    BackendCapabilityError,
    DurabilityError,
    InvalidParameterError,
    RecoveryError,
    VertexNotFoundError,
    WorkerFaultError,
)
from repro.graph.csr import CompactGraph
from repro.graph.dynamic_csr import DynamicCompactGraph
from repro.graph.graph import Graph, Vertex
from repro.graph.partition import (
    ShardPlan,
    normalize_partitioner,
    partition_graph,
)
from repro.parallel.engines import (
    ParallelRunResult,
    edge_parallel_ego_betweenness,
    vertex_parallel_ego_betweenness,
)
from repro.parallel.runtime import (
    DEFAULT_TASK_DEADLINE,
    ExecutionRuntime,
    ParallelBackend,
    PayloadKey,
    PayloadStore,
    RuntimeStats,
    WorkerPool,
)

__all__ = ["EgoSession", "Query", "SessionStats", "SESSION_BACKENDS"]

#: The backend names a session negotiates between (``auto`` resolves to
#: ``compact`` or ``dynamic`` depending on the source).  Descriptions live
#: in :data:`repro.core.csr_kernels.BACKEND_DESCRIPTIONS` (one copy).
SESSION_BACKENDS = ("auto", "compact", "hash", "dynamic")

GraphSource = Union[Graph, CompactGraph, DynamicCompactGraph, str, Iterable]

#: Monotonic source of auto-assigned session graph ids — the ``graph_id``
#: half of the ``(graph_id, version)`` payload-store key a session stamps
#: on every runtime execution.
_GRAPH_IDS = itertools.count()

#: The :class:`DynamicCompactGraph` overlay parameters a compact or dynamic
#: session accepts as keyword arguments (applied at promotion).
_OVERLAY_OPTIONS = frozenset(
    ("rebuild_ratio", "min_rebuild_deltas", "auto_rebuild", "maintain_summaries")
)


@dataclass(frozen=True)
class Query:
    """One query answered by a session (the unit of :class:`SessionStats`).

    Attributes
    ----------
    kind:
        ``"top_k"``, ``"score"``, ``"scores"``, ``"scores_batch"``,
        ``"parallel_scores"``, ``"maintained_top_k"``, ``"apply"`` or
        ``"checkpoint"``.
    state:
        Session state (``"static"`` / ``"dynamic"``) when the query ran.
    elapsed_seconds:
        Wall-clock time spent answering, including any promotion it caused.
    k / algorithm / theta / mode / parallel / events / batch:
        The query parameters that applied (``None`` otherwise); ``batch``
        is the number of queries a ``scores_batch`` call answered.
    """

    kind: str
    state: str
    elapsed_seconds: float
    k: Optional[int] = None
    algorithm: Optional[str] = None
    theta: Optional[float] = None
    mode: Optional[str] = None
    parallel: Optional[int] = None
    events: Optional[int] = None
    batch: Optional[int] = None


@dataclass
class SessionStats:
    """A point-in-time description of a session (see :meth:`EgoSession.stats`).

    Attributes
    ----------
    backend:
        The negotiated backend (``compact``, ``hash`` or ``dynamic``).
    state:
        ``"static"`` until the first update promotes the session,
        ``"dynamic"`` afterwards.
    num_vertices / num_edges:
        Current size of the owned graph.
    queries:
        Per-kind counters of the queries answered so far.
    update_events:
        Total edge updates applied through :meth:`EgoSession.apply`.
    promotions:
        0 or 1 — whether the static→dynamic promotion has happened.
    values_cached:
        Whether exact all-vertex values are currently held — a fresh static
        memo, or (dynamic state) an incrementally-maintained index.
    graph_id:
        The session's stable graph identity — the ``graph_id`` half of the
        ``(graph_id, version)`` payload-store key its parallel executions
        are accounted under.
    values_reused_on_promotion:
        ``True`` when the promotion seeded the dynamic index from the
        session's memoised values instead of recomputing every vertex.
    lazy_maintainer_ks:
        The ``k`` values for which lazy top-k maintainers are attached.
    overlay_rebuilds:
        CSR overlay re-compactions of the session's dynamic topology.
    runtimes:
        Per-executor :class:`~repro.parallel.runtime.RuntimeStats` of the
        session's persistent execution runtimes (empty until a parallel
        query creates one).
    fallbacks:
        Queries this session answered from the serial kernels after the
        parallel path failed (graceful degradation — answers stayed
        bit-identical, only latency degraded).
    kernel:
        The negotiated kernel tier (``"python"`` or ``"numpy"`` — the
        ``"auto"`` request resolves at construction, mirroring backend
        negotiation).
    kernel_chunks:
        Vertex chunks actually served per tier, aggregated over the
        session's serial kernel and every runtime it created.  Answers
        are bit-identical across tiers by construction; this shows which
        tier did the work.
    kernel_fallbacks:
        Counted kernel degradations: a ``kernel="numpy"`` request without
        importable numpy, plus every worker/serial chunk kernel that
        demoted to python after a vectorized failure.
    worker_deaths / respawns / task_retries / deadline_misses /
    integrity_failures:
        Failure accounting aggregated over the session's runtimes (see
        :class:`~repro.parallel.runtime.RuntimeStats`).
    durability:
        ``None`` for an in-memory session; otherwise the durability-plane
        counters (WAL appends/syncs/segments, checkpoints written,
        events since the last checkpoint) of the attached
        :class:`~repro.durability.manager.DurabilityManager`.
    sharding:
        ``None`` for an unsharded session; otherwise the sharding-plane
        description — the negotiated ``shards``/``partitioner``, the
        current :meth:`~repro.graph.partition.ShardPlan.summary` once a
        plan exists (cut edges, halo overhead, per-shard sizes/versions,
        rebuilds), and the per-shard chunk counts / sharded batch totals
        aggregated over the session's runtimes.
    last_query:
        The most recent :class:`Query`, or ``None``.
    """

    backend: str
    state: str
    num_vertices: int
    num_edges: int
    graph_id: str = ""
    queries: Dict[str, int] = field(default_factory=dict)
    update_events: int = 0
    promotions: int = 0
    values_cached: bool = False
    values_reused_on_promotion: bool = False
    lazy_maintainer_ks: List[int] = field(default_factory=list)
    overlay_rebuilds: int = 0
    runtimes: Dict[str, RuntimeStats] = field(default_factory=dict)
    fallbacks: int = 0
    kernel: str = "python"
    kernel_chunks: Dict[str, int] = field(
        default_factory=lambda: {"python": 0, "numpy": 0}
    )
    kernel_fallbacks: int = 0
    worker_deaths: int = 0
    respawns: int = 0
    task_retries: int = 0
    deadline_misses: int = 0
    integrity_failures: int = 0
    durability: Optional[Dict[str, Any]] = None
    sharding: Optional[Dict[str, Any]] = None
    last_query: Optional[Query] = None

    def as_dict(self) -> Dict[str, Any]:
        """Return a JSON-friendly dict (the CLI ``--json`` payload shape)."""
        payload: Dict[str, Any] = {
            "backend": self.backend,
            "state": self.state,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "graph_id": self.graph_id,
            "queries": dict(self.queries),
            "update_events": self.update_events,
            "promotions": self.promotions,
            "values_cached": self.values_cached,
            "values_reused_on_promotion": self.values_reused_on_promotion,
            "lazy_maintainer_ks": list(self.lazy_maintainer_ks),
            "overlay_rebuilds": self.overlay_rebuilds,
            "fallbacks": self.fallbacks,
            "kernel": self.kernel,
            "kernel_chunks": dict(self.kernel_chunks),
            "kernel_fallbacks": self.kernel_fallbacks,
            "worker_deaths": self.worker_deaths,
            "respawns": self.respawns,
            "task_retries": self.task_retries,
            "deadline_misses": self.deadline_misses,
            "integrity_failures": self.integrity_failures,
        }
        if self.runtimes:
            payload["runtimes"] = {
                name: stats.as_dict() for name, stats in self.runtimes.items()
            }
        if self.durability is not None:
            payload["durability"] = dict(self.durability)
        if self.sharding is not None:
            payload["sharding"] = dict(self.sharding)
        if self.last_query is not None:
            payload["last_query"] = {
                key: value
                for key, value in vars(self.last_query).items()
                if value is not None
            }
        return payload


def _negotiate_backend(backend: str, source: object) -> str:
    """Resolve ``backend`` against the source type; validate the name."""
    backend = backend.lower()
    if backend not in SESSION_BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; accepted values are "
            f"{describe_backends(SESSION_BACKENDS)} — 'auto' resolves to "
            "'compact' for static sources and 'dynamic' when the source is "
            "already a DynamicCompactGraph"
        )
    if backend == "auto":
        return "dynamic" if isinstance(source, DynamicCompactGraph) else "compact"
    return backend


class EgoSession:
    """One stateful entry point for search, scoring, maintenance and parallel
    execution over a single owned graph.

    Parameters
    ----------
    source:
        A :class:`Graph`, :class:`CompactGraph`, :class:`DynamicCompactGraph`,
        an iterable of ``(u, v)`` edge pairs, or a registry dataset name.
        Edge pairs are read straight into a :class:`CompactGraph`
        (:meth:`CompactGraph.from_edges`); only ``backend="hash"`` builds a
        hash :class:`Graph` from them.
    backend:
        One of :data:`SESSION_BACKENDS`; see the module docstring.
    kernel:
        Kernel tier for chunk scoring, negotiated once at construction
        exactly like the backend: ``"auto"`` (the default) resolves to
        ``"numpy"`` when numpy is importable and ``"python"`` otherwise;
        the explicit tiers pin the choice.  An explicit ``"numpy"``
        without importable numpy degrades to ``"python"`` with a counted
        ``SessionStats.kernel_fallbacks``.  Every tier is bit-identical;
        the numpy tier vectorizes the batch wedge kernels over the same
        CSR arrays.
    scale:
        Dataset scale factor, used only when ``source`` is a dataset name.
    auto_promote:
        When ``False``, :meth:`apply` on a static ``compact`` / ``hash``
        session raises :class:`BackendCapabilityError` instead of promoting
        (``backend="dynamic"`` always promotes).
    task_deadline:
        Per-task deadline forwarded to the session's execution runtimes
        (see :class:`~repro.parallel.runtime.ExecutionRuntime`).  A
        parallel query whose execution infrastructure fails beyond the
        runtime's repair (worker pool broken, retries exhausted) is always
        re-answered by the serial kernels — bit-identical result, degraded
        latency — and counted in ``SessionStats.fallbacks``.
    durability:
        ``None`` (the default) keeps the session purely in-memory.  A
        directory path enables the durability plane on a **fresh**
        directory: every :meth:`apply` event is appended to a write-ahead
        log *before* the in-memory mutation and acknowledged only after
        (so an acknowledged update is never lost to process death), a
        baseline checkpoint is written immediately, and
        :meth:`checkpoint` / the ``checkpoint_every`` cadence bound the
        recovery replay tail.  A directory that already holds a history
        raises :class:`~repro.errors.RecoveryError` — reopen it with
        :meth:`EgoSession.recover` instead of silently forking the log.
        An existing :class:`~repro.durability.manager.DurabilityManager`
        is attached as-is.
    fsync / fsync_interval / segment_bytes / checkpoint_every /
    retain_checkpoints:
        Durability-plane knobs (see
        :class:`~repro.durability.wal.WriteAheadLog` and
        :class:`~repro.durability.manager.DurabilityManager`); only valid
        together with ``durability=``.
    overlay_options:
        Forwarded to the :class:`DynamicCompactGraph` overlay created at
        promotion: ``rebuild_ratio``, ``min_rebuild_deltas``,
        ``auto_rebuild`` and ``maintain_summaries``.  Any other keyword
        raises ``TypeError`` at construction.

    Notes
    -----
    A static ``hash`` session reads the caller's :class:`Graph` live (no
    copy — matching the legacy free functions it powers); the promotion
    copies it, after which the session owns its state.  ``compact`` /
    ``dynamic`` sessions pin an immutable snapshot at construction.
    """

    def __init__(
        self,
        source: GraphSource,
        backend: str = "auto",
        *,
        kernel: str = "auto",
        shards: int = 0,
        partitioner: str = "auto",
        scale: Optional[float] = None,
        auto_promote: bool = True,
        graph_id: Optional[str] = None,
        task_deadline: Optional[float] = DEFAULT_TASK_DEADLINE,
        durability=None,
        fsync: Optional[str] = None,
        fsync_interval: Optional[float] = None,
        segment_bytes: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
        retain_checkpoints: Optional[int] = None,
        **overlay_options,
    ) -> None:
        self.backend = _negotiate_backend(backend, source)
        source = self._coerce_source(source, scale, self.backend)
        # The stable half of the session's (graph_id, version) payload key.
        # Auto-assigned ids are unique per session; an explicit graph_id is
        # the opt-in for cross-session payload dedup in a shared store (two
        # tenants naming the same graph_id assert they hold the same graph).
        self.graph_id = graph_id or f"session-{next(_GRAPH_IDS)}"
        self._auto_promote = auto_promote
        self._task_deadline = task_deadline
        self._fallbacks = 0
        self._kernel_fallbacks = 0
        self.kernel = self._negotiate_kernel(kernel)
        self.shards, self.partitioner = self._negotiate_sharding(shards, partitioner)
        # Tier-aware serial chunk kernel, memoized per compact snapshot;
        # counters of replaced kernels fold into the retired totals so
        # stats() survives promotions and snapshot rebuilds.
        self._chunk_kernel: Optional[tuple] = None
        self._kernel_chunks_retired: Dict[str, int] = {"python": 0, "numpy": 0}
        unknown = sorted(set(overlay_options) - _OVERLAY_OPTIONS)
        if unknown:
            raise TypeError(
                f"EgoSession() got unexpected keyword argument(s) {unknown}; "
                f"overlay options are {sorted(_OVERLAY_OPTIONS)}"
            )
        if overlay_options and self.backend == "hash":
            raise TypeError(
                "overlay options are only valid with the 'compact' and "
                "'dynamic' backends (they configure the CSR overlay built "
                "at promotion)"
            )
        self._overlay_options = dict(overlay_options)
        self._state = "static"

        self._hash: Optional[Graph] = None
        self._compact: Optional[CompactGraph] = None
        if self.backend == "hash":
            self._hash = as_hash_graph(source)
        elif isinstance(source, DynamicCompactGraph):
            self._compact = source.snapshot()
        elif isinstance(source, CompactGraph):
            self._compact = source
        else:
            self._compact = source.to_compact()

        # Dynamic state (populated at promotion): the session-owned mutable
        # topology, the optional demand-built exact index adopting it, and
        # any attached lazy maintainers (each owns its own copy, exactly as
        # the standalone class does).
        self._dyn: Optional[DynamicCompactGraph] = None
        self._index: Optional[EgoBetweennessIndex] = None
        self._lazy: Dict[int, LazyTopKMaintainer] = {}
        self._snapshot_cache: Optional[tuple] = None
        self._graph_view_cache: Optional[tuple] = None
        self._values: Optional[Dict[Vertex, float]] = None
        self._values_version: Optional[int] = None
        self._query_counts: Dict[str, int] = {}
        self._last_query: Optional[Query] = None
        self._update_events = 0
        self._promotions = 0
        self._values_reused_on_promotion = False
        self._index_update_seconds = 0.0
        self._lazy_update_seconds: Dict[int, float] = {}
        # Persistent execution runtimes, one per executor kind, created
        # lazily by the first parallel query and reused by every later one
        # (the shipped CSR payload follows the session's graph version).
        self._runtimes: Dict[str, ExecutionRuntime] = {}
        # Per-(version, k) cache of parallel top-k entries: the worker-side
        # reduction returns only the ranked candidates, so repeated
        # identical queries must not re-run the pool.
        self._topk_cache: Dict[int, List] = {}
        self._topk_cache_version: Optional[int] = None
        # Version listeners: callbacks fired after every apply() with the
        # new topology version, so version-keyed caches held *outside* the
        # session (the serving gateway's hot-key result LRU, a server's
        # encoded-response cache) invalidate on the mutation itself instead
        # of discovering staleness lazily.
        self._version_listeners: List = []
        # Sharding plane: the ShardPlan over the current snapshot, built
        # lazily by the first sharded execution and refreshed incrementally
        # from the edge endpoints applied since (only touched shards
        # rebuild and re-ship; the rest keep their payload keys).
        self._shard_plan: Optional[ShardPlan] = None
        self._shard_plan_version: Optional[int] = None
        self._pending_shard_events: List[tuple] = []

        # Durability plane (None = purely in-memory).  Set by the
        # durability= argument here, or by recover() re-attaching the plane
        # of an existing directory after replay.
        self._durability = None
        #: The :class:`~repro.durability.recovery.RecoveryReport` of the
        #: recovery that produced this session, or ``None``.
        self.recovery_report = None
        durability_knobs = {
            "fsync": fsync,
            "fsync_interval": fsync_interval,
            "segment_bytes": segment_bytes,
            "checkpoint_every": checkpoint_every,
            "retain_checkpoints": retain_checkpoints,
        }
        if durability is None:
            given = [name for name, value in durability_knobs.items() if value is not None]
            if given:
                raise InvalidParameterError(
                    f"{', '.join(given)} configure the durability plane and "
                    "require durability=<directory> (or a DurabilityManager)"
                )
        else:
            from repro.durability.manager import DurabilityManager

            if isinstance(durability, DurabilityManager):
                manager = durability
            else:
                manager = DurabilityManager(
                    durability,
                    **{k: v for k, v in durability_knobs.items() if v is not None},
                )
            self._attach_durability(manager, write_baseline=True)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _negotiate_kernel(self, kernel: str) -> str:
        """Resolve the requested kernel tier (PR-6 degradation idiom).

        ``auto`` resolves silently; an explicit ``numpy`` request without
        importable numpy is an infrastructure shortfall — degrade to the
        python oracle with a counted fallback.
        """
        from repro.core.vec_kernels import (
            KERNEL_TIERS,
            describe_kernels,
            normalize_kernel,
            numpy_available,
        )

        kernel = kernel.lower()
        if kernel not in KERNEL_TIERS:
            raise InvalidParameterError(
                f"unknown kernel {kernel!r}; accepted values are "
                f"{describe_kernels(KERNEL_TIERS)}"
            )
        if kernel == "numpy" and not numpy_available():
            self._kernel_fallbacks += 1
            return "python"
        return normalize_kernel(kernel)

    def _negotiate_sharding(self, shards, partitioner: str):
        """Resolve the requested shard fan-out (backend/kernel idiom).

        ``shards=0`` (the default) keeps the single-payload path;
        ``shards=N`` fans parallel sweeps out across ``N`` halo-augmented
        shard payloads.  The partitioner name resolves exactly like
        backends and kernels (``auto`` → ``community``).  The ``hash``
        oracle backend has no CSR arrays to partition, so sharding it is
        a contradiction rather than a degradation — it raises.
        """
        if isinstance(shards, bool) or not isinstance(shards, int) or shards < 0:
            raise InvalidParameterError(
                f"shards must be a non-negative integer — got {shards!r}"
            )
        partitioner = normalize_partitioner(partitioner)
        if shards and self.backend == "hash":
            raise InvalidParameterError(
                "sharding partitions the CSR arrays and the 'hash' oracle "
                "backend has none; use backend='compact' or 'dynamic' "
                "with shards=N"
            )
        return shards, partitioner

    def _serial_chunk_kernel(self, compact: CompactGraph):
        """The session's tier-aware serial chunk kernel over ``compact``.

        Memoized per snapshot; a replaced kernel's tier counters fold into
        the retired totals so :meth:`stats` keeps the full history.
        """
        cached = self._chunk_kernel
        if cached is not None and cached[0] is compact:
            return cached[1]
        from repro.core.csr_kernels import CSRChunkKernel

        if cached is not None:
            self._retire_chunk_kernel(cached[1])
        kernel = CSRChunkKernel.for_compact(compact, kernel=self.kernel)
        self._chunk_kernel = (compact, kernel)
        return kernel

    def _retire_chunk_kernel(self, kernel) -> None:
        for tier, count in kernel.chunks_by_tier.items():
            self._kernel_chunks_retired[tier] = (
                self._kernel_chunks_retired.get(tier, 0) + count
            )
        self._kernel_fallbacks += kernel.kernel_fallbacks

    @staticmethod
    def _coerce_source(source: GraphSource, scale: Optional[float], backend: str):
        """The graph object behind ``source``: an edge list becomes a
        ``CompactGraph`` directly, or a ``Graph`` for the hash backend."""
        if isinstance(source, (Graph, CompactGraph, DynamicCompactGraph)):
            return source
        if isinstance(source, str):
            from repro.datasets.registry import load_dataset

            if scale is None:
                return load_dataset(source)
            return load_dataset(source, scale=scale)
        if isinstance(source, Iterable):
            return Graph(edges=source) if backend == "hash" else CompactGraph.from_edges(source)
        raise InvalidParameterError(
            "source must be a Graph, CompactGraph, DynamicCompactGraph, an "
            f"iterable of edges, or a dataset name — got {type(source).__name__}"
        )

    @classmethod
    def from_dataset(cls, name: str, scale: Optional[float] = None, **kwargs) -> "EgoSession":
        """Open a session on a registry dataset (synthetic stand-in)."""
        return cls(name, scale=scale, **kwargs)

    @classmethod
    def from_edges(cls, edges: Iterable, **kwargs) -> "EgoSession":
        """Open a session on an iterable of ``(u, v)`` edge pairs."""
        return cls(edges, **kwargs)

    @classmethod
    def from_edge_list(cls, path, **kwargs) -> "EgoSession":
        """Open a session on a whitespace edge-list file (self-loops dropped)."""
        from repro.graph.io import read_edge_pairs

        return cls(read_edge_pairs(path), **kwargs)

    @classmethod
    def recover(cls, directory, **kwargs) -> "EgoSession":
        """Restore a session from a durability directory.

        Loads the newest valid checkpoint, replays the WAL tail past it
        (truncating a torn tail — the crash artefact), and by default
        re-attaches the durability plane so :meth:`apply` continues the
        same log.  The :class:`~repro.durability.recovery.RecoveryReport`
        is available as ``session.recovery_report``.  Keyword arguments
        are those of :func:`repro.durability.recovery.recover`
        (``resume=``, ``restore_values=``, ``backend=``, the fsync knobs,
        plus any :class:`EgoSession` constructor options).
        """
        from repro.durability.recovery import recover as _recover

        session, _report = _recover(directory, **kwargs)
        return session

    # ------------------------------------------------------------------
    # Internal state accessors
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """``"static"`` before the first update, ``"dynamic"`` after."""
        return self._state

    @property
    def version(self) -> int:
        """Monotonic topology version of the owned graph.

        0 for a pinned static snapshot; bumped by every applied update.
        ``(graph_id, version)`` is the session's payload-store key, and the
        identity consumers should cache/coalesce under (the serving
        gateway keys in-flight top-k runs by it).
        """
        return self._current_version()

    def _current_version(self) -> int:
        if self._state == "dynamic":
            return self._dyn.version if self._dyn is not None else self._hash.version
        if self.backend == "hash":
            return self._hash.version
        return 0  # pinned immutable snapshot

    def _current_compact(self) -> CompactGraph:
        """The CSR view of the current state (memoised per version)."""
        if self._state != "dynamic":
            return self._compact
        if self._dyn is None:  # hash engine
            return self._hash.to_compact()
        version = self._dyn.version
        cached = self._snapshot_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        snapshot = self._dyn.snapshot()
        self._snapshot_cache = (version, snapshot)
        return snapshot

    def _current_hash_graph(self) -> Graph:
        """The hash-set view of the current state (memoised per version)."""
        if self._state != "dynamic" or self._dyn is None:
            return self._hash
        version = self._dyn.version
        cached = self._graph_view_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        view = self._dyn.to_graph()
        self._graph_view_cache = (version, view)
        return view

    def _sort_key(self) -> Callable[[Vertex], tuple]:
        """Vertex → :func:`~repro._ordering.sort_key`, precomputed if held.

        CSR states keep every label's key (``label_keys()`` of the snapshot
        or the overlay), so ranking a score map looks keys up instead of
        re-deriving them.
        """
        if self._state == "dynamic" and self._dyn is not None:
            return self._dyn.label_keys().__getitem__
        if self._state == "static" and self.backend != "hash":
            return self._compact.label_keys().__getitem__
        return sort_key

    # ------------------------------------------------------------------
    # Execution runtime management
    # ------------------------------------------------------------------
    def _payload_key(self) -> PayloadKey:
        """The ``(graph_id, version)`` key this session's payloads ship under."""
        return (self.graph_id, self._current_version())

    # ------------------------------------------------------------------
    # Sharding plane
    # ------------------------------------------------------------------
    def _current_shard_plan(self) -> Optional[ShardPlan]:
        """The shard plan over the current state (``None`` when unsharded).

        Built lazily by the first sharded execution.  After updates the
        plan refreshes incrementally: only the shards the touched edge
        endpoints reach rebuild (bumping their payload versions, so
        exactly those re-ship), the rest keep their keys and stay
        resident in the store.
        """
        if not self.shards:
            return None
        version = self._current_version()
        if self._shard_plan is not None and self._shard_plan_version == version:
            return self._shard_plan
        compact = self._current_compact()
        if self._shard_plan is not None and self._pending_shard_events:
            self._shard_plan.refresh(compact, self._pending_shard_events)
        else:
            self._shard_plan = partition_graph(compact, self.shards, self.partitioner)
        self._pending_shard_events = []
        self._shard_plan_version = version
        return self._shard_plan

    def _units(self, targets: Optional[List[Vertex]] = None) -> List[tuple]:
        """The runtime units answering ``targets`` (``None``: every vertex).

        Unsharded, that is the one identity unit of the current snapshot.
        With ``shards`` set, it is one unit per shard owning a target, each
        carrying its local → parent id map, so results come back keyed by
        the parent's dense ids and only the touched shard payloads ship.
        """
        compact = self._current_compact()
        plan = self._current_shard_plan()
        if plan is None:
            if targets is None:
                ids: Sequence[int] = range(compact.num_vertices)
            else:
                ids = [compact.id_of(vertex) for vertex in targets]
            return [(self._payload_key(), compact, ids, None)]
        owned: Dict[int, Iterable[int]] = {}
        if targets is None:
            owned = {shard.index: shard.owned_local for shard in plan.shards}
        else:
            for vertex in targets:
                shard = plan.shards[plan.shard_of(vertex)]
                owned.setdefault(shard.index, set()).add(shard.graph.id_of(vertex))
        return [
            (
                plan.payload_key(self.graph_id, shard),
                shard.graph,
                sorted(owned[shard.index]),
                [compact.id_of(label) for label in shard.graph.labels],
            )
            for shard in plan.shards
            if owned.get(shard.index)
        ]

    def _execute(
        self, targets: Optional[List[Vertex]], num_workers: int, executor: str
    ) -> Dict[Vertex, float]:
        """Score ``targets`` with one runtime batch over :meth:`_units`.

        A worker fault degrades to the serial kernels (see :meth:`_degraded`).
        """
        compact = self._current_compact()
        runtime = self.runtime(executor, max_workers=self._pool_size(num_workers))
        try:
            id_scores, _ = runtime.execute(self._units(targets), num_workers=num_workers)
        except WorkerFaultError:
            return self._degraded(lambda: self._compute(targets, None, "serial"))
        labels = compact.labels
        return {labels[i]: score for i, score in id_scores.items()}

    def _pruned_top_k(
        self, k: int, num_workers: int, executor: str
    ) -> Tuple[List[Tuple[Vertex, float]], int]:
        """The top-k of the current snapshot; returns ``(entries, ids scored)``.

        Scores only the vertices whose static bound ``d(d-1)/2`` (Lemma 1)
        lets them rank, in at most two runtime batches.  Wave 1 is the k
        vertices of largest bound; with τ its k-th score, wave 2 is every
        other vertex whose bound reaches τ (ties at τ included: a tied
        vertex may win on its sort key).  Any vertex left unscored has a
        score at most its bound, below τ, which is at most the true k-th
        score.  Sharded, each wave runs on the shards owning its vertices,
        whose halos hold every owned vertex's whole ego.  A worker fault
        degrades to the serial kernels (see :meth:`_degraded`).
        """
        compact = self._current_compact()
        runtime = self.runtime(executor, max_workers=self._pool_size(num_workers))
        labels = compact.labels
        order = static_bound_order(compact)
        wave = [labels[v] for _, _, v in itertools.islice(order, k)]
        scored = len(wave)
        try:
            entries, _ = runtime.execute_top_k(
                self._units(wave), k, num_workers=num_workers
            )
            if scored == k:
                threshold = entries[k - 1][1]
                wave = [
                    labels[v]
                    for _, _, v in itertools.takewhile(
                        lambda entry: -entry[0] >= threshold, order
                    )
                ]
                if wave:
                    more, _ = runtime.execute_top_k(
                        self._units(wave), k, num_workers=num_workers
                    )
                    entries += more
                    scored += len(wave)
        except WorkerFaultError:

            def recompute():
                scores = self._compute(None, None, "serial")
                return top_entries(scores, k, self._sort_key()), len(scores)

            return self._degraded(recompute)
        # The runtime returns every id reaching a wave's k-th score; ties at
        # the overall k-th are broken here, on labels.
        return top_entries({labels[i]: score for i, score in entries}, k), scored

    def _require_parallel_backend(self, executor: str) -> None:
        """Reject a process executor on the serial-only ``hash`` oracle."""
        if (
            self.backend == "hash"
            and ParallelBackend(executor) is ParallelBackend.PROCESS
        ):
            raise BackendCapabilityError(
                "the 'hash' oracle backend computes serially and has no CSR "
                "arrays to ship to worker processes; use backend='compact' "
                "(or 'dynamic') with executor='process'"
            )

    # ------------------------------------------------------------------
    # Version listeners (external version-keyed caches)
    # ------------------------------------------------------------------
    def add_version_listener(self, listener) -> None:
        """Register ``listener(version)`` to fire after every :meth:`apply`.

        The hook for **version-keyed caches outside the session**: a
        consumer caching answers under ``(graph_id, version)`` (the serving
        gateway's hot-key result LRU, a network server's encoded-response
        cache) registers a listener and drops its entries the moment the
        topology moves, instead of serving from a key that can never be
        asked for again.  Listeners run synchronously at the end of the
        mutating call, after every event applied; exceptions they raise are
        suppressed (the mutation has already happened — an observer must
        not be able to fail it).
        """
        self._version_listeners.append(listener)

    def remove_version_listener(self, listener) -> None:
        """Unregister a listener added by :meth:`add_version_listener`."""
        try:
            self._version_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_version_listeners(self) -> None:
        if not self._version_listeners:
            return
        version = self._current_version()
        for listener in list(self._version_listeners):
            try:
                listener(version)
            except Exception:  # noqa: BLE001 - observers cannot fail a mutation
                pass

    def runtime(
        self,
        executor: str = "process",
        max_workers: Optional[int] = None,
        pool: Optional[WorkerPool] = None,
        store: Optional[PayloadStore] = None,
    ) -> ExecutionRuntime:
        """The session's persistent :class:`ExecutionRuntime` for ``executor``.

        Created lazily on first use and reused by every later parallel
        query — the worker pool stays up and the CSR payload is shipped
        once per graph version (a mutation re-ships on the next parallel
        query).  ``max_workers``, ``pool`` and ``store`` configure the
        runtime at creation only; an existing runtime is returned as-is.
        Passing a shared :class:`WorkerPool` / :class:`PayloadStore` (what
        the serving gateway does for every tenant) makes this session a
        tenant of that infrastructure: its payloads ship into the shared
        table under :meth:`stats`'s ``graph_id`` and its tasks ride the
        shared pool.  :meth:`close` detaches this session's runtimes —
        shared pools and stores survive until their other tenants leave.
        """
        key = ParallelBackend(executor).value
        runtime = self._runtimes.get(key)
        if runtime is None or runtime.closed:
            runtime = ExecutionRuntime(
                max_workers=max_workers,
                executor=key,
                pool=pool,
                store=store,
                task_deadline=self._task_deadline,
                kernel=self.kernel,
            )
            self._runtimes[key] = runtime
        return runtime

    def _degraded(self, recompute):
        """Serve a query from the serial kernels after a worker fault.

        The session's one fault policy: ``recompute`` re-answers with the
        in-process serial kernels, which are bit-identical to every
        parallel path by construction — only latency degrades.  The
        fallback is counted in ``SessionStats.fallbacks``.
        """
        self._fallbacks += 1
        return recompute()

    def runtime_stats(self) -> Dict[str, RuntimeStats]:
        """Per-executor :class:`RuntimeStats` of the runtimes created so far.

        The returned objects are the runtimes' *live* counters; use
        :meth:`stats` for a point-in-time snapshot.
        """
        return {name: runtime.stats() for name, runtime in self._runtimes.items()}

    def close(self) -> None:
        """Shut down the session's execution runtimes (pools + transport).

        Idempotent; the session remains usable for queries — the next
        parallel query simply starts a fresh runtime.  A durable session's
        WAL is synced and closed too, so ``close()`` is the clean-shutdown
        fence: after it, :meth:`apply` raises
        :class:`~repro.errors.DurabilityError` (recover the directory to
        resume the log).  Sessions also work as context managers:
        ``with EgoSession(...) as session: ...``.
        """
        for runtime in self._runtimes.values():
            runtime.close()
        self._runtimes.clear()
        if self._durability is not None:
            self._durability.close()

    def __enter__(self) -> "EgoSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _record(self, kind: str, start: float, **params) -> None:
        self._query_counts[kind] = self._query_counts.get(kind, 0) + 1
        self._last_query = Query(
            kind=kind,
            state=self._state,
            elapsed_seconds=time.perf_counter() - start,
            **params,
        )

    # ------------------------------------------------------------------
    # Static / dynamic promotion
    # ------------------------------------------------------------------
    def _promote(self, operation: str = "apply()") -> None:
        """One-time static → dynamic promotion.

        The session takes ownership of a mutable topology — a
        :class:`DynamicCompactGraph` overlay sharing the pinned snapshot's
        arrays (or a private copy of the hash graph).  If the session holds
        a fresh all-vertex values memo, the exact
        :class:`EgoBetweennessIndex` is built immediately, seeded with
        those values (skipping its initial all-vertex computation
        entirely); otherwise the index is deferred until full values are
        demanded, so lazy-only workloads never pay for it.
        """
        if self._state == "dynamic":
            return
        if not self._auto_promote and self.backend != "dynamic":
            raise BackendCapabilityError(
                f"{operation} requires the static→dynamic promotion, but "
                f"this session was opened with auto_promote=False on the "
                f"frozen {self.backend!r} backend; open the session with "
                "auto_promote=True (the default) or backend='dynamic' to "
                "accept maintenance"
            )
        values = self._fresh_values()
        if self.backend == "hash":
            self._hash = self._hash.copy()  # take ownership; source stays intact
        else:
            self._dyn = DynamicCompactGraph(self._compact, **self._overlay_options)
        self._state = "dynamic"
        self._promotions += 1
        self._values = None
        self._values_version = None
        self._compact = None
        if values is not None:
            self._build_index(values)
            self._values_reused_on_promotion = True

    def _build_index(self, values: Optional[Dict[Vertex, float]]) -> None:
        """Create the exact index over the session-owned topology."""
        if self.backend == "hash":
            self._index = EgoBetweennessIndex(
                self._hash, backend="hash", values=values, copy=False
            )
        else:
            self._index = EgoBetweennessIndex(
                self._dyn, backend="compact", values=values, copy=False
            )

    def promote(self) -> None:
        """Promote the session static → dynamic without applying an update.

        Idempotent.  Useful when a caller wants to pay the one-time
        promotion cost (topology construction and, if a fresh values memo
        exists, index seeding) eagerly — e.g. before timing a stream of
        :meth:`apply` calls.
        """
        self._promote(operation="promote()")

    # ------------------------------------------------------------------
    # Read planning
    # ------------------------------------------------------------------
    def _fresh_values(self) -> Optional[Dict[Vertex, float]]:
        """The held exact values map of the current state, or ``None``.

        That is the dynamic index's live map, or the static memo when it
        was computed at the current version.  The one freshness test of
        the session; callers must not mutate the returned map.
        """
        if self._index is not None:
            return self._index.values
        if self._values is not None and self._values_version == self._current_version():
            return self._values
        return None

    def _compute(
        self, targets: Optional[List[Vertex]], parallel: Optional[int], executor: str
    ) -> Dict[Vertex, float]:
        """Compute exact values of ``targets`` (``None``: every vertex).

        The one place a kernel is picked.  The ``hash`` oracle computes
        serially; ``parallel=N`` makes one runtime batch over
        :meth:`_units`; otherwise the serial CSR kernel runs — the session's
        tier chunk kernel for a full sweep, the memoised ego summary for a
        single vertex, ``all_ego_betweenness_csr`` for other subsets.
        """
        if self.backend == "hash":
            graph = self._current_hash_graph()
            if targets is None:
                return all_ego_betweenness(graph)
            return {v: ego_betweenness(graph, v) for v in targets}
        if parallel is not None:
            return self._execute(targets, parallel, executor)
        compact = self._current_compact()
        if targets is not None:
            if len(targets) == 1:
                return {targets[0]: ego_betweenness_csr_cached(compact, targets[0])}
            return all_ego_betweenness_csr(compact, targets)
        if self.kernel == "python":
            return all_ego_betweenness_csr(compact)
        # The chunk kernel demotes (counted) on any vectorized failure, so
        # this is bit-identical to all_ego_betweenness_csr.
        id_scores = self._serial_chunk_kernel(compact).score_chunk(
            range(compact.num_vertices)
        )
        labels = compact.labels
        return {labels[i]: score for i, score in id_scores.items()}

    def _read(
        self, targets: Optional[List[Vertex]], parallel: Optional[int], executor: str
    ) -> Dict[Vertex, float]:
        """Exact values of ``targets`` (``None``: every vertex) — the planner.

        Rules, in order:

        1. a held map (:meth:`_fresh_values`) answers — ``parallel`` never
           forces a recomputation;
        2. a dynamic session with no index builds one, seeded from
           :meth:`_compute` when ``parallel`` is set (else it computes
           itself);
        3. a cold static full read computes and memoises;
        4. a cold static subset computes only the targets, memoising
           nothing.

        Unknown vertices raise :class:`VertexNotFoundError` on every route,
        and ``executor="process"`` on the ``hash`` backend raises
        :class:`BackendCapabilityError` on every route.  A full read returns the held map itself: callers must not mutate it.
        """
        if parallel is not None:
            self._require_parallel_backend(executor)
        held = self._fresh_values()
        if held is None:
            if self._state == "dynamic":
                seed = None if parallel is None else self._compute(None, parallel, executor)
                self._build_index(seed)
                held = self._index.values
            elif targets is None:
                held = self._values = self._compute(None, parallel, executor)
                self._values_version = self._current_version()
            else:
                return self._compute(targets, parallel, executor)
        if targets is None:
            return held
        try:
            return {v: held[v] for v in targets}
        except KeyError as error:
            raise VertexNotFoundError(error.args[0]) from None

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def top_k(
        self,
        k: int,
        algorithm: str = "opt",
        theta: float = 1.05,
        maintain_shared_maps: bool = True,
        parallel: Optional[int] = None,
        executor: str = "serial",
    ) -> TopKResult:
        """Run a top-k ego-betweenness search on the current graph state.

        ``algorithm`` is ``"opt"`` (OptBSearch, the default), ``"base"``
        (BaseBSearch) or ``"naive"`` (rank the exact values map).
        ``theta`` is OptBSearch's gradient ratio; ``maintain_shared_maps``
        is BaseBSearch's Algorithm-1 fidelity switch.  ``opt`` and ``base``
        always run their search, so their work counters describe it, and
        match the legacy free functions bit for bit.

        ``naive`` and ``parallel=N`` (which ignores ``algorithm``) rank the
        values map, read as :meth:`scores` reads it — except on a cold
        static CSR session with ``parallel=N``, where only the vertices
        whose static bound lets them rank are scored, in at most two
        runtime batches (see :meth:`_pruned_top_k`).  Every route returns
        the same entries; ``exact_computations`` counts what the call
        scored.
        """
        start = time.perf_counter()
        if k < 1:
            raise InvalidParameterError("k must be a positive integer")
        algorithm = algorithm.lower()
        if parallel is not None or algorithm == "naive":
            result = self._map_top_k(k, parallel, executor)
            self._record("top_k", start, k=k, algorithm="naive", parallel=parallel)
            return result
        if algorithm not in ("opt", "base"):
            raise InvalidParameterError(
                f"unknown method {algorithm!r}; use 'opt', 'base' or 'naive'"
            )
        elif self.backend == "hash":
            graph = self._current_hash_graph()
            if algorithm == "opt":
                result = _opt_b_search_hash(graph, k, theta=theta)
            else:
                result = _base_b_search_hash(
                    graph, k, maintain_shared_maps=maintain_shared_maps
                )
        else:
            compact = self._current_compact()
            if algorithm == "opt":
                result = opt_b_search_csr(compact, k, theta=theta)
            else:
                result = base_b_search_csr(
                    compact, k, maintain_shared_maps=maintain_shared_maps
                )
        self._record("top_k", start, k=k, algorithm=algorithm, theta=theta)
        return result

    def _map_top_k(self, k: int, parallel: Optional[int], executor: str) -> TopKResult:
        """The top k of the values map, or of the bound-pruned waves.

        The waves (:meth:`_pruned_top_k`) serve a cold static CSR session
        with ``parallel`` set: only the vertices whose static bound lets
        them rank are scored, and each chunk task returns only its entries
        at or above its k-th score.  As no values map comes back, the
        entries are cached per ``(version, k)``.  ``exact_computations``
        counts the vertices this call scored: a held map or a cached answer
        costs none.
        """
        start = time.perf_counter()
        pruned = 0
        held = self._fresh_values() is not None
        if parallel is None or self._state == "dynamic" or self.backend == "hash" or held:
            values = self._read(None, parallel, executor)
            entries = top_entries(values, k, self._sort_key())
            computed = 0 if held else len(values)
        else:
            version = self._current_version()
            if self._topk_cache_version != version:
                self._topk_cache.clear()
                self._topk_cache_version = version
            cached = self._topk_cache.get(k)
            if cached is None:
                entries, computed = self._pruned_top_k(k, parallel, executor)
                self._topk_cache[k] = list(entries)
                pruned = self.num_vertices - computed
            else:
                entries, computed = list(cached), 0
        stats = SearchStats(
            algorithm="naive",
            exact_computations=computed,
            pruned_vertices=pruned,
            elapsed_seconds=time.perf_counter() - start,
        )
        return TopKResult(entries=entries, k=k, stats=stats)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score(self, vertex: Vertex) -> float:
        """Exact ego-betweenness of one vertex on the current graph state.

        Read like ``scores([vertex])``; raises :class:`VertexNotFoundError`
        for an unknown vertex.
        """
        start = time.perf_counter()
        value = self._read([vertex], None, "serial")[vertex]
        self._record("score", start)
        return value

    def scores(
        self,
        vertices: Optional[Iterable[Vertex]] = None,
        parallel: Optional[int] = None,
        executor: str = "serial",
    ) -> Dict[Vertex, float]:
        """Exact ego-betweenness of every vertex (or of ``vertices``).

        Planned by :meth:`_read`: a held memo or index answers; otherwise a
        dynamic session builds its index, a static full read computes and
        memoises the map, and a static subset read computes only the
        subset.  ``parallel=N`` runs that computation as one batch with
        ``N`` workers on the session's persistent :class:`ExecutionRuntime`
        for ``executor`` (``"serial"`` or ``"process"``; the ``hash``
        backend computes serially and rejects ``"process"``).  It never
        forces a recomputation — :meth:`parallel_scores` does.
        """
        start = time.perf_counter()
        targets = None if vertices is None else list(vertices)
        result = self._read(targets, parallel, executor)
        self._record("scores", start, parallel=parallel)
        return dict(result) if targets is None else result

    def scores_batch(
        self,
        queries: Iterable[Optional[Iterable[Vertex]]],
        parallel: Optional[int] = None,
        executor: str = "serial",
    ) -> List[Dict[Vertex, float]]:
        """Answer many scores queries from one read.

        ``queries`` is an iterable of requests: ``None`` asks for every
        vertex, anything else is an iterable of vertices.  The batch makes
        one :meth:`scores` read of the full map when any request is
        ``None`` and of the union of the requested vertices otherwise, so
        32 concurrent requests cost at most one pool, one payload ship and
        one sweep instead of 32 cold calls.  ``parallel`` and ``executor``
        are those of :meth:`scores`.  Results are bit-identical to
        per-query :meth:`scores` calls for every worker count, executor and
        shard plan.
        """
        start = time.perf_counter()
        requests = [None if query is None else list(query) for query in queries]
        if not requests:
            self._record("scores_batch", start, parallel=parallel, batch=0)
            return []
        if any(request is None for request in requests):
            targets = None
        else:
            targets = list(dict.fromkeys(v for request in requests for v in request))
        source = self._read(targets, parallel, executor)
        answers = [
            dict(source) if request is None else {v: source[v] for v in request}
            for request in requests
        ]
        self._record("scores_batch", start, parallel=parallel, batch=len(requests))
        return answers

    def parallel_scores(
        self, num_workers: int, engine: str = "edge", executor: str = "serial"
    ) -> ParallelRunResult:
        """Run a Section-V parallel engine over the current graph state.

        The one read that always executes: ``engine="edge"`` (EdgePEBW, the
        default) or ``"vertex"`` (VertexPEBW) runs with ``num_workers``
        workers on the session's persistent runtime for ``executor``,
        whatever the session holds, and returns the full
        :class:`ParallelRunResult` (scores, schedule and load report).
        Nothing is memoised.
        """
        start = time.perf_counter()
        run = self._parallel_run(num_workers, engine=engine, executor=executor)
        self._record("parallel_scores", start, parallel=num_workers)
        return run

    def _parallel_run(
        self, num_workers: int, engine: str, executor: str
    ) -> ParallelRunResult:
        engine = engine.lower()
        if engine not in ("edge", "vertex"):
            raise InvalidParameterError(
                f"unknown parallel engine {engine!r}; use 'edge' (EdgePEBW) "
                "or 'vertex' (VertexPEBW)"
            )
        run_engine = (
            edge_parallel_ego_betweenness
            if engine == "edge"
            else vertex_parallel_ego_betweenness
        )
        if self.backend == "hash":
            return run_engine(
                self._current_hash_graph(), num_workers, backend=executor, graph_backend="hash"
            )
        try:
            return run_engine(
                self._current_compact(),
                num_workers,
                backend=executor,
                graph_backend="compact",
                # Size a freshly created pool to the request (capped at the CPU
                # count) rather than forking cpu_count() workers for a 2-worker
                # query; an existing runtime is reused as-is.
                runtime=self.runtime(executor, max_workers=self._pool_size(num_workers)),
                payload_key=self._payload_key(),
            )
        except WorkerFaultError:
            # The serial engine run is in-process (no pool, no transport)
            # and bit-identical to every parallel execution by construction.
            return self._degraded(
                lambda: run_engine(
                    self._current_compact(),
                    num_workers,
                    backend="serial",
                    graph_backend="compact",
                    runtime=self.runtime(
                        "serial", max_workers=self._pool_size(num_workers)
                    ),
                    payload_key=self._payload_key(),
                ),
            )

    @staticmethod
    def _pool_size(num_workers: int) -> int:
        import os

        return max(1, min(num_workers, os.cpu_count() or 1))

    # ------------------------------------------------------------------
    # Updates and maintenance
    # ------------------------------------------------------------------
    def apply(self, events) -> int:
        """Apply one edge update or a stream of them; return the count.

        Accepts an :class:`UpdateEvent`, an ``("insert" | "delete", u, v)``
        triple, or any iterable of either.  The first call promotes a static
        session to the dynamic state (see :meth:`_promote`).  Each update
        mutates the session's topology, incrementally patches the exact
        index *if it exists* (it is only built when full values are
        demanded), and is forwarded to every attached lazy maintainer.

        On a durable session each event follows the **write-ahead
        discipline**: it is appended to the WAL *before* any in-memory
        mutation, and the call returns (the acknowledgement) only after.
        A crash at any point therefore loses no acknowledged update —
        recovery replays the log tail — and an event that raises out of
        the mutation (e.g. inserting an existing edge) was logged but not
        applied, which replay reproduces by skipping it identically.
        """
        start = time.perf_counter()
        coerced = self._coerce_events(events)
        self._promote()
        durability = self._durability
        index = self._index
        maintainers = list(self._lazy.items())
        count = 0
        for event in coerced:
            if durability is not None:
                # Write-ahead: durable before visible.
                durability.log_event(event)
            inserting = event.operation == "insert"
            if index is not None:
                # The index adopts the session topology, so its update IS
                # the topology mutation.
                if inserting:
                    index.insert_edge(event.u, event.v)
                else:
                    index.delete_edge(event.u, event.v)
                self._index_update_seconds += index.last_update_seconds
            elif self._dyn is not None:
                if inserting:
                    self._dyn.insert_edge(event.u, event.v)
                else:
                    self._dyn.delete_edge(event.u, event.v)
            else:  # hash engine, no index yet
                if inserting:
                    self._hash.add_edge(event.u, event.v)
                else:
                    self._hash.remove_edge(event.u, event.v)
            for k, maintainer in maintainers:
                if inserting:
                    maintainer.insert_edge(event.u, event.v)
                else:
                    maintainer.delete_edge(event.u, event.v)
                self._lazy_update_seconds[k] += maintainer.last_update_seconds
            if self._shard_plan is not None:
                # Feed the incremental plan refresh: the endpoints decide
                # which shards rebuild (and re-ship) on the next sharded
                # execution.
                self._pending_shard_events.append((event.u, event.v))
            count += 1
        self._update_events += count
        self._record("apply", start, events=count)
        if count:
            self._notify_version_listeners()
        if durability is not None and durability.should_checkpoint():
            self.checkpoint()
        return count

    def insert_edge(self, u: Vertex, v: Vertex) -> int:
        """Convenience: ``apply(("insert", u, v))`` (stream-target shaped)."""
        return self.apply(UpdateEvent("insert", u, v))

    def delete_edge(self, u: Vertex, v: Vertex) -> int:
        """Convenience: ``apply(("delete", u, v))`` (stream-target shaped)."""
        return self.apply(UpdateEvent("delete", u, v))

    @staticmethod
    def _coerce_events(events) -> List[UpdateEvent]:
        def one(item) -> UpdateEvent:
            if isinstance(item, UpdateEvent):
                return item
            if (
                isinstance(item, (tuple, list))
                and len(item) == 3
                and item[0] in ("insert", "delete")
            ):
                return UpdateEvent(item[0], item[1], item[2])
            raise InvalidParameterError(
                "an update must be an UpdateEvent or an "
                f"('insert'|'delete', u, v) triple — got {item!r}"
            )

        if isinstance(events, (UpdateEvent, str)) or (
            isinstance(events, (tuple, list))
            and len(events) == 3
            and events[0] in ("insert", "delete")
        ):
            return [one(events)]
        if isinstance(events, Iterable):
            return [one(item) for item in events]
        return [one(events)]

    def maintained_top_k(self, k: int, mode: str = "lazy") -> TopKResult:
        """The incrementally-maintained top-k result (promotes if static).

        ``mode="lazy"`` attaches (once per ``k``) a
        :class:`LazyTopKMaintainer` seeded from the session's exact values;
        it then receives every subsequent update and answers from its lazily
        maintained result set — without forcing the session to build or
        drive the exact all-vertex index.  ``mode="index"`` ranks the
        demand-built index's exact values directly.  Both modes return the
        true top-k after every update; they differ in the per-update work
        they do, which :meth:`lazy_counters` and
        :meth:`maintenance_seconds` expose.
        """
        start = time.perf_counter()
        if k < 1:
            raise InvalidParameterError("k must be a positive integer")
        mode = mode.lower()
        if mode not in ("lazy", "index"):
            raise InvalidParameterError(
                f"unknown maintenance mode {mode!r}; use 'lazy' "
                "(LazyTopKMaintainer, bound-gated recomputations) or 'index' "
                "(EgoBetweennessIndex, exact values for every vertex)"
            )
        self._promote(operation="maintained_top_k()")
        if mode == "index":
            entries = top_entries(self._read(None, None, "serial"), k, self._sort_key())
            result = TopKResult(
                entries=entries,
                k=k,
                stats=SearchStats(algorithm="EgoBetweennessIndex"),
            )
            self._record("maintained_top_k", start, k=k, mode=mode)
            return result
        maintainer = self._lazy.get(k)
        if maintainer is None:
            # Seed from the index when it exists (free); otherwise compute
            # the values fresh — exactly what a standalone maintainer's
            # initialisation would do — without building the index.
            values = self._fresh_values()
            if values is None:
                values = self._compute(None, None, "serial")
            if self.backend == "hash":
                maintainer = LazyTopKMaintainer(
                    self._current_hash_graph(), k, backend="hash", values=values
                )
            else:
                maintainer = LazyTopKMaintainer(
                    self._current_compact(),
                    k,
                    backend="compact",
                    values=values,
                    **self._overlay_options,
                )
            self._lazy[k] = maintainer
            self._lazy_update_seconds.setdefault(k, 0.0)
        result = maintainer.top_k()
        self._record("maintained_top_k", start, k=k, mode=mode)
        return result

    def maintenance_seconds(self) -> Dict[str, Any]:
        """Cumulative per-component maintenance time spent inside ``apply``.

        Returns ``{"index": seconds, "lazy": {k: seconds, ...}}`` measured by
        each maintainer's own update timer — the honest per-algorithm cost.
        A session that never demanded full values reports ``"index": 0.0``
        (no index exists to drive).
        """
        return {
            "index": self._index_update_seconds,
            "lazy": dict(self._lazy_update_seconds),
        }

    def lazy_counters(self, k: int) -> Dict[str, int]:
        """Laziness counters of the ``k``-maintainer (Exp-3's metrics)."""
        maintainer = self._lazy.get(k)
        if maintainer is None:
            raise InvalidParameterError(
                f"no lazy maintainer is attached for k={k}; call "
                "maintained_top_k(k, mode='lazy') first"
            )
        return {
            "exact_recomputations": maintainer.exact_recomputations,
            "skipped_recomputations": maintainer.skipped_recomputations,
        }

    def rebuild(self) -> None:
        """Re-compact the dynamic CSR overlays (values/results unchanged).

        No-op in the static state (the snapshot is already contiguous) and
        on the hash backend.
        """
        if self._state == "dynamic":
            if self._dyn is not None:
                self._dyn.rebuild()
            for maintainer in self._lazy.values():
                maintainer.rebuild()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    @property
    def durable(self) -> bool:
        """Whether a durability plane (WAL + checkpoints) is attached."""
        return self._durability is not None

    def _attach_durability(self, manager, *, write_baseline: bool) -> None:
        """Attach a durability plane to this session.

        ``write_baseline=True`` (the ``durability=`` constructor path)
        requires a *fresh* directory and immediately publishes a baseline
        checkpoint of the current state, so the directory is recoverable
        from its very first moment.  ``write_baseline=False`` is the
        recovery path re-attaching an existing history after replay.
        """
        if write_baseline and manager.has_history:
            manager.close()
            raise RecoveryError(
                f"durability directory {str(manager.directory)!r} already "
                "holds a WAL/checkpoint history; opening a fresh session on "
                "it would fork the log.  Use EgoSession.recover"
                "(directory) to restore that history, or point durability= "
                "at an empty directory"
            )
        self._durability = manager
        if write_baseline:
            self.checkpoint()

    def _restore_values(self, values: Dict[Vertex, float]) -> None:
        """Adopt checkpointed memoised values (recovery, empty-tail only).

        A checkpoint's values are the memo or index of exactly the state it
        snapshots, so they cover every vertex of the recovered session.
        """
        self._values = values
        self._values_version = self._current_version()

    def checkpoint(self):
        """Publish an atomic checkpoint of the current state; return its path.

        The checkpoint carries the CSR arrays of :meth:`snapshot`, the
        session identity (graph id, backend, topology version) and —
        when the session holds them — the memoised all-vertex values, all
        framed with a self-verifying magic + lengths + checksum header.
        The WAL is synced first and its now-redundant segments pruned, so
        a checkpoint both bounds recovery time and bounds disk growth.
        Requires ``durability=``; raises
        :class:`~repro.errors.DurabilityError` otherwise.
        """
        start = time.perf_counter()
        if self._durability is None:
            raise DurabilityError(
                "this session has no durability plane; open it with "
                "EgoSession(source, durability=<directory>) or restore one "
                "with EgoSession.recover(<directory>)"
            )
        snapshot = self.snapshot()
        payload = {
            "graph_id": self.graph_id,
            "backend": self.backend,
            "session_version": self._current_version(),
            "update_events": self._update_events,
            "created_at": time.time(),
            "labels": list(snapshot.labels),
            "indptr": list(snapshot.indptr),
            "indices": list(snapshot.indices),
            "num_vertices": snapshot.num_vertices,
            "num_edges": snapshot.num_edges,
            "values": self._fresh_values(),
        }
        path = self._durability.write_checkpoint(payload)
        self._record("checkpoint", start)
        return path

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> CompactGraph:
        """An immutable CSR snapshot of the current graph state.

        Static sessions return the pinned snapshot itself (zero cost);
        dynamic sessions return a per-version memoised compaction of the
        owned topology.
        """
        if self._state == "dynamic":
            return self._current_compact()
        if self.backend == "hash":
            return self._hash.to_compact()
        return self._compact

    def to_graph(self) -> Graph:
        """A hash-set :class:`Graph` view of the current state.

        The result is always safe to mutate: a static ``hash`` session
        returns the caller's own source graph (which the session reads
        live by contract), every other state materialises an independent
        graph — in particular a promoted ``hash`` session returns a *copy*
        of its owned topology, so callers cannot bypass the maintained
        index.
        """
        if self.backend == "hash":
            if self._state == "dynamic":
                return self._hash.copy()
            return self._hash
        if self._state == "dynamic":
            return self._current_hash_graph()
        return self._compact.to_graph()

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the owned graph."""
        if self._dyn is not None:
            return self._dyn.num_vertices
        if self._hash is not None:
            return self._hash.num_vertices
        return self._compact.num_vertices

    @property
    def num_edges(self) -> int:
        """Number of undirected edges of the owned graph."""
        if self._dyn is not None:
            return self._dyn.num_edges
        if self._hash is not None:
            return self._hash.num_edges
        return self._compact.num_edges

    def stats(self) -> SessionStats:
        """A :class:`SessionStats` snapshot of the session's life so far."""
        runtimes = {
            name: replace(stats) for name, stats in self.runtime_stats().items()
        }
        kernel_chunks = dict(self._kernel_chunks_retired)
        kernel_fallbacks = self._kernel_fallbacks
        if self._chunk_kernel is not None:
            for tier, count in self._chunk_kernel[1].chunks_by_tier.items():
                kernel_chunks[tier] = kernel_chunks.get(tier, 0) + count
            kernel_fallbacks += self._chunk_kernel[1].kernel_fallbacks
        for runtime_stats in runtimes.values():
            for tier, count in runtime_stats.kernel_chunks.items():
                kernel_chunks[tier] = kernel_chunks.get(tier, 0) + count
            kernel_fallbacks += runtime_stats.kernel_fallbacks
        sharding: Optional[Dict[str, Any]] = None
        if self.shards:
            sharding = {"shards": self.shards, "partitioner": self.partitioner}
            if self._shard_plan is not None:
                sharding.update(self._shard_plan.summary())
            sharded_batches = 0
            shard_chunks: Dict[str, int] = {}
            for runtime_stats in runtimes.values():
                sharded_batches += runtime_stats.sharded_batches
                for shard_name, count in runtime_stats.shard_chunks.items():
                    shard_chunks[shard_name] = (
                        shard_chunks.get(shard_name, 0) + count
                    )
            sharding["sharded_batches"] = sharded_batches
            sharding["shard_chunks"] = shard_chunks
        return SessionStats(
            backend=self.backend,
            state=self._state,
            num_vertices=self.num_vertices,
            num_edges=self.num_edges,
            graph_id=self.graph_id,
            queries=dict(self._query_counts),
            update_events=self._update_events,
            promotions=self._promotions,
            values_cached=self._fresh_values() is not None,
            values_reused_on_promotion=self._values_reused_on_promotion,
            lazy_maintainer_ks=sorted(self._lazy),
            overlay_rebuilds=self._dyn.rebuilds if self._dyn is not None else 0,
            # Copies, like every other SessionStats field — the snapshot
            # must not mutate as later queries tick the live counters.
            runtimes=runtimes,
            fallbacks=self._fallbacks,
            kernel=self.kernel,
            kernel_chunks=kernel_chunks,
            kernel_fallbacks=kernel_fallbacks,
            worker_deaths=sum(s.worker_deaths for s in runtimes.values()),
            respawns=sum(s.respawns for s in runtimes.values()),
            task_retries=sum(s.task_retries for s in runtimes.values()),
            deadline_misses=sum(s.deadline_misses for s in runtimes.values()),
            integrity_failures=sum(
                s.integrity_failures for s in runtimes.values()
            ),
            durability=(
                self._durability.stats() if self._durability is not None else None
            ),
            sharding=sharding,
            last_query=self._last_query,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EgoSession(backend={self.backend!r}, state={self._state!r}, "
            f"n={self.num_vertices}, m={self.num_edges})"
        )
