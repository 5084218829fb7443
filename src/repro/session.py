"""The unified, stateful entry point: :class:`EgoSession`.

The paper's system is one engine — static top-k search (BaseBSearch /
OptBSearch, Section III), dynamic maintenance (Section IV) and parallel
all-vertex computation (Section V) all operate over the same graph and the
same ego-betweenness values.  ``EgoSession`` is the API that matches that
architecture: **one object owns the graph, picks the storage backend
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
mutable topology: on the CSR backend an overlay holding every vertex's
connector-count histogram, seeded by one kernel sweep at promotion and
patched once by every update — the exact index and every lazy top-k
maintainer read that one topology and react to each update.  Exact
all-vertex values are maintained *on demand*: if the session already
holds a memoised values map at promotion (a ``scores()`` call happened), an
:class:`~repro.dynamic.local_update.EgoBetweennessIndex` (LocalInsert /
LocalDelete) is built immediately, **reusing the already-computed values
map** instead of recomputing every vertex, and each update patches it
incrementally.  If values were never demanded — e.g. a session that
only feeds lazy top-k maintainers — no index exists and updates cost only
the topology bookkeeping plus the attached maintainers; the index is
built, by re-summing the histograms, on the first read of any kind
(``score``, ``scores``, ``scores_batch``, or a naive or parallel
``top_k``).  The promotion happens exactly once, on every backend.

Backends
--------
``backend=`` is validated by
:func:`~repro.core.csr_kernels.normalize_backend`: ``compact`` (the
default ``auto``) pins a frozen ``CompactGraph`` CSR snapshot — a
``DynamicCompactGraph`` source is snapshotted — and ``hash`` runs the
hash-set ``Graph`` oracle end to end (the bit-identical reference backend;
it promotes onto the hash maintainers).  Chunks are scored at the
platform's kernel tier (:func:`~repro.core.vec_kernels.platform_tier`).

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
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

import itertools

from repro._ordering import sort_key
from repro.core.base_search import _base_b_search_hash
from repro.core.csr_kernels import (
    all_ego_betweenness_csr,
    as_hash_graph,
    base_b_search_csr,
    ego_betweenness_csr_cached,
    normalize_backend,
    opt_b_search_csr,
    static_bound_order,
)
from repro.core.ego_betweenness import all_ego_betweenness, ego_betweenness
from repro.core.opt_search import _opt_b_search_hash
from repro.core.topk import SearchStats, TopKResult, top_entries
from repro.dynamic.lazy_topk import LazyTopKMaintainer
from repro.dynamic.local_update import EgoBetweennessIndex, mutate_edge
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

__all__ = ["EgoSession", "Query", "SessionStats"]

GraphSource = Union[Graph, CompactGraph, DynamicCompactGraph, str, Iterable]

#: Monotonic source of auto-assigned session graph ids — the ``graph_id``
#: half of the ``(graph_id, version)`` payload-store key a session stamps
#: on every runtime execution.
_GRAPH_IDS = itertools.count()


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
    k / algorithm / theta / parallel / events / batch:
        The query parameters that applied (``None`` otherwise); ``batch``
        is the number of queries a ``scores_batch`` call answered.
    """

    kind: str
    state: str
    elapsed_seconds: float
    k: Optional[int] = None
    algorithm: Optional[str] = None
    theta: Optional[float] = None
    parallel: Optional[int] = None
    events: Optional[int] = None
    batch: Optional[int] = None


@dataclass
class SessionStats:
    """A point-in-time description of a session (see :meth:`EgoSession.stats`).

    Attributes
    ----------
    backend:
        The session's backend (``compact`` or ``hash``).
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
        CSR snapshots compacted from the session's dynamic overlay (at
        most one per topology version; 0 on the hash backend).
    runtimes:
        Per-executor :class:`~repro.parallel.runtime.RuntimeStats` of the
        session's persistent execution runtimes (empty until a parallel
        query creates one).
    fallbacks:
        Queries this session answered from the serial kernels after the
        parallel path failed (graceful degradation — answers stayed
        bit-identical, only latency degraded).
    kernel:
        The platform's kernel tier (``"numpy"`` when numpy imports, else
        ``"python"``).
    kernel_chunks:
        Vertex chunks actually served per tier, aggregated over the
        session's serial kernel and every runtime it created.  Answers
        are bit-identical across tiers by construction; this shows which
        tier did the work.
    kernel_fallbacks:
        Counted kernel demotions: every worker/serial chunk kernel that
        dropped to python after a vectorized failure.
    worker_deaths / respawns / task_retries / deadline_misses /
    integrity_failures:
        Failure accounting aggregated over the session's runtimes (see
        :class:`~repro.parallel.runtime.RuntimeStats`).
    durability:
        ``None`` for an in-memory session; otherwise the durability-plane
        counters (WAL appends/syncs/segments, checkpoints written,
        events since the last checkpoint) of the attached
        :class:`~repro.durability.manager.DurabilityManager`.
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
        if self.last_query is not None:
            payload["last_query"] = {
                key: value
                for key, value in vars(self.last_query).items()
                if value is not None
            }
        return payload


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
        ``"auto"`` (the default, the same as ``"compact"``) or ``"hash"``;
        see the module docstring.
    scale:
        Dataset scale factor, used only when ``source`` is a dataset name.
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

    Notes
    -----
    A static ``hash`` session reads the caller's :class:`Graph` live (no
    copy — matching the legacy free functions it powers); the promotion
    copies it, after which the session owns its state.  ``compact``
    sessions pin an immutable snapshot at construction.
    """

    def __init__(
        self,
        source: GraphSource,
        backend: str = "auto",
        *,
        scale: Optional[float] = None,
        graph_id: Optional[str] = None,
        task_deadline: Optional[float] = DEFAULT_TASK_DEADLINE,
        durability=None,
        fsync: Optional[str] = None,
        fsync_interval: Optional[float] = None,
        segment_bytes: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
        retain_checkpoints: Optional[int] = None,
    ) -> None:
        from repro.core.vec_kernels import platform_tier

        self.backend = normalize_backend(backend)
        source = self._coerce_source(source, scale, self.backend)
        # The stable half of the session's (graph_id, version) payload key.
        # Auto-assigned ids are unique per session; an explicit graph_id is
        # the opt-in for cross-session payload dedup in a shared store (two
        # tenants naming the same graph_id assert they hold the same graph).
        self.graph_id = graph_id or f"session-{next(_GRAPH_IDS)}"
        self._task_deadline = task_deadline
        self._fallbacks = 0
        self._kernel_fallbacks = 0
        self.kernel = platform_tier()
        # Tier-aware serial chunk kernel, memoized per compact snapshot;
        # counters of replaced kernels fold into the retired totals so
        # stats() survives promotions and snapshot changes.
        self._chunk_kernel: Optional[tuple] = None
        self._kernel_chunks_retired: Dict[str, int] = {"python": 0, "numpy": 0}
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

        # Dynamic state (populated at promotion): the one session-owned
        # mutable topology (the overlay, or self._hash on the oracle
        # backend), the optional demand-built exact index and any attached
        # lazy maintainers.  The index and the maintainers all adopt that
        # one topology; apply() mutates it once per event and each reacts.
        self._dyn: Optional[DynamicCompactGraph] = None
        self._index: Optional[EgoBetweennessIndex] = None
        self._lazy: Dict[int, LazyTopKMaintainer] = {}
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
        kernel = CSRChunkKernel.for_compact(compact)
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
        return self._dyn.snapshot()

    def _topology(self):
        """The one mutable topology of a promoted session."""
        return self._hash if self._dyn is None else self._dyn

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

    def _execute(
        self, targets: Optional[List[Vertex]], num_workers: int, executor: str
    ) -> Dict[Vertex, float]:
        """Score ``targets`` (``None``: every vertex) with one runtime batch.

        A worker fault degrades to the serial kernels (see :meth:`_degraded`).
        """
        compact = self._current_compact()
        runtime = self.runtime(executor, max_workers=self._pool_size(num_workers))
        ids = None if targets is None else [compact.id_of(vertex) for vertex in targets]
        try:
            id_scores, _ = runtime.execute(
                compact, ids=ids, num_workers=num_workers,
                payload_key=self._payload_key(),
            )
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
        score.  A worker fault degrades to the serial kernels (see
        :meth:`_degraded`).
        """
        compact = self._current_compact()
        runtime = self.runtime(executor, max_workers=self._pool_size(num_workers))
        key = self._payload_key()
        order = static_bound_order(compact)
        wave = [v for _, _, v in itertools.islice(order, k)]
        scored = len(wave)
        try:
            entries, _ = runtime.execute_top_k(
                compact, k, ids=wave, num_workers=num_workers, payload_key=key
            )
            if scored == k:
                threshold = entries[k - 1][1]
                wave = [
                    v
                    for _, _, v in itertools.takewhile(
                        lambda entry: -entry[0] >= threshold, order
                    )
                ]
                if wave:
                    more, _ = runtime.execute_top_k(
                        compact, k, ids=wave, num_workers=num_workers,
                        payload_key=key,
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
        labels = compact.labels
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
                "with executor='process'"
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
    def promote(self) -> None:
        """One-time static → dynamic promotion (idempotent).

        :meth:`apply` and :meth:`maintained_top_k` promote on their own;
        calling this pays the cost eagerly — e.g. before timing a stream of
        :meth:`apply` calls.  The session takes ownership of a mutable
        topology — a :class:`DynamicCompactGraph` overlay built from the
        pinned snapshot, whose connector-count histograms one sweep of the
        session's serial chunk kernel seeds (or a private copy of the hash
        graph).  The index and every lazy maintainer adopt that one
        topology.  If the session holds a fresh all-vertex values
        memo, the exact :class:`EgoBetweennessIndex` is built immediately,
        seeded with those values; otherwise the index is deferred until
        full values are demanded, so lazy-only workloads never pay for it.
        """
        if self._state == "dynamic":
            return
        values = self._fresh_values()
        if self.backend == "hash":
            self._hash = self._hash.copy()  # take ownership; source stays intact
        else:
            compact = self._compact
            histograms = self._serial_chunk_kernel(compact).histogram_chunk(
                range(compact.num_vertices)
            )
            self._dyn = DynamicCompactGraph(compact, histograms)
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
        self._index = EgoBetweennessIndex._adopt(self._topology(), values=values)

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
        serially; ``parallel=N`` makes one runtime batch (:meth:`_execute`);
        otherwise the serial CSR kernel runs — the session's tier chunk
        kernel for a full sweep, the memoised ego summary for a single
        vertex, ``all_ego_betweenness_csr`` for other subsets.
        """
        if self.backend == "hash":
            graph = self._hash
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
        2. a dynamic session with no index builds one (re-summed from the
           overlay's histograms; the hash oracle recomputes);
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
                self._build_index(None)
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
            graph = self._hash
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
        per-query :meth:`scores` calls for every worker count and executor.
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
                self._hash, num_workers, backend=executor, graph_backend="hash"
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
        session to the dynamic state (see :meth:`promote`).  Each update
        mutates the session's one topology once — through the exact index
        *if it exists* (it is only built when full values are demanded),
        which then re-sums the affected scores — and every attached lazy
        maintainer reacts to the same mutation.

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
        self.promote()
        durability = self._durability
        index = self._index
        topology = self._topology()
        maintainers = list(self._lazy.items())
        lazy_seconds = self._lazy_update_seconds
        count = 0
        for event in coerced:
            if durability is not None:
                # Write-ahead: durable before visible.
                durability.log_event(event)
            u, v = event.u, event.v
            inserting = event.operation == "insert"
            if index is not None:
                # The index adopts the session topology, so its update IS
                # the one mutation (plus its own re-sums).
                if inserting:
                    affected = index.insert_edge(u, v)
                else:
                    affected = index.delete_edge(u, v)
                self._index_update_seconds += index.last_update_seconds
                mutation_seconds = index.last_mutation_seconds
                common = affected - {u, v}
            else:
                start_mutation = time.perf_counter()
                common = mutate_edge(topology, u, v, inserting)
                mutation_seconds = time.perf_counter() - start_mutation
            # Each maintainer is charged the shared mutation plus its own
            # reaction: what a standalone maintainer's update would cost.
            for k, maintainer in maintainers:
                start_react = time.perf_counter()
                maintainer._react(u, v, common, inserting)
                lazy_seconds[k] += mutation_seconds + time.perf_counter() - start_react
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

    def maintained_top_k(self, k: int) -> TopKResult:
        """The incrementally-maintained top-k result (promotes if static).

        Attaches (once per ``k``) a :class:`LazyTopKMaintainer` over the
        session's own topology, seeded from the session's exact values when
        it holds them (re-summed from the overlay's held histograms
        otherwise; the hash oracle computes them), so attaching sweeps
        nothing.  It then reacts to every subsequent update of that one
        topology and answers from its lazily maintained result set —
        without forcing the session to build or drive the exact all-vertex
        index.
        It returns the true top-k after every update, as a naive
        ``top_k`` over the index's values does; the two differ in the
        per-update work they do, which :meth:`lazy_counters` and
        :meth:`maintenance_seconds` expose.
        """
        start = time.perf_counter()
        if k < 1:
            raise InvalidParameterError("k must be a positive integer")
        self.promote()
        maintainer = self._lazy.get(k)
        if maintainer is None:
            # Seed from the held values when there are any; otherwise the
            # maintainer computes its own, without building the index.
            maintainer = LazyTopKMaintainer._adopt(
                self._topology(), k, values=self._fresh_values()
            )
            self._lazy[k] = maintainer
            self._lazy_update_seconds.setdefault(k, 0.0)
        result = maintainer.top_k()
        self._record("maintained_top_k", start, k=k)
        return result

    def maintenance_seconds(self) -> Dict[str, Any]:
        """Cumulative per-component maintenance time spent inside ``apply``.

        Returns ``{"index": seconds, "lazy": {k: seconds, ...}}``.  Every
        entry is one algorithm's own per-update cost: the one timed
        mutation of the shared topology plus that consumer's reaction to
        it, as a standalone maintainer's update would measure.  A session
        that never demanded full values reports ``"index": 0.0`` (no index
        exists to drive).
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
                "maintained_top_k(k) first"
            )
        return {
            "exact_recomputations": maintainer.exact_recomputations,
            "skipped_recomputations": maintainer.skipped_recomputations,
        }

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
            return self._dyn.to_graph()
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
            overlay_rebuilds=self._dyn.compactions if self._dyn is not None else 0,
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
            last_query=self._last_query,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EgoSession(backend={self.backend!r}, state={self._state!r}, "
            f"n={self.num_vertices}, m={self.num_edges})"
        )
