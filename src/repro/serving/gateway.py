"""The asyncio micro-batching gateway: many clients, shared infrastructure.

``EgoSession`` answers one caller at a time; a service answers thousands of
concurrent callers whose requests arrive interleaved across many tenant
graphs.  :class:`ServingGateway` closes that gap with two mechanisms:

* **Micro-batching.**  Requests for one tenant that arrive within a small
  coalescing window (``window_seconds``, or earlier when ``max_batch``
  requests pile up) are answered by a *single*
  :meth:`~repro.session.EgoSession.scores_batch` pass — 64 concurrent
  clients cost one computation over the union of what they asked for, not
  64 computations.  Results resolve back to each caller's future in
  request order.
* **Shared serving infrastructure.**  Every tenant session is attached to
  the gateway's one :class:`~repro.parallel.runtime.WorkerPool` and one
  :class:`~repro.parallel.runtime.PayloadStore`, so N tenants fork one set
  of worker processes and each graph version ships exactly once, under its
  ``(graph_id, version)`` key, however the tenants' batches interleave.

Back-pressure is explicit: a tenant whose unanswered-request backlog
reaches ``max_pending`` sheds load with
:class:`~repro.errors.GatewayOverloadedError` instead of buffering without
bound.  Cancellation is safe at any point — a request cancelled while it
waits in the window is simply dropped from the batch; the remaining
requests are unaffected.

Answers are **bit-identical to the serial kernels**: batching only changes
*when* a computation runs, never what it computes (the session layer's
canonical-order guarantees carry through unchanged).  The gateway adds no
fault layer of its own: a broken worker pool is absorbed below it, by the
runtime's supervision and then the session's serial fallback, so a tenant
on a failing pool is answered at serial latency rather than failed.

Examples
--------
>>> import asyncio
>>> from repro.serving import ServingGateway
>>> async def demo():
...     async with ServingGateway(window_seconds=0.001) as gateway:
...         gateway.add_tenant("toy", [(0, 1), (0, 2), (1, 2), (1, 3)])
...         full, one = await asyncio.gather(
...             gateway.scores("toy"), gateway.score("toy", 1)
...         )
...         return one == full[1], gateway.stats()["gateway"]["batches"]
>>> asyncio.run(demo())
(True, 1)
"""

from __future__ import annotations

import asyncio
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.topk import TopKResult
from repro.errors import (
    GatewayClosedError,
    GatewayOverloadedError,
    InvalidParameterError,
    RecoveryError,
    RequestTimeoutError,
    UnknownTenantError,
)
from repro.graph.graph import Vertex
from repro.parallel.runtime import PayloadStore, WorkerPool
from repro.session import EgoSession

__all__ = ["ServingGateway", "GatewayStats"]

#: Default coalescing window: long enough to batch a burst of concurrent
#: requests, short enough to be invisible next to a kernel pass.
DEFAULT_WINDOW_SECONDS = 0.002

#: Sentinel distinguishing "no cached answer" from a cached falsy answer
#: (an empty scores map is a legitimate cache value).
_CACHE_MISS = object()


@dataclass
class GatewayStats:
    """Cumulative counters of one :class:`ServingGateway`.

    Attributes
    ----------
    requests / answered / failed:
        Score(s) requests accepted, resolved with a result, resolved with
        the batch's exception.
    cancelled:
        Requests whose caller cancelled while they waited in the window
        (dropped from the batch).
    rejected:
        Requests shed by back-pressure (``max_pending`` reached).
    batches / coalesced_requests / max_batch_size:
        Executed micro-batches, total requests they answered, and the
        largest batch observed — ``coalesced_requests / batches`` is the
        amortisation factor.
    window_flushes / size_flushes / drain_flushes:
        What triggered each flush: the coalescing window elapsing, the
        batch filling to ``max_batch``, or the gateway draining at close.
    topk_requests / topk_runs / topk_coalesced:
        Top-k requests accepted, session executions they cost, and
        requests served by piggy-backing on an identical in-flight run.
    deadline_misses:
        Requests that missed their ``request_deadline`` (the caller got
        :class:`~repro.errors.RequestTimeoutError`).
    cache_hits / cache_misses / cache_evictions / cache_invalidations:
        The hot-key result LRU: requests answered straight from a cached
        ``(version, query-key)`` entry (zero kernel/batch work), lookups
        that fell through to a batch, entries evicted by LRU pressure, and
        whole-tenant invalidations fired by ``apply()`` version bumps.
    applies / applied_events:
        Mutation calls admitted through :meth:`ServingGateway.apply` and
        the update events they carried.
    per_tenant:
        Requests accepted per tenant id.
    """

    requests: int = 0
    answered: int = 0
    failed: int = 0
    cancelled: int = 0
    rejected: int = 0
    batches: int = 0
    coalesced_requests: int = 0
    max_batch_size: int = 0
    window_flushes: int = 0
    size_flushes: int = 0
    drain_flushes: int = 0
    topk_requests: int = 0
    topk_runs: int = 0
    topk_coalesced: int = 0
    deadline_misses: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_invalidations: int = 0
    applies: int = 0
    applied_events: int = 0
    per_tenant: Dict[str, int] = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        """Average requests answered per executed batch (0.0 when idle)."""
        return self.coalesced_requests / self.batches if self.batches else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Return a JSON-friendly dict (the CLI ``--json`` payload shape)."""
        return {
            "requests": self.requests,
            "answered": self.answered,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "rejected": self.rejected,
            "batches": self.batches,
            "coalesced_requests": self.coalesced_requests,
            "mean_batch_size": self.mean_batch_size,
            "max_batch_size": self.max_batch_size,
            "window_flushes": self.window_flushes,
            "size_flushes": self.size_flushes,
            "drain_flushes": self.drain_flushes,
            "topk_requests": self.topk_requests,
            "topk_runs": self.topk_runs,
            "topk_coalesced": self.topk_coalesced,
            "deadline_misses": self.deadline_misses,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_invalidations": self.cache_invalidations,
            "applies": self.applies,
            "applied_events": self.applied_events,
            "per_tenant": dict(self.per_tenant),
        }


class _Request:
    """One queued scores request: payload + the caller's future."""

    __slots__ = ("payload", "future")

    def __init__(self, payload: Optional[List[Vertex]], future: asyncio.Future) -> None:
        self.payload = payload
        self.future = future


class _Tenant:
    """Per-tenant serving state: session, pending batch, in-flight locks."""

    __slots__ = (
        "tenant_id",
        "session",
        "pending",
        "timer",
        "lock",
        "backlog",
        "topk_inflight",
        "cache",
        "cache_version",
        "version_listener",
    )

    def __init__(self, tenant_id: str, session: EgoSession) -> None:
        self.tenant_id = tenant_id
        self.session = session
        self.pending: List[_Request] = []
        self.timer: Optional[asyncio.Task] = None
        # Serialises session execution: flushes run in worker threads and
        # EgoSession is not thread-safe, so one pass at a time per tenant.
        self.lock = asyncio.Lock()
        self.backlog = 0
        self.topk_inflight: Dict[Tuple[int, int], asyncio.Task] = {}
        # Hot-key result LRU: query-key → answer, valid for exactly one
        # topology version (cache_version); the session version listener
        # clears it the moment apply() moves the graph.
        self.cache: "OrderedDict" = OrderedDict()
        self.cache_version = session.version
        self.version_listener = None


class ServingGateway:
    """Accept concurrent async queries; answer them in coalesced batches.

    Parameters
    ----------
    window_seconds:
        The coalescing window: the first request of a batch waits at most
        this long for company before the batch executes.
    max_batch:
        Flush early once this many requests are pending for one tenant.
    max_pending:
        Back-pressure bound: a tenant whose unanswered backlog reaches
        this sheds further requests with :class:`GatewayOverloadedError`.
    parallel / executor:
        Forwarded to :meth:`EgoSession.scores_batch` and to the naive
        :meth:`EgoSession.top_k`, so they only decide how a tenant computes
        values it does not hold yet: ``parallel=None`` (default) on the
        session's serial runtime, ``parallel=N`` as one batch on the
        tenant's runtime over the gateway's shared pool.  A held memo or
        index answers either way.  When the shared pool fails beyond the
        runtime's repair, each tenant's session answers on its serial
        runtime (counted in the tenant's ``fallbacks``); no request fails.
    max_workers:
        Size of a privately created shared :class:`WorkerPool` (ignored
        when ``pool`` is given).
    pool / store:
        Existing shared infrastructure to join; ``None`` creates
        gateway-owned instances (released at :meth:`close`).
    request_deadline:
        Per-request waiting bound in seconds (``None`` — the default —
        waits without bound).  A caller whose answer has not landed
        within the deadline gets :class:`RequestTimeoutError`; the
        batch keeps computing and warms the tenant's memo for the retry.
    drain_seconds:
        Bound on the :meth:`close` drain: batches still unanswered after
        this long are cancelled and their requests failed with
        :class:`GatewayClosedError` — a broken pool cannot hang close().
    result_cache_size:
        Per-tenant hot-key result LRU capacity (``0`` — the default —
        disables caching and keeps the execution path byte-for-byte what
        it was without it).  When enabled, an answered ``scores``/
        ``top_k`` query is remembered under its ``(version, query-key)``
        and identical repeats are served with **zero kernel executions**
        until the tenant's topology version moves — every ``apply()``
        (through the gateway or directly on the session) fires the
        session's version listener and drops the tenant's entries.
        Cached hits bypass back-pressure: a known answer is free to
        serve even while the tenant sheds fresh work.  The network front door (:mod:`repro.net`) enables this by
        default; in-process callers opt in.

    Notes
    -----
    All request methods are coroutines and must run on one event loop; the
    compute itself runs in worker threads (and, with ``parallel=N``, the
    shared process pool), so the loop stays responsive while kernels run.
    Use as an async context manager for deterministic teardown.
    """

    def __init__(
        self,
        *,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        max_batch: int = 64,
        max_pending: int = 1024,
        parallel: Optional[int] = None,
        executor: str = "serial",
        max_workers: Optional[int] = None,
        pool: Optional[WorkerPool] = None,
        store: Optional[PayloadStore] = None,
        request_deadline: Optional[float] = None,
        drain_seconds: float = 5.0,
        durability_root: Optional[str] = None,
        result_cache_size: int = 0,
    ) -> None:
        if window_seconds < 0:
            raise InvalidParameterError("window_seconds must be >= 0")
        if max_batch < 1:
            raise InvalidParameterError("max_batch must be positive")
        if max_pending < 1:
            raise InvalidParameterError("max_pending must be positive")
        if request_deadline is not None and request_deadline <= 0:
            raise InvalidParameterError("request_deadline must be positive or None")
        if drain_seconds <= 0:
            raise InvalidParameterError("drain_seconds must be positive")
        if result_cache_size < 0:
            raise InvalidParameterError("result_cache_size must be >= 0")
        self.window_seconds = window_seconds
        self.max_batch = max_batch
        self.max_pending = max_pending
        self.parallel = parallel
        self.executor = executor
        self.request_deadline = request_deadline
        self.drain_seconds = drain_seconds
        self.durability_root = durability_root
        self.result_cache_size = result_cache_size
        self._owns_pool = pool is None
        self._pool = (pool or WorkerPool(max_workers, keep_alive=True)).acquire()
        self._owns_store = store is None
        self._store = store or PayloadStore()
        self._tenants: Dict[str, _Tenant] = {}
        self._stats = GatewayStats()
        self._inflight: set = set()
        self._outstanding: set = set()
        self._closed = False

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------
    def add_tenant(
        self,
        tenant_id: str,
        source,
        *,
        backend: str = "auto",
        scale: Optional[float] = None,
        **session_options,
    ) -> EgoSession:
        """Register a tenant graph; returns its :class:`EgoSession`.

        ``source`` is anything :class:`EgoSession` accepts — or an existing
        session to adopt.  The tenant's parallel runtime is attached to the
        gateway's shared pool and payload store, its payloads keyed by the
        session's ``graph_id``, so tenants never re-ship each other's
        graphs away.  On a gateway-owned store the ``graph_id`` defaults to
        ``tenant_id`` (unique within this gateway); on a caller-shared
        store the session keeps its unique auto id — name tenants'
        ``graph_id=`` explicitly there to opt into same-graph payload
        dedup across gateways.

        On a gateway constructed with ``durability_root=``, every tenant
        built here (not adopted sessions — they own their lifecycle) is
        **durable by default**: its session gets
        ``durability=<root>/<tenant_id>``, so acknowledged ``apply()``
        traffic survives gateway-process death and
        :meth:`recover_tenant` restores it.  Pass ``durability=None``
        explicitly to opt a tenant out, or ``durability=<dir>`` to place
        one elsewhere.
        """
        if self._closed:
            raise GatewayClosedError("cannot add a tenant to a closed gateway")
        if tenant_id in self._tenants:
            raise InvalidParameterError(f"tenant {tenant_id!r} is already registered")
        if isinstance(source, EgoSession):
            session = source
        else:
            if self._owns_store:
                # Tenant ids are unique within this gateway and the store
                # is private to it, so keying payloads by tenant id is
                # safe.  A caller-shared store may span gateways whose
                # tenant names collide on DIFFERENT graphs — there the
                # session keeps its unique auto id, and same-graph dedup
                # stays the caller's explicit graph_id= opt-in.
                session_options.setdefault("graph_id", tenant_id)
            if self.durability_root is not None:
                session_options.setdefault(
                    "durability", os.path.join(self.durability_root, tenant_id)
                )
            session = EgoSession(source, backend=backend, scale=scale, **session_options)
        if self.parallel is not None:
            # Install the session's runtime for the gateway's executor now,
            # bound to the shared infrastructure, so the first batch does
            # not silently create a private pool instead.  An adopted
            # session's runtime for that executor moves onto it.
            session.runtime(
                self.executor,
                max_workers=self._pool.max_workers,
                pool=self._pool,
                store=self._store,
            )
            if self.executor == "process":
                # Fork the shared pool now, on the event-loop thread,
                # before any batch runs inside a ThreadPoolExecutor worker
                # — forking a multi-threaded process risks inheriting held
                # locks in the child.
                self._pool.ensure_started()
        tenant = _Tenant(tenant_id, session)
        # Version-keyed cache hook: every apply() — through the gateway or
        # directly on the session — drops this tenant's hot-key entries.
        tenant.version_listener = partial(self._invalidate_tenant_cache, tenant)
        session.add_version_listener(tenant.version_listener)
        self._tenants[tenant_id] = tenant
        return session

    def tenant(self, tenant_id: str) -> EgoSession:
        """The registered session for ``tenant_id``."""
        return self._require(tenant_id).session

    def recover_tenant(self, tenant_id: str, directory: Optional[str] = None, **kwargs) -> EgoSession:
        """Restore a durable tenant from its durability directory.

        ``directory`` defaults to ``<durability_root>/<tenant_id>`` — the
        layout :meth:`add_tenant` uses on a durable gateway.  The
        recovered session (newest checkpoint + WAL tail replay, log
        re-attached) is registered exactly like an adopted session;
        keyword arguments go to :meth:`EgoSession.recover`.  Raises
        :class:`~repro.errors.RecoveryError` when no directory can be
        derived or it holds no valid checkpoint.
        """
        if directory is None:
            if self.durability_root is None:
                raise RecoveryError(
                    f"cannot derive a durability directory for tenant "
                    f"{tenant_id!r}: this gateway has no durability_root "
                    "and no directory= was given"
                )
            directory = os.path.join(self.durability_root, tenant_id)
        kwargs.setdefault("graph_id", tenant_id if self._owns_store else None)
        if kwargs.get("graph_id") is None:
            kwargs.pop("graph_id", None)
        session = EgoSession.recover(directory, **kwargs)
        return self.add_tenant(tenant_id, session)

    def tenants(self) -> List[str]:
        """The registered tenant ids."""
        return list(self._tenants)

    def _require(self, tenant_id: str) -> _Tenant:
        tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise UnknownTenantError(tenant_id)
        return tenant

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def scores(
        self, tenant_id: str, vertices: Optional[Iterable[Vertex]] = None
    ) -> Dict[Vertex, float]:
        """Exact ego-betweenness of every vertex (or a subset) of a tenant.

        The request joins the tenant's current micro-batch; the returned
        map is bit-identical to :meth:`EgoSession.scores` on the same
        state.
        """
        request = None if vertices is None else list(vertices)
        return await self._submit(tenant_id, request)

    async def score(self, tenant_id: str, vertex: Vertex) -> float:
        """Exact ego-betweenness of one vertex (micro-batched)."""
        answer = await self._submit(tenant_id, [vertex])
        return answer[vertex]

    async def stream(self, tenant_id: str, queries: Iterable[Optional[Iterable[Vertex]]]):
        """Submit many scores queries; yield the answers in request order.

        The queries coalesce into batches exactly as concurrent callers
        would; answers stream back as their batches complete, preserving
        the input order.  Abandoning the stream early — breaking out of
        the loop, or a yielded error — cancels the not-yet-consumed
        requests and retrieves their outcomes, so no orphaned task keeps
        computing (or logs an unretrieved exception) for an answer nobody
        will read.
        """
        tasks = [
            asyncio.ensure_future(self.scores(tenant_id, query)) for query in queries
        ]
        try:
            for task in tasks:
                yield await task
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    async def top_k(self, tenant_id: str, k: int) -> TopKResult:
        """The tenant's top-k ego-betweenness ranking.

        Identical concurrent requests (same tenant, same ``k``) coalesce
        onto one session execution; the entries are bit-identical to the
        serial naive ranking (``EgoSession.top_k`` guarantees this for
        every execution path).
        """
        tenant = self._require(tenant_id)
        if self._closed:
            raise GatewayClosedError("this gateway has been closed")
        stats = self._stats
        if self.result_cache_size:
            cached = self._cache_lookup(tenant, ("top_k", k))
            if cached is not _CACHE_MISS:
                stats.topk_requests += 1
                stats.per_tenant[tenant_id] = stats.per_tenant.get(tenant_id, 0) + 1
                return cached
        if tenant.backlog >= self.max_pending:
            # top-k traffic obeys the same back-pressure bound as scores
            # traffic: an overloaded tenant sheds load on every door.
            stats.rejected += 1
            raise GatewayOverloadedError(
                f"tenant {tenant_id!r} has {tenant.backlog} unanswered requests "
                f"(max_pending={self.max_pending}); shed load and retry"
            )
        stats.topk_requests += 1
        stats.per_tenant[tenant_id] = stats.per_tenant.get(tenant_id, 0) + 1
        # Keyed by (version, k): a request arriving after a mutation must
        # not be coalesced onto an in-flight pre-mutation run.
        key = (tenant.session.version, k)
        task = tenant.topk_inflight.get(key)
        if task is None:
            stats.topk_runs += 1
            task = asyncio.ensure_future(self._run_top_k(tenant, k))
            tenant.topk_inflight[key] = task
            task.add_done_callback(lambda _: tenant.topk_inflight.pop(key, None))
        else:
            stats.topk_coalesced += 1
        # Shield the shared run: one caller cancelling must not tear the
        # result away from the others riding the same execution.  Each
        # waiting caller occupies one backlog slot until its answer lands.
        tenant.backlog += 1
        try:
            return await self._await_with_deadline(
                asyncio.shield(task), tenant.tenant_id
            )
        finally:
            tenant.backlog -= 1

    async def apply(self, tenant_id: str, events) -> int:
        """Apply edge updates to a tenant through the gateway; return the count.

        The mutation serialises with the tenant's batches on the tenant
        lock (``EgoSession`` is not thread-safe) and runs in a worker
        thread, so the event loop keeps answering other tenants while the
        update lands.  Applied events bump the session version, which
        fires the version listener and invalidates the tenant's hot-key
        result cache — the next identical query recomputes on the new
        topology.  Mutations are **never** admitted from cache and never
        retried by any client layer: they are not idempotent.
        """
        tenant = self._require(tenant_id)
        if self._closed:
            raise GatewayClosedError("this gateway has been closed")
        loop = asyncio.get_running_loop()
        async with tenant.lock:
            applied = await loop.run_in_executor(
                None, partial(tenant.session.apply, events)
            )
        self._stats.applies += 1
        self._stats.applied_events += applied
        return applied

    async def _await_with_deadline(self, awaitable, tenant_id: str):
        """Await, bounded by ``request_deadline`` when one is configured.

        A miss releases the *caller* with :class:`RequestTimeoutError`;
        the underlying computation keeps running (shielded runs finish and
        warm the memo for the retry).
        """
        if self.request_deadline is None:
            return await awaitable
        try:
            return await asyncio.wait_for(awaitable, self.request_deadline)
        except asyncio.TimeoutError:
            self._stats.deadline_misses += 1
            raise RequestTimeoutError(
                f"request for tenant {tenant_id!r} missed its "
                f"{self.request_deadline}s deadline"
            ) from None

    async def _run_top_k(self, tenant: _Tenant, k: int) -> TopKResult:
        loop = asyncio.get_running_loop()
        async with tenant.lock:
            call = partial(
                tenant.session.top_k,
                k,
                algorithm="naive",
                parallel=self.parallel,
                executor=self.executor,
            )
            result = await loop.run_in_executor(None, call)
            # Version read under the tenant lock: no batch/apply can have
            # interleaved, so the answer belongs to exactly this version.
            version = tenant.session.version
        self._cache_store(tenant, version, ("top_k", k), result)
        return result

    async def _submit(
        self, tenant_id: str, request: Optional[List[Vertex]]
    ) -> Dict[Vertex, float]:
        tenant = self._require(tenant_id)
        if self._closed:
            raise GatewayClosedError("this gateway has been closed")
        stats = self._stats
        cache_key: Optional[Tuple] = None
        if self.result_cache_size:
            try:
                cache_key = self._cache_key(request)
            except TypeError:
                cache_key = None  # unhashable vertex: the batch will raise
            cached = self._cache_lookup(tenant, cache_key)
            if cached is not _CACHE_MISS:
                # A known answer is free: serve it even while the tenant
                # sheds fresh work (no back-pressure, no backlog slot,
                # zero kernel executions).
                stats.requests += 1
                stats.answered += 1
                stats.per_tenant[tenant_id] = stats.per_tenant.get(tenant_id, 0) + 1
                return dict(cached)
        if tenant.backlog >= self.max_pending:
            stats.rejected += 1
            raise GatewayOverloadedError(
                f"tenant {tenant_id!r} has {tenant.backlog} unanswered requests "
                f"(max_pending={self.max_pending}); shed load and retry"
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        tenant.pending.append(_Request(request, future))
        tenant.backlog += 1
        future.add_done_callback(partial(self._request_done, tenant))
        self._outstanding.add(future)
        future.add_done_callback(self._outstanding.discard)
        stats.requests += 1
        stats.per_tenant[tenant_id] = stats.per_tenant.get(tenant_id, 0) + 1
        if len(tenant.pending) >= self.max_batch:
            batch = self._take_batch(tenant)
            task = asyncio.ensure_future(self._run_batch(tenant, batch, "size"))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)
        elif len(tenant.pending) == 1:
            tenant.timer = asyncio.ensure_future(self._window_flush(tenant))
        return await self._await_with_deadline(future, tenant_id)

    def _request_done(self, tenant: _Tenant, future: asyncio.Future) -> None:
        tenant.backlog -= 1
        if future.cancelled():
            return
        if future.exception() is not None:
            self._stats.failed += 1
        else:
            self._stats.answered += 1

    # ------------------------------------------------------------------
    # Hot-key result cache
    # ------------------------------------------------------------------
    @staticmethod
    def _cache_key(request: Optional[List[Vertex]]) -> Tuple:
        """The query key a scores request caches under.

        A full-map request is ``("scores", None)``; a subset request keys
        on the *set* of vertices, so permutations of one subset share an
        entry (the answer is a map — order never shows).  Raises
        ``TypeError`` on unhashable vertices; callers skip caching then
        and let the batch path surface the proper error.
        """
        if request is None:
            return ("scores", None)
        return ("scores", frozenset(request))

    def _invalidate_tenant_cache(self, tenant: _Tenant, version: int) -> None:
        """Session version listener: the topology moved, drop everything."""
        if tenant.cache:
            tenant.cache.clear()
            self._stats.cache_invalidations += 1
        tenant.cache_version = version

    def _cache_lookup(self, tenant: _Tenant, key: Optional[Tuple]):
        """Return the cached answer for ``key`` or :data:`_CACHE_MISS`.

        Ticks the hit/miss counters.  A stale epoch (the session's version
        moved without the listener firing — defensive only, the listener
        is registered for every tenant) clears the entries first.
        """
        if not self.result_cache_size or key is None:
            return _CACHE_MISS
        if tenant.cache_version != tenant.session.version:
            self._invalidate_tenant_cache(tenant, tenant.session.version)
        value = tenant.cache.get(key, _CACHE_MISS)
        if value is _CACHE_MISS:
            self._stats.cache_misses += 1
            return _CACHE_MISS
        tenant.cache.move_to_end(key)
        self._stats.cache_hits += 1
        return value

    def _cache_store(
        self, tenant: _Tenant, version: int, key: Optional[Tuple], value
    ) -> None:
        """Remember ``key → value`` computed at ``version`` (LRU-bounded).

        Silently skipped when the tenant's topology moved while the
        answer was computing — a stale answer must never enter the cache.
        """
        if not self.result_cache_size or key is None:
            return
        if tenant.cache_version != version or tenant.session.version != version:
            return
        cache = tenant.cache
        cache[key] = value
        cache.move_to_end(key)
        while len(cache) > self.result_cache_size:
            cache.popitem(last=False)
            self._stats.cache_evictions += 1

    # ------------------------------------------------------------------
    # Batching
    # ------------------------------------------------------------------
    def _take_batch(self, tenant: _Tenant) -> List[_Request]:
        """Atomically claim the pending batch and disarm the window timer."""
        batch, tenant.pending = tenant.pending, []
        if tenant.timer is not None:
            tenant.timer.cancel()
            tenant.timer = None
        return batch

    async def _window_flush(self, tenant: _Tenant) -> None:
        try:
            await asyncio.sleep(self.window_seconds)
        except asyncio.CancelledError:
            return
        if tenant.timer is not asyncio.current_task():
            # A size flush claimed the batch between our wake-up and this
            # resumption (and may have armed a fresh timer) — stand down.
            return
        tenant.timer = None
        batch = self._take_batch(tenant)
        # Execute through a tracked task, exactly like size flushes, so
        # close() awaits an in-progress window batch instead of tearing
        # the pool down under it.
        task = asyncio.ensure_future(self._run_batch(tenant, batch, "window"))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)
        await task

    async def _run_batch(
        self, tenant: _Tenant, batch: List[_Request], trigger: str
    ) -> None:
        live = [request for request in batch if not request.future.cancelled()]
        self._stats.cancelled += len(batch) - len(live)
        if not live:
            return
        loop = asyncio.get_running_loop()
        async with tenant.lock:
            read = partial(
                tenant.session.scores_batch,
                parallel=self.parallel,
                executor=self.executor,
            )
            try:
                answers = await loop.run_in_executor(
                    None, read, [request.payload for request in live]
                )
            except Exception:  # noqa: BLE001 - isolated per request below
                # One bad request (e.g. an unknown vertex) must not poison
                # the coalesced batch: fall back to answering each request
                # on its own, so only the offending callers see the error.
                # The shared computation is already memoised on the
                # session, so the re-slicing passes are cheap.
                answers = []
                for request in live:
                    try:
                        single = await loop.run_in_executor(None, read, [request.payload])
                        answers.append(single[0])
                    except Exception as error:  # noqa: BLE001 - that caller's
                        answers.append(error)
            batch_version = tenant.session.version
        stats = self._stats
        stats.batches += 1
        stats.coalesced_requests += len(live)
        stats.max_batch_size = max(stats.max_batch_size, len(live))
        if trigger == "window":
            stats.window_flushes += 1
        elif trigger == "size":
            stats.size_flushes += 1
        else:
            stats.drain_flushes += 1
        for request, answer in zip(live, answers):
            if not isinstance(answer, Exception) and self.result_cache_size:
                try:
                    key = self._cache_key(request.payload)
                except TypeError:
                    key = None
                # Cache a private copy: the caller gets (and may mutate)
                # the original dict; hits hand out fresh copies too.
                self._cache_store(tenant, batch_version, key, dict(answer))
            if request.future.done():
                continue
            if isinstance(answer, Exception):
                request.future.set_exception(answer)
            else:
                request.future.set_result(answer)

    # ------------------------------------------------------------------
    # Lifecycle and introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """A JSON-friendly snapshot: gateway, tenants, store and pool."""
        return {
            "gateway": self._stats.as_dict(),
            "config": {
                "window_seconds": self.window_seconds,
                "max_batch": self.max_batch,
                "max_pending": self.max_pending,
                "parallel": self.parallel,
                "executor": self.executor,
                "request_deadline": self.request_deadline,
                "drain_seconds": self.drain_seconds,
                "result_cache_size": self.result_cache_size,
            },
            "tenants": {
                tenant_id: {
                    **tenant.session.stats().as_dict(),
                    "cache_entries": len(tenant.cache),
                    "version": tenant.session.version,
                }
                for tenant_id, tenant in self._tenants.items()
            },
            "store": self._store.stats(),
            "pool": {
                "max_workers": self._pool.max_workers,
                "started": self._pool.started,
                "launches": self._pool.launches,
                "references": self._pool.references,
            },
        }

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has run."""
        return self._closed

    async def close(self) -> None:
        """Drain pending batches, close tenant sessions, release the pool.

        Pending requests are *answered* (one final drain flush per tenant)
        rather than failed; new requests raise :class:`GatewayClosedError`.
        The drain is bounded by ``drain_seconds``: work still unanswered
        when the bound elapses (e.g. because the pool is broken or a
        worker is wedged) is cancelled and the residual requests fail
        with a descriptive :class:`GatewayClosedError` — close() cannot
        hang.  Shared infrastructure passed in by the caller survives —
        only the gateway's own references are released.
        """
        if self._closed:
            return
        self._closed = True
        for tenant in self._tenants.values():
            if tenant.pending:
                task = asyncio.ensure_future(
                    self._run_batch(tenant, self._take_batch(tenant), "drain")
                )
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)
        waiters = list(self._inflight)
        for tenant in self._tenants.values():
            waiters.extend(tenant.topk_inflight.values())
        if waiters:
            _, unfinished = await asyncio.wait(waiters, timeout=self.drain_seconds)
            for task in unfinished:
                task.cancel()
            # Retrieve every outcome (including the cancellations we just
            # forced) so no task logs an unretrieved exception.
            await asyncio.gather(*waiters, return_exceptions=True)
        for future in list(self._outstanding):
            if not future.done():
                future.set_exception(
                    GatewayClosedError(
                        "gateway closed before this request was answered: "
                        f"the close() drain bound ({self.drain_seconds}s) "
                        "elapsed or the request's batch was torn down"
                    )
                )
        self._outstanding.clear()
        for tenant in self._tenants.values():
            if tenant.version_listener is not None:
                tenant.session.remove_version_listener(tenant.version_listener)
                tenant.version_listener = None
            try:
                tenant.session.close()
            except Exception:  # noqa: BLE001 - teardown must reach the pool
                # A tenant whose runtime/pool is broken must not stop the
                # remaining sessions and the shared pool from closing.
                pass
        if self._owns_store:
            self._store.close()
        self._pool.release()
        if self._owns_pool:
            self._pool.close()

    async def __aenter__(self) -> "ServingGateway":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServingGateway(tenants={len(self._tenants)}, "
            f"window={self.window_seconds}, parallel={self.parallel}, "
            f"closed={self._closed})"
        )
