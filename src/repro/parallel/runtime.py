"""Shared serving infrastructure: worker pools, payload store, runtimes.

The paper's Section V parallelises the all-vertex ego-betweenness
computation across threads that all read one shared graph.  The Python
reproduction originally approximated that with a throwaway
``multiprocessing`` pool per call; the persistent
:class:`ExecutionRuntime` then made a *single* session fast by shipping the
CSR payload once into a long-lived pool.  This module is the next step:
the runtime is split into two shareable pieces so *many* sessions (tenants,
graphs, versions) can be served by one set of processes:

* :class:`WorkerPool` — the fork lifecycle and task queue.  A pool can be
  private to one runtime (the historical behaviour), explicitly shared
  between runtimes, or the process-global singleton returned by
  :func:`shared_worker_pool`.  Pools are reference counted: every runtime
  that attaches takes a reference, and a non-``keep_alive`` pool terminates
  its processes when the last reference is released.
* :class:`PayloadStore` — a multi-entry shared-memory table keyed by
  ``(graph_id, version)`` with refcounted eviction.  Each entry holds the
  flat CSR arrays of one graph version, materialised into a
  :mod:`multiprocessing.shared_memory` segment exactly once; workers attach
  to the segment through zero-copy ``memoryview`` casts and keep one
  :class:`~repro.core.csr_kernels.CSRChunkKernel` per entry, so tenants
  sharing a pool do not re-ship each other's graphs away.  An entry is
  evicted (segment unlinked) when the last runtime using it releases it.

:class:`ExecutionRuntime` composes the two: by default it owns a private
pool and store (exactly the pre-split semantics — nothing changes for
standalone callers), or it can be constructed with ``pool=`` / ``store=``
to join shared infrastructure (what the serving gateway does for its
tenants).

A batch executes one snapshot's dense ids: the caller's chunks when it
passes them, otherwise one weight-balanced id range per worker; all
chunks run through one serial loop or one supervised
submission loop against the snapshot's one payload.  Chunks are scored at
the platform's kernel tier (:func:`~repro.core.vec_kernels.platform_tier`).
Execution offers two reductions:

* :meth:`ExecutionRuntime.execute` — score chunks, merge the full
  ``{id: score}`` map (scores bit-identical to the serial kernels for
  every executor, chunking and worker count).
* :meth:`ExecutionRuntime.execute_top_k` — worker-side result reduction:
  every chunk task returns only its entries at or above its k-th score
  instead of every score, and the parent keeps the union's entries that
  reach the global k-th score, best score first.  Ties at that score are
  left whole: ids carry no labels, and the top-k order breaks ties by the
  label sort key, so the caller picks the final ``k``.  The result
  traffic shrinks from ``O(n)`` scores to ``O(tasks × k + ties)``
  candidates.

Teardown is exception-safe at every layer: pools, stores and individual
shared-memory payloads each register a ``weakref.finalize`` guard (which
Python also runs at interpreter exit), and an ``atexit`` sweep unlinks any
segment that is still alive — a CLI or test crash mid-batch can no longer
leak ``multiprocessing.shared_memory`` segments.

Examples
--------
>>> from repro.graph.csr import CompactGraph
>>> cg = CompactGraph.from_edges([(0, 1), (0, 2), (1, 2), (1, 3)])
>>> with ExecutionRuntime(max_workers=2, executor="serial") as runtime:
...     scores, batch = runtime.execute(cg)
...     again, _ = runtime.execute(cg)
>>> scores == again and sorted(scores) == [0, 1, 2, 3]
True
>>> runtime.stats().payload_ships  # one ship for both batches
1
"""

from __future__ import annotations

import atexit
import os
import threading
import time
import warnings
import weakref
import zlib
from array import array
from dataclasses import asdict, dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import faults as _faults
from repro.core.csr_kernels import (
    CSRChunkKernel,
    _env_limit,
    ego_betweenness_from_arrays,
    top_k_entries_from_arrays,
)
from repro.core.topk import threshold_cut
from repro.core.vec_kernels import _openblas_thread_calls, numpy_available, platform_tier
from repro.errors import (
    InjectedFaultError,
    InvalidParameterError,
    PayloadEvictedError,
    PayloadIntegrityError,
    PoolBrokenError,
    PoolStateError,
)
from repro.graph.csr import CompactGraph
from repro.parallel.partition import vertex_work_estimates_csr

__all__ = [
    "ParallelBackend",
    "WorkerPool",
    "PayloadStore",
    "PayloadKey",
    "ExecutionRuntime",
    "RuntimeStats",
    "BatchStats",
    "shared_worker_pool",
    "shared_payload_store",
    "set_worker_cache_limit",
    "DEFAULT_TASK_DEADLINE",
    "DEFAULT_MAX_TASK_RETRIES",
]

#: Default per-task deadline (seconds).  A chunk task that has not produced
#: a result this long after submission is presumed lost (hung worker,
#: silent death the pid check missed) and is resubmitted.  Chunk kernels at
#: any realistic chunking are sub-second, so the default only fires on
#: genuine hangs; ``task_deadline=None`` disables the straggler cutoff
#: (worker-death detection stays on).
DEFAULT_TASK_DEADLINE = 60.0

#: Per-task retry budget: resubmissions one chunk may consume (worker death,
#: deadline miss, injected fault, integrity failure) before it is
#: quarantined and computed serially in the parent (poison-task isolation).
DEFAULT_MAX_TASK_RETRIES = 2

#: Pool respawns one batch may attempt before giving up with
#: :class:`PoolBrokenError`.
_MAX_RESPAWNS_PER_BATCH = 3

#: Exponential backoff between consecutive :meth:`WorkerPool.respawn`
#: calls: the first respawn is immediate, later ones sleep
#: ``_RESPAWN_BACKOFF × 2^n`` seconds capped at ``_MAX_RESPAWN_BACKOFF``.
_RESPAWN_BACKOFF = 0.05
_MAX_RESPAWN_BACKOFF = 2.0

#: Fixed-width signed 64-bit array typecode used for the shipped buffers —
#: one definition so parent writes and worker casts can never disagree.
_TYPECODE = "q"
_ITEMSIZE = array(_TYPECODE).itemsize

#: A payload-store key: ``(graph_id, version)``.  Sessions derive it from
#: their stable graph id and their topology version counter; anonymous
#: snapshots get a store-assigned id.
PayloadKey = Tuple[str, int]


class ParallelBackend(str, Enum):
    """Available execution backends for the runtime and the engines."""

    SERIAL = "serial"
    PROCESS = "process"


@dataclass(frozen=True)
class BatchStats:
    """Execution accounting for one runtime batch.

    Attributes
    ----------
    num_tasks:
        Number of (non-empty) chunks executed.
    shipped:
        Whether this batch had to ship the graph payload (first batch on a
        new ``(graph_id, version)`` key).
    pool_started:
        Whether this batch paid the worker-pool start-up (first process
        batch on a not-yet-started pool).
    setup_seconds:
        Pool start-up plus payload-shipping time of this batch (0.0 for a
        warm runtime).
    compute_seconds:
        Wall-clock time of the chunk execution itself.
    chunk_seconds:
        Per-chunk kernel seconds, aligned with the executed chunks (with
        caller-provided chunks: aligned with the caller's chunk list, empty
        chunks report 0.0).
    kind:
        ``"scores"`` (full merged map) or ``"top_k"`` (worker-side bounded
        reduction).
    """

    num_tasks: int
    shipped: bool
    pool_started: bool
    setup_seconds: float
    compute_seconds: float
    chunk_seconds: List[float] = field(default_factory=list)
    kind: str = "scores"


@dataclass
class RuntimeStats:
    """Cumulative accounting of one :class:`ExecutionRuntime`.

    Attributes
    ----------
    executor:
        ``"serial"`` or ``"process"``.
    max_workers:
        The pool size (process executor) / nominal parallelism.
    payload_ships:
        Payload materialisations *this runtime triggered* — exactly once
        per distinct ``(graph_id, version)`` key it executed on (a key
        another tenant already shipped into a shared store is a hit, not a
        ship).
    payload_bytes:
        Size in bytes of the payload this runtime currently holds (the
        graph version of its last batch).
    payload_bytes_shipped:
        Cumulative bytes this runtime shipped into the store (capacity
        planning: transport traffic caused by this runtime).
    resident_payloads / resident_bytes:
        Point-in-time size of the backing :class:`PayloadStore` (all
        tenants' entries, refreshed on every ``stats()`` call and at
        ``close()``).
    payload_evictions:
        Entries the backing store has evicted (refcount reached zero).
    payloads:
        Cumulative bytes shipped per ``(graph_id, version)`` key, rendered
        as ``"graph_id@vN"`` strings (store-wide).
    pool_launches:
        Worker-pool starts this runtime paid for (0 when a shared pool was
        already running).
    pool_reuses:
        Process batches served by an already-running pool.
    batches:
        Total execution batches run.
    tasks:
        Total chunks executed.
    setup_seconds / compute_seconds:
        Cumulative split of where the time went: pool start-up + payload
        shipping vs kernel execution.
    worker_deaths:
        Worker processes this runtime observed vanishing mid-batch.
    respawns:
        Full pool respawns this runtime triggered (broken-pool recovery).
    task_retries:
        Chunk tasks resubmitted after a worker death, deadline miss,
        injected fault or integrity failure.
    deadline_misses:
        Tasks that overran ``task_deadline`` and were resubmitted.
    quarantined_tasks:
        Chunks that exhausted their retry budget and were isolated to
        serial in-parent execution (poison-task quarantine).
    integrity_failures:
        Torn/corrupt shared-memory payloads detected on worker attach
        (each one triggers an unlink + re-ship).
    kernel:
        The platform's kernel tier (``"python"`` or ``"numpy"``), which
        the chunk kernels serve unless they demote.
    kernel_chunks:
        Chunks actually served per tier.  A ``"numpy"`` runtime whose
        workers demoted (vectorized path failed mid-batch) shows the
        demoted chunks under ``"python"`` here — the platform tier and the
        tier *served* are reported separately on purpose.
    kernel_fallbacks:
        Vectorized-kernel demotions observed across workers: each one is
        a worker-side :class:`~repro.core.csr_kernels.CSRChunkKernel`
        that permanently dropped from ``numpy`` to ``python``.
    last_batch:
        The most recent :class:`BatchStats`, or ``None``.
    """

    executor: str
    max_workers: int
    payload_ships: int = 0
    payload_bytes: int = 0
    payload_bytes_shipped: int = 0
    resident_payloads: int = 0
    resident_bytes: int = 0
    payload_evictions: int = 0
    payloads: Dict[str, int] = field(default_factory=dict)
    pool_launches: int = 0
    pool_reuses: int = 0
    batches: int = 0
    tasks: int = 0
    setup_seconds: float = 0.0
    compute_seconds: float = 0.0
    worker_deaths: int = 0
    respawns: int = 0
    task_retries: int = 0
    deadline_misses: int = 0
    quarantined_tasks: int = 0
    integrity_failures: int = 0
    kernel: str = "python"
    kernel_chunks: Dict[str, int] = field(
        default_factory=lambda: {"python": 0, "numpy": 0}
    )
    kernel_fallbacks: int = 0
    last_batch: Optional[BatchStats] = None

    def as_dict(self) -> Dict[str, Any]:
        """Return a JSON-friendly dict (the CLI/benchmark payload shape)."""
        payload = asdict(self)
        if self.last_batch is None:
            del payload["last_batch"]
        return payload


# ----------------------------------------------------------------------
# Crash-safe shared-memory bookkeeping
# ----------------------------------------------------------------------
#: Every live shared-memory segment created by this process, swept by the
#: ``atexit`` guard below.  ``weakref.finalize`` already covers the GC and
#: normal-exit paths per payload; the sweep is the belt-and-braces pass for
#: anything still registered when the interpreter shuts down.
_LIVE_SEGMENTS: Dict[str, Any] = {}
_SEGMENTS_LOCK = threading.Lock()


def _unlink_segment(name: str) -> None:
    """Close and unlink one tracked segment (idempotent, never raises)."""
    with _SEGMENTS_LOCK:
        shm = _LIVE_SEGMENTS.pop(name, None)
    if shm is None:
        return
    try:
        shm.close()
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - already gone
        pass


@atexit.register
def _sweep_segments() -> None:
    for name in list(_LIVE_SEGMENTS):
        # A segment reaching the atexit sweep means some runtime / payload
        # store was never closed — the warning names it so leaked-segment
        # bugs surface in test output instead of passing silently.
        warnings.warn(
            f"shared-memory segment {name!r} was still live at interpreter "
            "exit and had to be unlinked by the atexit sweep; close the "
            "owning ExecutionRuntime/PayloadStore (or use it as a context "
            "manager) to release transport segments deterministically",
            ResourceWarning,
            stacklevel=2,
        )
        _unlink_segment(name)


# ----------------------------------------------------------------------
# Parent-side transport: one shared-memory segment per (graph_id, version)
# ----------------------------------------------------------------------
#: Integrity header prepended to every shipped segment: four int64 words —
#: ``[magic, len(indptr), len(indices), adler32(data region)]``.  Workers
#: verify all four on attach, so a torn or corrupted ship is detected and
#: re-shipped instead of being cast and dereferenced.
_HEADER_WORDS = 4
_HEADER_BYTES = _HEADER_WORDS * _ITEMSIZE
_PAYLOAD_MAGIC = 0x45474F4257  # "EGOBW"


class _ShippedPayload:
    """The CSR arrays of one graph version, materialised in shared memory.

    Layout: a four-word integrity header (magic, array lengths, checksum),
    then ``indptr`` (``n + 1`` int64) immediately followed by ``indices``
    (``2m`` int64).  ``meta`` is the tiny picklable handle shipped with
    every task: ``(segment_name, len(indptr), len(indices))``.

    Creation is exception-safe: the segment registers itself with the
    module's live-segment table *before* the arrays are written, and a
    ``weakref.finalize`` guard unlinks it if the payload is garbage
    collected (or the interpreter exits) without :meth:`close`.  The
    checksum is written *after* the data region, so a parent that dies
    mid-write leaves a header that can never verify.
    """

    __slots__ = ("shm", "meta", "nbytes", "_finalizer", "__weakref__")

    def __init__(self, compact: CompactGraph) -> None:
        from multiprocessing import shared_memory

        indptr = array(_TYPECODE, compact.indptr)
        indices = array(_TYPECODE, compact.indices)
        ptr_bytes = len(indptr) * _ITEMSIZE
        self.nbytes = ptr_bytes + len(indices) * _ITEMSIZE
        total_bytes = _HEADER_BYTES + self.nbytes
        self.shm = shared_memory.SharedMemory(create=True, size=max(total_bytes, 1))
        with _SEGMENTS_LOCK:
            _LIVE_SEGMENTS[self.shm.name] = self.shm
        self._finalizer = weakref.finalize(self, _unlink_segment, self.shm.name)
        try:
            buf = self.shm.buf
            data_end = _HEADER_BYTES + self.nbytes
            buf[_HEADER_BYTES : _HEADER_BYTES + ptr_bytes] = indptr.tobytes()
            if indices:
                buf[_HEADER_BYTES + ptr_bytes : data_end] = indices.tobytes()
            checksum = zlib.adler32(buf[_HEADER_BYTES:data_end])
            header = array(
                _TYPECODE, [_PAYLOAD_MAGIC, len(indptr), len(indices), checksum]
            )
            buf[:_HEADER_BYTES] = header.tobytes()
        except BaseException:
            self.close()
            raise
        self.meta = (self.shm.name, len(indptr), len(indices))

    def corrupt_header(self) -> None:
        """Flip checksum bits in place — a simulated torn ship.

        Fault-injection hook (see :mod:`repro.faults`): the next worker
        attach fails verification exactly as it would for a real torn
        write, driving the detect → unlink → re-ship recovery path.
        """
        header = memoryview(self.shm.buf)[:_HEADER_BYTES].cast(_TYPECODE)
        try:
            header[3] ^= 0x5A5A5A5A
        finally:
            header.release()

    def close(self) -> None:
        self._finalizer.detach()
        _unlink_segment(self.shm.name)


# ----------------------------------------------------------------------
# Worker-side state: attach once per payload key, score many chunks
# ----------------------------------------------------------------------
class _AttachedGraph:
    """A worker's zero-copy view of one shipped graph version.

    Attaching maps the shared segment and casts the two array regions as
    ``memoryview``\\ s — no deserialisation, no copy of the adjacency — and
    wraps them in one process-local platform-tier
    :class:`~repro.core.csr_kernels.CSRChunkKernel`.  The numpy tier wraps
    ``np.frombuffer`` views around the *same* segment bytes, so the tier
    ships nothing extra.  ``close`` releases the views before closing the
    mapping, in that order, or ``mmap`` refuses to unmap.
    """

    __slots__ = ("shm", "kernel", "_views")

    def __init__(self, meta: Tuple[str, int, int]) -> None:
        from multiprocessing import shared_memory

        name, ptr_len, idx_len = meta
        self.shm = shared_memory.SharedMemory(name=name)
        views: List[memoryview] = []
        try:
            whole = memoryview(self.shm.buf)
            views.append(whole)
            self._verify(whole, name, ptr_len, idx_len)
            ptr_start = _HEADER_BYTES
            ptr_bytes = ptr_len * _ITEMSIZE
            indptr = whole[ptr_start : ptr_start + ptr_bytes].cast(_TYPECODE)
            views.append(indptr)
            indices = whole[
                ptr_start + ptr_bytes : ptr_start + ptr_bytes + idx_len * _ITEMSIZE
            ].cast(_TYPECODE)
            views.append(indices)
            self.kernel = CSRChunkKernel(indptr, indices)
        except BaseException:
            for view in reversed(views):
                view.release()
            self.shm.close()
            raise
        self._views = (indices, indptr, whole)

    @staticmethod
    def _verify(whole: memoryview, name: str, ptr_len: int, idx_len: int) -> None:
        """Check the integrity header against the task meta and the data.

        A mismatch means the segment was torn mid-write or corrupted in
        place; raising (picklable) :class:`PayloadIntegrityError` back to
        the parent triggers the unlink → re-ship → resubmit recovery.
        """
        header = whole[:_HEADER_BYTES].cast(_TYPECODE)
        try:
            magic, h_ptr, h_idx, checksum = header[0], header[1], header[2], header[3]
        finally:
            header.release()
        if magic != _PAYLOAD_MAGIC or h_ptr != ptr_len or h_idx != idx_len:
            raise PayloadIntegrityError(
                f"payload segment {name!r} header mismatch: "
                f"magic={magic:#x} lengths=({h_ptr}, {h_idx}), "
                f"expected magic={_PAYLOAD_MAGIC:#x} lengths=({ptr_len}, {idx_len})"
            )
        data_end = _HEADER_BYTES + (ptr_len + idx_len) * _ITEMSIZE
        data = whole[_HEADER_BYTES:data_end]
        try:
            actual = zlib.adler32(data)
        finally:
            data.release()
        if actual != checksum:
            raise PayloadIntegrityError(
                f"payload segment {name!r} checksum mismatch "
                f"(stored {checksum:#x}, computed {actual:#x}): torn ship"
            )

    def close(self) -> None:
        self.kernel = None
        for view in self._views:
            view.release()
        self._views = ()
        self.shm.close()


#: Process-local LRU of attached graph versions, keyed by segment name.
#: One entry per payload key a worker has served, so several tenants'
#: batches on a shared pool interleave without re-attaching.  Each entry
#: maps its segment and keeps the kernels built over it (the python tier's
#: neighbour sets, the numpy tier's adjacency bitmap of up to 16 MiB), so
#: the limit bounds a worker's memory when many graphs pass through it:
#: the ``REPRO_WORKER_CACHE_LIMIT`` environment variable at import,
#: :func:`set_worker_cache_limit` at runtime.
_WORKER_CACHE: Dict[str, _AttachedGraph] = {}
_DEFAULT_WORKER_CACHE_LIMIT = 8


_WORKER_CACHE_LIMIT = _env_limit("REPRO_WORKER_CACHE_LIMIT", _DEFAULT_WORKER_CACHE_LIMIT)


def set_worker_cache_limit(limit: Optional[int] = None) -> int:
    """Resize this process's attached-payload LRU; return the new limit.

    ``None`` re-reads ``REPRO_WORKER_CACHE_LIMIT`` (falling back to the
    built-in default of 8).  Shrinking evicts (closes) the
    least-recently-used attachments immediately.  Workers inherit the
    parent's limit when the pool forks; calling this later in the parent
    affects only parent-side attachments.
    """
    global _WORKER_CACHE_LIMIT
    if limit is None:
        limit = _env_limit("REPRO_WORKER_CACHE_LIMIT", _DEFAULT_WORKER_CACHE_LIMIT)
    if limit < 1:
        raise InvalidParameterError("worker cache limit must be >= 1")
    _WORKER_CACHE_LIMIT = limit
    while len(_WORKER_CACHE) > _WORKER_CACHE_LIMIT:
        _WORKER_CACHE.pop(next(iter(_WORKER_CACHE))).close()
    return _WORKER_CACHE_LIMIT


#: Thread-count variables of the BLAS and OpenMP runtimes numpy may load.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _init_worker() -> None:
    """Pool initializer: one BLAS thread per worker process.

    The pool size is the parallelism.  The pool forks after the parent has
    loaded numpy and looked its OpenBLAS up (:meth:`WorkerPool._fork_locked`),
    so the worker caps the OpenBLAS it inherited directly, where the
    environment is read too late; the environment covers any other BLAS or
    OpenMP runtime a task loads later.
    """
    for name in _BLAS_THREAD_VARS:
        os.environ[name] = "1"
    for _, set_threads in _openblas_thread_calls():
        set_threads(1)


def _attached(meta: Tuple[str, int, int]) -> _AttachedGraph:
    entry = _WORKER_CACHE.pop(meta[0], None)
    if entry is None:
        while len(_WORKER_CACHE) >= _WORKER_CACHE_LIMIT:
            _WORKER_CACHE.pop(next(iter(_WORKER_CACHE))).close()
        entry = _AttachedGraph(meta)
    # Re-insert (hit or miss) so iteration order is least-recently-used
    # first and hot tenants never get evicted by a one-off batch.
    _WORKER_CACHE[meta[0]] = entry
    return entry


def _decode_ids(spec) -> Iterable[int]:
    """Decode a task id spec — ``("r", lo, hi)`` range or ``("l", ids)``."""
    if spec[0] == "r":
        return range(spec[1], spec[2])
    return spec[1]


def _encode_ids(chunk: Sequence[int]):
    """Encode a chunk compactly: contiguous ascending runs ship as ranges."""
    if chunk and len(chunk) == chunk[-1] - chunk[0] + 1:
        lo = chunk[0]
        if all(chunk[i] == lo + i for i in range(len(chunk))):
            return ("r", lo, chunk[-1] + 1)
    return ("l", list(chunk))


def _serve_chunk(kernel, method: str, *args) -> Tuple[Any, float, Tuple[str, int]]:
    """Run one chunk through ``kernel`` and observe which tier served it.

    Returns ``(payload, seconds, (tier_served, fallback_delta))`` — the
    tier is read off the kernel's own per-tier chunk counters, so a chunk
    that demoted mid-call (vectorized failure → python retry) reports the
    tier that actually produced the result plus the demotion it cost.
    """
    before_numpy = kernel.chunks_by_tier["numpy"]
    before_falls = kernel.kernel_fallbacks
    start = time.perf_counter()
    payload = getattr(kernel, method)(*args)
    seconds = time.perf_counter() - start
    served = "numpy" if kernel.chunks_by_tier["numpy"] > before_numpy else "python"
    return payload, seconds, (served, kernel.kernel_fallbacks - before_falls)


def _chunk_task(
    meta: Tuple[str, int, int],
    index: int,
    spec,
    method: str,
    args: Tuple,
    fault=None,
):
    """Pool task: run one chunk against the worker's attached graph.

    ``method`` is the chunk kernel's ``score_chunk`` (every score) or
    ``top_chunk`` (the worker-side top-k reduction: ``k`` candidates plus
    any ties at the chunk threshold); ``args`` are its arguments after the
    ids.  ``fault`` is the
    action drawn parent-side by the fault-injection harness (``None``
    outside chaos runs) and is performed before the kernel touches the
    payload.
    """
    _faults.perform(fault)
    kernel = _attached(meta).kernel
    payload, seconds, kinfo = _serve_chunk(kernel, method, _decode_ids(spec), *args)
    return index, payload, seconds, kinfo


# ----------------------------------------------------------------------
# WorkerPool: fork lifecycle + task queue, privately owned or shared
# ----------------------------------------------------------------------
def _terminate_pool_state(state: Dict[str, Any]) -> None:
    """Tear a pool's processes down (close/GC/exit path; never raises)."""
    pool = state.pop("pool", None)
    state["pool"] = None
    if pool is not None:
        try:
            pool.terminate()
            pool.join()
        except Exception:  # pragma: no cover - interpreter-exit races
            pass


class WorkerPool:
    """A reference-counted ``multiprocessing`` fork pool.

    One pool serves any number of :class:`ExecutionRuntime`\\ s (and hence
    any number of sessions/tenants): the processes fork lazily on the first
    :meth:`ensure_started`, tasks from every attached runtime share the
    pool's task queue (self-scheduling work stealing across tenants), and
    the processes terminate when the last reference is released — unless
    the pool was created with ``keep_alive=True`` (the process-global
    singleton of :func:`shared_worker_pool`), in which case it survives
    individual tenants and is torn down at interpreter exit.

    The pool is *supervised*: it tracks the pids of its fork workers, so
    :meth:`check_workers` can report deaths (``mp.Pool``'s maintenance
    thread replaces dead processes, but their in-flight tasks are lost —
    the supervising runtime resubmits them), and :meth:`respawn` replaces a
    broken pool wholesale with bounded exponential backoff between
    consecutive respawns.

    The pool forks after the parent has loaded what every worker loads:
    numpy where it imports, the OpenBLAS lookup and
    :mod:`multiprocessing.shared_memory`, so the workers share those pages
    instead of each importing numpy on its first chunk.  Every worker runs
    BLAS on one thread (see :func:`_init_worker`): the process count is
    the parallelism, and ``N`` workers each starting one BLAS thread per
    core would oversubscribe the cores the pool already fills.

    Parameters
    ----------
    max_workers:
        Pool size (default ``os.cpu_count()``).
    keep_alive:
        Keep the processes running after the refcount drops to zero.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        keep_alive: bool = False,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise InvalidParameterError("max_workers must be positive")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.keep_alive = keep_alive
        self.launches = 0
        self.respawns = 0
        self.worker_deaths = 0
        self._refs = 0
        self._closed = False
        self._next_backoff = 0.0
        self._known_pids: set = set()
        self._lock = threading.Lock()
        # Mutable holder shared with the GC finaliser: the finaliser must
        # not keep ``self`` alive, yet must see the *current* pool.
        self._state: Dict[str, Any] = {"pool": None}
        self._finalizer = weakref.finalize(self, _terminate_pool_state, self._state)

    @property
    def started(self) -> bool:
        """``True`` while worker processes are running."""
        return self._state["pool"] is not None

    @property
    def closed(self) -> bool:
        """``True`` once the pool has been shut down for good."""
        return self._closed

    @property
    def state(self) -> str:
        """Lifecycle state name: ``"new"``, ``"running"`` or ``"closed"``."""
        if self._closed:
            return "closed"
        return "running" if self.started else "new"

    @property
    def references(self) -> int:
        """Number of runtimes currently attached."""
        return self._refs

    def acquire(self) -> "WorkerPool":
        """Take a reference (one per attached runtime); returns ``self``."""
        with self._lock:
            if self._closed:
                raise InvalidParameterError("this WorkerPool has been shut down")
            self._refs += 1
        return self

    def release(self) -> None:
        """Drop a reference; terminate a non-``keep_alive`` pool at zero."""
        with self._lock:
            self._refs = max(0, self._refs - 1)
            if self._refs == 0 and not self.keep_alive:
                self._shutdown_locked()

    def ensure_started(self) -> bool:
        """Fork the worker processes if needed; ``True`` when this call did."""
        with self._lock:
            if self._closed:
                raise InvalidParameterError("this WorkerPool has been shut down")
            if self._state["pool"] is not None:
                return False
            self._fork_locked()
            return True

    def _fork_locked(self) -> None:
        import multiprocessing
        from multiprocessing import resource_tracker, shared_memory  # noqa: F401

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        # Start the parent's shared-memory tracker before forking, so the
        # workers report to it: a worker forked without one starts its own
        # tracker, which warns at exit and unlinks, when the worker dies,
        # segments the parent still holds.
        resource_tracker.ensure_running()
        # Load what every worker loads before forking, so the workers share
        # it instead of each paying for it on its first chunk: numpy where
        # it imports (the platform tier), the OpenBLAS lookup over it and,
        # imported above, ``shared_memory``.  A process that never forks (a
        # serial server) never loads ``multiprocessing``.
        numpy_available()
        _openblas_thread_calls()
        pool = context.Pool(
            processes=self.max_workers,
            initializer=_init_worker,
        )
        self._state["pool"] = pool
        self._known_pids = self._live_pids(pool)
        self.launches += 1

    @staticmethod
    def _live_pids(pool) -> set:
        return {
            proc.pid
            for proc in list(getattr(pool, "_pool", None) or [])
            if proc.exitcode is None
        }

    def check_workers(self) -> int:
        """Count workers that vanished since the last check.

        ``mp.Pool``'s maintenance thread replaces a dead process, but any
        task it was executing is silently lost — the caller must resubmit
        in-flight work whenever this returns non-zero.  Each death is
        reported exactly once (replacement pids are folded into the known
        set).
        """
        with self._lock:
            pool = self._state["pool"]
            if pool is None:
                return 0
            live = self._live_pids(pool)
            dead = self._known_pids - live
            self._known_pids = live
            if dead:
                self.worker_deaths += len(dead)
            return len(dead)

    def respawn(self) -> float:
        """Replace a broken pool with freshly forked processes.

        Sleeps the current backoff window first (0 on the first respawn,
        then 0.05 s doubling up to 2 s on consecutive ones — the runtime
        calls :meth:`reset_backoff` after every healthy batch), then
        terminates whatever processes remain and forks a new pool.  Returns the delay
        slept.  Raises :class:`PoolStateError` on a closed pool.
        """
        with self._lock:
            if self._closed:
                raise PoolStateError(
                    "cannot respawn a WorkerPool in state 'closed'"
                )
            delay = self._next_backoff
            self._next_backoff = min(
                max(delay * 2, _RESPAWN_BACKOFF), _MAX_RESPAWN_BACKOFF
            )
        if delay:
            time.sleep(delay)
        with self._lock:
            if self._closed:
                raise PoolStateError(
                    "cannot respawn a WorkerPool in state 'closed'"
                )
            _terminate_pool_state(self._state)
            self._fork_locked()
            self.respawns += 1
        return delay

    def reset_backoff(self) -> None:
        """Arm the next respawn to fire immediately (healthy-batch signal)."""
        with self._lock:
            self._next_backoff = 0.0

    def submit(self, task, args: tuple):
        """Submit ``task(*args)`` to the pool's shared queue (async result).

        Raises :class:`PoolStateError` — naming the pool state — on a pool
        that is closed or was never started, and :class:`PoolBrokenError`
        when the underlying ``mp.Pool`` refuses the task (torn down or
        broken mid-flight; callers respawn and retry).
        """
        pool = self._state["pool"]
        if pool is None:
            raise PoolStateError(
                f"WorkerPool.submit on a pool in state {self.state!r}: "
                + (
                    "the pool has been shut down and cannot accept tasks"
                    if self._closed
                    else "no worker processes are running — call ensure_started() first"
                )
            )
        try:
            return pool.apply_async(task, args)
        except Exception as exc:
            raise PoolBrokenError(
                f"WorkerPool.submit failed on a broken pool: {exc}"
            ) from exc

    def close(self) -> None:
        """Terminate the processes now, whatever the refcount (idempotent)."""
        with self._lock:
            self._shutdown_locked()

    def _shutdown_locked(self) -> None:
        self._closed = True
        self._finalizer.detach()
        _terminate_pool_state(self._state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerPool(max_workers={self.max_workers}, started={self.started}, "
            f"refs={self._refs}, keep_alive={self.keep_alive})"
        )


_SHARED_POOL: Optional[WorkerPool] = None
_SHARED_STORE: Optional["PayloadStore"] = None
_SHARED_LOCK = threading.Lock()


def shared_worker_pool(max_workers: Optional[int] = None) -> WorkerPool:
    """The process-global :class:`WorkerPool` (created on first call).

    ``max_workers`` sizes the pool only when this call creates it; later
    callers share the existing processes whatever they ask for.  The pool
    is ``keep_alive`` — it survives every individual runtime/session and is
    terminated by its exit guard when the interpreter shuts down (or by
    :meth:`WorkerPool.close`, after which the next call creates a fresh
    one).
    """
    global _SHARED_POOL
    with _SHARED_LOCK:
        if _SHARED_POOL is None or _SHARED_POOL.closed:
            _SHARED_POOL = WorkerPool(max_workers, keep_alive=True)
        return _SHARED_POOL


def shared_payload_store() -> "PayloadStore":
    """The process-global :class:`PayloadStore` (created on first call)."""
    global _SHARED_STORE
    with _SHARED_LOCK:
        if _SHARED_STORE is None or _SHARED_STORE.closed:
            _SHARED_STORE = PayloadStore()
        return _SHARED_STORE


# ----------------------------------------------------------------------
# PayloadStore: the multi-entry shared-memory table
# ----------------------------------------------------------------------
class _StoreEntry:
    """One resident ``(graph_id, version)`` payload.

    Holds a strong reference to the snapshot object that shipped the entry
    (so the identity map can never alias a recycled ``id()``, and a late
    ``materialize`` can still write the segment), the materialised
    shared-memory payload (process transport) and the live refcount.
    Later snapshots that key-hit the entry are deliberately *not* retained
    — pinning every holder's copy would leak one full CSR graph per
    short-lived session on a long-lived shared key.
    """

    __slots__ = ("key", "name", "compact", "payload", "nbytes", "refs")

    def __init__(self, key: PayloadKey, compact: CompactGraph) -> None:
        graph_id, version = key
        self.key = key
        #: The key as the stats ledger renders it: ``gid@vN``.
        self.name = f"{graph_id}@v{version}"
        self.compact = compact
        self.payload: Optional[_ShippedPayload] = None
        self.nbytes = (len(compact.indptr) + len(compact.indices)) * _ITEMSIZE
        self.refs = 0

    def close(self) -> None:
        if self.payload is not None:
            self.payload.close()
            self.payload = None


def _close_store_entries(entries: Dict[PayloadKey, _StoreEntry]) -> None:
    """Unlink every resident payload (close/GC/exit path)."""
    for entry in list(entries.values()):
        entry.close()
    entries.clear()


class PayloadStore:
    """Refcounted multi-entry table of shipped CSR payloads.

    Keys are ``(graph_id, version)`` pairs.  :meth:`ship` is the only entry
    point: the first ship of a key materialises the payload (shared-memory
    segment for the process transport; bookkeeping only for the serial one)
    and every later ship of the same key — from any runtime, any tenant —
    is a hit.  Entries are evicted, and their segments unlinked, when the
    last holder calls :meth:`release`.

    Thread-safe: the serving gateway flushes tenant batches from executor
    threads, so every mutation takes the store lock.

    Examples
    --------
    >>> from repro.graph.csr import CompactGraph
    >>> store = PayloadStore()
    >>> cg = CompactGraph.from_edges([(0, 1), (1, 2)])
    >>> entry, shipped = store.ship(cg, key=("tenant-a", 0), materialize=False)
    >>> shipped and store.resident_payloads == 1
    True
    >>> _, again = store.ship(cg, key=("tenant-a", 0), materialize=False)
    >>> again  # second tenant: a hit, not a ship (refcount now 2)
    False
    >>> store.release(("tenant-a", 0)); store.release(("tenant-a", 0))
    >>> store.evictions  # the last holder left: the entry was evicted
    1
    >>> store.ship(cg, materialize=False)[0].key  # anonymous re-ship
    ('graph-0', 0)
    """

    def __init__(self) -> None:
        self._entries: Dict[PayloadKey, _StoreEntry] = {}
        self._by_identity: Dict[int, PayloadKey] = {}
        self._lock = threading.Lock()
        self._anon = 0
        self._closed = False
        self.ships = 0
        self.evictions = 0
        self.bytes_shipped = 0
        #: Cumulative bytes shipped per rendered key (``gid@vN``; survives
        #: eviction — the capacity-planning ledger, not the residency
        #: table).  A key is rendered once, when it first ships.
        self.shipped_by_key: Dict[str, int] = {}
        self._finalizer = weakref.finalize(self, _close_store_entries, self._entries)

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has run."""
        return self._closed

    @property
    def resident_payloads(self) -> int:
        """Number of entries currently resident."""
        return len(self._entries)

    @property
    def resident_bytes(self) -> int:
        """Total CSR bytes of the resident entries."""
        return sum(entry.nbytes for entry in self._entries.values())

    def keys(self) -> List[PayloadKey]:
        """The resident ``(graph_id, version)`` keys."""
        return list(self._entries)

    def ship(
        self,
        compact: CompactGraph,
        key: Optional[PayloadKey] = None,
        materialize: bool = True,
    ) -> Tuple[_StoreEntry, bool]:
        """Ensure ``compact`` is resident; return ``(entry, shipped)``.

        ``key`` is the caller's ``(graph_id, version)`` identity; ``None``
        assigns an anonymous one.  A snapshot object already resident (under
        any key) and a key already resident (from any snapshot object) are
        both hits.  ``materialize=False`` is the serial transport: the entry
        is tracked and accounted but no segment is written (the serial
        kernel builds what its tier uses on its first chunk).  The entry's refcount is
        incremented either way — callers own exactly one :meth:`release` per
        ship.
        """
        with self._lock:
            if self._closed:
                raise InvalidParameterError("this PayloadStore has been closed")
            entry = None
            existing_key = self._by_identity.get(id(compact))
            if existing_key is not None:
                entry = self._entries[existing_key]
            elif key is not None and key in self._entries:
                # Same (graph_id, version) from a different snapshot object
                # (e.g. two sessions opened on one dataset): reuse the
                # resident payload.  The new snapshot is NOT retained or
                # identity-registered — the key lookup dedupes its later
                # ships, and holding it would pin one graph copy per
                # session for the entry's lifetime.
                entry = self._entries[key]
            if entry is not None:
                shipped = False
                if materialize and entry.payload is None:
                    entry.payload = _ShippedPayload(entry.compact)
                    shipped = True
                    self._account_ship_locked(entry)
                entry.refs += 1
                return entry, shipped
            if key is None:
                key = (f"graph-{self._anon}", 0)
                self._anon += 1
            entry = _StoreEntry(key, compact)
            if materialize:
                entry.payload = _ShippedPayload(compact)
            self._entries[key] = entry
            self._by_identity[id(compact)] = key
            self._account_ship_locked(entry)
            entry.refs += 1
            return entry, True

    def _account_ship_locked(self, entry: _StoreEntry) -> None:
        self.ships += 1
        self.bytes_shipped += entry.nbytes
        name = entry.name
        self.shipped_by_key[name] = self.shipped_by_key.get(name, 0) + entry.nbytes

    def acquire(self, key: PayloadKey) -> _StoreEntry:
        """Take an extra reference on a resident key.

        Raises :class:`PayloadEvictedError` — naming the key and the
        resident keys — when the key was evicted or never shipped, instead
        of surfacing an opaque ``KeyError``.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                raise PayloadEvictedError(key, resident=list(self._entries))
            entry.refs += 1
            return entry

    def reship(self, key: PayloadKey) -> _StoreEntry:
        """Re-materialise a resident key's shared-memory segment.

        The integrity-recovery path: when a worker reports a torn or
        corrupt segment, the old segment is unlinked and the entry's
        retained snapshot is written into a fresh one under the same key
        (refcounts untouched).  Returns the entry with its new payload.
        """
        with self._lock:
            if self._closed:
                raise InvalidParameterError("this PayloadStore has been closed")
            entry = self._entries.get(key)
            if entry is None:
                raise PayloadEvictedError(key, resident=list(self._entries))
            if entry.payload is not None:
                entry.payload.close()
                entry.payload = None
            entry.payload = _ShippedPayload(entry.compact)
            self._account_ship_locked(entry)
            return entry

    def release(self, key: PayloadKey) -> None:
        """Drop one reference; evict (and unlink) the entry at zero."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return
            entry.refs -= 1
            if entry.refs <= 0:
                del self._entries[key]
                self._by_identity.pop(id(entry.compact), None)
                entry.close()
                self.evictions += 1

    def stats(self) -> Dict[str, Any]:
        """A JSON-friendly snapshot of the store's accounting."""
        with self._lock:
            return {
                "ships": self.ships,
                "evictions": self.evictions,
                "resident_payloads": len(self._entries),
                "resident_bytes": sum(e.nbytes for e in self._entries.values()),
                "bytes_shipped": self.bytes_shipped,
                "by_key": dict(self.shipped_by_key),
            }

    def close(self) -> None:
        """Evict everything and refuse further ships (idempotent)."""
        if self._closed:
            return
        with self._lock:
            self._closed = True
            self._finalizer.detach()
            self.evictions += len(self._entries)
            _close_store_entries(self._entries)
            self._by_identity.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PayloadStore(resident={self.resident_payloads}, "
            f"ships={self.ships}, evictions={self.evictions})"
        )


# ----------------------------------------------------------------------
# The runtime
# ----------------------------------------------------------------------
class _Held:
    """The payload key a runtime holds a store reference on.

    Carries the snapshot this runtime last executed under the key (the
    ship short-circuit is runtime-local: a key-hit entry in a shared store
    does not retain later holders' snapshots), plus the work estimates of
    the ids chunked under the key so far and its lazily built parent-side
    serial chunk kernel.
    """

    __slots__ = ("entry", "compact", "estimates", "kernel")

    def __init__(self, entry: _StoreEntry, compact: CompactGraph) -> None:
        self.entry = entry
        self.compact = compact
        self.estimates: Dict[int, float] = {}
        self.kernel: Optional[Any] = None


def _release_runtime_state(state: Dict[str, Any]) -> None:
    """Detach a runtime from its pool/store (close/GC/exit path)."""
    store: Optional[PayloadStore] = state.pop("store", None)
    held: Optional[_Held] = state.pop("held", None)
    if store is not None and not store.closed:
        if held is not None:
            store.release(held.entry.key)
        if state.pop("owns_store", False):
            store.close()
    pool: Optional[WorkerPool] = state.pop("pool", None)
    if pool is not None and not pool.closed:
        pool.release()
    state.update(store=None, held=None, pool=None, owns_store=False)


class ExecutionRuntime:
    """A lazily-created, reusable execution backend for CSR vertex chunks.

    Parameters
    ----------
    max_workers:
        Worker-pool size for a *privately created* pool (default
        ``os.cpu_count()``); also the default parallelism of the runtime's
        own chunking.  Ignored when ``pool=`` is supplied.
    executor:
        ``"process"`` (persistent :class:`WorkerPool` + shared-memory
        transport, the production configuration) or ``"serial"``
        (in-process execution on the snapshot's own cached structures —
        deterministic, dependency-free, used by tests and the schedule
        model).
    pool:
        An existing :class:`WorkerPool` to attach to (multi-tenant
        sharing); ``None`` creates a private pool whose processes terminate
        with this runtime.
    store:
        An existing :class:`PayloadStore` to ship into; ``None`` creates a
        private store that closes with this runtime.
    task_deadline:
        Per-task straggler deadline in seconds (``None`` disables).  A
        submitted chunk with no result after this long is presumed lost
        and resubmitted (the kernels are pure, so duplicates are
        idempotent).  Default :data:`DEFAULT_TASK_DEADLINE`.

    Notes
    -----
    The runtime holds a store reference on the payload key of its last
    batch, and releases it when a batch executes another key (a new
    version or another graph); a released entry survives in a shared store
    while other tenants still hold it.  So a graph version ships once
    however many batches run on it.  Use as a context manager — or call
    :meth:`close` — for deterministic teardown; ``weakref.finalize``
    guards back every layer so crashes cannot leak pools or shared-memory
    segments.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        executor: "ParallelBackend | str" = ParallelBackend.PROCESS,
        pool: Optional[WorkerPool] = None,
        store: Optional[PayloadStore] = None,
        task_deadline: Optional[float] = DEFAULT_TASK_DEADLINE,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise InvalidParameterError("max_workers must be positive")
        if task_deadline is not None and task_deadline <= 0:
            raise InvalidParameterError("task_deadline must be positive or None")
        self.task_deadline = task_deadline
        self.kernel = platform_tier()
        self.executor = ParallelBackend(executor)
        if pool is None:
            pool = WorkerPool(max_workers)
        self.max_workers = max_workers or pool.max_workers
        owns_store = store is None
        if owns_store:
            store = PayloadStore()
        # The payload this runtime holds a store reference on lives in the
        # state holder shared with the GC finaliser, which must not keep
        # ``self`` alive yet must see the *current* holding.
        self._state: Dict[str, Any] = {
            "pool": pool.acquire(),
            "store": store,
            "owns_store": owns_store,
            "held": None,
        }
        # Poison-task quarantine: (payload key, encoded chunk spec) pairs
        # that exhausted their retry budget execute serially in the parent
        # for the life of this runtime.
        self._quarantine: set = set()
        #: Poll granularity of the supervised result loop: how quickly a
        #: worker death / straggler is noticed while results are pending.
        self._poll_seconds = 0.02
        self._closed = False
        self._stats = RuntimeStats(
            executor=self.executor.value,
            max_workers=self.max_workers,
            kernel=self.kernel,
        )
        self._finalizer = weakref.finalize(self, _release_runtime_state, self._state)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has run."""
        return self._closed

    @property
    def pool(self) -> WorkerPool:
        """The attached :class:`WorkerPool` (shared or private)."""
        return self._state["pool"]

    @property
    def store(self) -> PayloadStore:
        """The attached :class:`PayloadStore` (shared or private)."""
        return self._state["store"]

    def close(self) -> None:
        """Detach from the pool and store (idempotent).

        A private pool terminates its processes and a private store unlinks
        its segments; shared infrastructure merely loses this runtime's
        references (the entries this runtime held are evicted only if no
        other tenant still holds them).
        """
        if self._closed:
            return
        self._refresh_store_stats()  # what stats() reports once detached
        self._closed = True
        self._finalizer.detach()
        _release_runtime_state(self._state)

    def __enter__(self) -> "ExecutionRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutionRuntime(executor={self.executor.value!r}, "
            f"max_workers={self.max_workers}, ships={self._stats.payload_ships}, "
            f"closed={self._closed})"
        )

    def stats(self) -> RuntimeStats:
        """The cumulative :class:`RuntimeStats` (store fields refreshed)."""
        self._refresh_store_stats()
        return self._stats

    def _refresh_store_stats(self) -> None:
        store: Optional[PayloadStore] = self._state.get("store")
        if store is None or store.closed:
            return
        snapshot = store.stats()
        self._stats.resident_payloads = snapshot["resident_payloads"]
        self._stats.resident_bytes = snapshot["resident_bytes"]
        self._stats.payload_evictions = snapshot["evictions"]
        self._stats.payloads = snapshot["by_key"]

    # ------------------------------------------------------------------
    # Residency, transport and pool management
    # ------------------------------------------------------------------
    @property
    def _held(self) -> Optional[_Held]:
        """The payload of this runtime's last batch, or ``None``."""
        return self._state["held"]

    def _hold(self, key: Optional[PayloadKey], compact: CompactGraph) -> Tuple[_Held, bool]:
        """Hold ``compact``'s store entry under ``key``, shipping it if needed.

        The payload held before is released when the new one differs: a
        runtime holds one payload at a time.
        """
        held = self._held
        if held is not None and (
            held.compact is compact if key is None else held.entry.key == key
        ):
            shipped = False
        else:
            entry, shipped = self.store.ship(
                compact,
                key=key,
                materialize=self.executor is ParallelBackend.PROCESS,
            )
            if held is not None:
                # Released after the ship: when both resolve to one entry,
                # its refcount never drops to zero in between.
                self.store.release(held.entry.key)
            if held is None or held.entry is not entry:
                held = self._state["held"] = _Held(entry, compact)
            if shipped:
                self._stats.payload_ships += 1
                self._stats.payload_bytes_shipped += entry.nbytes
                if entry.payload is not None and _faults.draw_ship_corruption():
                    # Chaos hook: a "torn" ship — workers will detect the
                    # bad checksum on attach and the batch re-ships cleanly.
                    entry.payload.corrupt_header()
                    _faults.note_performed("corruptions")
        if held.compact is not compact:
            held.compact, held.kernel = compact, None
        return held, shipped

    def _ensure_pool(self) -> bool:
        """Start the worker pool if the process executor needs one."""
        if self.executor is not ParallelBackend.PROCESS:
            return False
        started = self.pool.ensure_started()
        if started:
            self._stats.pool_launches += 1
        return started

    def _serial_kernel(self, held: _Held):
        """The parent-side chunk kernel on a held snapshot's cached structures.

        Used by the serial executor; memoized per held snapshot so repeated
        batches reuse one neighbour-set/dense build (and, on the numpy
        tier, one attached scorer).
        """
        if held.kernel is None:
            held.kernel = CSRChunkKernel.for_compact(held.compact)
        return held.kernel

    # ------------------------------------------------------------------
    # Supervised process execution
    # ------------------------------------------------------------------
    @staticmethod
    def _spec_key(spec) -> Tuple:
        """A hashable identity for an encoded chunk spec (quarantine key)."""
        if spec[0] == "r":
            return spec
        return ("l", tuple(spec[1]))

    def _reship_entry(self, entry: _StoreEntry) -> None:
        """Replace the entry's segment after an integrity failure."""
        entry = self.store.reship(entry.key)
        self._stats.payload_ships += 1
        self._stats.payload_bytes_shipped += entry.nbytes

    def _tally_kernel(self, kinfo: Tuple[str, int]) -> None:
        """Fold one chunk's ``(tier served, fallback delta)`` into stats."""
        served, fallbacks = kinfo
        chunks = self._stats.kernel_chunks
        chunks[served] = chunks.get(served, 0) + 1
        self._stats.kernel_fallbacks += fallbacks

    def _run_supervised(
        self,
        method: str,
        args: Tuple,
        tasks: Sequence[Tuple[int, Sequence[int]]],
        entry: _StoreEntry,
        serial_chunk: Callable[[Sequence[int]], Any],
    ) -> Dict[int, Tuple[Any, float, Tuple[str, int]]]:
        """Submit chunk tasks and collect results under supervision.

        The happy path is the old submit-then-get loop; on top of it this
        detects vanished workers (pid liveness), resubmits their lost
        tasks, retries stragglers past ``task_deadline`` and tasks hit by
        injected faults, re-ships torn payloads, respawns a broken pool
        with bounded backoff, and quarantines chunks that exhaust their
        retry budget (they run serially in the parent — the kernels are
        pure, so every recovery path stays bit-identical).

        Each task is ``(index, chunk)``, executed against the payload of
        the store ``entry``.  ``serial_chunk(chunk)`` is the in-parent
        fallback for quarantined chunks.

        Returns ``{chunk index: (result payload, kernel seconds,
        (tier served, fallback delta))}`` for every submitted task.
        Deterministic kernel errors (anything that is not a worker fault)
        propagate unchanged.
        """
        pool: WorkerPool = self.pool
        stats = self._stats
        chunk_of = dict(tasks)
        specs = {index: _encode_ids(chunk) for index, chunk in chunk_of.items()}
        retries = {index: 0 for index in chunk_of}
        outputs: Dict[int, Tuple[Any, float, Tuple[str, int]]] = {}
        # index -> [async_result, submitted_at, meta-at-submit]
        pending: Dict[int, List[Any]] = {}
        to_submit = list(chunk_of)
        respawn_budget = _MAX_RESPAWNS_PER_BATCH

        def run_quarantined(index: int) -> None:
            # Quarantined chunks run the parent's serial python oracle —
            # bit-identical by the tier contract, so no tier bookkeeping
            # beyond attributing the chunk to the python tier.
            start = time.perf_counter()
            payload = serial_chunk(chunk_of[index])
            outputs[index] = (payload, time.perf_counter() - start, ("python", 0))

        def charge_retry(index: int) -> None:
            retries[index] += 1
            if retries[index] > DEFAULT_MAX_TASK_RETRIES:
                self._quarantine.add((entry.key, self._spec_key(specs[index])))
                stats.quarantined_tasks += 1
                run_quarantined(index)
            else:
                stats.task_retries += 1
                to_submit.append(index)

        while to_submit or pending:
            # --- submit everything queued --------------------------------
            while to_submit:
                index = to_submit[-1]
                if (entry.key, self._spec_key(specs[index])) in self._quarantine:
                    to_submit.pop()
                    run_quarantined(index)
                    continue
                meta = entry.payload.meta
                fault = _faults.draw_task_fault()
                try:
                    result = pool.submit(
                        _chunk_task,
                        (meta, index, specs[index], method, args, fault),
                    )
                except PoolStateError:
                    raise
                except PoolBrokenError:
                    # The pool itself is torn: every in-flight result is
                    # orphaned.  Respawn (bounded backoff) and resubmit the
                    # lot — or give up if the pool will not come back.
                    if respawn_budget <= 0:
                        raise
                    respawn_budget -= 1
                    to_submit.extend(pending)
                    pending.clear()
                    pool.respawn()
                    stats.respawns += 1
                    continue
                to_submit.pop()
                pending[index] = [result, time.monotonic(), meta]

            if not pending:
                break

            # --- collect whatever is ready -------------------------------
            progressed = False
            for index in list(pending):
                result, _, meta = pending[index]
                if not result.ready():
                    continue
                del pending[index]
                progressed = True
                try:
                    out = result.get()
                except (PayloadIntegrityError, FileNotFoundError):
                    # Torn/corrupt segment (or a stale segment name after a
                    # concurrent re-ship): re-ship once per corruption, then
                    # retry the task against the fresh segment.
                    stats.integrity_failures += 1
                    if meta == entry.payload.meta:
                        self._reship_entry(entry)
                    charge_retry(index)
                except InjectedFaultError:
                    charge_retry(index)
                else:
                    out_index, payload, seconds, kinfo = out
                    outputs[out_index] = (payload, seconds, kinfo)

            if progressed or not pending:
                continue

            # --- nothing ready: health and deadline checks ---------------
            next(iter(pending.values()))[0].wait(self._poll_seconds)
            deaths = pool.check_workers()
            if deaths:
                stats.worker_deaths += deaths
                # A vanished worker silently drops whatever it was
                # executing; queued tasks survive, but telling them apart
                # is impossible from here — resubmit every in-flight task
                # (idempotent; results are keyed and merged by index).
                for index in list(pending):
                    if pending[index][0].ready():
                        continue
                    del pending[index]
                    charge_retry(index)
                continue
            if self.task_deadline is not None:
                now = time.monotonic()
                for index in list(pending):
                    result, submitted_at, _ = pending[index]
                    if result.ready() or now - submitted_at <= self.task_deadline:
                        continue
                    del pending[index]
                    stats.deadline_misses += 1
                    charge_retry(index)

        pool.reset_backoff()
        return outputs

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        compact: CompactGraph,
        chunks: Optional[Sequence[Sequence[int]]] = None,
        *,
        ids: Optional[Iterable[int]] = None,
        num_workers: Optional[int] = None,
        payload_key: Optional[PayloadKey] = None,
    ) -> Tuple[Dict[int, float], BatchStats]:
        """Score ``compact``'s ids; return ``(scores by id, batch)``.

        Parameters
        ----------
        compact:
            The snapshot to execute.  A snapshot the store has not seen
            ships its payload (once per key); a resident one — shipped by
            this runtime or any other tenant of a shared store — reuses the
            shipped arrays.
        chunks:
            Explicit id chunks, executed as given.  When omitted, the
            runtime cuts the ids into one weight-balanced range per
            worker.
        ids:
            The dense vertex ids to score (default: every vertex).  Ignored
            when ``chunks`` is given.
        num_workers:
            Parallelism used by the chunker (default ``max_workers``).
        payload_key:
            The store key of the snapshot (sessions pass their
            ``(graph_id, version)``); ``None`` lets the store assign an
            anonymous identity-scoped key.

        Returns
        -------
        The merged ``{id: score}`` map (in no particular order) plus the
        batch's :class:`BatchStats`.
        """
        return self._batch(
            "scores", compact, ids, payload_key, num_workers, chunks=chunks
        )

    def execute_top_k(
        self,
        compact: CompactGraph,
        k: int,
        *,
        ids: Optional[Iterable[int]] = None,
        num_workers: Optional[int] = None,
        payload_key: Optional[PayloadKey] = None,
    ) -> Tuple[List[Tuple[int, float]], BatchStats]:
        """Top-k candidates of ``compact``'s ids, with worker-side reduction.

        ``ids`` / ``payload_key`` as in :meth:`execute`.  Each chunk task
        returns only the entries at or above the chunk's k-th largest score
        (see :func:`~repro.core.csr_kernels.top_k_entries_from_arrays`), so
        only ``O(tasks × k + ties)`` entries cross the process boundary
        instead of every score.

        Returns every ``(id, score)`` of the requested ids whose score
        reaches the global k-th score — the top ``k`` by score plus all
        ties at the k-th — best score first, and the batch's
        :class:`BatchStats`.  Which tied entries make the top-k is the
        caller's call: the top-k order breaks ties by the vertex label's
        sort key, which ids do not carry.
        """
        if k < 1:
            raise InvalidParameterError("k must be a positive integer")
        return self._batch("top_k", compact, ids, payload_key, num_workers, k=k)

    def _batch(
        self,
        kind: str,
        compact: CompactGraph,
        ids: Optional[Iterable[int]],
        payload_key: Optional[PayloadKey],
        num_workers: Optional[int],
        *,
        chunks: Optional[Sequence[Sequence[int]]] = None,
        k: int = 0,
    ) -> Tuple[Any, BatchStats]:
        """The one batch core: hold, chunk, run, reduce, account."""
        if self._closed:
            raise InvalidParameterError("this ExecutionRuntime has been closed")
        ids = range(compact.num_vertices) if ids is None else list(ids)

        setup_start = time.perf_counter()
        held, shipped = self._hold(payload_key, compact)
        self._stats.payload_bytes = held.entry.nbytes
        pool_started = self._ensure_pool()
        setup_seconds = time.perf_counter() - setup_start

        workers = num_workers or self.max_workers
        cap = min(k, len(ids))
        plan = (
            self._chunk(held, ids, chunks, workers)
            if kind == "scores" or cap
            else []
        )
        if kind == "scores":
            method, args = "score_chunk", ()
        else:
            method, args = "top_chunk", (cap,)

        compute_start = time.perf_counter()
        tasks = [(i, chunk) for i, chunk in enumerate(plan) if chunk]
        if self.executor is ParallelBackend.SERIAL:
            kernel = self._serial_kernel(held)
            outputs = {
                i: _serve_chunk(kernel, method, chunk, *args) for i, chunk in tasks
            }
        else:
            # Quarantined chunks run the in-parent python oracle.
            oracle = (
                ego_betweenness_from_arrays
                if kind == "scores"
                else top_k_entries_from_arrays
            )

            def serial_chunk(chunk):
                return oracle(
                    compact.indptr,
                    compact.indices,
                    chunk,
                    *args,
                    compact.neighbor_sets(),
                    compact.dense_adjacency(),
                )

            outputs = self._run_supervised(
                method, args, tasks, held.entry, serial_chunk
            )
        chunk_seconds = [0.0] * len(plan)
        pairs: List[Tuple[int, Any]] = []
        for i, _ in tasks:
            payload, chunk_seconds[i], kinfo = outputs[i]
            self._tally_kernel(kinfo)
            pairs.extend(payload.items() if kind == "scores" else payload)
        if kind == "scores":
            result: Any = dict(pairs)
        else:
            result = threshold_cut(pairs, cap)
            result.sort(key=itemgetter(1), reverse=True)
        compute_seconds = time.perf_counter() - compute_start

        batch = BatchStats(
            num_tasks=len(tasks),
            shipped=shipped,
            pool_started=pool_started,
            setup_seconds=setup_seconds,
            compute_seconds=compute_seconds,
            chunk_seconds=chunk_seconds,
            kind=kind,
        )
        self._account_batch(batch)
        return result, batch

    def _chunk(
        self,
        held: _Held,
        ids: Sequence[int],
        chunks: Optional[Sequence[Sequence[int]]],
        workers: int,
    ) -> List[List[int]]:
        """The caller's ``chunks``, or ``ids`` cut into ``workers`` ranges.

        The runtime's own unit of work: ascending id order (cache
        friendly, range-encodable) cut into chunks of approximately equal
        estimated work, one task per worker.  The work estimates are
        computed only for the ids being chunked and memoised on the held
        payload.
        """
        if chunks is not None:
            return [list(chunk) for chunk in chunks]
        ids = sorted(ids)
        estimates = held.estimates
        missing = [i for i in ids if i not in estimates]
        if missing:
            estimates.update(
                zip(missing, vertex_work_estimates_csr(held.compact, missing))
            )
        target_chunks = max(1, min(len(ids), workers))
        target = sum(estimates[i] for i in ids) / target_chunks
        plan: List[List[int]] = []
        current: List[int] = []
        acc = 0.0
        for i in ids:
            current.append(i)
            acc += estimates[i]
            if acc >= target and len(plan) < target_chunks - 1:
                plan.append(current)
                current = []
                acc = 0.0
        if current:
            plan.append(current)
        return plan

    def _account_batch(self, batch: BatchStats) -> None:
        stats = self._stats
        stats.batches += 1
        stats.tasks += batch.num_tasks
        stats.setup_seconds += batch.setup_seconds
        stats.compute_seconds += batch.compute_seconds
        if self.executor is ParallelBackend.PROCESS and not batch.pool_started:
            stats.pool_reuses += 1
        stats.last_batch = batch
