"""Vectorized (numpy) batch wedge kernels over raw CSR arrays.

This module is the ``numpy`` **kernel tier** of the chunk-scoring hot
path.  The tier follows the platform (:func:`platform_tier`): wherever
numpy imports (``pip install repro[fast]``) chunks are scored whole with
batched array operations; elsewhere the pure-Python wedge kernels, which
stay the oracle, serve them.

Bit-identity by construction
----------------------------
The vectorized kernel never produces a float of its own.  For every vertex
it computes, with numpy, the **exact integer** histogram ``{connector
count: #pairs}`` of the ego's non-adjacent neighbour pairs, key 0 holding
the lonely pairs (:meth:`VectorizedChunkScorer.histograms`, the state a
dynamic overlay is seeded with); a score feeds it through the same
canonical sorted-histogram summation
(:func:`repro.core.ego_betweenness._sum_from_histogram`) as every Python
kernel.  Identical integers through an identical float accumulation order
means every score is **bit-identical** to the Python tier and therefore to
the retained hash oracle.

How a chunk is scored
---------------------
Vertices are sorted by degree and grouped into padded batches ``(B, D)``
(``B`` egos, max degree ``D``, sentinel-padded) sized by a cell budget.
For each batch the boolean ego-adjacency tensor ``M[b, i, j]`` — is
neighbour ``j`` adjacent to neighbour ``i`` inside ego ``b`` — is built by
one of two paths:

* **packed adjacency bitmap** — when the ``(n+1) × (n+1)`` bit matrix
  fits :data:`BITMAP_BYTE_BUDGET` (16 MiB, n ≤ 11,583) the whole tensor is
  one gather ``(bits[i, j >> 3] >> (j & 7)) & 1`` from a sentinel-padded
  bitmap scattered once from the CSR rows (hub vertices with thousands of
  neighbours pay a single vectorized gather instead of ``d²`` probes);
* **edge keys** — past the budget every edge is one int64 key
  ``row · (n+1) + col``; the CSR arrays are already sorted, so the keys
  are too, and a cell is a member when
  ``keys[searchsorted(keys, q)] == q`` for its query key ``q``.  Queries
  are built in blocks of :data:`_KEY_BLOCK_CELLS`, so the test's memory is
  bounded whatever the degrees.  A full sweep of wikitalk@2.0 costs about
  2–2.5× its bitmap sweep.

Connector counts come from a batched ``M @ M`` in float32 (0.0/1.0
entries, every count and partial sum an integer ``<= D`` — BLAS sgemm is
exact in that range); masking to non-adjacent pairs and one ``bincount``
per batch produces the integer histograms.  Oversized egos take the
single-hub path instead: the hub's membership matrix is built in row
blocks of at most :data:`_BATCH_CELL_BUDGET` cells, then a sparse star
resolves its wedge pairs block by block with sort-based ``unique`` and a
dense hub streams a row-blocked matmul.

BLAS runs on one thread while a chunk is scored (:func:`one_blas_thread`):
the parallelism of a sweep is the worker count, the sgemm blocks here are
small, and OpenBLAS's own threads made in-process sweeps several times
slower.  The caller's thread count is restored afterwards, so a host
application's numpy keeps its threads.

Buffers are attached **zero-copy**: ``memoryview`` casts of shared-memory
segments, ``array('l')`` payloads and numpy arrays all go through
``np.frombuffer`` — a parallel worker scores chunks directly on the bytes
the :class:`~repro.parallel.runtime.PayloadStore` shipped, so enabling the
tier changes no shipping accounting.

numpy stays optional: importing this module never imports numpy; the
probe (:func:`numpy_available`) runs when a kernel is built, and a
vectorized chunk that fails demotes its
:class:`~repro.core.csr_kernels.CSRChunkKernel` to the Python tier with a
counted fallback.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "numpy_available",
    "platform_tier",
    "one_blas_thread",
    "VectorizedChunkScorer",
    "BITMAP_BYTE_BUDGET",
]


def _numpy_module():
    """Return the numpy module, or ``None`` when it cannot be imported.

    Deliberately un-cached: a live ``import`` is one ``sys.modules`` probe
    when numpy is present, and staying live lets the no-numpy test
    simulation (``sys.modules["numpy"] = None``) switch availability
    mid-process.
    """
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def numpy_available() -> bool:
    """``True`` when the ``numpy`` kernel tier can actually run."""
    return _numpy_module() is not None


def platform_tier() -> str:
    """The kernel tier this process runs: ``"numpy"`` when numpy imports,
    else ``"python"``."""
    return "numpy" if numpy_available() else "python"


#: The ``(get, set)`` thread-count pair of every OpenBLAS mapped into this
#: process, and the state of :func:`one_blas_thread` (a forked child starts
#: outside any scope, with a fresh lock).
_OPENBLAS_CALLS: Optional[List[Tuple[Callable, Callable]]] = None
_BLAS_SCOPE: Dict = {"lock": threading.Lock(), "depth": 0, "saved": []}
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        after_in_child=lambda: _BLAS_SCOPE.update(lock=threading.Lock(), depth=0)
    )


def _openblas_thread_calls() -> List[Tuple[Callable, Callable]]:
    """``openblas_get/set_num_threads`` of every OpenBLAS mapped into this process.

    Looks the libraries up in ``/proc/self/maps`` (empty where there is
    none) and tries the symbols under each known export prefix and the
    64-bit-integer suffix.  The lookup runs once, once numpy is imported
    (before that no BLAS is mapped).  A worker pool runs it before it
    forks, so its workers inherit the result, valid in their copy of the
    address space.
    """
    global _OPENBLAS_CALLS
    if _OPENBLAS_CALLS is None and sys.modules.get("numpy") is not None:
        import ctypes

        _OPENBLAS_CALLS = []
        try:
            with open("/proc/self/maps", encoding="utf-8") as maps:
                paths = sorted({
                    path for path in (line.split()[-1] for line in maps)
                    if path.startswith("/") and "openblas" in path.lower()
                })
        except OSError:
            paths = []
        for path in paths:
            try:
                library = ctypes.CDLL(path)
            except OSError:
                continue
            for name in (
                f"{prefix}_%s_num_threads{suffix}"
                for prefix in ("scipy_openblas", "openblas")
                for suffix in ("64_", "")
            ):
                get = getattr(library, name % "get", None)
                set_ = getattr(library, name % "set", None)
                if get is not None and set_ is not None:
                    _OPENBLAS_CALLS.append((get, set_))
                    break
    return _OPENBLAS_CALLS or []


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block with OpenBLAS capped at one thread.

    The first scope to enter saves each library's thread count and caps it;
    the last to leave restores it, so scopes nest and overlap across
    threads, and the caller's own numpy keeps its threads outside them.
    A no-op where no OpenBLAS is mapped.
    """
    scope = _BLAS_SCOPE
    with scope["lock"]:
        if not scope["depth"]:
            calls = _openblas_thread_calls()
            scope["saved"] = [get() for get, _ in calls]
            for _, set_threads in calls:
                set_threads(1)
        scope["depth"] += 1
    try:
        yield
    finally:
        with scope["lock"]:
            scope["depth"] -= 1
            if not scope["depth"]:
                for (_, set_threads), count in zip(
                    _openblas_thread_calls(), scope["saved"]
                ):
                    set_threads(count)


def as_int64(np, buf):
    """Attach ``buf`` as an int64 array — zero-copy whenever possible."""
    if isinstance(buf, np.ndarray):
        return np.ascontiguousarray(buf, dtype=np.int64)
    try:
        # memoryview('q') casts of shared-memory segments and array('l')
        # payloads: a view over the existing bytes.
        return np.frombuffer(buf, dtype=np.int64)
    except (TypeError, ValueError, BufferError):
        # Plain Python lists (CompactGraph storage): one copy at
        # kernel-construction time, amortised over every chunk.
        return np.asarray(buf, dtype=np.int64)


#: Byte budget of the packed adjacency bitmap: ``n+1`` rows of ``n+1``
#: bits, each row padded to whole bytes, fit it up to n = 11,583.  Larger
#: graphs resolve membership against sorted edge keys instead.
BITMAP_BYTE_BUDGET = 1 << 24


def _fits_bitmap(n: int) -> bool:
    """Whether the packed adjacency bitmap of ``n`` vertices fits the budget."""
    return (n + 1) * ((n + 8) >> 3) <= BITMAP_BYTE_BUDGET


#: Cell budget (``B · D²``) of one padded batch: bounds the boolean tensor
#: at ~2 MB and its float32 matmul operands at ~8 MB each.
_BATCH_CELL_BUDGET = 1 << 21

#: Cells per block of the edge-key membership test and of the sparse hub
#: route's pair expansion: each int64 array they build holds at most
#: this many entries (2 MiB).
_KEY_BLOCK_CELLS = 1 << 18

#: A vertex whose ``d²`` exceeds this many cells is scored alone through
#: the hub path, which can pick the sparse wedge route for star-like egos
#: instead of paying the batched ``D³`` matmul.
_SINGLETON_CELLS = 1 << 15


class VectorizedChunkScorer:
    """Batched exact ego-betweenness over raw CSR buffers (numpy tier).

    Parameters
    ----------
    indptr / indices:
        The flat CSR arrays — plain sequences, ``array('l')`` payloads or
        zero-copy ``memoryview`` casts of a shared-memory segment; buffer
        inputs are attached via ``np.frombuffer`` without copying.
    dense:
        When true (the default) and the graph's ``(n+1) × (n+1)`` bit
        matrix fits :data:`BITMAP_BYTE_BUDGET`, the membership tensor is
        gathered from a packed adjacency bitmap built from the CSR arrays
        (``adjacency``); otherwise membership is a search of the sorted
        edge keys (``edge_keys``).

    Raises
    ------
    ImportError
        When numpy is not importable — a numpy-tier
        :class:`~repro.core.csr_kernels.CSRChunkKernel` then demotes to the
        python tier and counts the fallback.
    """

    __slots__ = ("np", "indptr", "indices", "n", "adjacency", "edge_keys")

    def __init__(
        self,
        indptr: Sequence[int],
        indices: Sequence[int],
        dense: bool = True,
    ) -> None:
        np = _numpy_module()
        if np is None:
            raise ImportError(
                "the 'numpy' kernel tier requires numpy (pip install repro[fast])"
            )
        self.np = np
        self.indptr = as_int64(np, indptr)
        self.indices = as_int64(np, indices)
        self.n = n = len(self.indptr) - 1
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        cols = self.indices
        self.adjacency = self.edge_keys = None
        if dense and n > 0 and _fits_bitmap(n):
            # Sentinel-padded adjacency bits (row/column ``n`` all zero):
            # bit ``col & 7`` of byte ``[row, col >> 3]``, each row packed
            # little-endian into whole bytes.  Padded neighbour matrices
            # gather straight through it with no validity masking.  One
            # scatter from the CSR rows per kernel; the CSR payload arrays
            # stay zero-copy views.
            bits = np.zeros((n + 1, (n + 8) >> 3), dtype=np.uint8)
            np.bitwise_or.at(
                bits, (rows, cols >> 3), np.left_shift(1, cols & 7).astype(np.uint8)
            )
            self.adjacency = bits
        else:
            # Row-major over sorted rows: the keys come out sorted.
            rows *= n + 1
            rows += cols
            self.edge_keys = rows

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def histograms(self, ids: Iterable[int]) -> Dict[int, Dict[int, int]]:
        """Return ``{id: {connector count: non-adjacent pairs}}`` for ``ids``.

        Key 0 holds the lonely pairs, so ``_sum_from_histogram(0, hist)``
        is the score; equal to the python tier's histogram key for key.
        """
        np = self.np
        order: List[int] = [int(pid) for pid in ids]
        hists: Dict[int, Dict[int, int]] = {}
        if not order:
            return hists
        order_arr = np.asarray(order, dtype=np.int64)
        degs = (self.indptr[order_arr + 1] - self.indptr[order_arr]).tolist()
        work: List = []
        for pid, d in zip(order, degs):
            if d < 2:
                hists[pid] = {}
            else:
                work.append((pid, d))
        work.sort(key=lambda t: t[1])
        with one_blas_thread():
            for batch in self._batches(work):
                self._score_batch(batch, hists)
        return {pid: hists[pid] for pid in order}

    # ------------------------------------------------------------------
    # Batching
    # ------------------------------------------------------------------
    def _batches(self, by_degree):
        """Greedy degree-sorted padded batches under the cell budget.

        Padding waste is bounded three ways: oversized egos
        (``d² > _SINGLETON_CELLS``) ride alone so they can take the hub
        path, a batch closes when adding the next (larger-degree) vertex
        would overflow ``B · D²`` cells, and degree bands stay tight
        (``D <= 1.3 · d_min``) so low-degree egos never pay a larger
        ego's ``D²`` padding.
        """
        batch: List = []
        low = 0
        for pid, d in by_degree:
            if d * d > _SINGLETON_CELLS:
                if batch:
                    yield batch
                    batch = []
                yield [(pid, d)]
                continue
            if batch and (
                (len(batch) + 1) * d * d > _BATCH_CELL_BUDGET or 10 * d > 13 * low
            ):
                yield batch
                batch = []
            if not batch:
                low = d
            batch.append((pid, d))
        if batch:
            yield batch

    # ------------------------------------------------------------------
    # Membership tensor construction
    # ------------------------------------------------------------------
    def _gather_neighbors(self, pid_arr, deg_arr, width):
        """Return the ``(B, width)`` padded neighbour matrix (sentinel n)."""
        np = self.np
        B = len(pid_arr)
        nbrs = np.full((B, width), self.n, dtype=np.int64)
        total = int(deg_arr.sum())
        if total:
            starts = self.indptr[pid_arr]
            ends = np.cumsum(deg_arr)
            col = np.arange(total, dtype=np.int64) - np.repeat(ends - deg_arr, deg_arr)
            flat = self.indices[np.repeat(starts, deg_arr) + col]
            nbrs[np.repeat(np.arange(B), deg_arr), col] = flat
        return nbrs

    def _membership(self, left, right):
        """``M[b, i, j]``: is ``left[b, i]`` adjacent to ``right[b, j]``.

        ``left`` is ``(B, R)`` and ``right`` ``(B, D)`` padded neighbour
        ids; the sentinel ``n`` is adjacent to nothing.
        """
        np = self.np
        if self.adjacency is not None:
            # The sentinel id ``n`` indexes the all-zero padding row/column,
            # so the gather needs no validity masking at all.  The index
            # arrays broadcast, so the only ``B·R·D`` array is the gathered
            # bytes, shifted and masked in place.
            cols = right[:, None, :]
            M = self.adjacency[left[:, :, None], cols >> 3]
            M >>= (cols & 7).astype(np.uint8)
            M &= 1
            return M.view(np.bool_)
        # Edge keys: cell ``(b, i, j)`` queries ``left · (n+1) + right``,
        # in blocks of whole rows that keep every int64 array at most
        # ``_KEY_BLOCK_CELLS`` entries.  Within an ego the queries ascend
        # (neighbour rows are sorted, the sentinel last), which numpy's
        # binary search exploits; ``mode="clip"`` turns a query past the
        # last key into a mismatch.
        B, R = left.shape
        D = right.shape[1]
        keys = self.edge_keys
        row_keys = left.reshape(-1) * (self.n + 1)
        M = np.empty((B * R, D), dtype=np.bool_)
        step = max(1, _KEY_BLOCK_CELLS // D)
        for r0 in range(0, B * R, step):
            q = right[np.arange(r0, min(r0 + step, B * R)) // R]
            q += row_keys[r0 : r0 + step, None]
            found = keys.take(np.searchsorted(keys, q), mode="clip")
            np.equal(found, q, out=M[r0 : r0 + step])
        return M.reshape(B, R, D)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _score_batch(self, batch, hists: Dict[int, Dict[int, int]]) -> None:
        np = self.np
        D = batch[-1][1]
        if len(batch) == 1 and D * D > _SINGLETON_CELLS:
            pid, d = batch[0]
            hists[pid] = self._score_hub(pid, d)
            return
        pid_arr = np.asarray([pid for pid, _ in batch], dtype=np.int64)
        deg_arr = np.asarray([d for _, d in batch], dtype=np.int64)
        nbrs = self._gather_neighbors(pid_arr, deg_arr, D)
        M = self._membership(nbrs, nbrs)
        B = len(batch)
        rowsums = np.count_nonzero(M, axis=2)
        # Exact in float32: entries are 0/1, every count and partial sum is
        # an integer <= D <= sqrt(cell budget), far inside float32's exact
        # range — and BLAS sgemm runs ~2x its float64 sibling.
        Mf = M.astype(np.float32)
        C = np.matmul(Mf, Mf)
        # Work on the full symmetric matrices instead of triu gathers: the
        # diagonal is struck out and every unordered pair appears twice, so
        # all totals and histogram multiplicities halve exactly.
        linked = C >= 1
        linked &= ~M
        diag = np.arange(D)
        linked[:, diag, diag] = False
        edges2 = rowsums.sum(axis=1).tolist()
        # Per-ego integer histograms in one pass: bincount over the packed
        # key ``ego row · (D + 1) + connector count``, then one loop over
        # the (few) non-zero cells instead of one numpy round-trip per ego.
        flat = np.flatnonzero(linked)
        rows = flat // (D * D)
        vals = C.ravel().take(flat).astype(np.int64)
        linked2 = np.bincount(rows, minlength=B).tolist()
        binc2d = np.bincount(
            rows * (D + 1) + vals, minlength=B * (D + 1)
        ).reshape(B, D + 1)
        hrows, hcounts = np.nonzero(binc2d)
        histograms: List[Dict[int, int]] = [{} for _ in range(B)]
        for b, count, doubled in zip(
            hrows.tolist(), hcounts.tolist(), binc2d[hrows, hcounts].tolist()
        ):
            histograms[b][count] = doubled // 2
        for b, (pid, d) in enumerate(batch):
            lonely = d * (d - 1) // 2 - edges2[b] // 2 - linked2[b] // 2
            if lonely:
                histograms[b][0] = lonely
            hists[pid] = histograms[b]

    def _score_hub(self, pid: int, d: int) -> Dict[int, int]:
        """The histogram of one ego too large for the batched tensor.

        Builds the ``d × d`` membership matrix in row blocks of at most
        :data:`_BATCH_CELL_BUDGET` cells.  A sparse ego (a star hub — few
        intra-ego edges) then counts its wedge pairs with sort-based
        ``unique`` so the connector matrix never materialises, while a
        dense hub streams the matmul in row blocks of the same size.
        """
        np = self.np
        nbrs = self.indices[self.indptr[pid] : self.indptr[pid + 1]][None, :]
        step = max(1, _BATCH_CELL_BUDGET // d)
        M = np.empty((d, d), dtype=np.bool_)
        for row0 in range(0, d, step):
            rows = nbrs[:, row0 : row0 + step]
            M[row0 : row0 + step] = self._membership(rows, nbrs)[0]
        total_pairs = d * (d - 1) // 2
        rowsums = M.sum(axis=1, dtype=np.int64)
        edges = int(rowsums.sum()) // 2
        wedge_work = int((rowsums * rowsums).sum())
        linked_pairs = 0
        histogram: Dict[int, int] = {}
        # Sparse route only when the ego really is star-like: the pair
        # expansion + sort costs orders of magnitude more per unit of work
        # than BLAS.
        if wedge_work <= _BATCH_CELL_BUDGET and wedge_work * 4096 <= d * d * d:
            # Every two-path a–w–b with a < b inside the ego, expanded from
            # the a side in blocks of rows: a pair's key ``a·d + b`` only
            # arises in its own block, so each block's ``unique`` counts
            # are final and every array stays about _KEY_BLOCK_CELLS long.
            lens = rowsums
            zi = np.nonzero(M)[1]
            ends = np.cumsum(lens)
            starts = ends - lens
            reach = np.concatenate(([0], np.cumsum(lens[zi])))
            paths = np.cumsum(reach[ends] - reach[starts])
            a0 = 0
            while a0 < d:
                done = int(paths[a0 - 1]) if a0 else 0
                a1 = int(np.searchsorted(paths, done + _KEY_BLOCK_CELLS, side="right"))
                a1 = max(a1, a0 + 1)
                w = zi[starts[a0] : ends[a1 - 1]]
                wl = lens[w]
                a = np.repeat(np.repeat(np.arange(a0, a1), lens[a0:a1]), wl)
                offsets = np.cumsum(wl) - wl
                b = zi[np.repeat(starts[w] - offsets, wl) + np.arange(a.size)]
                keep = b > a
                keys, counts = np.unique(a[keep] * d + b[keep], return_counts=True)
                adj = M[keys // d, keys % d]
                linked_pairs += int(keys.size - np.count_nonzero(adj))
                self._add_counts(histogram, counts[~adj])
                a0 = a1
        else:
            Mf = M.astype(np.float32 if d < (1 << 20) else np.float64)
            cols = np.arange(d)
            for row0 in range(0, d - 1, step):
                row1 = min(row0 + step, d)
                counts = np.matmul(Mf[row0:row1], Mf)
                link = counts > 0.5
                link &= ~M[row0:row1]
                link &= cols[None, :] > np.arange(row0, row1)[:, None]
                linked_pairs += int(np.count_nonzero(link))
                self._add_counts(histogram, counts[link].astype(np.int64))
        lonely = total_pairs - edges - linked_pairs
        if lonely:
            histogram[0] = lonely
        return histogram

    def _add_counts(self, histogram: Dict[int, int], vals) -> None:
        """Add an int array's ``{value: multiplicity}`` into ``histogram``."""
        if vals.size:
            uniq, mult = self.np.unique(vals, return_counts=True)
            for count, multiplicity in zip(uniq.tolist(), mult.tolist()):
                histogram[count] = histogram.get(count, 0) + multiplicity
