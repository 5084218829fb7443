"""Vectorized (numpy) batch wedge kernels over raw CSR arrays.

This module is the optional **kernel tier** of the chunk-scoring hot path:
``kernel={auto, python, numpy}``, negotiated exactly like the storage
backends (:func:`repro.core.csr_kernels.normalize_backend`).  The pure
Python wedge kernels remain the default-available oracle; when numpy is
importable (``pip install repro[fast]``) the ``numpy`` tier scores whole
vertex chunks with batched array operations instead of per-wedge Python
loops.

Bit-identity by construction
----------------------------
The vectorized kernel never produces a float of its own.  For every vertex
it computes three **exact integers** with numpy — the ego's internal edge
count, the number of lonely (unlinked, non-adjacent) neighbour pairs, and
the histogram ``{connector count: #pairs}`` of the linked pairs — and then
feeds them through the same canonical sorted-histogram summation
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

* **dense-adjacency bitmap** — on graphs small enough for the
  :data:`~repro.graph.csr.DENSE_ADJACENCY_VERTEX_LIMIT` bitmap the whole
  tensor is one fancy-indexed gather from a padded ``(n+1) × (n+1)``
  boolean matrix, scattered once from the CSR rows (hub
  vertices with thousands of neighbours pay a single vectorized gather
  instead of ``d²`` byte probes);
* **sorted-intersection** — otherwise membership is resolved against the
  sorted CSR rows themselves: every neighbour's adjacency row is gathered
  flat, offset per ego, and located with one global ``searchsorted`` (the
  per-row sort order of ``indices`` is what makes a single binary search
  over the offset union valid).

Connector counts come from a batched ``M @ M`` in float32 (0.0/1.0
entries, every count and partial sum an integer ``<= D`` — BLAS sgemm is
exact in that range); masking to non-adjacent pairs and one ``bincount``
per batch produces the integer histograms.  Oversized egos take the
single-hub path instead: a sparse star resolves its wedge pairs with one
sort-based ``unique`` and a dense hub streams a row-blocked matmul.

Buffers are attached **zero-copy**: ``memoryview`` casts of shared-memory
segments, ``array('l')`` payloads and numpy arrays all go through
``np.frombuffer`` — a parallel worker scores chunks directly on the bytes
the :class:`~repro.parallel.runtime.PayloadStore` shipped, so enabling the
tier changes no shipping accounting.

numpy stays optional: importing this module never imports numpy; the
probe (:func:`numpy_available`) happens at negotiation time and the
callers (:class:`~repro.core.csr_kernels.CSRChunkKernel`,
:class:`~repro.session.EgoSession`) fall back to the Python tier with a
counted degradation when it fails.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.ego_betweenness import _sum_from_histogram
from repro.errors import InvalidParameterError
from repro.graph.csr import DENSE_ADJACENCY_VERTEX_LIMIT

__all__ = [
    "KERNEL_TIERS",
    "KERNEL_DESCRIPTIONS",
    "describe_kernels",
    "normalize_kernel",
    "numpy_available",
    "VectorizedChunkScorer",
]

#: Accepted ``kernel=`` values, in negotiation order.
KERNEL_TIERS = ("auto", "python", "numpy")

#: One-line description per kernel tier — the single copy behind every
#: kernel-validation error message and the CLI ``--kernel`` help, mirroring
#: :data:`repro.core.csr_kernels.BACKEND_DESCRIPTIONS`.
KERNEL_DESCRIPTIONS = {
    "auto": "resolves to 'numpy' when numpy is importable, else 'python'",
    "python": (
        "pure-Python wedge kernels — always available, the bit-exact "
        "oracle tier"
    ),
    "numpy": (
        "vectorized batch wedge kernels over the CSR arrays; requires "
        "numpy (pip install repro[fast]) and degrades to 'python' with a "
        "counted fallback when unavailable"
    ),
}


def describe_kernels(names: Iterable[str]) -> str:
    """Render ``'name' (description)`` pairs for a kernel error message."""
    return ", ".join(f"'{name}' ({KERNEL_DESCRIPTIONS[name]})" for name in names)


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


def normalize_kernel(kernel: str) -> str:
    """Validate a kernel tier name and resolve ``"auto"``.

    ``"auto"`` resolves to ``"numpy"`` when numpy is importable and to
    ``"python"`` otherwise — the same one-shot negotiation contract as
    :func:`repro.core.csr_kernels.normalize_backend`.  An **explicit**
    ``"numpy"`` is returned as-is even without numpy installed: whether
    that is an error or a counted degradation is the caller's policy
    (:class:`~repro.session.EgoSession` degrades to ``"python"`` and counts
    it).

    Examples
    --------
    >>> normalize_kernel("PYTHON")
    'python'
    >>> normalize_kernel("auto") in ("python", "numpy")
    True
    """
    kernel = kernel.lower()
    if kernel not in KERNEL_TIERS:
        raise InvalidParameterError(
            f"unknown kernel tier {kernel!r}; accepted values are "
            f"{describe_kernels(KERNEL_TIERS)}."
        )
    if kernel == "auto":
        return "numpy" if numpy_available() else "python"
    return kernel


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


#: Cell budget (``B · D²``) of one padded batch: bounds the boolean tensor
#: at ~2 MB and its float64 matmul operands at ~16 MB each.
_BATCH_CELL_BUDGET = 1 << 21

#: Row-block size of the single-hub path: a vertex whose ``d²`` alone
#: overflows the batch budget is scored in row blocks so the connector
#: matrix never materialises whole.
_HUB_ROW_BLOCK = 2048

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
        When true (the default) and the graph is small enough for the
        :data:`~repro.graph.csr.DENSE_ADJACENCY_VERTEX_LIMIT` bitmap, the
        membership tensor is gathered from a padded adjacency matrix built
        from the CSR arrays; otherwise the sorted-intersection path runs
        against the CSR rows.

    Raises
    ------
    ImportError
        When numpy is not importable — callers negotiate the tier first
        and count a degradation if construction fails anyway.
    """

    __slots__ = ("np", "indptr", "indices", "n", "adjacency")

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
        if dense and 0 < n <= DENSE_ADJACENCY_VERTEX_LIMIT:
            # Sentinel-padded adjacency (row/column ``n`` all zero): padded
            # neighbour matrices gather straight through it with no
            # validity masking.  One ``(n+1)²`` scatter from the CSR rows
            # per kernel; the CSR payload arrays stay zero-copy views.
            padded = np.zeros((n + 1, n + 1), dtype=np.bool_)
            padded[np.repeat(np.arange(n), np.diff(self.indptr)), self.indices] = True
            self.adjacency = padded
        else:
            self.adjacency = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def score_ids(self, ids: Iterable[int]) -> Dict[int, float]:
        """Return ``{id: CB(id)}`` — bit-identical to the Python kernels."""
        np = self.np
        order: List[int] = [int(pid) for pid in ids]
        scores: Dict[int, float] = {}
        if not order:
            return scores
        order_arr = np.asarray(order, dtype=np.int64)
        degs = (self.indptr[order_arr + 1] - self.indptr[order_arr]).tolist()
        work: List = []
        for pid, d in zip(order, degs):
            if d < 2:
                scores[pid] = 0.0
            else:
                work.append((pid, d))
        work.sort(key=lambda t: t[1])
        for batch in self._batches(work):
            self._score_batch(batch, scores)
        return {pid: scores[pid] for pid in order}

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

    def _membership_dense(self, nbrs):
        """``M[b, i, j]`` via one gather from the dense adjacency bitmap."""
        # The sentinel id ``n`` indexes the all-zero padding row/column, so
        # the gather needs no validity masking at all.
        return self.adjacency[nbrs[:, :, None], nbrs[:, None, :]]

    def _membership_sorted(self, nbrs):
        """``M[b, i, j]`` via flat CSR-row gather + one global searchsorted.

        Each ego's sorted neighbour row is offset by ``b · (n + 1)`` so the
        concatenation stays globally sorted (sentinel padding compares
        above every real id); membership of every gathered adjacency entry
        is then a single ``searchsorted`` against the union.
        """
        np = self.np
        B, D = nbrs.shape
        M = np.zeros((B, D, D), dtype=bool)
        targets = nbrs.ravel()
        tvalid = targets < self.n
        safe = np.where(tvalid, targets, 0)
        lens = np.where(tvalid, self.indptr[safe + 1] - self.indptr[safe], 0)
        total = int(lens.sum())
        if not total:
            return M
        ends = np.cumsum(lens)
        col = np.arange(total, dtype=np.int64) - np.repeat(ends - lens, lens)
        gathered = self.indices[np.repeat(np.where(tvalid, self.indptr[safe], 0), lens) + col]
        cell = np.repeat(np.arange(B * D, dtype=np.int64), lens)
        owner = cell // D
        stride = self.n + 1
        union = (np.arange(B, dtype=np.int64)[:, None] * stride + nbrs).ravel()
        keys = owner * stride + gathered
        pos = np.searchsorted(union, keys)
        found = union[np.minimum(pos, union.size - 1)] == keys
        M[owner[found], (cell - owner * D)[found], (pos - owner * D)[found]] = True
        return M

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _score_batch(self, batch, scores: Dict[int, float]) -> None:
        np = self.np
        D = batch[-1][1]
        if len(batch) == 1 and D * D > _SINGLETON_CELLS:
            pid, d = batch[0]
            scores[pid] = self._score_hub(pid, d)
            return
        pid_arr = np.asarray([pid for pid, _ in batch], dtype=np.int64)
        deg_arr = np.asarray([d for _, d in batch], dtype=np.int64)
        nbrs = self._gather_neighbors(pid_arr, deg_arr, D)
        if self.adjacency is not None:
            M = self._membership_dense(nbrs)
        else:
            M = self._membership_sorted(nbrs)
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
            scores[pid] = _sum_from_histogram(lonely, histograms[b])

    def _score_hub(self, pid: int, d: int) -> float:
        """Scoring of one ego too large for the batched tensor.

        Builds the ``d × d`` membership matrix once; a sparse ego (a star
        hub — few intra-ego edges) resolves its wedge pairs with one
        sort-based ``unique`` so the connector matrix never materialises,
        while a dense hub streams the matmul in row blocks of at most
        ``block · d`` float cells.
        """
        np = self.np
        pid_arr = np.asarray([pid], dtype=np.int64)
        deg_arr = np.asarray([d], dtype=np.int64)
        nbrs = self._gather_neighbors(pid_arr, deg_arr, d)
        if self.adjacency is not None:
            M = self._membership_dense(nbrs)[0]
        else:
            M = self._membership_sorted(nbrs)[0]
        total_pairs = d * (d - 1) // 2
        rowsums = M.sum(axis=1, dtype=np.int64)
        edges = int(rowsums.sum()) // 2
        wedge_work = int((rowsums * rowsums).sum())
        # Sparse route only when the ego really is star-like: the pair
        # expansion + sort costs orders of magnitude more per unit of work
        # than BLAS, and its transient arrays are bounded by the budget.
        if wedge_work <= _BATCH_CELL_BUDGET and wedge_work * 4096 <= d * d * d:
            lens = rowsums
            zi = np.nonzero(M)[1]
            pair_counts = lens * lens
            starts = np.cumsum(lens) - lens
            pair_starts = np.cumsum(pair_counts) - pair_counts
            grp = np.repeat(np.arange(d, dtype=np.int64), pair_counts)
            within = np.arange(wedge_work, dtype=np.int64) - pair_starts[grp]
            lg = lens[grp]
            left = zi[starts[grp] + within // lg]
            right = zi[starts[grp] + within % lg]
            upper = left < right
            keys, counts = np.unique(
                left[upper] * d + right[upper], return_counts=True
            )
            adj = M[keys // d, keys % d]
            linked_pairs = int(keys.size - adj.sum())
            histogram: Dict[int, int] = {}
            vals = counts[~adj]
            if vals.size:
                for count, multiplicity in zip(*self._unique_counts(vals)):
                    histogram[count] = multiplicity
            lonely = total_pairs - edges - linked_pairs
            return _sum_from_histogram(lonely, histogram)
        Mf = M.astype(np.float32 if d < (1 << 20) else np.float64)
        linked_pairs = 0
        histogram = {}
        block = max(1, min(d, _HUB_ROW_BLOCK))
        for row0 in range(0, d - 1, block):
            row1 = min(row0 + block, d)
            counts = np.matmul(Mf[row0:row1], Mf)
            local_i, local_j = np.nonzero(
                np.arange(d)[None, :] > np.arange(row0, row1)[:, None]
            )
            adj = M[row0:row1][local_i, local_j]
            cnt = counts[local_i, local_j]
            link_mask = (~adj) & (cnt > 0.5)
            linked_pairs += int(link_mask.sum())
            vals = cnt[link_mask].astype(np.int64)
            if vals.size:
                for count, multiplicity in zip(*self._unique_counts(vals)):
                    histogram[count] = histogram.get(count, 0) + multiplicity
        lonely = total_pairs - edges - linked_pairs
        return _sum_from_histogram(lonely, histogram)

    def _unique_counts(self, vals):
        """``(values, multiplicities)`` of an int array, as Python ints."""
        np = self.np
        uniq, mult = np.unique(vals, return_counts=True)
        return [int(v) for v in uniq], [int(m) for m in mult]
