"""Determinism and lifecycle tests for the persistent execution runtime.

The contract under test: whatever the worker count, executor, schedule or
runtime reuse pattern, every parallel/batched path returns **bit-identical**
results to the serial kernels — and the runtime ships the graph payload to
the workers exactly once per graph version.

Process-pool tests are marked ``parallel`` (they also run in tier-1; the
dedicated CI job re-runs them under ``pytest-timeout`` so pool-lifecycle
hangs fail fast instead of wedging the suite).
"""

from __future__ import annotations

import sys

import pytest

from repro.core import csr_kernels
from repro.core.csr_kernels import (
    CSRChunkKernel,
    all_ego_betweenness_csr,
    ego_betweenness_from_arrays,
    set_neighbor_sets_cache_limit,
)
from repro.core.ego_betweenness import all_ego_betweenness
from repro.core.vec_kernels import numpy_available
from repro.errors import InvalidParameterError
from repro.graph.generators import barabasi_albert_graph, erdos_renyi_graph
from repro.graph.graph import Graph
from repro.parallel import runtime as runtime_module
from repro.parallel.partition import block_partition
from repro.parallel.runtime import (
    ExecutionRuntime,
    ParallelBackend,
    set_worker_cache_limit,
)
from repro.session import EgoSession

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def ba_graph() -> Graph:
    return barabasi_albert_graph(150, 3, seed=7)


@pytest.fixture(scope="module")
def ba_scores(ba_graph):
    return all_ego_betweenness(ba_graph)


class TestChunkKernel:
    def test_score_chunk_matches_serial_kernel(self, ba_graph, ba_scores):
        compact = ba_graph.to_compact()
        kernel = CSRChunkKernel(compact.indptr, compact.indices)
        ids = list(range(compact.num_vertices))
        scored = kernel.score_chunk(ids)
        labels = compact.labels
        assert {labels[i]: s for i, s in scored.items()} == ba_scores

    def test_kernel_accepts_buffer_views(self, ba_graph):
        from array import array

        compact = ba_graph.to_compact()
        indptr = memoryview(array("q", compact.indptr))
        indices = memoryview(array("q", compact.indices))
        kernel = CSRChunkKernel(indptr, indices)
        expected = all_ego_betweenness_csr(compact)
        labels = compact.labels
        assert {
            labels[i]: s for i, s in kernel.score_chunk(range(len(labels))).items()
        } == expected


class TestSerialRuntime:
    def test_execute_bit_identical_across_workers_and_schedules(self, ba_graph):
        compact = ba_graph.to_compact()
        expected = all_ego_betweenness_csr(compact)
        labels = compact.labels
        with ExecutionRuntime(max_workers=4, executor="serial") as runtime:
            for workers in WORKER_COUNTS:
                # The runtime's weight-balanced ranges, then caller chunks.
                blocks = block_partition(list(range(compact.num_vertices)), workers)
                for chunks in (None, blocks):
                    scores, batch = runtime.execute(
                        compact, chunks, num_workers=workers
                    )
                    assert {labels[i]: s for i, s in scores.items()} == expected
                    assert batch.num_tasks >= 1

    def test_payload_ships_once_per_version(self, ba_graph):
        compact = ba_graph.to_compact()
        with ExecutionRuntime(max_workers=2, executor="serial") as runtime:
            for _ in range(5):
                runtime.execute(compact)
            assert runtime.stats().payload_ships == 1
            other = erdos_renyi_graph(40, 0.2, seed=3).to_compact()
            runtime.execute(other)
            assert runtime.stats().payload_ships == 2
            # back to the first snapshot: a *new identity* ships again
            runtime.execute(compact)
            assert runtime.stats().payload_ships == 3

    def test_subset_ids_and_id_ordering(self, ba_graph):
        compact = ba_graph.to_compact()
        expected = all_ego_betweenness_csr(compact)
        labels = compact.labels
        with ExecutionRuntime(max_workers=2, executor="serial") as runtime:
            scores, _ = runtime.execute(compact, ids=[17, 3, 99, 4], num_workers=2)
            assert list(scores) == sorted(scores)
            assert {labels[i]: s for i, s in scores.items()} == {
                labels[i]: expected[labels[i]] for i in (3, 4, 17, 99)
            }

    def test_closed_runtime_rejects_execution(self, ba_graph):
        runtime = ExecutionRuntime(executor="serial")
        runtime.close()
        assert runtime.closed
        with pytest.raises(InvalidParameterError):
            runtime.execute(ba_graph.to_compact())
        runtime.close()  # idempotent

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            ExecutionRuntime(max_workers=0)
        with pytest.raises(InvalidParameterError):
            ExecutionRuntime(task_deadline=0)
        with pytest.raises(ValueError):
            ExecutionRuntime(executor="quantum")

    def test_dynamic_chunks_cover_ids_in_ranges(self, ba_graph):
        compact = ba_graph.to_compact()
        with ExecutionRuntime(max_workers=2, executor="serial") as runtime:
            _, batch = runtime.execute(compact)  # ship (estimates cache follows)
            assert batch.num_tasks == 2  # one weight-balanced range per worker
            ids = list(range(compact.num_vertices))
            chunks = runtime._chunk(runtime._held, ids[::-1], None, 2)
            flat = [i for chunk in chunks for i in chunk]
            assert flat == ids
            assert len(chunks) == 2


class TestSessionBatchedQueries:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_parallel_top_k_bit_identical_to_naive(self, ba_graph, workers):
        serial_entries = EgoSession(ba_graph).top_k(10, algorithm="naive").entries
        with EgoSession(ba_graph) as session:
            result = session.top_k(10, parallel=workers)
            assert result.entries == serial_entries

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_scores_batch_bit_identical_across_workers(
        self, ba_graph, ba_scores, workers
    ):
        with EgoSession(ba_graph) as session:
            full, subset = session.scores_batch([None, [0, 5, 9]], parallel=workers)
            assert full == ba_scores
            assert subset == {v: ba_scores[v] for v in (0, 5, 9)}

    def test_scores_batch_subset_only_single_pass(self, ba_graph, ba_scores):
        with EgoSession(ba_graph) as session:
            answers = session.scores_batch([[0, 1], [2, 3], [1, 2]], parallel=2)
            assert answers == [
                {v: ba_scores[v] for v in request}
                for request in ([0, 1], [2, 3], [1, 2])
            ]
            stats = session.runtime_stats()["serial"]
            assert stats.payload_ships == 1
            assert stats.batches == 1

    def test_scores_batch_without_parallel_and_empty(self, ba_graph, ba_scores):
        session = EgoSession(ba_graph)
        assert session.scores_batch([]) == []
        full, sub = session.scores_batch([None, [4]])
        assert full == ba_scores and sub == {4: ba_scores[4]}
        # a fresh memo answers later batches without another computation
        counts_before = session.stats().queries["scores_batch"]
        assert session.scores_batch([[7]]) == [{7: ba_scores[7]}]
        assert session.stats().queries["scores_batch"] == counts_before + 1

    def test_scores_batch_unknown_vertex(self, ba_graph):
        from repro.errors import VertexNotFoundError

        with EgoSession(ba_graph) as session:
            with pytest.raises(VertexNotFoundError):
                session.scores_batch([["nope"]])

    def test_hash_backend_batches_match_oracle(self, ba_graph, ba_scores):
        with EgoSession(ba_graph, backend="hash") as session:
            full, subset = session.scores_batch([None, [1, 2]], parallel=2)
            assert full == ba_scores
            assert subset == {v: ba_scores[v] for v in (1, 2)}
            assert session.top_k(6, parallel=2).entries == (
                EgoSession(ba_graph).top_k(6, algorithm="naive").entries
            )

    def test_parallel_top_k_result_cache_per_version_and_k(self, ba_graph):
        with EgoSession(ba_graph) as session:
            first = session.top_k(6, parallel=2)
            batches = session.runtime_stats()["serial"].batches
            # same (version, k): served from the result cache, no new batch
            assert session.top_k(6, parallel=2).entries == first.entries
            assert session.runtime_stats()["serial"].batches == batches
            # different k: a fresh bound-pruned answer, in one or two waves
            session.top_k(9, parallel=2)
            assert session.runtime_stats()["serial"].batches in (batches + 1, batches + 2)
            # a mutation invalidates the cache (new version)
            session.apply(("insert", 0, 149))
            after = session.top_k(6, parallel=2)
            assert after.entries == session.top_k(6, algorithm="naive").entries

    def test_session_stats_expose_runtime(self, ba_graph):
        with EgoSession(ba_graph) as session:
            session.scores(parallel=2)
            payload = session.stats().as_dict()
            assert payload["runtimes"]["serial"]["payload_ships"] == 1
            assert payload["last_query"]["parallel"] == 2

    def test_close_is_idempotent_and_revivable(self, ba_graph, ba_scores):
        session = EgoSession(ba_graph)
        session.scores(parallel=2)
        session.close()
        session.close()
        assert session.scores(parallel=2) == ba_scores  # fresh runtime
        session.close()


class TestRuntimeReuseAcrossMutation:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_reuse_after_apply(self, workers):
        graph = barabasi_albert_graph(80, 3, seed=11)
        with EgoSession(graph) as session:
            before = session.parallel_scores(workers).scores
            assert before == all_ego_betweenness(graph)
            session.apply([("insert", 0, 79), ("delete", 0, 1)])
            after = session.parallel_scores(workers).scores
            oracle = all_ego_betweenness(session.to_graph())
            assert after == oracle
            # one ship per graph version: the pre-mutation snapshot and the
            # post-mutation snapshot
            stats = session.runtime_stats()["serial"]
            assert stats.payload_ships == 2
            # Batched queries on a dynamic session serve the maintained
            # index (exact Section-IV values): parallel top-k must be
            # bit-identical to the session's own naive ranking for every
            # worker count.
            assert session.top_k(8, parallel=workers).entries == (
                session.top_k(8, algorithm="naive").entries
            )
            batch_full = session.scores_batch([None], parallel=workers)[0]
            assert batch_full == session.scores()


class TestWorkerSideTopKReduction:
    """execute_top_k: bounded per-chunk accumulators, bit-identical merge."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("k", (1, 5, 16, 10_000))
    def test_execute_top_k_matches_full_ranking(self, ba_graph, workers, k):
        from repro.core.topk import rank_entries

        compact = ba_graph.to_compact()
        expected_scores = all_ego_betweenness_csr(compact)
        scores = [expected_scores[label] for label in compact.labels]
        kth = sorted(scores, reverse=True)[min(k, len(scores)) - 1]
        # Contract: every id reaching the k-th score, best score first.
        expected = [(pid, s) for pid, s in enumerate(scores) if s >= kth]
        with ExecutionRuntime(max_workers=4, executor="serial") as runtime:
            entries, batch = runtime.execute_top_k(compact, k, num_workers=workers)
            assert sorted(entries) == expected
            assert [s for _, s in entries] == sorted(scores, reverse=True)[: len(entries)]
            assert rank_entries(entries)[:k] == rank_entries(enumerate(scores))[:k]
            assert batch.kind == "top_k"

    def test_execute_top_k_subset_ids(self, ba_graph):
        compact = ba_graph.to_compact()
        scores = all_ego_betweenness_csr(compact)
        ids = [3, 17, 40, 77, 99]
        with ExecutionRuntime(max_workers=2, executor="serial") as runtime:
            entries, _ = runtime.execute_top_k(compact, 3, ids=ids, num_workers=2)
        assert len(entries) == 3
        ranked = sorted(
            ((i, scores[compact.labels[i]]) for i in ids),
            key=lambda item: (-item[1], repr(item[0])),
        )
        assert entries == ranked[:3]

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_execute_top_k_bit_identical_under_threshold_ties(
        self, monkeypatch, workers
    ):
        """Regression: every tie at the threshold survives the reduction.

        Ties at the k-th score are broken by the label sort key, which
        neither a chunk nor the merge holds, so both must keep the whole
        tie cohort.  Synthetic scores pin the pattern that broke a bounded
        per-chunk accumulator (ids 0/12/13/14 tied at the threshold,
        strictly greater entries arriving after them).
        """
        from repro.core import csr_kernels
        from repro.core.topk import rank_entries

        synthetic = {0: 2.0, 3: 3.0, 12: 2.0, 13: 2.0, 14: 2.0, 15: 3.0}

        def fake_histogram(indptr, indices, pid, nbr_sets=None, dense=None):
            # ``score`` lonely pairs sum to exactly ``score``.
            score = int(synthetic.get(pid, 0))
            return {0: score} if score else {}

        monkeypatch.setattr(csr_kernels, "_ego_histogram", fake_histogram)
        # The fake replaces the python tier's kernel: run on that tier.
        monkeypatch.setitem(sys.modules, "numpy", None)
        compact = Graph(edges=[(i, i + 1) for i in range(47)]).to_compact()
        with ExecutionRuntime(max_workers=4, executor="serial") as runtime:
            entries, _ = runtime.execute_top_k(compact, 3, num_workers=workers)
        assert sorted(entries) == sorted(synthetic.items())
        assert [s for _, s in entries] == [3.0, 3.0, 2.0, 2.0, 2.0, 2.0]
        # ids equal labels here; "15" precedes "3" under the sort key
        assert rank_entries(entries)[:3] == [(15, 3.0), (3, 3.0), (0, 2.0)]

    @pytest.mark.parametrize("k", (1, 2, 3, 5, 8))
    def test_execute_top_k_on_tie_heavy_graph_matches_naive(self, k):
        # Disjoint stars: center of an L-leaf star scores C(L, 2), every
        # leaf scores 0.0 — masses of exact ties at every threshold.
        edges, base = [], 0
        for leaves in (3, 2, 3, 4, 2, 3, 4, 3, 2):
            for leaf in range(leaves):
                edges.append((base, base + 1 + leaf))
            base += leaves + 1
        graph = Graph(edges=edges)
        expected = EgoSession(graph).top_k(k, algorithm="naive").entries
        for workers in (1, 2, 3):
            with EgoSession(graph) as session:
                assert session.top_k(k, parallel=workers).entries == expected

    def test_execute_top_k_validates_k(self, ba_graph):
        with ExecutionRuntime(executor="serial") as runtime:
            with pytest.raises(InvalidParameterError):
                runtime.execute_top_k(ba_graph.to_compact(), 0)

    def test_chunk_kernel_top_chunk_matches_score_chunk(self, ba_graph):
        from repro.core.topk import TopKAccumulator

        compact = ba_graph.to_compact()
        kernel = CSRChunkKernel(compact.indptr, compact.indices)
        ids = list(range(40))
        accumulator = TopKAccumulator(4)
        for pid, score in sorted(kernel.score_chunk(ids).items()):
            accumulator.offer(pid, score)
        assert sorted(kernel.top_chunk(ids, 4)) == sorted(accumulator.entries())


class TestPayloadAccounting:
    def test_runtime_stats_expose_store_accounting(self, ba_graph):
        compact = ba_graph.to_compact()
        other = erdos_renyi_graph(30, 0.2, seed=9).to_compact()
        with ExecutionRuntime(max_workers=2, executor="serial") as runtime:
            runtime.execute(compact, payload_key=("tenant", 0))
            stats = runtime.stats()
            assert stats.payload_bytes_shipped == stats.payload_bytes > 0
            assert stats.resident_payloads == 1
            assert stats.resident_bytes == stats.payload_bytes
            assert stats.payloads == {"tenant@v0": stats.payload_bytes}
            runtime.execute(other, payload_key=("tenant", 1))
            stats = runtime.stats()
            assert stats.payload_evictions == 1  # v0 released at the switch
            assert set(stats.payloads) == {"tenant@v0", "tenant@v1"}
            payload = stats.as_dict()
            assert payload["payload_bytes_shipped"] == stats.payload_bytes_shipped
            assert payload["resident_payloads"] == 1
            assert payload["last_batch"]["kind"] == "scores"

    def test_session_stats_surface_payload_accounting(self, ba_graph):
        with EgoSession(ba_graph, graph_id="capacity") as session:
            session.scores(parallel=2)
            payload = session.stats().as_dict()
            assert payload["graph_id"] == "capacity"
            runtime_payload = payload["runtimes"]["serial"]
            assert runtime_payload["payloads"] == {
                "capacity@v0": runtime_payload["payload_bytes"]
            }
            assert runtime_payload["resident_bytes"] > 0


@pytest.mark.parallel
class TestProcessRuntime:
    """Real worker-pool execution (shared-memory transport, pool reuse)."""

    def test_process_bit_identical_and_ships_once(self, ba_graph, ba_scores):
        compact = ba_graph.to_compact()
        labels = compact.labels
        blocks = block_partition(list(range(compact.num_vertices)), 2)
        with ExecutionRuntime(max_workers=2, executor="process") as runtime:
            for chunks in (None, blocks):
                scores, _ = runtime.execute(compact, chunks)
                assert {labels[i]: s for i, s in scores.items()} == ba_scores
            stats = runtime.stats()
            assert stats.payload_ships == 1
            assert stats.pool_launches == 1
            assert stats.pool_reuses == 1
            assert stats.payload_bytes > 0

    @pytest.mark.parametrize("workers", (1, 2))
    def test_session_process_matches_serial(self, ba_graph, ba_scores, workers):
        with EgoSession(ba_graph) as session:
            serial_answers = session.scores_batch(
                [None, [0, 3]], parallel=workers, executor="serial"
            )
            session.close()  # drop the serial runtime; keep the session memo-free
        with EgoSession(ba_graph) as session:
            process_answers = session.scores_batch(
                [None, [0, 3]], parallel=workers, executor="process"
            )
            assert process_answers == serial_answers
            assert process_answers[0] == ba_scores

    def test_process_reuse_after_mutation(self):
        graph = barabasi_albert_graph(60, 2, seed=5)
        with EgoSession(graph) as session:
            session.parallel_scores(2, executor="process")
            session.apply(("insert", 0, 59))
            after = session.parallel_scores(2, executor="process").scores
            assert after == all_ego_betweenness(session.to_graph())
            stats = session.runtime_stats()["process"]
            assert stats.payload_ships == 2  # re-shipped once per version
            assert stats.pool_launches == 1  # the pool survived the mutation
            assert stats.pool_reuses == 1

    def test_process_parallel_top_k_matches_serial(self, ba_graph):
        expected = EgoSession(ba_graph).top_k(10, algorithm="naive").entries
        with EgoSession(ba_graph) as session:
            result = session.top_k(10, parallel=2, executor="process")
            assert result.entries == expected

    def test_process_execute_top_k_matches_serial_runtime(self, ba_graph):
        compact = ba_graph.to_compact()
        with ExecutionRuntime(max_workers=2, executor="serial") as serial_runtime:
            expected, _ = serial_runtime.execute_top_k(compact, 12, num_workers=2)
        with ExecutionRuntime(max_workers=2, executor="process") as runtime:
            entries, batch = runtime.execute_top_k(compact, 12, num_workers=2)
            assert entries == expected
            assert batch.kind == "top_k"
            assert runtime.stats().payload_ships == 1


class TestAtexitSweepWarning:
    """The atexit sweep names every leaked segment in a ResourceWarning."""

    class _FakeSegment:
        def __init__(self):
            self.closed = self.unlinked = False

        def close(self):
            self.closed = True

        def unlink(self):
            self.unlinked = True

    def test_sweep_warns_and_unlinks_each_leaked_segment(self):
        from repro.parallel import runtime as runtime_module

        fake = self._FakeSegment()
        runtime_module._LIVE_SEGMENTS["psm_test_leak"] = fake
        try:
            with pytest.warns(ResourceWarning, match="psm_test_leak"):
                runtime_module._sweep_segments()
        finally:
            runtime_module._LIVE_SEGMENTS.pop("psm_test_leak", None)
        assert fake.closed and fake.unlinked
        assert "psm_test_leak" not in runtime_module._LIVE_SEGMENTS

    def test_sweep_is_silent_with_nothing_leaked(self, recwarn):
        from repro.parallel import runtime as runtime_module

        assert not runtime_module._LIVE_SEGMENTS  # tier-1 leaves none behind
        runtime_module._sweep_segments()
        assert not [w for w in recwarn.list if w.category is ResourceWarning]


def _run_script(script: str, *args: str) -> "subprocess.CompletedProcess":
    """Run ``script`` in a fresh interpreter with ``src/`` importable."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


BLAS_PROBE = """
import json, os, sys
if sys.argv[1] == "before":
    import numpy
assert ("numpy" in sys.modules) == (sys.argv[1] == "before")
from repro.core.vec_kernels import _openblas_thread_calls
from repro.parallel.runtime import WorkerPool

def probe():
    import numpy
    return {
        "env": os.environ["OPENBLAS_NUM_THREADS"],
        "openblas": [get() for get, _ in _openblas_thread_calls()],
    }

pool = WorkerPool(2).acquire()
pool.ensure_started()
print(json.dumps(pool.submit(probe, ()).get(30)))
pool.release()
"""


@pytest.mark.parallel
class TestWorkerBlasThreads:
    """The process count is the parallelism: each worker runs one BLAS thread."""

    @pytest.mark.skipif(not numpy_available(), reason="numpy not importable")
    @pytest.mark.parametrize("numpy_at_fork", ["before", "after"])
    def test_pool_worker_reports_one_blas_thread(self, numpy_at_fork):
        import json

        result = _run_script(BLAS_PROBE, numpy_at_fork)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.strip().splitlines()[-1])
        assert report["env"] == "1"
        assert all(threads == 1 for threads in report["openblas"])


PRELOAD_PROBE = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from repro.graph.csr import CompactGraph
from repro.parallel.runtime import ExecutionRuntime, WorkerPool

def probe():
    vec = sys.modules.get("repro.core.vec_kernels")
    return {
        "numpy": sys.modules.get("numpy") is not None,
        "shared_memory": "multiprocessing.shared_memory" in sys.modules,
        "openblas_looked_up": vec is not None and vec._OPENBLAS_CALLS is not None,
    }

assert sys.modules.get("numpy") is None  # the pool, not the caller, loads it
pool = WorkerPool(2).acquire()
pool.ensure_started()
report = pool.submit(probe, ()).get(30)  # the workers' first task
graph = CompactGraph.from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)])
with ExecutionRuntime(2, pool=pool) as runtime:
    runtime.execute(graph)
    report["kernel_chunks"] = runtime.stats().kernel_chunks
pool.release()
print(json.dumps(report))
"""


@pytest.mark.parallel
@pytest.mark.parametrize("numpy_state", ["importable", "blocked"])
def test_pool_forks_after_loading_what_every_worker_loads(numpy_state):
    """Workers inherit numpy, its OpenBLAS lookup and ``shared_memory``."""
    import json

    result = _run_script(PRELOAD_PROBE, numpy_state)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["shared_memory"]
    if numpy_state == "blocked" or not numpy_available():
        assert not report["numpy"]
        assert report["kernel_chunks"]["numpy"] == 0
        assert report["kernel_chunks"]["python"] > 0
    else:
        assert report["numpy"] and report["openblas_looked_up"]
        assert report["kernel_chunks"]["numpy"] > 0


TRACKER_PROBE = """
import os, signal, time
from multiprocessing import shared_memory
from repro.core.ego_betweenness import all_ego_betweenness
from repro.graph.generators import barabasi_albert_graph
from repro.parallel.runtime import PayloadStore, WorkerPool
from repro.session import EgoSession

graph = barabasi_albert_graph(120, 3, seed=5)
pool = WorkerPool(2).acquire()
pool.ensure_started()  # forked before this process ships anything
store = PayloadStore()
first = EgoSession(graph, graph_id="g")
first.runtime("process", pool=pool, store=store)
assert first.scores(parallel=2, executor="process") == all_ego_betweenness(graph)
held = [entry.payload.meta[0] for entry in store._entries.values()]

def attach_and_die(name):
    shared_memory.SharedMemory(name=name)  # registers with the worker's tracker
    os.kill(os.getpid(), signal.SIGKILL)

# Killed mid-task: an idle worker may hold the pool's queue lock.
pool.submit(attach_and_die, (held[0],))
deadline = time.time() + 10
while pool.check_workers() == 0 and time.time() < deadline:
    time.sleep(0.05)
time.sleep(1.0)  # a worker-owned tracker would have unlinked by now
print("HELD", all(os.path.exists("/dev/shm/" + name) for name in held))
second = EgoSession(graph, graph_id="g")
second.runtime("process", pool=pool, store=store)
print("CORRECT", second.scores(parallel=2, executor="process") == all_ego_betweenness(graph))
second.close()
first.close()
pool.release()
store.close()
"""


@pytest.mark.parallel
@pytest.mark.skipif(not __import__("os").path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_pool_forked_before_first_ship_shares_the_parent_tracker():
    """A worker's death must not unlink a segment the parent still holds."""
    result = _run_script(TRACKER_PROBE)
    assert result.returncode == 0, result.stderr
    assert "HELD True" in result.stdout
    assert "CORRECT True" in result.stdout
    assert "leaked shared_memory" not in result.stderr


class TestCacheLimits:
    def test_worker_cache_limit_validation_and_env(self, monkeypatch):
        with pytest.raises(InvalidParameterError):
            set_worker_cache_limit(0)
        monkeypatch.setenv("REPRO_WORKER_CACHE_LIMIT", "5")
        assert set_worker_cache_limit() == 5
        monkeypatch.setenv("REPRO_WORKER_CACHE_LIMIT", "not-a-number")
        assert set_worker_cache_limit() == 8  # malformed env -> default
        monkeypatch.delenv("REPRO_WORKER_CACHE_LIMIT")
        assert set_worker_cache_limit() == 8

    def test_worker_cache_shrink_evicts_oldest(self):
        class Attachment:
            def __init__(self):
                self.closed = False

            def close(self):
                self.closed = True

        set_worker_cache_limit(8)
        entries = {f"payload-{i}": Attachment() for i in range(4)}
        runtime_module._WORKER_CACHE.update(entries)
        try:
            assert set_worker_cache_limit(2) == 2
            assert len(runtime_module._WORKER_CACHE) <= 2
            assert sum(1 for a in entries.values() if a.closed) >= 2
        finally:
            runtime_module._WORKER_CACHE.clear()
            set_worker_cache_limit()

    def test_neighbor_sets_limit_validation_env_and_shrink(self, monkeypatch):
        with pytest.raises(InvalidParameterError):
            set_neighbor_sets_cache_limit(0)
        monkeypatch.setenv("REPRO_NBR_SETS_CACHE_LIMIT", "3")
        assert set_neighbor_sets_cache_limit() == 3
        monkeypatch.delenv("REPRO_NBR_SETS_CACHE_LIMIT")
        assert set_neighbor_sets_cache_limit() == 8
        try:
            # Keep every compact alive: the memo is keyed by buffer identity,
            # so freed arrays could alias a recycled id.
            compacts = [
                barabasi_albert_graph(12, 2, seed=seed).to_compact()
                for seed in range(4)
            ]
            for compact in compacts:
                ego_betweenness_from_arrays(
                    compact.indptr, compact.indices, range(compact.num_vertices)
                )
            assert len(csr_kernels._NBR_SETS_CACHE) >= 2
            set_neighbor_sets_cache_limit(1)
            assert len(csr_kernels._NBR_SETS_CACHE) <= 1
        finally:
            csr_kernels._NBR_SETS_CACHE.clear()
            set_neighbor_sets_cache_limit()
