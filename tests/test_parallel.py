"""Tests for the parallel engines, partitioning and load-balance model."""

from __future__ import annotations

import pytest

from repro.core.ego_betweenness import all_ego_betweenness
from repro.errors import InvalidParameterError
from repro.graph.generators import (
    barabasi_albert_graph,
    random_bipartite_expansion_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.parallel.engines import (
    edge_parallel_ego_betweenness,
    vertex_parallel_ego_betweenness,
)
from repro.parallel.runtime import ExecutionRuntime, ParallelBackend
from repro.parallel.load_balance import simulate_schedule
from repro.parallel.partition import balanced_partition, block_partition, vertex_work_estimates


class TestPartitioning:
    def test_block_partition_covers_all_tasks(self):
        chunks = block_partition(list(range(10)), 3)
        assert sorted(v for chunk in chunks for v in chunk) == list(range(10))
        assert len(chunks) == 3
        assert max(len(c) for c in chunks) - min(len(c) for c in chunks) <= 1

    def test_block_partition_more_workers_than_tasks(self):
        chunks = block_partition([1, 2], 5)
        assert len(chunks) == 5
        assert sorted(v for chunk in chunks for v in chunk) == [1, 2]

    def test_balanced_partition_covers_all_tasks(self):
        weights = {i: float(i + 1) for i in range(12)}
        chunks = balanced_partition(list(range(12)), weights, 4)
        assert sorted(v for chunk in chunks for v in chunk) == list(range(12))

    def test_balanced_partition_beats_blocks_on_skew(self):
        # One huge task plus many small ones: LPT isolates the huge task.
        weights = {0: 100.0}
        weights.update({i: 1.0 for i in range(1, 31)})
        tasks = sorted(weights, key=lambda t: -weights[t])
        block = simulate_schedule(block_partition(tasks, 4), weights, 4)
        balanced = simulate_schedule(balanced_partition(tasks, weights, 4), weights, 4)
        assert balanced.makespan <= block.makespan

    def test_invalid_worker_count(self):
        with pytest.raises(InvalidParameterError):
            block_partition([1], 0)
        with pytest.raises(InvalidParameterError):
            balanced_partition([1], {1: 1.0}, 0)

    def test_work_estimates_positive_and_skewed(self):
        g = random_bipartite_expansion_graph(6, 200, 2, seed=1)
        estimates = vertex_work_estimates(g)
        assert all(value >= 1.0 for value in estimates.values())
        assert max(estimates.values()) > 10 * min(estimates.values())


class TestLoadBalanceModel:
    def test_single_worker_speedup_is_one(self):
        weights = {i: 2.0 for i in range(5)}
        report = simulate_schedule([list(range(5))], weights, 1)
        assert report.speedup == pytest.approx(1.0)
        assert report.makespan == pytest.approx(report.total_work)

    def test_speedup_bounded_by_workers(self):
        weights = {i: 1.0 for i in range(16)}
        chunks = block_partition(list(range(16)), 4)
        report = simulate_schedule(chunks, weights, 4)
        assert report.speedup <= 4.0 + 1e-9
        assert report.balance == pytest.approx(1.0)

    def test_empty_schedule(self):
        report = simulate_schedule([[], []], {}, 2)
        assert report.speedup == 1.0
        assert report.total_work == 0.0


class TestEngines:
    @pytest.mark.parametrize("workers", [1, 2, 5, 8])
    def test_vertex_engine_matches_sequential(self, workers):
        g = barabasi_albert_graph(100, 3, seed=2)
        expected = all_ego_betweenness(g)
        run = vertex_parallel_ego_betweenness(g, workers)
        assert run.scores.keys() == expected.keys()
        for v, value in expected.items():
            assert run.scores[v] == pytest.approx(value)

    @pytest.mark.parametrize("workers", [1, 2, 5, 8])
    def test_edge_engine_matches_sequential(self, workers):
        g = barabasi_albert_graph(100, 3, seed=3)
        expected = all_ego_betweenness(g)
        run = edge_parallel_ego_betweenness(g, workers)
        for v, value in expected.items():
            assert run.scores[v] == pytest.approx(value)

    def test_edge_engine_balances_better_on_skewed_graph(self):
        g = random_bipartite_expansion_graph(8, 400, 2, seed=4)
        vertex_run = vertex_parallel_ego_betweenness(g, 8)
        edge_run = edge_parallel_ego_betweenness(g, 8)
        assert edge_run.load_report.speedup >= vertex_run.load_report.speedup
        assert edge_run.load_report.balance >= vertex_run.load_report.balance

    def test_invalid_worker_count(self):
        with pytest.raises(InvalidParameterError):
            vertex_parallel_ego_betweenness(Graph(edges=[(0, 1)]), 0)

    def test_run_result_metadata(self):
        g = star_graph(10)
        run = edge_parallel_ego_betweenness(g, 3)
        assert run.engine == "EdgePEBW"
        assert run.num_workers == 3
        assert run.elapsed_seconds >= 0.0
        assert len(run.load_report.worker_loads) == 3


class TestExecutor:
    def test_hash_engine_serial_merges(self):
        g = barabasi_albert_graph(50, 2, seed=6)
        run = vertex_parallel_ego_betweenness(
            g, 4, backend=ParallelBackend.SERIAL, graph_backend="hash"
        )
        assert run.scores == all_ego_betweenness(g)
        assert len(run.chunk_seconds) == 4

    def test_unknown_backend_rejected(self):
        g = Graph(edges=[(0, 1)])
        with pytest.raises(ValueError):
            vertex_parallel_ego_betweenness(g, 2, backend="quantum")

    @pytest.mark.parametrize(
        "engine", [vertex_parallel_ego_betweenness, edge_parallel_ego_betweenness]
    )
    def test_engine_runs_its_partition_on_compact_graph(self, engine):
        """A CSR snapshot takes the runtime path, one chunk per worker."""
        g = barabasi_albert_graph(50, 2, seed=6)
        run = engine(g.to_compact(), 3, backend="serial")
        assert run.scores == all_ego_betweenness(g)
        assert len(run.chunk_seconds) == len(run.load_report.worker_loads) == 3

    def test_engine_reuses_a_passed_runtime(self):
        g = barabasi_albert_graph(40, 2, seed=9)
        compact = g.to_compact()
        with ExecutionRuntime(max_workers=2, executor="serial") as runtime:
            first = vertex_parallel_ego_betweenness(compact, 2, runtime=runtime)
            second = edge_parallel_ego_betweenness(compact, 2, runtime=runtime)
            assert first.scores == second.scores
            assert runtime.stats().payload_ships == 1
            assert not runtime.closed  # caller-owned runtimes stay open

    def test_process_backend_rejects_hash_graph(self):
        from repro.errors import BackendCapabilityError

        g = barabasi_albert_graph(60, 3, seed=7)
        with pytest.raises(BackendCapabilityError, match="compact"):
            vertex_parallel_ego_betweenness(
                g, 2, backend="process", graph_backend="hash"
            )
        with pytest.raises(BackendCapabilityError, match="compact"):
            edge_parallel_ego_betweenness(
                g, 2, backend="process", graph_backend="hash"
            )
        from repro.session import EgoSession

        with EgoSession(g, backend="hash") as session:
            with pytest.raises(BackendCapabilityError, match="compact"):
                session.scores_batch([None], parallel=2, executor="process")

    @pytest.mark.parallel
    def test_process_backend_matches_serial_csr(self):
        g = barabasi_albert_graph(60, 3, seed=7)
        compact = g.to_compact()
        for engine in (vertex_parallel_ego_betweenness, edge_parallel_ego_betweenness):
            serial = engine(compact, 2, backend="serial")
            process = engine(compact, 2, backend="process")
            assert process.scores == serial.scores  # bit-identical


class TestTimingSplit:
    def test_result_carries_setup_and_compute_split(self):
        g = barabasi_albert_graph(80, 3, seed=4)
        run = edge_parallel_ego_betweenness(g, 4)
        assert run.setup_seconds >= 0.0
        assert run.compute_seconds > 0.0
        # the historical single field remains the end-to-end time and
        # therefore dominates both components
        assert run.elapsed_seconds >= run.compute_seconds

    @pytest.mark.parallel
    def test_process_setup_excluded_from_compute(self):
        g = barabasi_albert_graph(60, 2, seed=3)
        run = edge_parallel_ego_betweenness(g, 2, backend="process")
        # pool fork + payload ship must be accounted as setup, not compute
        assert run.setup_seconds > 0.0
        assert run.elapsed_seconds >= run.setup_seconds + run.compute_seconds - 1e-6

    def test_chunk_seconds_line_up_with_the_load_report(self):
        # Each engine executes its own partition, so every measured chunk
        # is one modelled worker's load, and the two engines' partitions
        # differ on a skewed graph while their scores agree.
        g = random_bipartite_expansion_graph(8, 400, 2, seed=4)
        vertex = vertex_parallel_ego_betweenness(g, 4)
        edge = edge_parallel_ego_betweenness(g, 4)
        assert vertex.scores == edge.scores
        for run in (vertex, edge):
            assert len(run.chunk_seconds) == len(run.load_report.worker_loads) == 4
        assert vertex.load_report.worker_loads != edge.load_report.worker_loads

    def test_unknown_schedule_rejected(self):
        with pytest.raises(TypeError, match="schedule"):
            edge_parallel_ego_betweenness(
                Graph(edges=[(0, 1)]), 1, schedule="dynamic"
            )
