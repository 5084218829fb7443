"""Cross-module integration tests: the full pipeline on realistic workloads."""

from __future__ import annotations

import pytest

from repro import (
    EgoBetweennessIndex,
    Graph,
    LazyTopKMaintainer,
    all_ego_betweenness,
    edge_parallel_ego_betweenness,
    top_k_betweenness,
    top_k_ego_betweenness,
)
from repro.analysis.overlap import top_k_overlap
from repro.baselines.naive import naive_top_k
from repro.datasets.collaboration import db_case_study_graph
from repro.datasets.registry import load_dataset
from repro.dynamic.stream import generate_update_stream
from repro.graph.io import read_edge_list, write_edge_list


class TestPublicAPISurface:
    def test_package_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name
        assert set(repro.__all__) <= set(dir(repro))
        with pytest.raises(AttributeError):
            repro.no_such_name

    @pytest.mark.parametrize("module", ["repro", "repro.session"])
    def test_import_loads_only_what_the_process_runs(self, module):
        import os
        import subprocess
        import sys
        from pathlib import Path

        unused = [
            "repro.net", "repro.serving", "repro.durability",
            "repro.baselines", "repro.experiments", "asyncio",
        ]
        script = f"import sys, {module}; print([m for m in {unused!r} if m in sys.modules])"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_quickstart_docstring_flow(self):
        g = Graph(edges=[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
        result = top_k_ego_betweenness(g, k=2)
        assert len(result.entries) == 2
        assert result.entries[0][1] >= result.entries[1][1]


class TestEndToEndOnRegistryDataset:
    def test_search_update_parallel_pipeline(self):
        graph = load_dataset("dblp", scale=0.1)

        # 1. Static top-k search agrees with the naive oracle.
        top = top_k_ego_betweenness(graph, 10, method="opt")
        oracle = naive_top_k(graph, 10)
        assert [s for _, s in top.entries] == pytest.approx(
            [s for _, s in oracle.entries], abs=1e-9
        )

        # 2. Dynamic maintenance over a mixed update stream stays exact.
        index = EgoBetweennessIndex(graph)
        maintainer = LazyTopKMaintainer(graph, 10)
        for event in generate_update_stream(graph, 20, seed=3):
            if event.operation == "insert":
                index.insert_edge(event.u, event.v)
                maintainer.insert_edge(event.u, event.v)
            else:
                index.delete_edge(event.u, event.v)
                maintainer.delete_edge(event.u, event.v)
        fresh = all_ego_betweenness(index.graph)
        for vertex, value in fresh.items():
            assert index.score(vertex) == pytest.approx(value, abs=1e-9)
        truth = sorted(fresh.values(), reverse=True)[:10]
        assert [s for _, s in maintainer.top_k().entries] == pytest.approx(truth, abs=1e-9)

        # 3. The parallel engine reproduces the sequential result.
        run = edge_parallel_ego_betweenness(index.graph, 4)
        for vertex, value in fresh.items():
            assert run.scores[vertex] == pytest.approx(value, abs=1e-9)

    def test_io_round_trip_preserves_results(self, tmp_path):
        graph = load_dataset("youtube", scale=0.1)
        path = tmp_path / "youtube.txt"
        write_edge_list(graph, path)
        reloaded = read_edge_list(path)
        original = top_k_ego_betweenness(graph, 5)
        after = top_k_ego_betweenness(reloaded, 5)
        assert [s for _, s in original.entries] == pytest.approx(
            [s for _, s in after.entries]
        )


class TestEffectivenessStory:
    def test_ego_betweenness_approximates_betweenness_on_collaboration_graph(self):
        """The paper's headline effectiveness claim (Exp-6/7): the two top-k
        sets overlap substantially on collaboration networks."""
        case = db_case_study_graph(scale=0.25)
        graph = case.graph
        k = 10
        ebw = top_k_ego_betweenness(graph, k)
        bw = top_k_betweenness(graph, k)
        overlap = top_k_overlap(ebw.vertices, bw.vertices)
        assert overlap >= 0.5

    def test_high_degree_bridges_surface_in_top_k(self):
        case = db_case_study_graph(scale=0.25)
        graph = case.graph
        top = top_k_ego_betweenness(graph, 10)
        median_degree = sorted(graph.degrees().values())[graph.num_vertices // 2]
        assert all(graph.degree(v) >= median_degree for v in top.vertices)
