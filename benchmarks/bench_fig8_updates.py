"""Benchmark ``fig8``: average update time of the maintenance algorithms (paper Fig. 8).

Also doubles as the lazy-vs-eager ablation (the report records how many
exact recomputations the lazy maintainer skipped relative to the local
index) and as the dynamic-backend comparison: every benchmark is
parametrised over ``backend={compact, hash}`` so the per-update latency of
the CSR overlay's incremental kernels can be read off against the hash
oracle directly from the benchmark table.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import save_report
from repro.core.ego_betweenness import all_ego_betweenness
from repro.dynamic.lazy_topk import LazyTopKMaintainer
from repro.dynamic.local_update import EgoBetweennessIndex
from repro.dynamic.stream import apply_stream, generate_update_stream
from repro.experiments import exp_fig8

BACKENDS = ("compact", "hash")


@pytest.mark.benchmark(group="fig8-single-update")
@pytest.mark.parametrize("backend", BACKENDS)
def test_fig8_local_insert_single(benchmark, dblp_graph, fig8_workload, backend):
    """Per-update cost of LocalInsert on the DBLP stand-in."""
    deletions, _insertions = fig8_workload
    index = EgoBetweennessIndex(dblp_graph, backend=backend)
    edge = deletions[0].edge
    index.delete_edge(*edge)

    def insert_then_delete():
        index.insert_edge(*edge)
        index.delete_edge(*edge)

    benchmark(insert_then_delete)


@pytest.mark.benchmark(group="fig8-single-update")
@pytest.mark.parametrize("backend", BACKENDS)
def test_fig8_lazy_insert_single(benchmark, dblp_graph, fig8_workload, backend):
    """Per-update cost of LazyInsert on the DBLP stand-in."""
    deletions, _insertions = fig8_workload
    maintainer = LazyTopKMaintainer(dblp_graph, 20, backend=backend)
    edge = deletions[0].edge
    maintainer.delete_edge(*edge)

    def insert_then_delete():
        maintainer.insert_edge(*edge)
        maintainer.delete_edge(*edge)

    benchmark(insert_then_delete)


@pytest.mark.benchmark(group="fig8-mixed-stream")
@pytest.mark.parametrize("backend", BACKENDS)
def test_fig8_mixed_stream(benchmark, dblp_graph, backend):
    """Whole-stream replay: 200 mixed updates through the local index.

    The index (its initial values given via ``values=``, its overlay
    seeded by a kernel sweep) is built outside the timed region, so the
    measurement is the incremental update path, not the index build.
    """
    stream = generate_update_stream(dblp_graph, 200, seed=11)
    values = all_ego_betweenness(dblp_graph)

    def build():
        index = EgoBetweennessIndex(dblp_graph, backend=backend, values=values)
        return (index, stream), {}

    benchmark.pedantic(apply_stream, setup=build, rounds=3, iterations=1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_fig8_full_update_experiment(benchmark, scale, results_dir, backend):
    """The full per-dataset insert/delete averages behind Fig. 8(a–b)."""
    result = benchmark.pedantic(
        exp_fig8.run,
        kwargs={"scale": scale, "num_updates": 40, "backend": backend},
        rounds=1,
        iterations=1,
    )
    name = "fig8" if backend == "compact" else f"fig8-{backend}"
    save_report(results_dir, name, result.render())
    assert len(result.rows) == 5
