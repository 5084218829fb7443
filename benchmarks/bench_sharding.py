"""Benchmark ``sharding``: halo-augmented shard payloads vs one big payload.

The ISSUE-10 acceptance gates:

* **Cut quality** — the label-propagation ``community`` partitioner must
  produce a cut-edge fraction **no worse than** the ``range`` baseline on
  every gate dataset at the default bench scale.
* **Throughput** — with the numpy kernel tier and 2 process workers, warm
  sharded full sweeps and top-k must run **>= 1.5x** the single-payload
  path on the dataset the sharding plane exists for: one graph *above*
  the dense-adjacency vertex limit (``dblp`` at scale 2.4, n=4630 > 4096)
  whose community shards each fall back *below* it, so every shard regains
  the dense batch kernels the monolithic payload had to give up.
* **Bit-identity** — every sharded score, subset and top-k ranking
  (tie cohorts included) must equal the unsharded answer exactly.
* **Ship accounting** — a fresh sharded session ships exactly one payload
  per shard, a warm repeat ships nothing, and an edge mutation re-ships
  only the shards whose halo-closed subgraphs actually changed.

Plain pytest — no pytest-benchmark fixtures — so the dedicated CI job can
run it with only ``pytest`` (plus numpy) installed::

    PYTHONPATH=src python -m pytest benchmarks/bench_sharding.py -q

``benchmarks/smoke.py`` calls ``run_sharding_benchmark`` to emit
``BENCH_sharding.json``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Sequence, Tuple

import pytest

#: Cut quality is gated on the same three datasets as the kernel bench —
#: the planted-partition generators where a community structure exists to
#: find; the throughput gate runs on dblp only (see module docstring).
GATE_DATASETS: Tuple[str, ...] = ("livejournal", "pokec", "dblp")

#: dblp at this scale has n=4630 — above the 4096 dense-adjacency limit —
#: while its 4 community shards stay below it.  That cliff is the whole
#: reason sharding pays on one machine: each shard payload regains the
#: vectorized dense batch path the monolithic payload is too big for.
THROUGHPUT_SCALE = 2.4
THROUGHPUT_SHARDS = 4
THROUGHPUT_WORKERS = 2
THROUGHPUT_FLOOR = 1.5
TOP_K = 50

_ALL_SECTIONS: Tuple[str, ...] = ("cut", "throughput", "ships")


def _default_scale(default: float = 0.3) -> float:
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", default))
    except ValueError:
        return default


def _throughput_scale(default: float = THROUGHPUT_SCALE) -> float:
    try:
        return float(os.environ.get("REPRO_BENCH_SHARDING_SCALE", default))
    except ValueError:
        return default


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _sharded_units(compact, plan, graph_id: str = "bench"):
    """Runtime units in canonical shard order, empty shards skipped.

    Each unit carries its shard's local → parent id map, so the runtime
    keys sharded results by the parent graph's dense ids.
    """
    return [
        (
            plan.payload_key(graph_id, shard),
            shard.graph,
            list(shard.owned_local),
            [compact.id_of(label) for label in shard.graph.labels],
        )
        for shard in plan.shards
        if shard.owned_local
    ]


def _cut_quality(scale: float, shards: int) -> Dict[str, Any]:
    from repro.datasets.registry import load_dataset
    from repro.graph.partition import partition_graph

    section: Dict[str, Any] = {}
    for name in GATE_DATASETS:
        compact = load_dataset(name, scale=scale).to_compact()
        community = partition_graph(compact, shards, "community")
        id_range = partition_graph(compact, shards, "range")
        section[name] = {
            "vertices": compact.num_vertices,
            "edges": compact.num_edges,
            "community_cut_fraction": community.cut_edge_fraction,
            "range_cut_fraction": id_range.cut_edge_fraction,
            "community_halo_overhead": community.halo_overhead,
            "range_halo_overhead": id_range.halo_overhead,
        }
    return section


def _throughput(
    scale: float, shards: int, workers: int, repeats: int, kernel: str
) -> Dict[str, Any]:
    from repro.datasets.registry import load_dataset
    from repro.graph.partition import partition_graph
    from repro.parallel.runtime import ExecutionRuntime

    compact = load_dataset("dblp", scale=scale).to_compact()
    plan = partition_graph(compact, shards, "community")
    units = _sharded_units(compact, plan)

    with ExecutionRuntime(
        max_workers=workers, executor="process", kernel=kernel
    ) as single:
        single_scores, _ = single.execute(compact)
        single_top, _ = single.execute_top_k(compact, TOP_K)
        single_sweep_s = _best_of(lambda: single.execute(compact), repeats)
        single_topk_s = _best_of(
            lambda: single.execute_top_k(compact, TOP_K), repeats
        )

    with ExecutionRuntime(
        max_workers=workers, executor="process", kernel=kernel
    ) as runtime:
        sharded_scores, _ = runtime.execute(units)
        sharded_top, _ = runtime.execute_top_k(units, TOP_K)
        if sharded_scores != single_scores:
            raise AssertionError("sharded sweep diverged from the single payload")
        if sharded_top != single_top:
            raise AssertionError("sharded top-k diverged from the single payload")
        sharded_sweep_s = _best_of(
            lambda: runtime.execute(units), repeats
        )
        sharded_topk_s = _best_of(
            lambda: runtime.execute_top_k(units, TOP_K), repeats
        )

    return {
        "dataset": "dblp",
        "vertices": compact.num_vertices,
        "edges": compact.num_edges,
        "max_shard_vertices": max(s.num_members for s in plan.shards),
        "k": TOP_K,
        "full_sweep": {
            "single_s": single_sweep_s,
            "sharded_s": sharded_sweep_s,
            "speedup": single_sweep_s / sharded_sweep_s,
        },
        "top_k": {
            "single_s": single_topk_s,
            "sharded_s": sharded_topk_s,
            "speedup": single_topk_s / sharded_topk_s,
        },
    }


def _expected_rebuilds(plan, u_label, v_label) -> List[int]:
    """The shards :meth:`ShardPlan.refresh` will rebuild for this edge."""
    owners = {plan.shard_of(u_label), plan.shard_of(v_label)}
    touched = []
    for shard in plan.shards:
        members = set(shard.member_labels)
        if shard.index in owners or (u_label in members and v_label in members):
            touched.append(shard.index)
    return touched


def _quiet_edge(compact, plan) -> Tuple[Any, Any, List[int]]:
    """An existing edge whose removal rebuilds the fewest shards."""
    labels = compact.labels
    best = None
    for u in range(compact.num_vertices):
        row = compact.indices[compact.indptr[u] : compact.indptr[u + 1]]
        for v in row:
            if v <= u:
                continue
            touched = _expected_rebuilds(plan, labels[u], labels[v])
            if best is None or len(touched) < len(best[2]):
                best = (labels[u], labels[v], touched)
            if len(best[2]) == 1:
                return best
    if best is None:
        raise AssertionError("graph has no edges to mutate")
    return best


def _ships(scale: float, shards: int, workers: int) -> Dict[str, Any]:
    from repro.core.csr_kernels import all_ego_betweenness_csr
    from repro.datasets.registry import load_dataset
    from repro.session import EgoSession

    graph = load_dataset("dblp", scale=scale)
    oracle_session = EgoSession(graph)
    session = EgoSession(graph, shards=shards, partitioner="community")
    try:
        plan = session._current_shard_plan()
        subset = [s.owned_labels[0] for s in plan.shards if s.owned_labels]
        active = sum(1 for s in plan.shards if s.owned_labels)
        oracle = all_ego_betweenness_csr(graph.to_compact())

        def query() -> Dict[Any, float]:
            return session.scores_batch(
                [subset], parallel=workers, executor="process"
            )[0]

        answer = query()
        if answer != {v: oracle[v] for v in subset}:
            raise AssertionError("sharded subset diverged from the serial oracle")
        runtime = session._runtimes["process"]
        initial_ships = runtime.stats().payload_ships
        query()
        warm_ships = runtime.stats().payload_ships - initial_ships

        u_label, v_label, expected = _quiet_edge(graph.to_compact(), plan)
        versions = [s.version for s in plan.shards]
        session.apply(("delete", u_label, v_label))
        oracle_session.apply(("delete", u_label, v_label))
        mutated = query()
        if mutated != oracle_session.scores(vertices=subset):
            raise AssertionError("post-mutation sharded scores diverged")
        rebuilt = [
            s.index
            for s, before in zip(plan.shards, versions)
            if s.version != before
        ]
        reshipped = runtime.stats().payload_ships - initial_ships
        if rebuilt != expected:
            raise AssertionError(
                f"refresh rebuilt shards {rebuilt}, expected {expected}"
            )
        return {
            "shards": shards,
            "active_shards": active,
            "initial_ships": initial_ships,
            "warm_new_ships": warm_ships,
            "rebuilt_after_mutation": len(rebuilt),
            "reshipped_after_mutation": reshipped,
        }
    finally:
        session.close()
        oracle_session.close()


def run_sharding_benchmark(
    scale: float | None = None,
    shards: int = THROUGHPUT_SHARDS,
    workers: int = THROUGHPUT_WORKERS,
    repeats: int = 3,
    throughput_scale: float | None = None,
    sections: Sequence[str] = _ALL_SECTIONS,
) -> Dict[str, Any]:
    """Measure the sharding plane per section; verify before timing.

    Every sharded score compared here goes through the real runtime fan-out
    (`execute(units)` / `execute_top_k(units, k)` / `EgoSession(shards=N)`)
    and is checked bit-identical to the unsharded answer before any number
    is reported.  Without importable numpy the throughput section times the
    python tier and ``numpy_available: false`` rides along (no speedup
    floor is claimed — the python kernels never had the dense-adjacency
    cliff the gate measures).
    """
    from repro.core.vec_kernels import numpy_available

    if scale is None:
        scale = _default_scale()
    if throughput_scale is None:
        throughput_scale = _throughput_scale()
    have_numpy = numpy_available()
    kernel = "numpy" if have_numpy else "python"
    payload: Dict[str, Any] = {
        "bench": "sharding",
        "unit": "warm sharded vs single-payload speedup (single_s / sharded_s)",
        "scale": scale,
        "throughput_scale": throughput_scale,
        "shards": shards,
        "workers": workers,
        "repeats": repeats,
        "partitioner": "community",
        "numpy_available": have_numpy,
        "kernel": kernel,
        "bit_identical": True,  # the AssertionErrors below fired otherwise
    }
    if "cut" in sections:
        payload["cut_quality"] = _cut_quality(scale, shards)
    if "throughput" in sections:
        throughput = _throughput(throughput_scale, shards, workers, repeats, kernel)
        payload["throughput"] = throughput
        single = throughput["full_sweep"]["single_s"] + throughput["top_k"]["single_s"]
        sharded = (
            throughput["full_sweep"]["sharded_s"] + throughput["top_k"]["sharded_s"]
        )
        payload["backends"] = {
            "single_payload": {"mean_s": single / 2},
            "sharded": {"mean_s": sharded / 2},
        }
        payload["speedup_sharded_vs_single"] = single / sharded
    if "ships" in sections:
        payload["ships"] = _ships(scale, shards, workers)
    return payload


def test_sharding_cut_quality_gate():
    """Community partitioning never cuts more edges than the id-range baseline."""
    payload = run_sharding_benchmark(sections=("cut",))
    for name, entry in payload["cut_quality"].items():
        assert entry["community_cut_fraction"] <= entry["range_cut_fraction"], (
            name,
            entry,
        )


def test_sharding_throughput_gate(results_dir):
    """The ISSUE-10 headline: >= 1.5x warm sharded sweeps and top-k, numpy tier."""
    pytest.importorskip("numpy")
    from benchmarks.conftest import save_report

    payload = run_sharding_benchmark()
    save_report(
        results_dir, "sharding", json.dumps(payload, indent=2, sort_keys=True)
    )
    assert payload["bit_identical"] is True
    throughput = payload["throughput"]
    # The cliff must actually be in play: the monolith above the dense
    # limit, every shard below it — otherwise the gate measures nothing.
    assert throughput["vertices"] > 4096 >= throughput["max_shard_vertices"]
    assert throughput["full_sweep"]["speedup"] >= THROUGHPUT_FLOOR, throughput
    assert throughput["top_k"]["speedup"] >= THROUGHPUT_FLOOR, throughput


def test_sharding_ship_accounting():
    """Ships == shards cold, zero warm, touched-shards-only after mutation."""
    payload = run_sharding_benchmark(sections=("ships",))
    ships = payload["ships"]
    assert ships["initial_ships"] == ships["active_shards"] == ships["shards"]
    assert ships["warm_new_ships"] == 0
    assert ships["reshipped_after_mutation"] == ships["rebuilt_after_mutation"]
    assert 0 < ships["rebuilt_after_mutation"] < ships["shards"]


def test_sharding_python_payload_without_numpy():
    """The payload stays well-formed when numpy is absent (no-numpy CI job)."""
    import sys

    if "numpy" in sys.modules or _importable("numpy"):
        pytest.skip("numpy installed; the numpy CI job gates the real floor")
    payload = run_sharding_benchmark(repeats=1, throughput_scale=0.5)
    assert payload["numpy_available"] is False
    assert payload["kernel"] == "python"
    assert payload["backends"]["single_payload"]["mean_s"] > 0
    assert payload["speedup_sharded_vs_single"] > 0


def _importable(module: str) -> bool:
    import importlib.util

    return importlib.util.find_spec(module) is not None
