"""Experiment ``fig8`` — average runtime of the update algorithms (Fig. 8).

Exp-3 of the paper randomly selects 1,000 edges per dataset and measures the
average time LocalInsert / LocalDelete (maintaining every vertex's value)
and LazyInsert / LazyDelete (maintaining only the top-k) need per update.
The lazy algorithms are consistently cheaper, and insertion and deletion
costs are nearly identical.  The reproduction replays the same protocol on
the stand-ins (with the update count scaled), and additionally reports the
number of exact recomputations the lazy maintainer skipped — the mechanism
behind its advantage.

Both maintainers accept a ``backend`` (``auto`` = the compact CSR overlay
with patched connector-count histograms, ``hash`` = the label-level oracle,
which recomputes every Observation-1 affected vertex by definition); the
choice is plumbed through here so the experiment can measure either.  The
initial all-vertex ego-betweenness map is computed once per dataset and
shared by both maintainers via their ``values=`` parameter.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from repro.core.csr_kernels import all_ego_betweenness_csr, normalize_backend
from repro.core.ego_betweenness import all_ego_betweenness
from repro.datasets.registry import dataset_names, dataset_spec, load_dataset
from repro.dynamic.lazy_topk import LazyTopKMaintainer
from repro.dynamic.local_update import EgoBetweennessIndex
from repro.dynamic.stream import apply_stream, split_insert_delete_workload
from repro.experiments.common import DEFAULT_EXPERIMENT_SCALE, ExperimentResult, scaled_k_values

__all__ = ["run"]


def run(
    scale: float = DEFAULT_EXPERIMENT_SCALE,
    datasets: Optional[Iterable[str]] = None,
    num_updates: int = 100,
    k: Optional[int] = None,
    seed: int = 7,
    backend: str = "auto",
) -> ExperimentResult:
    """Measure per-update cost of the local and lazy maintenance algorithms."""
    backend = normalize_backend(backend)
    result = ExperimentResult(
        experiment_id="fig8",
        title="Average update time of the maintenance algorithms (paper Fig. 8)",
        metadata={"scale": scale, "num_updates": num_updates, "backend": backend},
    )
    selected = list(datasets) if datasets is not None else dataset_names()
    for name in selected:
        graph = load_dataset(name, scale=scale)
        updates = min(num_updates, graph.num_edges // 2)
        deletions, insertions = split_insert_delete_workload(graph, updates, seed=seed)
        chosen_k = k if k is not None else scaled_k_values(graph.num_vertices, (500,))[0]

        # The exact starting values are computed once and shared by both
        # maintainers (they are bit-identical across backends).
        if backend == "hash":
            values = all_ego_betweenness(graph)
        else:
            values = all_ego_betweenness_csr(graph)

        # Local maintenance: delete the sampled edges, then re-insert them.
        local_index = EgoBetweennessIndex(graph, backend=backend, values=values)
        local_delete_time = _replay(local_index, deletions)
        local_insert_time = _replay(local_index, insertions)

        # Lazy maintenance of the top-k only, on the same workload.
        lazy = LazyTopKMaintainer(graph, chosen_k, backend=backend, values=values)
        lazy_delete_time = _replay(lazy, deletions)
        lazy_insert_time = _replay(lazy, insertions)

        count = max(len(deletions), 1)
        result.rows.append(
            {
                "dataset": dataset_spec(name).paper_name,
                "updates": len(deletions),
                "k": chosen_k,
                "backend": backend,
                "LocalInsert_s": round(local_insert_time / count, 6),
                "LazyInsert_s": round(lazy_insert_time / count, 6),
                "LocalDelete_s": round(local_delete_time / count, 6),
                "LazyDelete_s": round(lazy_delete_time / count, 6),
                "lazy_exact_recomputations": lazy.exact_recomputations,
                "lazy_skipped": lazy.skipped_recomputations,
            }
        )
        result.series.setdefault("edge insertion", {}).setdefault("LocalInsert", {})[
            dataset_spec(name).paper_name
        ] = local_insert_time / count
        result.series["edge insertion"].setdefault("LazyInsert", {})[
            dataset_spec(name).paper_name
        ] = lazy_insert_time / count
        result.series.setdefault("edge deletion", {}).setdefault("LocalDelete", {})[
            dataset_spec(name).paper_name
        ] = local_delete_time / count
        result.series["edge deletion"].setdefault("LazyDelete", {})[
            dataset_spec(name).paper_name
        ] = lazy_delete_time / count
    return result


def _replay(target, events) -> float:
    start = time.perf_counter()
    apply_stream(target, events)
    return time.perf_counter() - start
