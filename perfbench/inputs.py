"""Seeded inputs and the hash-backend oracle answers they are checked against.

Every graph is a registry stand-in (:func:`repro.datasets.registry.load_dataset`).
The wire tenants are the stand-ins as the registry builds them: a served
tenant is a fixed dataset, and only the traffic varies with the seed.  The
cold top-k pool relabels each stand-in's vertices by a seeded permutation and
shuffles and re-orients its edges by the same seed: vertex numbering steers
the CSR layout, tie order, search order and chunking, and the cost of one
sweep can differ severalfold between numberings of the same graph.  The
program under test receives only the resulting edge lists.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

import common  # noqa: F401  (puts src/ on sys.path)

from repro.core.ego_betweenness import all_ego_betweenness
from repro.datasets.registry import load_dataset
from repro.dynamic.stream import UpdateEvent
from repro.graph.graph import Graph
from repro.session import EgoSession

Edge = Tuple[int, int]

#: The two wire tenants: a triangle-rich clique graph and a hub-and-spoke
#: star graph, so batching and ranking see two different score shapes.
WIRE_TENANTS = (("dblp", 0.5), ("wikitalk", 1.0))

#: The cold top-k pool: all five registry families at three scales, each in
#: several differently labelled copies (labels steer tie order, search order
#: and chunking, so one run averages over several).  The scale-2.0 wikitalk
#: and livejournal graphs sit above the 4096-vertex dense adjacency limit,
#: the rest below; the 60 graphs exceed both 8-entry caches (worker payload
#: cache, neighbour-set memo).
POOL_FAMILIES = ("youtube", "wikitalk", "dblp", "pokec", "livejournal")
POOL_SCALES = (0.4, 1.0, 2.0)
POOL_COPIES = 4

TOPK_KS = (10, 100)


def seeded_edges(name: str, scale: float, rng: random.Random) -> List[Edge]:
    graph = load_dataset(name, scale=scale)
    vertices = list(graph.vertices())
    labels = list(range(len(vertices)))
    rng.shuffle(labels)
    relabel = dict(zip(vertices, labels))
    edges = []
    for u, v in graph.edge_list():
        a, b = relabel[u], relabel[v]
        edges.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(edges)
    return edges


def wire_tenants() -> Dict[str, List[Edge]]:
    return {name: load_dataset(name, scale=scale).edge_list() for name, scale in WIRE_TENANTS}


def cold_pool(seed: int) -> List[Tuple[str, List[Edge]]]:
    rng = random.Random(f"cold-pool-{seed}")
    return [
        (f"{name}@{scale}#{copy}", seeded_edges(name, scale, rng))
        for name in POOL_FAMILIES
        for scale in POOL_SCALES
        for copy in range(POOL_COPIES)
    ]


def oracle_scores(edges: Sequence[Edge]) -> Dict[int, float]:
    """Exact scores of every vertex on the hash backend."""
    return all_ego_betweenness(Graph(edges=edges))


def oracle_top_k(edges: Sequence[Edge], ks: Sequence[int] = TOPK_KS) -> Dict[int, list]:
    """The hash backend's naive ranking for each ``k``."""
    session = EgoSession(Graph(edges=edges), backend="hash")
    try:
        return {k: list(session.top_k(k, algorithm="naive").entries) for k in ks}
    finally:
        session.close()


def oracle_after(edges: Sequence[Edge], batches: Sequence[Sequence[UpdateEvent]]) -> Dict[int, float]:
    """Scores after replaying ``batches`` on a hash-backend session.

    Like the served tenant, the oracle session computes every score first
    and then maintains them incrementally through ``apply``; incremental
    maintenance drifts from a fresh recomputation in the last bits, so a
    fresh recomputation is not the reference.
    """
    session = EgoSession(Graph(edges=edges), backend="hash")
    try:
        session.scores()
        for batch in batches:
            session.apply(batch)
        return session.scores()
    finally:
        session.close()
