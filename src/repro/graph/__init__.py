"""Graph substrate: data structures, orientation, triangles, I/O, generators.

This subpackage is the foundation every algorithm in the library builds on.
It provides

* :class:`~repro.graph.graph.Graph` — a mutable, undirected, simple graph
  backed by adjacency sets,
* :class:`~repro.graph.csr.CompactGraph` — an immutable CSR snapshot with
  dense int ids and sorted adjacency arrays, the fast backend for the
  top-k hot paths,
* :class:`~repro.graph.dynamic_csr.DynamicCompactGraph` — the mutable CSR
  overlay (live per-vertex neighbour sets, compacted to a snapshot once
  per version), the fast backend for the dynamic-maintenance hot path,
* :class:`~repro.graph.orientation.OrientedGraph` — the degree-ordered DAG
  ``G+`` used for once-per-triangle enumeration,
* triangle and wedge enumeration (:mod:`repro.graph.triangles`),
* degeneracy / arboricity estimation (:mod:`repro.graph.arboricity`),
* plain-text edge-list readers and writers (:mod:`repro.graph.io`), and
* seeded synthetic generators (:mod:`repro.graph.generators`).
"""

from repro.graph.graph import Graph
from repro.graph.csr import CompactGraph
from repro.graph.dynamic_csr import DynamicCompactGraph
from repro.graph.orientation import DegreeOrder, OrientedGraph, orient
from repro.graph.triangles import (
    count_triangles,
    enumerate_triangles,
    triangle_counts_per_vertex,
)
from repro.graph.arboricity import arboricity_upper_bound, degeneracy, degeneracy_ordering

__all__ = [
    "Graph",
    "CompactGraph",
    "DynamicCompactGraph",
    "DegreeOrder",
    "OrientedGraph",
    "orient",
    "enumerate_triangles",
    "count_triangles",
    "triangle_counts_per_vertex",
    "degeneracy",
    "degeneracy_ordering",
    "arboricity_upper_bound",
]
