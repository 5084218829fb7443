"""The total order ``≺`` used throughout the paper.

Section II of the paper defines, for vertices ``u`` and ``v``::

    u ≺ v   iff   d(u) > d(v)  or  (d(u) = d(v) and ID(u) > ID(v))

i.e. vertices are ranked by non-increasing degree with ties broken by a larger
vertex identifier.  The ordering is used to orient the undirected graph into
a DAG ``G+`` so that every triangle is enumerated exactly once from its
highest-ranked vertex.

:func:`sort_key` is the other order of this module: the vertex tie-breaker of
the top-k order (score descending, then ``sort_key`` ascending — see
:mod:`repro.core.topk`).  The top-k searches visit equal static bounds
``d(d-1)/2`` in ascending ``sort_key`` order to match it.  Note that it is
not the reverse of ``≺``'s identifier tie rule: it compares the ``repr``
(``"10" < "9"``), where ``≺`` compares integers numerically.

Vertex identifiers may be arbitrary hashable objects.  When identifiers are
not mutually comparable (e.g. a mix of strings and integers) a deterministic
fallback based on ``repr`` is used, which preserves the property that the
order is total and stable across runs.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping

__all__ = ["sort_key", "degree_rank", "precedes", "order_vertices"]


def sort_key(vertex: Hashable) -> tuple:
    """Return a deterministic, type-stable sort key for a vertex identifier.

    Every identifier compares as ``(type name, repr)`` — integers too, so
    ``9`` sorts after ``10`` — which never raises ``TypeError`` on mixed
    types.
    """
    return (type(vertex).__name__, repr(vertex))


def order_vertices(degrees: Mapping[Hashable, int]) -> List[Hashable]:
    """Return the vertices sorted according to the total order ``≺``.

    The first element is the highest-ranked vertex (largest degree, largest
    identifier among ties).

    Parameters
    ----------
    degrees:
        Mapping from vertex to its degree.
    """
    return sorted(
        degrees,
        key=lambda v: (-degrees[v], _negated_key(v)),
    )


def _negated_key(vertex: Hashable) -> tuple:
    """Key that sorts identifiers in *descending* natural order.

    Python's ``sorted`` has no per-key ``reverse`` flag, so we invert the
    comparison by mapping every identifier to a tuple whose lexicographic
    ascending order equals the descending order of the original key.  For the
    common case of integer identifiers this is simply ``-vertex``; the general
    case inverts each character of the ``repr`` based key.
    """
    if isinstance(vertex, bool):  # bool is an int subclass; keep explicit
        return ("bool", not vertex)
    if isinstance(vertex, int):
        return ("int", -vertex)
    type_name, text = sort_key(vertex)
    inverted = tuple(-ord(ch) for ch in text)
    return (type_name, inverted)


def degree_rank(degrees: Mapping[Hashable, int]) -> Dict[Hashable, int]:
    """Return the rank of every vertex under ``≺`` (0 = highest ranked)."""
    ordered = order_vertices(degrees)
    return {vertex: rank for rank, vertex in enumerate(ordered)}


def precedes(u: Hashable, v: Hashable, degrees: Mapping[Hashable, int]) -> bool:
    """Return ``True`` iff ``u ≺ v`` under the paper's total order."""
    du, dv = degrees[u], degrees[v]
    if du != dv:
        return du > dv
    if u == v:
        return False
    ku, kv = _negated_key(u), _negated_key(v)
    return ku < kv


def top_of_order(vertices: Iterable[Hashable], degrees: Mapping[Hashable, int]) -> Hashable:
    """Return the highest-ranked vertex among ``vertices`` under ``≺``."""
    vertices = list(vertices)
    if not vertices:
        raise ValueError("top_of_order() requires a non-empty iterable")
    best = vertices[0]
    for v in vertices[1:]:
        if precedes(v, best, degrees):
            best = v
    return best
