"""Reading and writing graphs as plain-text edge lists.

The paper's datasets are distributed as SNAP edge lists (one ``u v`` pair per
line, ``#`` comment lines, arbitrary whitespace).  This module reads and
writes that format so that users with access to the original datasets can run
the benchmark harness on them unchanged, while the offline reproduction uses
the synthetic stand-ins from :mod:`repro.datasets`.
"""

from __future__ import annotations

import os
import tempfile
from typing import Callable, Iterable, Iterator, List, Optional, TextIO, Tuple, Union

from repro.errors import GraphFormatError
from repro.graph.graph import Graph, Vertex

__all__ = [
    "read_edge_list",
    "read_edge_pairs",
    "write_edge_list",
    "parse_edge_lines",
    "relabel_to_integers",
]

PathOrFile = Union[str, "os.PathLike[str]", TextIO]


def parse_edge_lines(
    lines: Iterable[str],
    *,
    comment: str = "#",
    delimiter: Optional[str] = None,
    vertex_type: Callable[[str], Vertex] = int,
) -> Iterator[Tuple[Vertex, Vertex]]:
    """Parse an iterable of text lines into ``(u, v)`` edge pairs.

    Lines that are empty or start with the comment prefix are skipped.  A
    line with fewer than two fields, or a field the ``vertex_type`` converter
    rejects, raises :class:`GraphFormatError` carrying the 1-based line
    number.  Extra fields (e.g. timestamps or weights) are ignored.
    """
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(comment):
            continue
        fields = line.split(delimiter)
        if len(fields) < 2:
            raise GraphFormatError(
                f"expected at least two fields, got {len(fields)}", line_number
            )
        try:
            u = vertex_type(fields[0])
            v = vertex_type(fields[1])
        except (TypeError, ValueError) as exc:
            raise GraphFormatError(f"could not parse vertex label: {exc}", line_number) from exc
        yield (u, v)


def read_edge_pairs(
    source: PathOrFile,
    *,
    comment: str = "#",
    delimiter: Optional[str] = None,
    vertex_type: Callable[[str], Vertex] = int,
    skip_self_loops: bool = True,
) -> List[Tuple[Vertex, Vertex]]:
    """Read the ``(u, v)`` pairs of an edge-list file or open text handle.

    Duplicates are kept (every graph constructor ignores them).  Self-loops are
    silently dropped by default (matching how SNAP social-network files
    are typically cleaned); set ``skip_self_loops=False`` to have them
    raise instead.
    """
    close_after = False
    if hasattr(source, "read"):
        handle = source  # type: ignore[assignment]
    else:
        handle = open(os.fspath(source), "r", encoding="utf-8")
        close_after = True
    try:
        pairs = []
        for u, v in parse_edge_lines(
            handle, comment=comment, delimiter=delimiter, vertex_type=vertex_type
        ):
            if u == v:
                if skip_self_loops:
                    continue
                raise GraphFormatError(f"self-loop on vertex {u!r}")
            pairs.append((u, v))
        return pairs
    finally:
        if close_after:
            handle.close()


def read_edge_list(
    source: PathOrFile,
    *,
    comment: str = "#",
    delimiter: Optional[str] = None,
    vertex_type: Callable[[str], Vertex] = int,
    skip_self_loops: bool = True,
) -> Graph:
    """Read an undirected graph from an edge-list file or open text handle.

    Duplicate edges are collapsed; self-loops are handled as in
    :func:`read_edge_pairs`.
    """
    return Graph(
        edges=read_edge_pairs(
            source,
            comment=comment,
            delimiter=delimiter,
            vertex_type=vertex_type,
            skip_self_loops=skip_self_loops,
        )
    )


def write_edge_list(
    graph: Graph,
    destination: PathOrFile,
    *,
    header: Optional[str] = None,
) -> None:
    """Write ``graph`` as a plain edge list (one canonical edge per line).

    When ``destination`` is a path, the write is **crash-safe**: the lines
    go to a temporary file in the destination's directory, which is
    flushed, fsynced and atomically renamed over the target only once it
    is complete.  An interrupted export (crash, ``kill -9``, full disk)
    therefore either leaves the previous file untouched or publishes the
    whole new one — never a truncated dataset.  An open file handle is
    written through directly (the caller owns its lifecycle).

    Parameters
    ----------
    header:
        Optional comment text written as ``# <header>`` on the first line.
    """
    if hasattr(destination, "write"):
        _write_edge_lines(destination, graph, header)  # type: ignore[arg-type]
        return
    target = os.fspath(destination)
    directory = os.path.dirname(target) or "."
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{os.path.basename(target)}.", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            _write_edge_lines(handle, graph, header)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _write_edge_lines(handle: TextIO, graph: Graph, header: Optional[str]) -> None:
    if header is not None:
        handle.write(f"# {header}\n")
    handle.write(f"# vertices {graph.num_vertices} edges {graph.num_edges}\n")
    for u, v in graph.edges():
        handle.write(f"{u}\t{v}\n")


def relabel_to_integers(graph: Graph) -> Tuple[Graph, dict]:
    """Return a copy of ``graph`` with vertices relabelled ``0..n-1``.

    The mapping is deterministic (vertices are relabelled in sorted key
    order) so repeated calls produce identical graphs.  Returns the relabelled
    graph and the ``original -> integer`` mapping.
    """
    ordered: List[Vertex] = sorted(
        graph.vertices(), key=lambda v: (type(v).__name__, repr(v))
    )
    mapping = {v: i for i, v in enumerate(ordered)}
    relabelled = Graph(vertices=range(len(ordered)))
    for u, v in graph.edges():
        relabelled.add_edge(mapping[u], mapping[v], exist_ok=True)
    return relabelled, mapping
