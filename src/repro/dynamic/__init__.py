"""Dynamic maintenance of ego-betweenness under edge updates (Section IV).

* :class:`~repro.dynamic.local_update.EgoBetweennessIndex` — maintains the
  exact ego-betweenness of *every* vertex across edge insertions and
  deletions using the local update rules of Lemmas 4–7 (LocalInsert /
  LocalDelete).
* :class:`~repro.dynamic.lazy_topk.LazyTopKMaintainer` — maintains only the
  top-k result set, skipping exact recomputations whose outcome cannot change
  the answer (LazyInsert / LazyDelete, Algorithm 6).
* :mod:`repro.dynamic.stream` — update-workload generators and the
  batch-application helpers used by the Fig. 8 experiment, the benchmarks
  and the CLI.

Both maintainers take ``backend={"auto", "compact", "hash"}``: the default
compact backend runs on the mutable CSR overlay
(:class:`~repro.graph.dynamic_csr.DynamicCompactGraph`), which patches a
connector-count histogram per vertex with the Lemma 4–7 closed form;
the hash backend recomputes the Observation-1 affected vertices by
definition.  Both keep values bit-identical to a fresh recomputation.  A
session's index and lazy maintainers share the session's one graph state:
it is mutated once per update and each maintainer reacts.
"""

from repro.dynamic.local_update import EgoBetweennessIndex, affected_vertices
from repro.dynamic.lazy_topk import LazyTopKMaintainer
from repro.dynamic.stream import (
    UpdateEvent,
    apply_stream,
    generate_update_stream,
    invert_stream,
)

__all__ = [
    "EgoBetweennessIndex",
    "affected_vertices",
    "LazyTopKMaintainer",
    "UpdateEvent",
    "apply_stream",
    "generate_update_stream",
    "invert_stream",
]
