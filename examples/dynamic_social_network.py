"""Scenario: tracking influential users in an evolving social network.

The paper's Section IV motivates maintenance algorithms with frequently
updated real-world networks.  This example simulates a growing social
network on a single :class:`repro.EgoSession`: the session starts static
(a frozen CSR snapshot serving fast top-k queries), **promotes itself to
the dynamic state on the first friendship update** — reusing the values it
already computed instead of starting over — and then serves two consumers
from one maintained state:

* an analytics job that needs *every* user's score after each change
  (``session.scores()``, backed by LocalInsert / LocalDelete), and
* a dashboard that only shows the current top-10 "bridge" users
  (``session.maintained_top_k(10)``, backed by LazyInsert /
  LazyDelete, which skips most of the recomputation work).

Run with::

    python examples/dynamic_social_network.py
"""

from __future__ import annotations

from repro import EgoSession
from repro.analysis.reporting import format_table
from repro.dynamic.stream import generate_update_stream


def main() -> None:
    session = EgoSession.from_dataset("youtube", scale=0.25)
    print(f"Initial network: n={session.num_vertices}, m={session.num_edges}")

    # Static phase: warm the all-vertex values (the analytics baseline).
    session.scores()
    print(f"session state after warm-up: {session.stats().state}")

    stream = generate_update_stream(
        session.to_graph(), count=120, seed=2024, insert_fraction=0.6
    )
    inserts = sum(1 for event in stream if event.operation == "insert")
    print(f"Replaying {len(stream)} updates ({inserts} insertions, {len(stream) - inserts} deletions)")

    # The first update promotes the session static -> dynamic, reusing the
    # values it already computed instead of starting over.
    session.apply(stream[0])
    stats = session.stats()
    print(f"after the first update: state={stats.state} "
          f"(values reused on promotion: {stats.values_reused_on_promotion})\n")

    # Attach the lazy top-10 dashboard, then stream the remaining updates.
    session.maintained_top_k(10)
    session.apply(stream[1:])

    # The dashboard's lazily maintained answer matches the exhaustive index.
    exact = session.scores()
    rows = []
    for rank, (vertex, score) in enumerate(session.maintained_top_k(10).entries, start=1):
        rows.append(
            {
                "rank": rank,
                "user": vertex,
                "ego_betweenness": round(score, 3),
                "index_agrees": exact[vertex] == score,
            }
        )
    print(format_table(rows, title="Top-10 bridge users after all updates"))

    counters = session.lazy_counters(10)
    stats = session.stats()
    print(
        "\nWork comparison over the update stream:\n"
        f"  lazy dashboard recomputed {counters['exact_recomputations']} vertices exactly "
        f"and skipped {counters['skipped_recomputations']};\n"
        f"  the full index patched every affected vertex on every update.\n"
        f"session stats: {stats.update_events} updates, state={stats.state}, "
        f"one shared overlay, snapshots compacted={stats.overlay_rebuilds}"
    )


if __name__ == "__main__":
    main()
