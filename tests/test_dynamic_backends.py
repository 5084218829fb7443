"""Parity suite for the dynamic-maintenance backends.

The compact backend (CSR overlay + incremental delta kernels) is only
allowed to be *faster* than the hash oracle: across arbitrary mixed
insert/delete streams the maintained values must be bit-identical, the lazy
maintainer's result sets and top-k entries must coincide exactly, and the
``exact_recomputations`` / ``skipped_recomputations`` counters must agree
event for event.  The suite drives both backends in lock-step over

* mixed streams on several graph families (including delete-then-reinsert
  of the same edge, updates touching isolated and brand-new vertices, and
  string/tuple vertex labels),
* a ≥1,000-event stream (the Exp-3 protocol scale),

plus hypothesis round-trips (apply a stream, apply its inversion, recover
the original graph and values), the overlay's per-version snapshot memo, a
key-for-key check of the overlay's connector-count histograms against a
by-definition enumeration on every route that seeds them (construction,
promotion, recovery), the session's one shared overlay (one patch per
event, no sweep when a maintainer attaches), and an exactness check on a
dataset stand-in: the maintained values equal a fresh recomputation after
every batch.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.csr_kernels import as_dynamic
from repro.core.ego_betweenness import all_ego_betweenness
from repro.datasets.registry import load_dataset
from repro.dynamic.lazy_topk import LazyTopKMaintainer
from repro.dynamic.local_update import EgoBetweennessIndex
from repro.dynamic.stream import (
    UpdateEvent,
    apply_stream,
    generate_update_stream,
    invert_stream,
)
from repro.core.csr_kernels import CSRChunkKernel
from repro.core.topk import top_entries
from repro.errors import EdgeExistsError, EdgeNotFoundError, SelfLoopError
from repro.graph.dynamic_csr import DynamicCompactGraph
from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    overlapping_cliques_graph,
    star_graph,
)
from repro.graph.graph import Graph

from tests.conftest import ego_histogram


def _labelled_graph():
    return Graph(
        edges=[("alpha", "beta"), ("beta", "gamma"), ("alpha", "gamma"),
               ("gamma", "delta"), ("delta", "epsilon"), ("beta", "delta"),
               ((0, "a"), (1, "b")), ((1, "b"), "alpha")],
        vertices=["isolated-1", (9, "iso")],
    )


def _index_pair(graph, **kwargs):
    return (
        EgoBetweennessIndex(graph, backend="hash", **kwargs),
        EgoBetweennessIndex(graph, backend="compact", **kwargs),
    )


def _lazy_pair(graph, k, **kwargs):
    return (
        LazyTopKMaintainer(graph, k, backend="hash", **kwargs),
        LazyTopKMaintainer(graph, k, backend="compact", **kwargs),
    )


def assert_index_parity(hash_index, compact_index):
    """Maintained values must agree bit for bit (== on floats)."""
    assert hash_index.scores() == compact_index.scores()


def assert_lazy_parity(hash_lazy, compact_lazy):
    assert hash_lazy.result_vertices() == compact_lazy.result_vertices()
    assert hash_lazy.top_k().entries == compact_lazy.top_k().entries
    assert hash_lazy.exact_recomputations == compact_lazy.exact_recomputations
    assert hash_lazy.skipped_recomputations == compact_lazy.skipped_recomputations


def drive(event, *targets):
    for target in targets:
        if event.operation == "insert":
            target.insert_edge(event.u, event.v)
        else:
            target.delete_edge(event.u, event.v)


# ----------------------------------------------------------------------
# Mixed streams across graph families
# ----------------------------------------------------------------------
class TestMixedStreamParity:
    @pytest.mark.parametrize(
        "name,graph",
        [
            ("er", erdos_renyi_graph(40, 0.12, seed=0)),
            ("ba", barabasi_albert_graph(60, 3, seed=1)),
            ("cliques", overlapping_cliques_graph(20, (3, 6), overlap=2, seed=2)),
            ("labelled", _labelled_graph()),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lockstep_parity(self, name, graph, seed):
        stream = generate_update_stream(graph, 60, seed=seed + 13)
        hash_index, compact_index = _index_pair(graph)
        hash_lazy, compact_lazy = _lazy_pair(graph, 5)
        assert_index_parity(hash_index, compact_index)
        for event in stream:
            drive(event, hash_index, compact_index, hash_lazy, compact_lazy)
            assert_index_parity(hash_index, compact_index)
            assert_lazy_parity(hash_lazy, compact_lazy)
        # End state also matches a from-scratch recomputation.
        fresh = all_ego_betweenness(hash_index.graph)
        assert compact_index.scores() == fresh

    def test_thousand_event_stream(self):
        """The Exp-3 scale: ≥1,000 mixed events, exact parity throughout."""
        graph = erdos_renyi_graph(60, 0.1, seed=5)
        stream = generate_update_stream(graph, 1000, seed=17)
        assert len(stream) == 1000
        hash_index, compact_index = _index_pair(graph)
        hash_lazy, compact_lazy = _lazy_pair(graph, 8)
        for position, event in enumerate(stream):
            drive(event, hash_index, compact_index, hash_lazy, compact_lazy)
            if position % 100 == 99:
                assert_index_parity(hash_index, compact_index)
                assert_lazy_parity(hash_lazy, compact_lazy)
        assert_index_parity(hash_index, compact_index)
        assert_lazy_parity(hash_lazy, compact_lazy)
        assert compact_lazy.exact_recomputations > 0
        assert compact_lazy.skipped_recomputations > 0


class TestEdgeCases:
    def test_delete_then_reinsert_same_edge(self):
        graph = overlapping_cliques_graph(15, (3, 5), overlap=1, seed=3)
        hash_index, compact_index = _index_pair(graph)
        hash_lazy, compact_lazy = _lazy_pair(graph, 4)
        u, v = next(iter(graph.edges()))
        for _ in range(4):
            drive(UpdateEvent("delete", u, v), hash_index, compact_index, hash_lazy, compact_lazy)
            assert_index_parity(hash_index, compact_index)
            assert_lazy_parity(hash_lazy, compact_lazy)
            drive(UpdateEvent("insert", u, v), hash_index, compact_index, hash_lazy, compact_lazy)
            assert_index_parity(hash_index, compact_index)
            assert_lazy_parity(hash_lazy, compact_lazy)

    def test_updates_touching_isolated_and_new_vertices(self):
        graph = Graph(edges=[(0, 1), (1, 2), (0, 2)], vertices=["iso-a", "iso-b"])
        hash_index, compact_index = _index_pair(graph)
        hash_lazy, compact_lazy = _lazy_pair(graph, 3)
        events = [
            UpdateEvent("insert", "iso-a", 0),
            UpdateEvent("insert", "iso-a", 1),
            UpdateEvent("insert", "brand-new", "iso-b"),
            UpdateEvent("delete", "iso-a", 0),
            UpdateEvent("insert", ("tuple", 1), "brand-new"),
            UpdateEvent("delete", "brand-new", "iso-b"),
            UpdateEvent("insert", "iso-a", 0),
        ]
        for event in events:
            drive(event, hash_index, compact_index, hash_lazy, compact_lazy)
            assert_index_parity(hash_index, compact_index)
            assert_lazy_parity(hash_lazy, compact_lazy)

    def test_error_parity(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        for backend in ("hash", "compact"):
            index = EgoBetweennessIndex(graph, backend=backend)
            with pytest.raises(SelfLoopError):
                index.insert_edge(1, 1)
            with pytest.raises(EdgeExistsError):
                index.insert_edge(0, 1)
            with pytest.raises(EdgeNotFoundError):
                index.delete_edge(0, 2)
            lazy = LazyTopKMaintainer(graph, 2, backend=backend)
            with pytest.raises(SelfLoopError):
                lazy.insert_edge(2, 2)
            with pytest.raises(EdgeExistsError):
                lazy.insert_edge(1, 0)
            with pytest.raises(EdgeNotFoundError):
                lazy.delete_edge(1, "missing")

    def test_caller_graph_never_mutated(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        index = EgoBetweennessIndex(graph, backend="compact")
        lazy = LazyTopKMaintainer(graph, 2, backend="compact")
        index.insert_edge(0, 2)
        lazy.insert_edge(0, 2)
        assert not graph.has_edge(0, 2)

    def test_precomputed_values_match_fresh_construction(self):
        graph = barabasi_albert_graph(50, 3, seed=9)
        values = all_ego_betweenness(graph)
        stream = generate_update_stream(graph, 40, seed=21)
        seeded_h = EgoBetweennessIndex(graph, backend="hash", values=values)
        seeded_c = EgoBetweennessIndex(graph, backend="compact", values=values)
        fresh_c = EgoBetweennessIndex(graph, backend="compact")
        lazy_seeded_h = LazyTopKMaintainer(graph, 5, backend="hash", values=values)
        lazy_seeded_c = LazyTopKMaintainer(graph, 5, backend="compact", values=values)
        lazy_fresh_c = LazyTopKMaintainer(graph, 5, backend="compact")
        for event in stream:
            drive(event, seeded_h, seeded_c, fresh_c, lazy_seeded_h, lazy_seeded_c, lazy_fresh_c)
        assert seeded_h.scores() == seeded_c.scores() == fresh_c.scores()
        assert lazy_seeded_h.top_k().entries == lazy_seeded_c.top_k().entries
        assert lazy_seeded_c.top_k().entries == lazy_fresh_c.top_k().entries
        assert lazy_seeded_h.exact_recomputations == lazy_seeded_c.exact_recomputations


# ----------------------------------------------------------------------
# Snapshot memo
# ----------------------------------------------------------------------
class TestSnapshotMemo:
    def test_snapshot_is_memoised_per_version(self):
        graph = barabasi_albert_graph(30, 2, seed=6)
        base = graph.to_compact()
        dyn = DynamicCompactGraph(base)
        # Version 0: the construction snapshot, for free.
        assert dyn.version == 0
        assert dyn.snapshot() is base
        assert dyn.compactions == 0
        ids_before = {label: dyn.id_of(label) for label in dyn.labels}
        u, v = next(
            (a, b) for a in graph.vertices() for b in graph.vertices()
            if a != b and not graph.has_edge(a, b)
        )
        dyn.insert_edge(u, v)
        expected = graph.copy()
        expected.add_edge(u, v)
        # A mutation: one fresh compaction, then the same object until the
        # next one.
        fresh = dyn.snapshot()
        assert fresh is not base
        assert dyn.snapshot() is fresh
        assert dyn.compactions == 1
        assert fresh.num_edges == base.num_edges + 1
        assert fresh.to_graph() == expected
        # Compacting changes neither the ids nor the graph.
        assert {label: dyn.id_of(label) for label in dyn.labels} == ids_before
        assert {label: fresh.id_of(label) for label in fresh.labels} == ids_before
        assert dyn.to_graph() == expected

    def test_session_counts_its_overlay_compactions(self):
        from repro.session import EgoSession

        with EgoSession(Graph(edges=[(0, 1), (1, 2)])) as session:
            session.apply(("insert", 0, 2))
            snapshot = session.snapshot()
            assert session.snapshot() is snapshot is session._dyn.snapshot()
            assert session.stats().overlay_rebuilds == 1
            session.apply(("delete", 0, 1))
            assert session.snapshot().num_edges == 2
            assert session.stats().overlay_rebuilds == 2


# ----------------------------------------------------------------------
# Exact integer state
# ----------------------------------------------------------------------
def assert_histograms_are_the_oracle(dyn: DynamicCompactGraph) -> None:
    """Every id of ``dyn`` holds its ego's connector-count histogram."""
    graph = dyn.to_graph()
    assert len(dyn._hists) == dyn.num_vertices
    for pid, label in enumerate(dyn.labels):
        assert dyn._hists[pid] == ego_histogram(graph, label), label


def _mixed_stream(graph, count, seed):
    """A stream that also inserts edges to vertices it creates."""
    stream = generate_update_stream(graph, count, seed=seed)
    anchor = next(iter(graph.vertices()))
    return stream + [
        UpdateEvent("insert", "new-1", "new-2"),
        UpdateEvent("insert", "new-1", anchor),
        UpdateEvent("insert", "new-2", anchor),
    ]


class TestHistogramState:
    """The overlay's exact state against the test-side oracle, on every
    route that seeds it."""

    def test_patched_histograms_equal_the_oracle(self):
        graph = overlapping_cliques_graph(18, (3, 6), overlap=2, seed=7)
        dyn = as_dynamic(graph)
        assert_histograms_are_the_oracle(dyn)
        apply_stream(dyn, _mixed_stream(graph, 80, seed=19))
        assert_histograms_are_the_oracle(dyn)

    def test_a_created_vertex_starts_empty(self):
        dyn = as_dynamic(erdos_renyi_graph(20, 0.3, seed=2))
        vid = dyn.add_vertex("fresh")
        assert dyn._hists[vid] == {}
        dyn.insert_edge("new-a", "new-b")
        assert dyn._hists[dyn.id_of("new-a")] == dyn._hists[dyn.id_of("new-b")] == {}
        assert_histograms_are_the_oracle(dyn)

    @pytest.mark.parametrize("read", ["memo", "none", "parallel"])
    def test_promotion_seeds_every_histogram(self, read):
        from repro.session import EgoSession

        graph = barabasi_albert_graph(50, 3, seed=4)
        with EgoSession(graph) as session:
            if read == "memo":
                session.scores()
            elif read == "parallel":
                session.scores(parallel=2)
            session.promote()
            assert_histograms_are_the_oracle(session._dyn)
            session.apply(_mixed_stream(graph, 30, seed=5))
            assert_histograms_are_the_oracle(session._dyn)
            assert session.scores() == all_ego_betweenness(session.to_graph())
            session.maintained_top_k(3)
            assert session._lazy[3]._dyn is session._dyn

    def test_recovery_replays_the_tail_onto_seeded_histograms(self, tmp_path):
        from repro.session import EgoSession

        graph = barabasi_albert_graph(40, 3, seed=6)
        stream = _mixed_stream(graph, 25, seed=7)
        with EgoSession(graph, durability=tmp_path / "wal") as session:
            session.scores()
            session.apply(stream)
        recovered = EgoSession.recover(tmp_path / "wal", resume=False)
        assert recovered.recovery_report.replayed_events == len(stream)
        assert recovered.state == "dynamic"
        assert_histograms_are_the_oracle(recovered._dyn)
        assert recovered.scores() == all_ego_betweenness(recovered.to_graph())

    def test_histograms_stay_exact_across_batches(self):
        from repro.session import EgoSession

        graph = barabasi_albert_graph(40, 3, seed=8)
        with EgoSession(graph) as session:
            session.apply(_mixed_stream(graph, 20, seed=9))
            assert_histograms_are_the_oracle(session._dyn)
            session.apply(generate_update_stream(session.to_graph(), 20, seed=10))
            assert_histograms_are_the_oracle(session._dyn)


class TestExactMaintenance:
    @pytest.mark.parametrize("backend", ["compact", "hash"])
    def test_maintained_scores_equal_fresh_recomputation(self, backend):
        """Every batch leaves the served values equal (==) to a recomputation."""
        from repro.session import EgoSession

        graph = load_dataset("dblp", scale=0.2)
        stream = generate_update_stream(graph, 200, seed=3)
        session = EgoSession(graph, backend=backend)
        session.scores()  # promotion reuses these values
        for start in range(0, len(stream), 20):
            session.apply(stream[start : start + 20])
            assert session.scores() == all_ego_betweenness(session.to_graph())


class TestSingleOverlay:
    """A session holds one dynamic state whatever maintainers are attached:
    the index and every lazy maintainer adopt it, one patch serves each
    event, and attaching a maintainer sweeps nothing."""

    KS = (1, 5, 12)

    @pytest.mark.parametrize("with_index", [True, False])
    @pytest.mark.parametrize("backend", ["compact", "hash"])
    def test_index_and_maintainers_share_one_state(self, backend, with_index, monkeypatch):
        from repro.session import EgoSession

        patched, swept = [], []
        raw_patch = DynamicCompactGraph._patch_histograms
        raw_sweep = CSRChunkKernel.histogram_chunk

        def counted_patch(self, *args, **kwargs):
            patched.append(self)
            return raw_patch(self, *args, **kwargs)

        def counted_sweep(self, ids):
            swept.append(ids)
            return raw_sweep(self, ids)

        monkeypatch.setattr(DynamicCompactGraph, "_patch_histograms", counted_patch)
        monkeypatch.setattr(CSRChunkKernel, "histogram_chunk", counted_sweep)

        graph = barabasi_albert_graph(80, 3, seed=12)
        stream = _mixed_stream(graph, 120, seed=13)
        values = all_ego_betweenness(graph)
        standalone = {
            k: LazyTopKMaintainer(graph, k, backend=backend, values=values) for k in self.KS
        }
        with EgoSession(graph, backend=backend) as session:
            if with_index:
                session.scores()
            session.promote()
            swept.clear()
            for k in self.KS:
                session.maintained_top_k(k)
            assert swept == []
            state = session._dyn if backend == "compact" else session._hash
            assert (session._index is not None) is with_index
            if with_index:
                assert session._index._state is state
            for k in self.KS:
                assert session._lazy[k]._state is state
            for start in range(0, len(stream), 10):
                batch = stream[start : start + 10]
                for event in batch:
                    drive(event, *standalone.values())
                before = len(patched)
                session.apply(batch)
                if backend == "compact":
                    assert patched[before:] == [state] * len(batch)
                truth = all_ego_betweenness(session.to_graph())
                if with_index:
                    assert session._index.values == truth
                for k, alone in standalone.items():
                    assert session.maintained_top_k(k).entries == top_entries(truth, k)
                    assert session.lazy_counters(k) == {
                        "exact_recomputations": alone.exact_recomputations,
                        "skipped_recomputations": alone.skipped_recomputations,
                    }
            assert (session._index is not None) is with_index
            assert session.scores() == truth


# ----------------------------------------------------------------------
# Hypothesis: random streams and round trips
# ----------------------------------------------------------------------
class TestHypothesisRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=10_000),
        stream_seed=st.integers(min_value=0, max_value=10_000),
        insert_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_apply_then_undo_recovers_values(self, graph_seed, stream_seed, insert_fraction):
        graph = erdos_renyi_graph(25, 0.15, seed=graph_seed)
        stream = generate_update_stream(
            graph, 30, seed=stream_seed, insert_fraction=insert_fraction
        )
        hash_index, compact_index = _index_pair(graph)
        original = compact_index.scores()
        apply_stream(hash_index, stream)
        apply_stream(compact_index, stream)
        assert_index_parity(hash_index, compact_index)
        undo = invert_stream(stream)
        apply_stream(hash_index, undo)
        apply_stream(compact_index, undo)
        assert_index_parity(hash_index, compact_index)
        assert compact_index.graph == graph
        assert compact_index.scores() == original

    @settings(max_examples=20, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=10_000),
        stream_seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=8),
    )
    def test_lazy_parity_on_random_streams(self, graph_seed, stream_seed, k):
        graph = erdos_renyi_graph(25, 0.15, seed=graph_seed)
        stream = generate_update_stream(graph, 25, seed=stream_seed)
        hash_lazy, compact_lazy = _lazy_pair(graph, k)
        for event in stream:
            drive(event, hash_lazy, compact_lazy)
            assert_lazy_parity(hash_lazy, compact_lazy)
        # The maintained set equals the true top-k of the final graph.
        truth = sorted(all_ego_betweenness(compact_lazy.graph).values(), reverse=True)
        got = [score for _, score in compact_lazy.top_k().entries]
        assert got == truth[: len(got)]


# ----------------------------------------------------------------------
# Stream helpers
# ----------------------------------------------------------------------
class TestStreamHelpers:
    def test_apply_stream_on_plain_graph(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        count = apply_stream(
            graph, [UpdateEvent("insert", 0, 2), UpdateEvent("delete", 0, 1)]
        )
        assert count == 2
        assert graph.has_edge(0, 2) and not graph.has_edge(0, 1)

    def test_apply_stream_on_overlay(self):
        graph = star_graph(5)
        dyn = DynamicCompactGraph.from_graph(graph)
        apply_stream(dyn, [UpdateEvent("delete", 0, 1), UpdateEvent("insert", 1, 2)])
        assert not dyn.has_edge(0, 1) and dyn.has_edge(1, 2)

    def test_invert_stream_is_involutive(self):
        events = [UpdateEvent("insert", 0, 2), UpdateEvent("delete", 0, 1)]
        assert invert_stream(invert_stream(events)) == events
