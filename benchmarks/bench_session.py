"""Benchmark: repeated top-k queries through one :class:`EgoSession`.

The session owns the CSR snapshot and its memoised ego summaries, so the
second and every later ``top_k`` call runs at warm-cache (service steady
state) latency, while a cold call pays the conversion and every cache
build.  The ``test_session_warm_speedup`` check asserts the PR acceptance
criterion: at the default bench scale, the session-owned caches make a
repeated ``top_k`` at least 3x faster than the cold path.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import default_k
from repro.graph.csr import CompactGraph
from repro.session import EgoSession


def _cold_session_topk(graph, k):
    # CompactGraph.from_graph bypasses the Graph-level conversion memo, so
    # every call pays conversion, neighbour sets and ego-summary builds.
    session = EgoSession(CompactGraph.from_graph(graph))
    return session.top_k(k)


@pytest.mark.benchmark(group="session-livejournal")
def test_session_topk_cold(benchmark, livejournal_graph):
    """Cold path: fresh snapshot + fresh session per query."""
    k = default_k(livejournal_graph)
    result = benchmark(_cold_session_topk, livejournal_graph, k)
    assert len(result.entries) == k


@pytest.mark.benchmark(group="session-livejournal")
def test_session_topk_warm(benchmark, livejournal_graph):
    """Warm path: one long-lived session serving repeated queries."""
    k = default_k(livejournal_graph)
    session = EgoSession(livejournal_graph)
    session.top_k(k)  # first call builds the caches
    result = benchmark(session.top_k, k)
    assert len(result.entries) == k


def test_session_warm_speedup(livejournal_graph):
    """Acceptance: second-call top_k is >= 3x faster than the cold path."""
    k = default_k(livejournal_graph)
    rounds = 5

    cold = min(
        _timed(lambda: _cold_session_topk(livejournal_graph, k)) for _ in range(rounds)
    )

    session = EgoSession(CompactGraph.from_graph(livejournal_graph))
    session.top_k(k)  # first call — pays the cache builds
    warm = min(_timed(lambda: session.top_k(k)) for _ in range(rounds))

    cold_result = _cold_session_topk(livejournal_graph, k)
    assert session.top_k(k).entries == cold_result.entries  # warm == cold output
    assert cold >= 3.0 * warm, (
        f"warm session top_k not >=3x faster: cold={cold * 1e3:.2f}ms "
        f"warm={warm * 1e3:.2f}ms ({cold / max(warm, 1e-12):.1f}x)"
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
