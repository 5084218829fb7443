"""Benchmark ``fig6``: BaseBSearch vs OptBSearch runtime varying k (paper Fig. 6).

Each hash-set search is paired with its CSR-backend variant running on a
pre-converted :class:`CompactGraph` shared via the session fixture.  The
warm CSR numbers measure the *steady state of a query service*: conversion,
neighbour sets and — dominating after the first round — the memoised
per-vertex ego summaries are all amortised across rounds (and across the
tests sharing the fixture), so most measured rounds are cache-hit latency
rather than fresh wedge enumeration.  The ``cold`` variant is the honest
single-shot comparison: it pays conversion and every cache build inside the
measured call.  All variants return identical entries and statistics — the
parity suite (``tests/test_csr_backend.py``) enforces it.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import default_k, save_report
from repro.core.base_search import base_b_search
from repro.core.csr_kernels import base_b_search_csr, opt_b_search_csr
from repro.core.opt_search import opt_b_search
from repro.experiments import exp_fig6


@pytest.mark.benchmark(group="fig6-livejournal")
def test_fig6_base_b_search(benchmark, livejournal_graph):
    """One BaseBSearch run at the default k on the largest stand-in."""
    k = default_k(livejournal_graph)
    result = benchmark(base_b_search, livejournal_graph, k)
    assert len(result.entries) == k


@pytest.mark.benchmark(group="fig6-livejournal")
def test_fig6_base_b_search_csr(benchmark, livejournal_compact):
    """BaseBSearch on the compact CSR backend (same result, faster)."""
    k = default_k(livejournal_compact)
    result = benchmark(base_b_search_csr, livejournal_compact, k)
    assert len(result.entries) == k


@pytest.mark.benchmark(group="fig6-livejournal")
def test_fig6_opt_b_search(benchmark, livejournal_graph):
    """One OptBSearch run at the default k on the largest stand-in."""
    k = default_k(livejournal_graph)
    result = benchmark(opt_b_search, livejournal_graph, k)
    assert len(result.entries) == k


@pytest.mark.benchmark(group="fig6-livejournal")
def test_fig6_opt_b_search_csr(benchmark, livejournal_compact):
    """OptBSearch on the compact CSR backend (same result, faster)."""
    k = default_k(livejournal_compact)
    result = benchmark(opt_b_search_csr, livejournal_compact, k)
    assert len(result.entries) == k


@pytest.mark.benchmark(group="fig6-livejournal-cold")
def test_fig6_opt_b_search_csr_cold(benchmark, livejournal_graph):
    """OptBSearch on a cold CSR backend: conversion + caches + search.

    The honest single-shot comparison point against the hash variant — all
    one-time CompactGraph costs are paid inside the measured call
    (``CompactGraph.from_graph`` bypasses the memoised ``Graph.to_compact``).
    """
    from repro.graph.csr import CompactGraph

    k = default_k(livejournal_graph)
    result = benchmark(
        lambda: opt_b_search_csr(CompactGraph.from_graph(livejournal_graph), k)
    )
    assert len(result.entries) == k


def test_fig6_full_sweep(benchmark, scale, results_dir):
    """The full per-dataset k sweep behind the five panels of Fig. 6."""
    result = benchmark.pedantic(exp_fig6.run, kwargs={"scale": scale}, rounds=1, iterations=1)
    save_report(results_dir, "fig6", result.render())
    assert len(result.series) == 5
