"""Benchmark ``throughput``: batched queries on the persistent runtime.

The serving-layer headline of the execution-runtime refactor, and the
acceptance gate of the refactor PR: a warm :class:`ExecutionRuntime`
answering a batch of 32 queries must beat 32 independent cold parallel
calls (fresh pool + fresh graph ship per call) by >= 3x at the default
bench scale, with the graph payload shipped to the workers exactly once
per graph version.

Plain pytest — no pytest-benchmark fixtures — so the dedicated CI job can
run it with only ``pytest`` installed::

    PYTHONPATH=src python -m pytest benchmarks/bench_throughput.py -q
"""

from __future__ import annotations

import json

import pytest

from benchmarks.conftest import save_report
from benchmarks.drivers import measure_throughput
from repro.session import EgoSession

QUERIES = 32
WORKERS = 2


@pytest.mark.parallel
def test_throughput_warm_batch_vs_cold_calls(livejournal_graph, results_dir):
    """The ISSUE-4 acceptance criterion, asserted via RuntimeStats."""
    payload = measure_throughput(
        livejournal_graph, queries=QUERIES, workers=WORKERS, executor="process"
    )
    save_report(results_dir, "throughput", json.dumps(payload, indent=2, sort_keys=True))

    # Graph payload shipped to the workers exactly once per graph version,
    # on one long-lived pool, for the whole warm batch ...
    assert payload["warm"]["payload_ships"] == 1
    assert payload["warm"]["pool_launches"] == 1
    assert payload["runtime"]["payload_ships"] == 1
    # ... while every cold call paid both.
    assert payload["cold"]["payload_ships"] == QUERIES
    assert payload["cold"]["pool_launches"] == QUERIES

    # >= 3x batched throughput over independent cold parallel calls.
    assert payload["speedup_warm_vs_cold"] >= 3.0, payload


@pytest.mark.parallel
def test_throughput_topk_batch_reuses_one_computation(livejournal_graph):
    """32 warm top-k queries share one runtime pass + the session memo."""
    serial_entries = EgoSession(livejournal_graph).top_k(16, algorithm="naive").entries
    with EgoSession(livejournal_graph) as session:
        results = [
            session.top_k(16, parallel=WORKERS, executor="process")
            for _ in range(QUERIES)
        ]
        stats = session.runtime_stats()["process"]
        # the first query computes through the runtime, the rest are served
        # from the memoised values map
        assert stats.payload_ships == 1
        assert stats.batches == 1
    for result in results:
        assert result.entries == serial_entries


def test_throughput_serial_executor_smoke(livejournal_graph):
    """The serial executor follows the same accounting (no pool, one ship)."""
    payload = measure_throughput(
        livejournal_graph, queries=8, workers=2, executor="serial"
    )
    assert payload["warm"]["payload_ships"] == 1
    assert payload["warm"]["pool_launches"] == 0
