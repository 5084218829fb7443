"""Benchmark ``serving``: the multi-tenant async gateway acceptance gate.

The ISSUE-5 criterion: 64 concurrent async clients over 2 tenant graphs on
one shared worker pool — the warm gateway must beat the serial per-query
baseline (one fresh session per request, the pre-gateway serving model) by
>= 3x in qps, ship exactly one payload per distinct ``(graph_id, version)``
pair, and return answers bit-identical to the serial kernels (the driver,
``benchmarks/drivers.py``, verifies every single answer against the oracle
before reporting a number).

Plain pytest — no pytest-benchmark/pytest-asyncio fixtures — so the
dedicated CI serving job can run it with only ``pytest`` installed::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -q
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import save_report
from benchmarks.drivers import measure_serving
from benchmarks.metrics import bench_json

CLIENTS = 64


@pytest.mark.parallel
@pytest.mark.serving
def test_serving_gateway_acceptance(livejournal_graph, dblp_graph, results_dir):
    """64 async clients, 2 tenants, 1 shared pool: >= 3x the serial baseline."""
    payload = measure_serving(
        {"livejournal": livejournal_graph, "dblp": dblp_graph},
        clients=CLIENTS,
        parallel=1,
        executor="process",
    )
    save_report(results_dir, "serving", bench_json(payload))

    # Every cold and warm answer was checked against the serial kernel
    # oracle inside the driver.
    assert payload["bit_identical"]
    # One payload ship per distinct (graph_id, version) pair, one fork for
    # the whole tenant fleet.
    assert payload["store"]["ships"] == 2
    assert sorted(payload["store"]["by_key"]) == ["dblp@v0", "livejournal@v0"]
    assert payload["pool"]["launches"] == 1
    # Micro-batching actually coalesced: far fewer batches than requests.
    assert payload["gateway"]["batches"] < payload["total_requests"] / 2
    # The acceptance headline: warm gateway qps >= 3x serial per-query qps.
    assert payload["speedup_warm_vs_cold"] >= 3.0, payload


@pytest.mark.parallel
@pytest.mark.serving
@pytest.mark.chaos
def test_serving_gateway_chaos_acceptance(livejournal_graph, dblp_graph, results_dir):
    """Chaos gate: faults mid-serving, bit-identical answers, >= 50% qps.

    The same subset-heavy workload (every request slices, so every batch
    hits the worker pool) runs twice — fault-free, then under a plan that
    kills workers mid-batch and tears one payload ship.  The recovered
    gateway must answer every client bit-identically, leak no shared-memory
    segment, and sustain at least half the fault-free warm throughput.
    """
    from repro import faults
    from repro.parallel import runtime as runtime_module

    graphs = {"livejournal": livejournal_graph, "dblp": dblp_graph}
    workload = dict(
        clients=16,
        requests_per_client=2,
        subset_every=1,
        parallel=2,
        executor="process",
        task_deadline=5.0,
    )
    baseline = measure_serving(graphs, **workload)
    plan = faults.FaultPlan(kill_every=8, corrupt_ships=1)
    chaotic = measure_serving(graphs, **workload, fault_plan=plan)
    save_report(
        results_dir,
        "serving_chaos",
        bench_json({"fault_free": baseline, "chaos": chaotic}),
    )

    # Bit-identity held through worker kills and the torn payload ship.
    assert baseline["bit_identical"] and chaotic["bit_identical"]
    # The plan actually fired.
    assert chaotic["faults"]["kills"] >= 1
    assert chaotic["faults"]["corruptions"] == 1
    recovered = chaotic["tenant_stats"]
    assert sum(t["worker_deaths"] for t in recovered.values()) >= 1
    # No shared-memory segment survived either run.
    assert runtime_module._LIVE_SEGMENTS == {}
    # The recovered gateway keeps at least half the fault-free throughput.
    retention = chaotic["warm"]["qps"] / baseline["warm"]["qps"]
    assert retention >= 0.5, (retention, chaotic["warm"], baseline["warm"])


@pytest.mark.serving
def test_serving_gateway_serial_executor_smoke(dblp_graph):
    """The serial executor follows the same accounting (no pool fork)."""
    payload = measure_serving(
        {"dblp": dblp_graph},
        clients=8,
        parallel=1,
        executor="serial",
        window_seconds=0.005,
    )
    assert payload["bit_identical"]
    assert payload["store"]["ships"] == 1
    assert payload["pool"]["launches"] == 0
