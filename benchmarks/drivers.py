"""Load drivers behind the throughput, serving and net gates.

Each driver runs one workload straight through the served classes —
:class:`~repro.session.EgoSession`, :class:`~repro.serving.ServingGateway`,
:class:`~repro.net.EgoServer` and :class:`~repro.net.EgoClient` — checks
every answer before it reports a number, and returns a plain dict.
``benchmarks/bench_throughput.py``, ``bench_serving.py`` and
``bench_net.py`` assert their gates on that dict; ``benchmarks/smoke.py``
writes it out as ``BENCH_*.json``.  Pytest-free, so the smoke script can
import it outside a test run.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import random
import time
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.metrics import percentiles
from repro import faults
from repro.core.csr_kernels import all_ego_betweenness_csr
from repro.net import EgoClient, EgoServer
from repro.serving import ServingGateway
from repro.session import EgoSession

#: ``(tenant id, vertex slice)``; a ``None`` slice asks for the full map.
Request = Tuple[str, Optional[list]]


def _check(answer, request: Optional[list], oracle) -> None:
    expected = oracle if request is None else {v: oracle[v] for v in request}
    if answer != expected:
        raise AssertionError("answer diverged from the serial kernel oracle")


def _run(count: int, seconds: float, latencies: Optional[List[float]] = None):
    run = {"seconds": seconds, "qps": count / seconds, "mean_s": seconds / count}
    return run if latencies is None else {**run, **percentiles(latencies)}


def measure_throughput(
    graph, queries: int = 32, workers: int = 2, executor: str = "process"
) -> Dict[str, Any]:
    """Cold vs warm batched subset queries on the execution runtime.

    *cold* opens one session per query, so each query pays a pool launch
    and a payload ship; *warm* answers the whole batch with one
    :meth:`~repro.session.EgoSession.scores_batch` on one session.  Both
    runs must return the same answers.
    """
    compact = graph.to_compact()
    vertices = graph.vertices()
    rng = random.Random(7)
    per_query = max(1, len(vertices) // queries)
    subsets = [rng.sample(vertices, min(per_query, len(vertices))) for _ in range(queries)]

    cold_answers = []
    cold = {"payload_ships": 0, "pool_launches": 0}
    start = time.perf_counter()
    for subset in subsets:
        with EgoSession(compact) as session:
            session.runtime(executor, max_workers=workers)
            cold_answers.append(
                session.scores_batch([subset], parallel=workers, executor=executor)[0]
            )
            stats = session.runtime_stats()[executor]
            cold["payload_ships"] += stats.payload_ships
            cold["pool_launches"] += stats.pool_launches
    cold_seconds = time.perf_counter() - start

    with EgoSession(compact) as session:
        session.runtime(executor, max_workers=workers)
        start = time.perf_counter()
        warm_answers = session.scores_batch(subsets, parallel=workers, executor=executor)
        warm_seconds = time.perf_counter() - start
        runtime = session.runtime_stats()[executor].as_dict()
    if warm_answers != cold_answers:
        raise AssertionError("warm batched answers diverged from cold per-query answers")
    warm = {key: runtime[key] for key in ("payload_ships", "pool_launches")}
    return {
        "queries": queries,
        "cold": {**_run(queries, cold_seconds), **cold},
        "warm": {**_run(queries, warm_seconds), **warm},
        "speedup_warm_vs_cold": cold_seconds / warm_seconds,
        "runtime": runtime,
    }


def _client_plan(
    tenants, clients: int, requests_per_client: int, subset_every: int
) -> List[List[Request]]:
    """Per-client schedules, round-robin over the tenants: full maps, and a
    random slice of n/clients vertices for every ``subset_every``-th client."""
    rng = random.Random(7)
    names = list(tenants)
    plan = []
    for client in range(clients):
        name = names[client % len(names)]
        labels = tenants[name].labels
        size = min(max(1, len(labels) // clients), len(labels))
        slices = subset_every and client % subset_every == 0
        plan.append([
            (name, rng.sample(labels, size) if slices else None)
            for _ in range(requests_per_client)
        ])
    return plan


def measure_serving(
    graphs: Dict[str, Any],
    *,
    clients: int,
    requests_per_client: int = 1,
    subset_every: int = 4,
    parallel: Optional[int] = 1,
    executor: str = "process",
    window_seconds: float = 0.002,
    task_deadline: Optional[float] = None,
    fault_plan: Optional[faults.FaultPlan] = None,
) -> Dict[str, Any]:
    """Cold per-query sessions vs one warm gateway under concurrent clients.

    *cold* answers the request plan serially with a fresh session per
    request, which is what independent clients cost without a gateway.
    *warm* runs ``clients`` concurrent coroutines against one
    :class:`ServingGateway` whose tenants share one worker pool and payload
    store, after one full-map priming request per tenant.  ``fault_plan``
    is live for the whole warm phase, the priming included; the cold run
    and the oracles stay fault-free.  Every answer is checked against the
    serial kernels.
    """
    tenants = {name: graph.to_compact() for name, graph in graphs.items()}
    oracles = {name: all_ego_betweenness_csr(compact) for name, compact in tenants.items()}
    plan = _client_plan(tenants, clients, requests_per_client, subset_every)
    total = clients * requests_per_client

    cold_latencies = []
    start = time.perf_counter()
    for name, request in itertools.chain.from_iterable(plan):
        begin = time.perf_counter()
        answer = EgoSession(tenants[name]).scores(vertices=request)
        cold_latencies.append(time.perf_counter() - begin)
        _check(answer, request, oracles[name])
    cold_seconds = time.perf_counter() - start

    session_options = {} if task_deadline is None else {"task_deadline": task_deadline}

    async def warm():
        async with ServingGateway(
            window_seconds=window_seconds, parallel=parallel, executor=executor
        ) as gateway:
            for name, compact in tenants.items():
                gateway.add_tenant(name, compact, **session_options)
            for name in tenants:
                _check(await gateway.scores(name), None, oracles[name])
            latencies = []

            async def client(schedule):
                for name, request in schedule:
                    begin = time.perf_counter()
                    answer = await gateway.scores(name, request)
                    latencies.append(time.perf_counter() - begin)
                    _check(answer, request, oracles[name])

            begin = time.perf_counter()
            await asyncio.gather(*(client(schedule) for schedule in plan))
            return time.perf_counter() - begin, latencies, gateway.stats()

    with faults.inject(fault_plan) if fault_plan else contextlib.nullcontext():
        warm_seconds, warm_latencies, stats = asyncio.run(warm())
    payload = {
        "tenants": sorted(tenants),
        "total_requests": total,
        "bit_identical": True,  # _check raised otherwise
        "cold": _run(total, cold_seconds, cold_latencies),
        "warm": _run(total, warm_seconds, warm_latencies),
        "speedup_warm_vs_cold": cold_seconds / warm_seconds,
        "gateway": stats["gateway"],
        "tenant_stats": stats["tenants"],
        "store": stats["store"],
        "pool": stats["pool"],
    }
    if fault_plan:
        payload["faults"] = fault_plan.stats()
    return payload


def _hot_key_plan(tenants) -> List[Request]:
    """200 requests round-robin over the tenants: 75% full maps, the rest
    drawn from 4 fixed random n/8 slices per tenant, so keys repeat."""
    rng = random.Random(7)
    names = list(tenants)
    pools = {}
    for name, compact in tenants.items():
        labels = compact.labels
        size = min(max(1, len(labels) // 8), len(labels))
        pools[name] = [rng.sample(labels, size) for _ in range(4)]
    plan = []
    for index in range(200):
        name = names[index % len(names)]
        hot = rng.random() < 0.75
        plan.append((name, None if hot else rng.choice(pools[name])))
    return plan


async def _closed_loop(scores, plan, oracles, concurrency: int, duration_seconds: float):
    """``concurrency`` workers cycle through ``plan`` back to back."""
    loop = asyncio.get_running_loop()
    stop_at = loop.time() + duration_seconds
    issued = itertools.count()
    completed = 0

    async def worker():
        nonlocal completed
        while loop.time() < stop_at:
            name, request = plan[next(issued) % len(plan)]
            _check(await scores(name, request), request, oracles[name])
            completed += 1

    start = loop.time()
    await asyncio.gather(*(worker() for _ in range(concurrency)))
    return {"completed": completed, **_run(completed, loop.time() - start)}


def measure_net_retention(
    graphs: Dict[str, Any],
    *,
    duration_seconds: float = 1.0,
    concurrency: int = 16,
) -> Dict[str, Any]:
    """Closed-loop qps through the wire as a fraction of in-process qps.

    ``concurrency`` workers cycle through a 200-request mix for
    ``duration_seconds``: first against an in-process gateway with no
    result cache, then through a 4-connection :class:`EgoClient` to an
    :class:`EgoServer` whose gateway keeps a 64-entry hot-key LRU and whose
    server keeps 128 serialised responses.  The wire side is cached and the
    in-process side is not, so the ratio is not like for like.  Every
    answer is checked against the serial kernels.
    """
    tenants = {name: graph.to_compact() for name, graph in graphs.items()}
    oracles = {name: all_ego_betweenness_csr(compact) for name, compact in tenants.items()}
    plan = _hot_key_plan(tenants)

    def gateway_for(cache_size: int) -> ServingGateway:
        gateway = ServingGateway(result_cache_size=cache_size)
        for name, compact in tenants.items():
            gateway.add_tenant(name, compact)
        return gateway

    async def in_process():
        async with gateway_for(0) as gateway:
            for name in tenants:
                _check(await gateway.scores(name), None, oracles[name])
            run = await _closed_loop(
                gateway.scores, plan, oracles, concurrency, duration_seconds
            )
            return {**run, "gateway": gateway.stats()["gateway"]}

    async def wire():
        server = EgoServer(
            gateway_for(64),
            encoded_cache_size=128,
            max_connections=max(64, concurrency + 12),
        )
        async with server, EgoClient(server.host, server.port, pool_size=4) as client:
            for name in tenants:
                _check(await client.scores(name), None, oracles[name])
            run = await _closed_loop(
                client.scores, plan, oracles, concurrency, duration_seconds
            )
            metrics = server.metrics()
        return {**run, "server": metrics["server"], "gateway": metrics["gateway"]}

    backends = {"gateway": asyncio.run(in_process()), "net": asyncio.run(wire())}
    return {
        "bench": "net",
        "unit": "queries per second (closed loop)",
        "tenants": sorted(tenants),
        "concurrency": concurrency,
        "duration_seconds": duration_seconds,
        "result_cache_size": 64,
        "encoded_cache_size": 128,
        "bit_identical": True,  # _check raised otherwise
        "backends": backends,
        "retention_net_vs_gateway": backends["net"]["qps"] / backends["gateway"]["qps"],
    }
