"""Benchmark smoke runs: tiny-scale perf numbers written as JSON artifacts.

Runs the headline hot paths at a small, CI-friendly scale and writes
``BENCH_fig8.json`` (dynamic maintenance: mean/median per-update latency of
the local index and the lazy maintainer, per backend), ``BENCH_fig6.json``
(top-k search: mean/median per-query latency of OptBSearch per backend),
``BENCH_session.json`` (cold vs warm session queries),
``BENCH_throughput.json`` (batched queries/sec on a cold vs warm execution
runtime, plus the runtime's ship/pool accounting) and ``BENCH_serving.json``
(qps and p50/p95 latency of the async multi-tenant gateway under concurrent
clients, cold per-query baseline vs warm gateway) and ``BENCH_chaos.json``
(warm gateway qps/p95 with faults injected — one worker killed per N tasks
plus one torn payload ship — next to the fault-free run, so CI records how
much throughput the supervision layer retains) and ``BENCH_durability.json``
(per-update apply latency with the write-ahead log off/interval/always plus
the recovery replay rate — the durability tax and how fast a crash heals)
and ``BENCH_net.json`` (closed-loop net retention: the fraction of
in-process gateway throughput a real loopback socket through the network
front door retains)
and ``BENCH_kernels.json`` (per-dataset speedup of the vectorized numpy
kernel tier over the python wedge kernels, bit-identity-checked against the
hash-graph oracle; ``numpy_available: false`` with python timings when the
``[fast]`` extra is absent)
so every CI run records the perf trajectory of the repository.  Pure standard library
(numpy optional — the kernels bench degrades gracefully) — runnable as::

    PYTHONPATH=src python benchmarks/smoke.py --scale 0.1 --out bench-artifacts

The throughput, serving, chaos and net numbers come from the same drivers
the gate files assert on (:mod:`benchmarks.drivers`).  Artifact writing and
the per-bench console line go through :mod:`benchmarks.metrics` — the
canonical bench-JSON shape is validated before anything is written.

The numbers are smoke-level (single process, few repetitions): they catch
order-of-magnitude regressions and backend inversions, not percent-level
drift.
"""

from __future__ import annotations

import argparse
import platform
import statistics
import sys
import time
from pathlib import Path

# Run as a script, only benchmarks/ itself is on sys.path; the drivers and
# the gate files import their siblings as ``benchmarks.<module>``.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def _time_repeats(fn, repeats: int) -> dict:
    """Run ``fn`` ``repeats`` times; return mean/median seconds per run."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {
        "mean_s": statistics.fmean(samples),
        "median_s": statistics.median(samples),
        "rounds": repeats,
    }


def bench_fig8(scale: float, updates: int, seed: int) -> dict:
    """Per-update latency of the dynamic maintainers on the DBLP stand-in."""
    from repro.datasets.registry import load_dataset
    from repro.dynamic.lazy_topk import LazyTopKMaintainer
    from repro.dynamic.local_update import EgoBetweennessIndex
    from repro.dynamic.stream import apply_stream, generate_update_stream
    from repro.experiments.common import scaled_k_values

    graph = load_dataset("dblp", scale=scale)
    stream = generate_update_stream(graph, updates, seed=seed)
    k = scaled_k_values(graph.num_vertices, (500,))[0]
    backends = {}
    for backend in ("compact", "hash"):
        per_update = {}
        samples = []
        for algorithm, factory in (
            ("local", lambda: EgoBetweennessIndex(graph, backend=backend)),
            ("lazy", lambda: LazyTopKMaintainer(graph, k, backend=backend)),
        ):
            target = factory()
            start = time.perf_counter()
            applied = apply_stream(target, stream)
            elapsed = time.perf_counter() - start
            per_update[f"{algorithm}_mean_s"] = elapsed / max(applied, 1)
            samples.append(elapsed / max(applied, 1))
        per_update["mean_s"] = statistics.fmean(samples)
        per_update["median_s"] = statistics.median(samples)
        backends[backend] = per_update
    return {
        "bench": "fig8",
        "unit": "seconds per update",
        "dataset": "dblp",
        "scale": scale,
        "updates": updates,
        "k": k,
        "backends": backends,
        "speedup_compact_vs_hash": backends["hash"]["mean_s"] / backends["compact"]["mean_s"],
    }


def bench_fig6(scale: float, k: int, repeats: int) -> dict:
    """Per-query latency of OptBSearch on the LiveJournal stand-in."""
    from repro.core.csr_kernels import opt_b_search_csr
    from repro.core.opt_search import opt_b_search
    from repro.datasets.registry import load_dataset
    from repro.graph.csr import CompactGraph

    graph = load_dataset("livejournal", scale=scale)
    compact = graph.to_compact()
    backends = {
        "hash": _time_repeats(lambda: opt_b_search(graph, k), repeats),
        # Warm CSR: snapshot conversion and memoised ego summaries amortised
        # across queries — the steady state of a top-k service.
        "compact": _time_repeats(lambda: opt_b_search_csr(compact, k), repeats),
        # Graph.to_compact() is memoised, so a genuinely cold run must build
        # the snapshot explicitly.
        "compact_cold": _time_repeats(
            lambda: opt_b_search_csr(CompactGraph.from_graph(graph), k), repeats
        ),
    }
    return {
        "bench": "fig6",
        "unit": "seconds per query",
        "dataset": "livejournal",
        "scale": scale,
        "k": k,
        "backends": {
            name: {"mean_s": r["mean_s"], "median_s": r["median_s"], "rounds": r["rounds"]}
            for name, r in backends.items()
        },
        "speedup_compact_vs_hash": backends["hash"]["mean_s"] / backends["compact"]["mean_s"],
    }


def bench_session(scale: float, k: int, repeats: int) -> dict:
    """Cold vs warm top-k latency through one EgoSession (repeated queries)."""
    from repro.datasets.registry import load_dataset
    from repro.graph.csr import CompactGraph
    from repro.session import EgoSession

    graph = load_dataset("livejournal", scale=scale)
    cold = _time_repeats(
        lambda: EgoSession(CompactGraph.from_graph(graph)).top_k(k), repeats
    )
    session = EgoSession(CompactGraph.from_graph(graph))
    session.top_k(k)  # first call builds the caches
    warm = _time_repeats(lambda: session.top_k(k), repeats)
    return {
        "bench": "session",
        "unit": "seconds per query",
        "dataset": "livejournal",
        "scale": scale,
        "k": k,
        "backends": {"cold": cold, "warm": warm},
        "speedup_warm_vs_cold": cold["mean_s"] / warm["mean_s"],
    }


def bench_throughput(scale: float, queries: int, workers: int) -> dict:
    """Batched queries/sec: cold (pool+ship per query) vs warm runtime."""
    from benchmarks.drivers import measure_throughput
    from repro.datasets.registry import load_dataset

    graph = load_dataset("livejournal", scale=scale)
    result = measure_throughput(
        graph, queries=queries, workers=workers, executor="process"
    )
    return {
        "bench": "throughput",
        "unit": "seconds per query",
        "dataset": "livejournal",
        "scale": scale,
        "queries": queries,
        "workers": workers,
        "executor": "process",
        "backends": {
            "cold_runtime": {
                "mean_s": result["cold"]["seconds"] / queries,
                "qps": result["cold"]["qps"],
                "payload_ships": result["cold"]["payload_ships"],
                "pool_launches": result["cold"]["pool_launches"],
            },
            "warm_runtime": {
                "mean_s": result["warm"]["seconds"] / queries,
                "qps": result["warm"]["qps"],
                "payload_ships": result["warm"]["payload_ships"],
                "pool_launches": result["warm"]["pool_launches"],
            },
        },
        "runtime": result["runtime"],
        "speedup_warm_vs_cold": result["speedup_warm_vs_cold"],
    }


def bench_serving(scale: float, clients: int, workers: int) -> dict:
    """Concurrent async clients on the gateway: cold baseline vs warm.

    Two tenants (the DBLP and LiveJournal stand-ins) share one worker pool
    and one payload store; the cold baseline answers the same request plan
    with one fresh session per query (the pre-gateway serving model).
    """
    from benchmarks.drivers import measure_serving
    from repro.datasets.registry import load_dataset

    result = measure_serving(
        {
            "dblp": load_dataset("dblp", scale=scale),
            "livejournal": load_dataset("livejournal", scale=scale),
        },
        clients=clients,
        parallel=workers,
        executor="process",
    )
    return {
        "bench": "serving",
        "unit": "seconds per request",
        "datasets": result["tenants"],
        "scale": scale,
        "clients": clients,
        "workers": workers,
        "executor": "process",
        "backends": {
            "cold_per_query": {
                "mean_s": result["cold"]["mean_s"],
                "qps": result["cold"]["qps"],
                "p50_ms": result["cold"]["p50_ms"],
                "p95_ms": result["cold"]["p95_ms"],
            },
            "warm_gateway": {
                "mean_s": result["warm"]["mean_s"],
                "qps": result["warm"]["qps"],
                "p50_ms": result["warm"]["p50_ms"],
                "p95_ms": result["warm"]["p95_ms"],
            },
        },
        "gateway": result["gateway"],
        "store": result["store"],
        "pool": result["pool"],
        "bit_identical": result["bit_identical"],
        "speedup_warm_vs_cold": result["speedup_warm_vs_cold"],
    }


def bench_chaos(scale: float, clients: int, workers: int, kill_every: int = 100) -> dict:
    """Warm gateway throughput under fault injection vs fault-free.

    The same subset-heavy workload (every request slices, so every warm
    batch rides the worker pool) runs twice: once clean, once under a plan
    that kills one worker process per ``kill_every`` tasks and tears the
    first payload ship's integrity header.  The interesting numbers are the
    throughput retention (chaos qps / fault-free qps — the acceptance gate
    holds it at >= 0.5) and the recovery counters (deaths, respawns,
    retries) that explain where the lost time went.
    """
    from benchmarks.drivers import measure_serving
    from repro import faults
    from repro.datasets.registry import load_dataset

    graphs = {
        "dblp": load_dataset("dblp", scale=scale),
        "livejournal": load_dataset("livejournal", scale=scale),
    }
    workload = dict(
        clients=clients,
        requests_per_client=2,
        subset_every=1,
        parallel=workers,
        executor="process",
        task_deadline=5.0,
    )
    fault_free = measure_serving(graphs, **workload)
    plan = faults.FaultPlan(kill_every=kill_every, corrupt_ships=1)
    chaos = measure_serving(graphs, **workload, fault_plan=plan)

    def _warm(result: dict) -> dict:
        return {
            "mean_s": result["warm"]["mean_s"],
            "qps": result["warm"]["qps"],
            "p50_ms": result["warm"]["p50_ms"],
            "p95_ms": result["warm"]["p95_ms"],
        }

    recovery: dict = {}
    for stats in chaos["tenant_stats"].values():
        for field in (
            "worker_deaths",
            "respawns",
            "task_retries",
            "deadline_misses",
            "integrity_failures",
            "fallbacks",
        ):
            recovery[field] = recovery.get(field, 0) + stats.get(field, 0)

    return {
        "bench": "chaos",
        "unit": "seconds per request (warm phase)",
        "datasets": chaos["tenants"],
        "scale": scale,
        "clients": clients,
        "workers": workers,
        "executor": "process",
        "fault_plan": {"kill_every": kill_every, "corrupt_ships": 1},
        "backends": {"fault_free": _warm(fault_free), "chaos": _warm(chaos)},
        "faults": chaos["faults"],
        "recovery": recovery,
        "bit_identical": fault_free["bit_identical"] and chaos["bit_identical"],
        "throughput_retention": chaos["warm"]["qps"] / fault_free["warm"]["qps"],
        "speedup_fault_free_vs_chaos": (
            chaos["warm"]["mean_s"] / fault_free["warm"]["mean_s"]
        ),
    }


def bench_durability(scale: float, updates: int, seed: int) -> dict:
    """Durability tax and recovery speed on the DBLP stand-in.

    Applies the same update stream four ways — non-durable, write-ahead
    logged under ``fsync="interval"`` and ``fsync="always"``, and finally
    replayed by :func:`repro.durability.recover` from the interval run's
    directory — so CI records both sides of the durability trade:

    * ``throughput_retention_interval`` (durable-interval throughput as a
      fraction of non-durable; the acceptance gate holds it at >= 0.5) and
      the same ratio for ``always`` (the fsync-per-append price, reported
      but not gated — it is hardware, not code);
    * ``replay_events_per_s`` (recovery speed; gated at >= 10k events/s).
    """
    import tempfile

    from repro.durability import recover
    from repro.datasets.registry import load_dataset
    from repro.dynamic.stream import apply_stream, generate_update_stream
    from repro.session import EgoSession

    graph = load_dataset("dblp", scale=scale)
    stream = generate_update_stream(graph, updates, seed=seed)
    backends: dict = {}

    session = EgoSession(graph)
    start = time.perf_counter()
    applied = apply_stream(session, stream)
    elapsed = time.perf_counter() - start
    backends["apply"] = {"mean_s": elapsed / max(applied, 1), "seconds": elapsed}

    replay_stats: dict = {}
    for policy in ("interval", "always"):
        with tempfile.TemporaryDirectory() as tmp:
            durable = EgoSession(graph, durability=tmp, fsync=policy)
            start = time.perf_counter()
            applied = apply_stream(durable, stream)
            elapsed = time.perf_counter() - start
            durable.close()
            backends[f"apply_durable_{policy}"] = {
                "mean_s": elapsed / max(applied, 1),
                "seconds": elapsed,
            }
            if policy == "interval":
                start = time.perf_counter()
                _, report = recover(tmp, resume=False)
                recover_elapsed = time.perf_counter() - start
                events = report.replayed_events + report.skipped_events
                backends["recover"] = {
                    "mean_s": recover_elapsed / max(events, 1),
                    "seconds": recover_elapsed,
                }
                replay_stats = {
                    "replayed_events": report.replayed_events,
                    "skipped_events": report.skipped_events,
                    "replay_events_per_s": events / recover_elapsed
                    if recover_elapsed
                    else float("inf"),
                    "recovery_seconds": report.elapsed_seconds,
                }

    apply_mean = backends["apply"]["mean_s"]
    return {
        "bench": "durability",
        "unit": "seconds per update",
        "dataset": "dblp",
        "scale": scale,
        "updates": updates,
        "backends": backends,
        "throughput_retention_interval": (
            apply_mean / backends["apply_durable_interval"]["mean_s"]
        ),
        "throughput_retention_always": (
            apply_mean / backends["apply_durable_always"]["mean_s"]
        ),
        **replay_stats,
        "speedup_interval_vs_always": (
            backends["apply_durable_always"]["mean_s"]
            / backends["apply_durable_interval"]["mean_s"]
        ),
    }


def bench_kernels(scale: float, repeats: int) -> dict:
    """Kernel-tier speedups: vectorized numpy vs the python wedge kernels.

    Delegates to ``benchmarks/bench_kernels.py`` (the >=3x acceptance
    gate); every reported timing is bit-identical-checked against the
    hash-graph oracle first.  Without importable numpy the payload still
    lands with ``numpy_available: false`` and the python timings only.
    """
    from benchmarks.bench_kernels import run_kernel_benchmark

    return run_kernel_benchmark(scale=scale, repeats=repeats)


def bench_net(scale: float, concurrency: int) -> dict:
    """Closed-loop net retention: wire throughput over in-process throughput.

    One tenant (the DBLP stand-in) served over a real loopback socket by
    the network front door vs the same gateway called in-process; the
    driver checks every answer bit-identical before reporting.
    """
    from benchmarks.drivers import measure_net_retention
    from repro.datasets.registry import load_dataset

    return measure_net_retention(
        {"dblp": load_dataset("dblp", scale=scale)},
        duration_seconds=0.5,
        concurrency=concurrency,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark smoke runs -> JSON artifacts")
    parser.add_argument("--scale", type=float, default=0.1, help="dataset scale (default 0.1)")
    parser.add_argument("--updates", type=int, default=100, help="fig8 stream length")
    parser.add_argument("--repeats", type=int, default=5, help="fig6 query repetitions")
    parser.add_argument("-k", type=int, default=10, help="fig6 top-k size")
    parser.add_argument("--seed", type=int, default=7, help="fig8 stream seed")
    parser.add_argument(
        "--queries", type=int, default=32, help="throughput batch size (default 32)"
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=64,
        help="concurrent async clients for the serving bench (default 64)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="throughput workers per query (default 2)"
    )
    parser.add_argument(
        "--chaos-kill-every",
        type=int,
        default=100,
        help="chaos bench: kill one worker per N pool tasks (default 100)",
    )
    parser.add_argument(
        "--out", default="benchmarks/results", help="output directory for the JSON artifacts"
    )
    args = parser.parse_args(argv)

    from benchmarks.metrics import bench_summary_line, write_bench_artifact

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    env = {"python": platform.python_version(), "machine": platform.machine()}

    for name, payload in (
        ("BENCH_fig8.json", bench_fig8(args.scale, args.updates, args.seed)),
        ("BENCH_fig6.json", bench_fig6(args.scale, args.k, args.repeats)),
        ("BENCH_session.json", bench_session(args.scale, args.k, args.repeats)),
        ("BENCH_throughput.json", bench_throughput(args.scale, args.queries, args.workers)),
        ("BENCH_serving.json", bench_serving(args.scale, args.clients, args.workers)),
        (
            "BENCH_chaos.json",
            bench_chaos(
                args.scale, args.clients, args.workers, kill_every=args.chaos_kill_every
            ),
        ),
        (
            "BENCH_durability.json",
            bench_durability(args.scale, max(args.updates * 5, 500), args.seed),
        ),
        ("BENCH_net.json", bench_net(args.scale, concurrency=8)),
        ("BENCH_kernels.json", bench_kernels(args.scale, args.repeats)),
    ):
        write_bench_artifact(out_dir, name, payload, environment=env)
        print(bench_summary_line(name, payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
