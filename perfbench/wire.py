"""The wire workloads: open-loop reads (and writes) over a loopback EgoClient.

The load generator is this process; the program under test is an
:mod:`server_child` process that it starts.  Requests go through
``EgoClient → EgoServer → ServingGateway`` with both result caches off.
Latency is measured from each request's scheduled send time.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from common import HERE, ROOT, pct, schedule_hash, shm_segments, summarize
from inputs import TOPK_KS, oracle_after, oracle_scores, oracle_top_k, wire_tenants
from repro.durability.wal import DEFAULT_FSYNC_INTERVAL
from repro.dynamic.stream import UpdateEvent, generate_update_stream
from repro.graph.graph import Graph
from repro.net.client import EgoClient
from tracing import Tracer, layer_metrics, patch_client

#: Offered open-loop rate, requests per second, on both wire workloads:
#: about a quarter of the median closed-loop capacity of ``wire-read``
#: (2 connections; 588 req/s, median of ten seeds on a 2-vCPU host), so
#: the open loop times a lightly loaded server rather than its queue.
#: Each run prints ``offered_load``, this rate over the capacity it measured.
#: (``bench-slo`` offers 400 req/s to 16 connections with the result
#: caches on; here the caches are off and there are 2 connections, where
#: 400 req/s would be two thirds of capacity.)
RATE = 150.0
#: Share of reads that ask for top-k instead of a subset of scores.
#: Assumption: no measured traffic or repository default sets it (the
#: ``bench-slo`` mix is 75% full-map reads plus four fixed slices of n/8
#: vertices, built to exercise the result caches that are off here).
TOPK_SHARE = 0.1
#: Share of requests that are ``apply`` batches on ``wire-mixed``.
#: Assumption, as above: no repository workload mixes writes into reads.
WRITE_SHARE = 0.1
#: Edge events per ``apply`` request.  Assumption, as above: a small
#: batch, with no repository figure to take the size from.
BATCH_EVENTS = 2
#: Largest subset a ``scores`` read asks for.  Sizes are drawn as
#: ``1 + int(63 * u**4)`` with ``u`` uniform: an assumed skew toward small
#: reads (median 4 vertices, mean 13.2).
MAX_SUBSET = 64
#: WAL policy and checkpoint cadence (events per tenant) on ``wire-mixed``.
FSYNC = "interval"
CHECKPOINT_EVERY = 50
#: Connections from the load generator (no more than the 2 cores it was tuned on).
CONNECTIONS = 2
#: The latency limit a request must meet to count as served in time.
SLO_MS = 50.0
#: Each run starts the server this many times and reports the median set-up.
SETUP_REPEATS = 5
#: Share of the run spent in the open loop; the rest is the closed loop.
OPEN_SHARE = 0.7
#: In a traced run, share of the open loop run before tracing is turned on.
UNTRACED_SHARE = 0.4
#: A run whose generator ran later than this (p99) was generator-bound.
LAG_LIMIT_MS = 5.0
#: Bound on the closed-loop plan; a faster server ends the loop early.
CLOSED_MAX_RPS = 800.0
#: Capacity is the median completion rate over closed-loop windows this long.
CAPACITY_WINDOW_S = 0.5

Request = Tuple[str, str, Any]  # (op, tenant, payload)


def build_plan(rng: random.Random, tenants: Dict[str, List[int]], count: int,
               mixed: bool, writes: Dict[str, int]) -> List[Request]:
    """``count`` requests; ``writes`` numbers each tenant's apply batches."""
    names = sorted(tenants)
    plan: List[Request] = []
    for _ in range(count):
        tenant = rng.choice(names)
        if mixed and rng.random() < WRITE_SHARE:
            writes[tenant] += 1
            plan.append(("apply", tenant, writes[tenant]))
        elif rng.random() < TOPK_SHARE:
            plan.append(("top_k", tenant, rng.choice(TOPK_KS)))
        else:
            size = 1 + int((MAX_SUBSET - 1) * rng.random() ** 4)
            plan.append(("scores", tenant, rng.sample(tenants[tenant], size)))
    return plan


def poisson_offsets(rng: random.Random, count: int, rate: float) -> List[float]:
    offsets, clock = [], 0.0
    for _ in range(count):
        clock += rng.expovariate(rate)
        offsets.append(clock)
    return offsets


class Child:
    """The server process, its control pipe and its config."""

    def __init__(self, proc, hello: dict) -> None:
        self.proc = proc
        self.port = hello["port"]
        self.kernel = hello["kernel"]

    @classmethod
    async def start(cls, config_path: str) -> "Child":
        proc = await asyncio.create_subprocess_exec(
            sys.executable, str(HERE / "server_child.py"), config_path,
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE, cwd=str(ROOT),
        )
        line = await asyncio.wait_for(proc.stdout.readline(), 60)
        if not line:
            await proc.wait()
            raise RuntimeError("the server process exited during start-up")
        return cls(proc, json.loads(line))

    async def command(self, text: str) -> dict:
        self.proc.stdin.write((text + "\n").encode())
        await self.proc.stdin.drain()
        return json.loads(await asyncio.wait_for(self.proc.stdout.readline(), 60))

    async def stop(self) -> dict:
        try:
            reply = await self.command("stop")
        finally:
            try:
                await asyncio.wait_for(self.proc.wait(), 30)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()
        return reply


class LoadGenerator:
    """Sends requests, times them from their due time and checks answers."""

    def __init__(self, client: EgoClient, mixed: bool, oracles: Dict[str, dict],
                 top: Dict[str, dict], streams: Dict[str, List[UpdateEvent]],
                 wrong: List[str]) -> None:
        self.client = client
        self.mixed = mixed
        self.oracles = oracles
        self.top = top
        self.streams = streams
        self.write_tail: Dict[str, asyncio.Future] = {}
        self.acked: Dict[str, int] = {name: 0 for name in streams}
        self.records: List[Tuple[str, float, float, float]] = []  # (op, due, lag, latency)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.wrong = wrong

    def batch(self, tenant: str, index: int) -> List[UpdateEvent]:
        return self.streams[tenant][index * BATCH_EVENTS:(index + 1) * BATCH_EVENTS]

    async def send(self, request: Request, due: float) -> None:
        loop = asyncio.get_running_loop()
        lag = loop.time() - due
        op, tenant, payload = request
        self.attempted += 1
        try:
            if op == "apply":
                await self.apply_batch(tenant, payload)
            elif op == "top_k":
                entries = await self.client.top_k(tenant, payload)
                self.check_top_k(tenant, payload, entries)
            else:
                answer = await self.client.scores(tenant, payload)
                self._check_scores(tenant, payload, answer)
        except Exception as error:  # noqa: BLE001 - every failure is counted
            self.failed += 1
            self.errors.append(f"{op} on {tenant}: {error!r}")
            return
        self.records.append((op, due, lag, loop.time() - due))

    async def apply_batch(self, tenant: str, index: int) -> None:
        # Batches of one tenant are applied in stream order: each waits
        # for the previous one, so the final state is a replay prefix.
        loop = asyncio.get_running_loop()
        previous = self.write_tail.get(tenant)
        done = loop.create_future()
        self.write_tail[tenant] = done
        try:
            if previous is not None:
                await previous
            events = self.batch(tenant, index)
            reply = await self.client.apply(tenant, [(e.operation, e.u, e.v) for e in events])
            if reply["applied"] != len(events):
                raise AssertionError(f"acknowledged {reply['applied']} of {len(events)} events")
            self.acked[tenant] = index + 1
        finally:
            done.set_result(None)

    def _check_scores(self, tenant: str, vertices, answer: dict) -> None:
        if self.mixed:
            ok = set(answer) == set(vertices) and all(isinstance(x, float) for x in answer.values())
        else:
            oracle = self.oracles[tenant]
            ok = answer == {v: oracle[v] for v in vertices}
        if not ok:
            self.wrong.append(f"scores on {tenant} differ from the oracle")

    def check_top_k(self, tenant: str, k: int, entries: list) -> None:
        if self.mixed:
            scores = [score for _, score in entries]
            ok = len(entries) == min(k, len(self.oracles[tenant])) and scores == sorted(scores, reverse=True)
        else:
            ok = entries == self.top[tenant][k]
        if not ok:
            self.wrong.append(f"top_k({k}) on {tenant} differs from the oracle")

    async def open_loop(self, plan: List[Request], offsets: List[float]) -> None:
        loop = asyncio.get_running_loop()
        start = loop.time() + 0.05
        tasks = []
        for offset, request in zip(offsets, plan):
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(self.send(request, due)))
        await asyncio.wait_for(asyncio.gather(*tasks), 120)

    async def closed_loop(self, plan: List[Request], seconds: float) -> float:
        """Requests per second: the median completion rate over whole windows.

        A stall of the shared host that spans one window moves this figure
        far less than a whole-phase rate would.
        """
        loop = asyncio.get_running_loop()
        start = loop.time()
        stop_at = start + seconds
        cursor = iter(plan)
        answered = len(self.records)

        async def worker() -> None:
            for request in cursor:
                await self.send(request, loop.time())
                if loop.time() >= stop_at:
                    return

        await asyncio.wait_for(asyncio.gather(*(worker() for _ in range(CONNECTIONS))), 120)
        windows = [0] * int(seconds // CAPACITY_WINDOW_S)
        for op, due, lag, latency in self.records[answered:]:
            index = int((due + latency - start) // CAPACITY_WINDOW_S)
            if index < len(windows):
                windows[index] += 1
        return pct(windows, 50) / CAPACITY_WINDOW_S


async def run(workload: str, seed: int, seconds: float, trace: bool, run_dir) -> Dict[str, Any]:
    mixed = workload == "wire-mixed"
    shm_before = shm_segments()
    # ---- inputs and oracle answers (not part of set-up time) ----
    tenants = wire_tenants()
    labels = {name: sorted({v for edge in edges for v in edge}) for name, edges in tenants.items()}
    oracles = {name: oracle_scores(edges) for name, edges in tenants.items()}
    top = {name: oracle_top_k(edges) for name, edges in tenants.items()}
    rng = random.Random(f"wire-schedule-{seed}-{workload}")
    open_seconds = seconds * (1.0 if trace else OPEN_SHARE)
    count = int(RATE * open_seconds)
    writes = {name: 0 for name in tenants}  # batch 0 is applied during warm-up
    open_plan = build_plan(rng, labels, count, mixed, writes)
    offsets = poisson_offsets(rng, count, RATE)
    closed_count = 0 if trace else int(CLOSED_MAX_RPS * (seconds - open_seconds))
    closed_plan = build_plan(rng, labels, closed_count, mixed, writes)
    streams = {
        name: generate_update_stream(Graph(edges=edges), BATCH_EVENTS * (writes[name] + 1),
                                     seed=seed) if mixed else []
        for name, edges in tenants.items()
    }
    session_options = {"fsync": FSYNC, "checkpoint_every": CHECKPOINT_EVERY} if mixed else {}
    config_base = {
        "tenants": tenants,
        "result_cache_size": 0,
        "encoded_cache_size": 0,
        "session_options": session_options,
        "trace": trace,
    }

    # The generator's own inputs, plans and oracles never become garbage;
    # keep the collector from rescanning them while it sends.
    gc.collect()
    gc.freeze()

    # ---- set-up: child start, tenants, server, warm-up through the wire ----
    setups: List[float] = []
    wrong: List[str] = []
    repeats = 1 if trace else SETUP_REPEATS
    child: Optional[Child] = None
    client: Optional[EgoClient] = None
    tracer = Tracer()
    try:
        for attempt in range(repeats):
            config = dict(config_base, spans_path=str(run_dir / "child-spans.json"))
            if mixed:
                config["durability_root"] = str(run_dir / f"durable-{attempt}")
            config_path = run_dir / f"child-{attempt}.json"
            config_path.write_text(json.dumps(config))
            began = time.perf_counter()
            child = await Child.start(str(config_path))
            client = EgoClient("127.0.0.1", child.port, pool_size=CONNECTIONS)
            generator = LoadGenerator(client, mixed, oracles, top, streams, wrong)
            for name in sorted(tenants):
                if await client.scores(name) != oracles[name]:
                    wrong.append(f"warm-up scores on {name} differ from the oracle")
                for k in TOPK_KS:
                    generator.check_top_k(name, k, await client.top_k(name, k))
                if mixed:  # the first batch promotes the tenant to dynamic
                    await generator.apply_batch(name, 0)
            setups.append(time.perf_counter() - began)
            if attempt < repeats - 1:
                await client.close()
                await child.stop()
        kernel = child.kernel
        generator.records.clear()
        generator.attempted = generator.failed = 0

        # ---- measured phases ----
        if trace:
            patch_client(tracer)
            split = int(len(open_plan) * UNTRACED_SHARE)
            await generator.open_loop(open_plan[:split], offsets[:split])
            untraced = list(generator.records)
            generator.records.clear()
            await child.command("trace on")
            tracer.enabled = True
            base = offsets[split]
            await generator.open_loop(open_plan[split:], [x - base for x in offsets[split:]])
            tracer.enabled = False
            traced = list(generator.records)
            open_records = untraced + traced
            capacity = None
        else:
            await generator.open_loop(open_plan, offsets)
            open_records = list(generator.records)
            capacity = await generator.closed_loop(closed_plan, seconds - open_seconds)

        # ---- final-state check (wire-mixed) ----
        if mixed:
            for name in sorted(tenants):
                replayed = [generator.batch(name, index) for index in range(generator.acked[name])]
                final = await client.scores(name)
                if final != oracle_after(tenants[name], replayed):
                    wrong.append(f"final state of {name} differs from the replayed oracle")
        await client.close()
        client = None
        reply = await child.stop()
        child = None
    finally:
        if client is not None:
            await client.close()
        if child is not None:
            await child.stop()
        tracer.unpatch()
    shm_leaked = shm_segments() - shm_before

    lat = [r[3] for r in open_records]
    reads = [r[3] for r in open_records if r[0] != "apply"]
    writes_lat = [r[3] for r in open_records if r[0] == "apply"]
    lag_p99_ms = pct((r[2] for r in open_records), 99) * 1e3
    late = sum(1 for x in lat if x * 1e3 > SLO_MS)
    result: Dict[str, Any] = {
        "attempted": generator.attempted,
        "failed": generator.failed,
        "wrong": wrong,
        "errors": generator.errors[:20],
        "setups_s": setups,
        "setup_s": sorted(setups)[len(setups) // 2],
        "peak_rss_mb": reply["maxrss_kb"] / 1024.0,
        "latency": summarize(lat),
        "classes": {
            "read": summarize(reads),
            "read_top_k": summarize(r[3] for r in open_records if r[0] == "top_k"),
            "write": summarize(writes_lat),
        },
        "capacity_rps": capacity,
        "slo_ms": SLO_MS,
        "slo_miss_ratio": (late + generator.failed) / max(len(open_plan), 1),
        "lag_p99_ms": lag_p99_ms,
        "generator_bound": lag_p99_ms > LAG_LIMIT_MS,
        "shm_leaked": shm_leaked,
        "kernel": kernel,
        "child_counters": reply["counters"],
        "schedule_hash": schedule_hash({
            "tenants": tenants, "open": open_plan, "offsets": offsets, "closed": closed_plan,
            "streams": {n: [(e.operation, e.u, e.v) for e in s] for n, s in streams.items()},
        }),
        "config": {
            "rate_rps": RATE, "topk_share": TOPK_SHARE, "write_share": WRITE_SHARE if mixed else 0.0,
            "batch_events": BATCH_EVENTS, "connections": CONNECTIONS,
            "result_cache_size": 0, "encoded_cache_size": 0,
            "fsync": FSYNC if mixed else None,
            "fsync_interval_s": DEFAULT_FSYNC_INTERVAL if mixed else None,
            "checkpoint_every": CHECKPOINT_EVERY if mixed else None,
            "durable": mixed,
        },
    }
    if trace:
        # Span ids count from 1 in each process: shift the server's past ours.
        shift = len(tracer.spans) + 1
        spans = tracer.spans + [
            (sid + shift, name, start, end, None if parent is None else parent + shift,
             request + shift, info)
            for sid, name, start, end, parent, request, info
            in json.loads((run_dir / "child-spans.json").read_text())
        ]
        counters = dict(reply["counters"], **{"parallel.shm_leaked": shm_leaked})
        traced_lat = [r[3] for r in traced]
        untraced_lat = [r[3] for r in untraced]
        health = {
            "overhead_ratio": pct(traced_lat, 50) / pct(untraced_lat, 50) if untraced_lat else 0.0,
            "latency_sum_s": sum(traced_lat),
            "lag_p99_ms": lag_p99_ms,
        }
        result["layers"] = layer_metrics(spans, counters, health)
        result["spans"] = spans
    return result
