"""The ``topk-cold`` workload: cold top-k questions, one caller, no network.

The benchmark makes the graph pool and the oracle answers, then runs the
questions in a :mod:`cold_child` process — the process under test — and
checks every answer it sends back.
"""

from __future__ import annotations

import json
import random
import select
import subprocess
import sys
import time
from array import array
from typing import Any, Dict, List, Tuple

from common import HERE, ROOT, pct, schedule_hash, shm_segments, summarize
from inputs import TOPK_KS, cold_pool, oracle_top_k, seeded_edges
from tracing import layer_metrics

#: Each run starts the process under test this many times (the last start
#: asks the questions) and reports the median set-up.
SETUP_REPEATS = 5
#: Longest wait for a started process to report that it is ready.
READY_TIMEOUT_S = 60.0
#: The graph each set-up warms both algorithms on (not part of the pool).
WARM_GRAPH = ("dblp", 0.5)
#: In a traced run, share of the time run before tracing is turned on.
UNTRACED_SHARE = 0.4
#: Questions planned per run; a run stops at its time budget long before.
PLAN_LENGTH = 5000
#: Each graph cycles through these questions, from a seeded starting point,
#: so every run asks the same mix of algorithms and ``k`` of every graph.
QUESTIONS = [(algorithm, k) for k in TOPK_KS for algorithm in ("opt", "par")]


def build_plan(rng: random.Random, pool_size: int) -> List[Tuple[int, str, int]]:
    """Visit the pool in seeded rounds, each graph once per round."""
    phase = [rng.randrange(len(QUESTIONS)) for _ in range(pool_size)]
    plan = []
    for round_number in range(PLAN_LENGTH // pool_size + 1):
        order = list(range(pool_size))
        rng.shuffle(order)
        for index in order:
            plan.append((index, *QUESTIONS[(phase[index] + round_number) % len(QUESTIONS)]))
    return plan


def start_child(config_path, setup_only: bool) -> Tuple[subprocess.Popen, float]:
    """Start the process under test; return it and the seconds until it was ready."""
    command = [sys.executable, str(HERE / "cold_child.py"), str(config_path)]
    began = time.perf_counter()
    proc = subprocess.Popen(command + (["--setup-only"] if setup_only else []),
                            cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
        line = proc.stdout.readline() if readable else ""
        elapsed = time.perf_counter() - began
        if line.strip() != "ready":
            raise RuntimeError("the top-k process did not finish its set-up")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, elapsed


def finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        code = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    proc.stdout.close()
    if code:
        raise subprocess.CalledProcessError(code, proc.args)


def run(seed: int, seconds: float, trace: bool, run_dir) -> Dict[str, Any]:
    shm_before = shm_segments()
    # ---- inputs and oracle answers (not part of set-up time) ----
    pool = cold_pool(seed)
    oracles = [oracle_top_k(edges) for _, edges in pool]
    plan = build_plan(random.Random(f"cold-plan-{seed}"), len(pool))
    flat, spans = array("i"), []
    for _, edges in pool:
        spans.append((len(flat), 2 * len(edges)))
        flat.extend(v for edge in edges for v in edge)
    with open(run_dir / "pool.bin", "wb") as handle:
        flat.tofile(handle)
    config = {
        "pool_path": str(run_dir / "pool.bin"),
        "pool_spans": spans,
        "warm": seeded_edges(*WARM_GRAPH, random.Random(f"warm-{seed}")),
        "plan": plan,
        "seconds": seconds,
        "phases": [UNTRACED_SHARE, 1.0] if trace else [1.0],
        "trace": trace,
        "spans_path": str(run_dir / "spans.json"),
        "result_path": str(run_dir / "result.json"),
    }
    config_path = run_dir / "cold.json"
    config_path.write_text(json.dumps(config))
    # ---- set-up: process start, imports, pool start, warm-up ----
    repeats = 1 if trace else SETUP_REPEATS
    setups = []
    for attempt in range(repeats):
        last = attempt == repeats - 1
        proc, elapsed = start_child(config_path, setup_only=not last)
        setups.append(elapsed)
        finish(proc, seconds + 120 if last else READY_TIMEOUT_S)
    child = json.loads((run_dir / "result.json").read_text())
    shm_leaked = shm_segments() - shm_before

    # ---- check every answer ----
    records: Dict[str, List[float]] = {"opt": [], "par": []}
    phases: List[List[float]] = [[], []]
    wrong: List[str] = []
    errors: List[str] = []
    tie_mismatches = 0
    for position, phase, latency, entries, error in child["answers"]:
        index, algorithm, k = plan[position]
        name = pool[index][0]
        if error is not None:
            errors.append(f"{algorithm} top-{k} on {name}: {error}")
            continue
        entries = [tuple(entry) for entry in entries]
        expected = oracles[index][k]
        if algorithm == "par":
            ok = entries == expected
        else:
            # OptBSearch breaks ties its own way: the score sequence must
            # match the oracle; differently chosen tied vertices are counted.
            ok = [s for _, s in entries] == [s for _, s in expected]
            tie_mismatches += ok and entries != expected
        if not ok:
            wrong.append(f"{algorithm} top-{k} on {name} differs from the oracle")
        records[algorithm].append(latency)
        phases[phase].append(latency)

    latencies = records["opt"] + records["par"]
    result: Dict[str, Any] = {
        "attempted": len(child["answers"]),
        "failed": len(errors),
        "wrong": wrong,
        "errors": errors[:20],
        "setups_s": setups,
        "setup_s": sorted(setups)[len(setups) // 2],
        "peak_rss_mb": child["maxrss_kb"] / 1024.0,
        # Not gated: it depends on which graphs share a worker's caches in
        # the run's visit order, and moved by 0.13 of its median over seeds.
        "worker_peak_rss_mb": child["worker_maxrss_kb"] / 1024.0,
        "latency": summarize(latencies),
        "classes": {"opt_topk": summarize(records["opt"]), "par_topk": summarize(records["par"])},
        # One caller: questions per second of the program's own time.
        "capacity_rps": len(latencies) / sum(latencies) if latencies else 0.0,
        "opt_tie_mismatches": tie_mismatches,
        "payload_ships": child["payload_ships"],
        "shm_leaked": shm_leaked,
        "kernel": child["kernel"],
        "schedule_hash": schedule_hash({"pool": pool, "plan": plan}),
        "config": {
            "workers": 2, "executor": "process", "pool_graphs": len(pool),
            "worker_payload_cache": child["worker_payload_cache"],
            "neighbor_set_memo": child["neighbor_set_memo"],
            "result_cache_size": None, "encoded_cache_size": None,
        },
    }
    if trace:
        untraced, traced = phases
        counters = dict(child["counters"], **{"parallel.shm_leaked": shm_leaked})
        health = {
            "overhead_ratio": pct(traced, 50) / pct(untraced, 50) if untraced and traced else 0.0,
            "latency_sum_s": sum(traced),
        }
        spans = [tuple(span) for span in json.loads((run_dir / "spans.json").read_text())]
        result["layers"] = layer_metrics(spans, counters, health)
        result["spans"] = spans
    return result
