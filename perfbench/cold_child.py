"""The process under test for ``topk-cold``: one caller asking cold top-k questions.

Run as ``python3 perfbench/cold_child.py <config.json> [--setup-only]``.
The config names the warm-up graph, the graph pool (edge lists), the
question plan, the time budget and whether the span wrappers are installed.
The child starts one shared :class:`WorkerPool` / :class:`PayloadStore`,
warms both algorithms and prints ``ready``: the benchmark times its set-up
from starting the process to that line, over several starts.  With
``--setup-only`` it then closes and exits; otherwise it asks the plan's
questions back to back until the budget runs out.  Each question opens an
:class:`EgoSession` on an edge list it has never seen, asks ``top_k(k,
algorithm="opt")`` or ``top_k(k, parallel=2, executor="process")``, and
closes the session; it is timed from before the open to after the close.
The answers go back to the benchmark, which checks them against the oracle.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from array import array
from typing import List, Optional, Tuple

import common  # noqa: F401  (puts src/ on sys.path)

from repro.core.csr_kernels import set_neighbor_sets_cache_limit
from repro.parallel.runtime import PayloadStore, WorkerPool, set_worker_cache_limit
from repro.session import EgoSession
from tracing import Tracer, patch_program

WORKERS = 2


class Infrastructure:
    """One shared worker pool and payload store, started and warmed."""

    def __init__(self, warm_edges) -> None:
        self.pool = WorkerPool(WORKERS).acquire()
        self.store = PayloadStore()
        self.pool.ensure_started()
        for algorithm in ("opt", "par"):
            self.query(warm_edges, algorithm, 10)

    def query(self, edges, algorithm: str, k: int):
        session = EgoSession(edges)
        try:
            if algorithm == "opt":
                result = session.top_k(k, algorithm="opt")
            else:
                session.runtime("process", pool=self.pool, store=self.store)
                result = session.top_k(k, parallel=WORKERS, executor="process")
            stats = session.stats()
        finally:
            session.close()
        return result, stats

    def close(self) -> None:
        self.pool.release()
        self.store.close()


def load_pool(path: str, spans: List[List[int]]) -> List[array]:
    """The pool's edge lists, each a flat ``u, v, u, v, ...`` int32 array."""
    flat = array("i")
    with open(path, "rb") as handle:
        flat.fromfile(handle, sum(count for _, count in spans))
    return [flat[start:start + count] for start, count in spans]


def edges(flat: array) -> List[Tuple[int, int]]:
    return list(zip(flat[0::2], flat[1::2]))


def main(config: dict, setup_only: bool) -> Optional[dict]:
    infra = Infrastructure([tuple(edge) for edge in config.pop("warm")])
    print("ready", flush=True)
    if setup_only:
        infra.close()
        return None
    # Flat arrays keep the input out of the peak RSS and away from the
    # collector; each question unpacks its graph before its clock starts.
    pool = load_pool(config["pool_path"], config.pop("pool_spans"))
    gc.collect()

    tracer = Tracer()
    if config["trace"]:
        patch_program(tracer)
    answers = []  # (plan index, phase, latency, entries, error)
    counters = {"core.kernel_fallbacks": 0, "parallel.task_retries": 0}
    ships_before = infra.store.ships
    kernel = None
    start = time.perf_counter()
    cursor = enumerate(config["plan"])
    try:
        for phase, share in enumerate(config["phases"]):
            stop_at = start + config["seconds"] * share
            tracer.enabled = config["trace"] and phase == len(config["phases"]) - 1
            for position, (index, algorithm, k) in cursor:
                graph = edges(pool[index])
                began = time.perf_counter()
                try:
                    result, stats = infra.query(graph, algorithm, k)
                except Exception as error:  # noqa: BLE001 - reported per question
                    answers.append((position, phase, None, None, repr(error)))
                else:
                    latency = time.perf_counter() - began
                    answers.append((position, phase, latency, result.entries, None))
                    kernel = stats.kernel
                    if tracer.enabled:
                        counters["core.kernel_fallbacks"] += stats.kernel_fallbacks
                        counters["parallel.task_retries"] += stats.task_retries
                if time.perf_counter() >= stop_at:
                    break
        tracer.enabled = False
        ships = infra.store.ships - ships_before
    finally:
        tracer.unpatch()
        infra.close()
    if config["trace"]:
        tracer.dump(config["spans_path"])
    return {
        "answers": answers,
        "counters": counters,
        "payload_ships": ships,
        "kernel": kernel,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        # Every pool has been released, so its workers are reaped: this is
        # the largest peak of any worker (or of any other finished child).
        "worker_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "worker_payload_cache": set_worker_cache_limit(),
        "neighbor_set_memo": set_neighbor_sets_cache_limit(),
    }


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as handle:
        config = json.load(handle)
    report = main(config, setup_only="--setup-only" in sys.argv[2:])
    if report is not None:
        with open(config["result_path"], "w", encoding="utf-8") as handle:
            json.dump(report, handle)
