"""Spans around the calls into each ``src/repro`` layer, and what they add up to.

The benchmark never edits the program: :class:`Tracer` replaces a public
function *at the place its caller looks it up* (``session.py`` imports
``opt_b_search_csr`` by name, so the wrapper patches
``repro.session.opt_b_search_csr``; methods are patched on their class).
Each wrapped call records a span — name, start, end, parent, request id and
a few attributes — in memory; spans are written out when the run ends.
Self time is a span's duration minus the part of it its child spans cover.

A wrapper does nothing but call through while :attr:`Tracer.enabled` is
false, so one process can measure an untraced and a traced phase.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from bisect import bisect_right
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import mean, pct

#: The layer → end-to-end mapping the per-layer metrics are read against:
#: layer, the end-to-end figures it should move, the workloads on which it
#: should move them, and the workloads on which it should not.  ``read_*``,
#: ``write_*`` and ``*_topk_*`` are the per-class figures of the report;
#: ``latency_p50_ms`` is ``read_p50_ms`` on wire-read.
LAYER_MAP = {
    "net": (["read_p50_ms", "capacity_rps"], ["wire-read"], ["topk-cold"]),
    "serving": (["read_p99_ms", "capacity_rps"], ["wire-read", "wire-mixed"], ["topk-cold"]),
    "session": (["read_p50_ms"], ["wire-read"], ["topk-cold"]),
    "dynamic": (["write_p50_ms", "read_p99_ms (tenant lock)"], ["wire-mixed"], ["wire-read"]),
    "durability": (["write_p99_ms"], ["wire-mixed"], ["wire-read", "topk-cold"]),
    "core": (["opt_topk_p50_ms"], ["topk-cold"], ["wire-read"]),
    "parallel": (["par_topk_p50_ms"], ["topk-cold"], ["wire-read"]),
    "graph": (["setup_s", "opt_topk_p50_ms"], ["topk-cold"], ["wire-read"]),
}

#: Every per-layer metric with its unit, in report order.
LAYER_METRICS = [
    ("net.rtt_ms_p50", "ms"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.bytes_per_resp", "bytes"),
    ("serving.wait_ms_p50", "ms"),
    ("serving.wait_ms_p99", "ms"),
    ("serving.batch_size_mean", "count"),
    ("serving.rejected", "count"),
    ("session.self_us_p50", "us"),
    ("session.memo_ratio", "ratio"),
    ("dynamic.update_us_p50", "us"),
    ("dynamic.update_us_p99", "us"),
    ("dynamic.affected_mean", "count"),
    ("durability.append_us_p50", "us"),
    ("durability.append_us_p99", "us"),
    ("durability.fsyncs", "count"),
    ("durability.checkpoint_ms", "ms"),
    ("core.opt_ms_p50", "ms"),
    ("core.exact_ratio", "ratio"),
    ("core.sweep_ms", "ms"),
    ("core.kernel_fallbacks", "count"),
    ("parallel.ship_ms", "ms"),
    ("parallel.ship_bytes", "bytes"),
    ("parallel.worker_busy_ms", "ms"),
    ("parallel.queue_wait_ms", "ms"),
    ("parallel.ships_per_query", "count"),
    ("parallel.task_retries", "count"),
    ("parallel.shm_leaked", "count"),
    ("graph.build_ms", "ms"),
    ("graph.snapshot_ms", "ms"),
    ("graph.overlay_rebuilds", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
    ("gen.lag_p99_ms", "ms"),
]

Span = Tuple[int, str, float, float, Optional[int], Optional[int], Optional[dict]]

_KERNEL_CHILDREN = ("core.", "parallel.execute", "dynamic.index_build")

#: The session call each gateway operation hands its work to.
_SERVED_BY = {
    "serving.scores": "session.scores_batch",
    "serving.top_k": "session.top_k",
    "serving.apply": "session.apply",
}


class Tracer:
    """In-memory span recorder with call-site patching."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(None, None)
        )
        self._patched: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, name: str,
              attrs: Optional[Callable[[tuple, dict, Any], dict]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        raw = inspect.getattr_static(owner, attr)
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        wrapper = self._async_wrapper(fn, name, attrs) if inspect.iscoroutinefunction(
            fn) else self._sync_wrapper(fn, name, attrs)
        functools.update_wrapper(wrapper, fn)
        if isinstance(raw, classmethod):
            wrapper = classmethod(wrapper)
        elif isinstance(raw, staticmethod):
            wrapper = staticmethod(wrapper)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, raw))

    def unpatch(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def _enter(self) -> Tuple[int, Optional[int], Optional[int], Any]:
        parent, request = self._current.get()
        sid = next(self._ids)
        token = self._current.set((sid, sid if request is None else request))
        return sid, parent, request, token

    def _record(self, sid, name, start, parent, request, token, info) -> None:
        end = time.perf_counter()
        self._current.reset(token)
        self.spans.append((sid, name, start, end, parent, sid if request is None else request, info))

    def _sync_wrapper(self, fn, name, attrs):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid, parent, request, token = tracer._enter()
            start = time.perf_counter()
            info = None
            try:
                result = fn(*args, **kwargs)
                info = attrs(args, kwargs, result) if attrs else None
                return result
            finally:
                tracer._record(sid, name, start, parent, request, token, info)

        return wrapper

    def _async_wrapper(self, fn, name, attrs):
        tracer = self

        async def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return await fn(*args, **kwargs)
            sid, parent, request, token = tracer._enter()
            start = time.perf_counter()
            info = None
            try:
                result = await fn(*args, **kwargs)
                info = attrs(args, kwargs, result) if attrs else None
                return result
            finally:
                tracer._record(sid, name, start, parent, request, token, info)

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


# ----------------------------------------------------------------------
# Patch tables: where each layer's public functions are looked up
# ----------------------------------------------------------------------
def _graph_id(args, kwargs, result) -> dict:
    return {"tenant": args[0].graph_id}


def _batch(args, kwargs, result) -> dict:
    return {"tenant": args[0].graph_id, "batch": len(result)}


def _tenant(args, kwargs, result) -> dict:
    return {"tenant": args[1]}


def _affected(args, kwargs, result) -> dict:
    return {"affected": len(result)}


def _opt(args, kwargs, result) -> dict:
    return {"exact_ratio": result.stats.exact_computations / max(args[0].num_vertices, 1)}


def _ship(args, kwargs, result) -> dict:
    entry, shipped = result
    return {"shipped": shipped, "bytes": entry.nbytes if shipped else 0}


def _batch_stats(args, kwargs, result) -> dict:
    stats = result[1]
    return {
        "busy": sum(stats.chunk_seconds),
        "compute": stats.compute_seconds,
        "workers": kwargs.get("num_workers") or 1,
    }


def _frame_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


def patch_program(tracer: Tracer) -> None:
    """Session, core, parallel, graph, dynamic and durability call sites."""
    import repro.session as session_module
    from repro.durability.manager import DurabilityManager
    from repro.dynamic.local_update import EgoBetweennessIndex
    from repro.graph.csr import CompactGraph
    from repro.graph.dynamic_csr import DynamicCompactGraph
    from repro.parallel.runtime import ExecutionRuntime, PayloadStore

    session_cls = session_module.EgoSession
    tracer.patch(session_cls, "__init__", "session.open")
    tracer.patch(session_cls, "close", "session.close")
    tracer.patch(session_cls, "scores_batch", "session.scores_batch", _batch)
    tracer.patch(session_cls, "top_k", "session.top_k", _graph_id)
    tracer.patch(session_cls, "apply", "session.apply", _graph_id)
    # A full CSR sweep answers a memo miss on the served (CSR) tenants.
    tracer.patch(session_module, "all_ego_betweenness_csr", "core.all_ego_betweenness_csr")
    tracer.patch(session_module, "opt_b_search_csr", "core.opt_b_search_csr", _opt)
    tracer.patch(ExecutionRuntime, "execute_top_k", "parallel.execute_top_k", _batch_stats)
    tracer.patch(PayloadStore, "ship", "parallel.ship", _ship)
    tracer.patch(CompactGraph, "from_graph", "graph.from_graph")
    tracer.patch(DynamicCompactGraph, "snapshot", "graph.snapshot")
    tracer.patch(EgoBetweennessIndex, "__init__", "dynamic.index_build")
    tracer.patch(EgoBetweennessIndex, "insert_edge", "dynamic.insert_edge", _affected)
    tracer.patch(EgoBetweennessIndex, "delete_edge", "dynamic.delete_edge", _affected)
    tracer.patch(DurabilityManager, "log_event", "durability.log_event")
    tracer.patch(DurabilityManager, "write_checkpoint", "durability.write_checkpoint")


def patch_server(tracer: Tracer) -> None:
    """The gateway and the server side of the wire (runs in the child)."""
    import repro.net.protocol as protocol
    import repro.net.server as server
    from repro.serving.gateway import ServingGateway

    for op in ("scores", "top_k", "apply"):
        tracer.patch(ServingGateway, op, f"serving.{op}", _tenant)
    tracer.patch(server, "encode_scores", "net.encode_scores")
    tracer.patch(server, "encode_entries", "net.encode_entries")
    tracer.patch(server, "encode_raw_frame", "net.encode_raw_frame", _frame_bytes)
    # read_frame (and the public decode_payload) parse through this helper.
    tracer.patch(protocol, "_decode_payload", "net.decode_payload")


def patch_client(tracer: Tracer) -> None:
    """The client side of the wire (runs in the load generator)."""
    import repro.net.client as client
    import repro.net.protocol as protocol

    for op in ("scores", "top_k", "apply"):
        tracer.patch(client.EgoClient, op, f"net.client.{op}")
    tracer.patch(protocol, "encode_frame", "net.encode_frame")
    tracer.patch(protocol, "_decode_payload", "net.decode_payload")
    tracer.patch(client, "decode_scores", "net.decode_scores")
    tracer.patch(client, "decode_entries", "net.decode_entries")


# ----------------------------------------------------------------------
# Reduction: spans → per-layer metrics
# ----------------------------------------------------------------------
def _durations(spans: List[Span], prefix: str) -> List[float]:
    return [s[3] - s[2] for s in spans if s[1].startswith(prefix)]


def _serving_waits(spans: List[Span]) -> Dict[int, float]:
    """Gateway call time minus the session call that answered it.

    The gateway hands a batch to the session on a worker thread, so the
    session span is not a context child of the gateway span.  The call
    that answered a request is the tenant's last session call that ran
    entirely inside the request's gateway span; the rest of the gateway
    span is window wait plus tenant-lock wait.
    """
    by_call: Dict[Tuple[str, str], List[Tuple[float, float]]] = defaultdict(list)
    for sid, name, start, end, _, _, info in spans:
        if name in _SERVED_BY.values() and info:
            by_call[(info["tenant"], name)].append((end, start))
    for calls in by_call.values():
        calls.sort()
    waits = {}
    for sid, name, start, end, _, _, info in spans:
        if name not in _SERVED_BY or not info:
            continue
        calls = by_call.get((info["tenant"], _SERVED_BY[name]), [])
        index = bisect_right(calls, (end, float("inf"))) - 1
        served = 0.0
        while index >= 0:
            call_end, call_start = calls[index]
            if call_start >= start:
                served = call_end - call_start
                break
            index -= 1
            if call_end < start:
                break
        waits[sid] = max(0.0, (end - start) - served)
    return waits


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for sid, _, start, end, _, _, _ in spans:
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(sid, [])):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[sid] = (end - start) - covered
    return result


def layer_metrics(spans: List[Span], counters: Dict[str, float],
                  health: Dict[str, float]) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS`; 0 where a layer did no work."""
    names = {s[0]: s[1] for s in spans}
    has_kernel_child = {s[4] for s in spans
                        if s[4] is not None and s[1].startswith(_KERNEL_CHILDREN)}
    selfs = self_times(spans)
    waits = _serving_waits(spans)
    wire_requests = len(_durations(spans, "net.client."))

    session_calls = [s for s in spans if s[1] in ("session.scores_batch", "session.top_k")]
    updates = [s for s in spans if s[1] in ("dynamic.insert_edge", "dynamic.delete_edge")]
    ships = [s for s in spans if s[1] == "parallel.ship"]
    shipped = [s for s in ships if s[6] and s[6]["shipped"]]
    executions = [s for s in spans if s[1] == "parallel.execute_top_k" and s[6]]
    raw_frames = [s for s in spans if s[1] == "net.encode_raw_frame" and s[6]]
    opt = [s for s in spans if s[1] == "core.opt_b_search_csr"]

    def per_request(prefix: str) -> float:
        return sum(_durations(spans, prefix)) * 1e6 / wire_requests if wire_requests else 0.0

    # Serving spans charge only their wait; the session span that served
    # them runs on another thread and carries its own self time.
    covered = sum(waits.get(sid, selfs[sid]) for sid, name in names.items()
                  if not name.startswith("net.client."))
    metrics = {
        "net.rtt_ms_p50": pct(_durations(spans, "net.client."), 50) * 1e3,
        "net.encode_us": per_request("net.encode_"),
        "net.decode_us": per_request("net.decode_"),
        "net.bytes_per_resp": mean(s[6]["bytes"] for s in raw_frames),
        "serving.wait_ms_p50": pct(waits.values(), 50) * 1e3,
        "serving.wait_ms_p99": pct(waits.values(), 99) * 1e3,
        "serving.batch_size_mean": mean(s[6]["batch"] for s in session_calls
                                        if s[1] == "session.scores_batch" and s[6]),
        "serving.rejected": counters.get("serving.rejected", 0),
        "session.self_us_p50": pct((selfs[s[0]] for s in session_calls), 50) * 1e6,
        "session.memo_ratio": (
            sum(1 for s in session_calls if s[0] not in has_kernel_child) / len(session_calls)
            if session_calls else 0.0
        ),
        "dynamic.update_us_p50": pct((s[3] - s[2] for s in updates), 50) * 1e6,
        "dynamic.update_us_p99": pct((s[3] - s[2] for s in updates), 99) * 1e6,
        "dynamic.affected_mean": mean(s[6]["affected"] for s in updates if s[6]),
        "durability.append_us_p50": pct(_durations(spans, "durability.log_event"), 50) * 1e6,
        "durability.append_us_p99": pct(_durations(spans, "durability.log_event"), 99) * 1e6,
        "durability.fsyncs": counters.get("durability.fsyncs", 0),
        "durability.checkpoint_ms": mean(_durations(spans, "durability.write_checkpoint")) * 1e3,
        "core.opt_ms_p50": pct((s[3] - s[2] for s in opt), 50) * 1e3,
        "core.exact_ratio": mean(s[6]["exact_ratio"] for s in opt if s[6]),
        "core.sweep_ms": mean(_durations(spans, "core.all_ego_betweenness_csr")) * 1e3,
        "core.kernel_fallbacks": counters.get("core.kernel_fallbacks", 0),
        "parallel.ship_ms": mean(s[3] - s[2] for s in shipped) * 1e3,
        "parallel.ship_bytes": mean(s[6]["bytes"] for s in shipped),
        "parallel.worker_busy_ms": mean(s[6]["busy"] for s in executions) * 1e3,
        "parallel.queue_wait_ms": mean(
            max(0.0, s[6]["compute"] - s[6]["busy"] / s[6]["workers"]) for s in executions
        ) * 1e3,
        "parallel.ships_per_query": len(shipped) / len(executions) if executions else 0.0,
        "parallel.task_retries": counters.get("parallel.task_retries", 0),
        "parallel.shm_leaked": counters.get("parallel.shm_leaked", 0),
        "graph.build_ms": mean(_durations(spans, "graph.from_graph")) * 1e3,
        "graph.snapshot_ms": mean(_durations(spans, "graph.snapshot")) * 1e3,
        "graph.overlay_rebuilds": counters.get("graph.overlay_rebuilds", 0),
        "trace.overhead_ratio": health.get("overhead_ratio", 0.0),
        "trace.coverage_ratio": (
            covered / health["latency_sum_s"] if health.get("latency_sum_s") else 0.0
        ),
        "gen.lag_p99_ms": health.get("lag_p99_ms", 0.0),
    }
    return {name: float(metrics[name]) for name, _ in LAYER_METRICS}
