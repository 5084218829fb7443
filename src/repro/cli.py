"""Command-line interface: ``egobw`` / ``python -m repro``.

Every graph-backed subcommand is a thin adapter over one
:class:`repro.session.EgoSession` — the CLI opens a session on the requested
source, runs its queries through it, and (with ``--json``) emits a
machine-readable payload built from the session results and
:class:`~repro.session.SessionStats`.

Subcommands
-----------
``topk``
    Run a top-k ego-betweenness search on an edge-list file or a registry
    dataset.
``stats``
    Print the summary statistics of a graph.
``maintain``
    Replay a mixed edge-update stream against the dynamic maintainers
    (LocalInsert/Delete and LazyInsert/Delete) and report per-update
    latency and laziness counters — the streaming-workload scenario.
``serve``
    Serve registry datasets over the network, one gateway tenant each:
    native frames, HTTP (``/healthz``, ``/metrics``, ``POST /v1/query``)
    and WebSocket on the one ``--http HOST:PORT``, until SIGTERM/SIGINT
    drains it cleanly.  Load against it is measured by
    ``perfbench/run.py`` and the gate files under ``benchmarks/``.
``recover``
    Rebuild a session from a durability directory (checkpoint + WAL tail
    replay) and report what was recovered; ``--verify-only`` runs the
    fsck-style read-only check instead.
``checkpoint``
    Force a checkpoint on a durability directory: recover the session,
    write a fresh snapshot and prune the now-covered WAL segments.
``partition``
    Partition a graph into halo-augmented shards and report the plan —
    shard sizes, cut-edge fraction, halo overhead — without running any
    queries (the dry-run for ``--shards``/``--partitioner``).
``experiment``
    Run one of the paper-reproduction experiments and print its report.
``datasets``
    List the registry datasets and their stand-in sizes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional, Sequence

from repro.analysis.reporting import format_table
from repro.analysis.stats import graph_statistics
from repro.datasets.registry import dataset_names, load_dataset, registry_table
from repro.errors import DatasetError, ReproError
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list
from repro.session import EgoSession

__all__ = ["main", "build_parser"]

_BACKEND_HELP = (
    "graph backend: 'auto'/'compact' run on the fast CSR structures, "
    "'hash' forces the hash-set oracle; results are identical (default: auto)"
)

_KERNEL_HELP = (
    "kernel tier for chunk scoring: 'auto' negotiates numpy when importable "
    "and python otherwise, 'numpy' pins the vectorized batch kernels, "
    "'python' pins the interpreted oracle; every tier is bit-identical "
    "(default: auto)"
)

_SHARDS_HELP = (
    "fan parallel sweeps out across N halo-augmented shard payloads "
    "instead of one resident CSR image (0 = unsharded; default 0)"
)

_PARTITIONER_HELP = (
    "shard partitioner: 'auto' resolves to 'community' (size-capped label "
    "propagation — keeps neighbourhoods together), 'range' is the "
    "contiguous id-block baseline; answers are bit-identical either way "
    "(default: auto)"
)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="egobw",
        description="Efficient Top-k Ego-Betweenness Search (ICDE 2022) reproduction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    topk = subparsers.add_parser("topk", help="run a top-k ego-betweenness search")
    _add_graph_source_arguments(topk)
    topk.add_argument("-k", type=int, default=10, help="number of results (default 10)")
    topk.add_argument(
        "--method",
        choices=("opt", "base", "naive"),
        default="opt",
        help="search algorithm (default: opt = OptBSearch)",
    )
    topk.add_argument("--theta", type=float, default=1.05, help="OptBSearch gradient ratio")
    topk.add_argument(
        "--backend",
        choices=("auto", "compact", "hash"),
        default="auto",
        help=(
            "graph backend: 'auto'/'compact' run on the fast CSR CompactGraph "
            "(converted once up front), 'hash' forces the hash-set oracle; "
            "both return identical results (default: auto)"
        ),
    )
    topk.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help=(
            "answer through the persistent execution runtime with N workers "
            "(exact all-vertex ranking; --method is ignored)"
        ),
    )
    topk.add_argument(
        "--executor",
        choices=("serial", "process"),
        default="process",
        help="execution backend for --parallel (default: process)",
    )
    _add_kernel_argument(topk)
    _add_sharding_arguments(topk)
    _add_json_argument(topk)

    stats = subparsers.add_parser("stats", help="print graph statistics")
    _add_graph_source_arguments(stats)
    _add_json_argument(stats)

    maintain = subparsers.add_parser(
        "maintain",
        help="replay an update stream against the dynamic maintainers",
    )
    _add_graph_source_arguments(maintain)
    maintain.add_argument(
        "--updates", type=int, default=200, help="number of update events (default 200)"
    )
    maintain.add_argument("-k", type=int, default=10, help="maintained top-k size (default 10)")
    maintain.add_argument("--seed", type=int, default=7, help="stream RNG seed")
    maintain.add_argument(
        "--insert-fraction",
        type=float,
        default=0.5,
        help="approximate fraction of insertions in the stream (default 0.5)",
    )
    maintain.add_argument(
        "--mode",
        choices=("local", "lazy", "both"),
        default="both",
        help="which maintainer(s) to replay (default: both)",
    )
    maintain.add_argument(
        "--backend",
        choices=("auto", "compact", "hash"),
        default="auto",
        help=_BACKEND_HELP,
    )
    _add_kernel_argument(maintain)
    _add_json_argument(maintain)

    serve = subparsers.add_parser(
        "serve",
        help="serve registry datasets over the network until a signal drains it",
    )
    serve.add_argument(
        "--datasets",
        default="dblp,livejournal",
        help=(
            "comma-separated registry datasets, one gateway tenant each "
            "(default: dblp,livejournal)"
        ),
    )
    serve.add_argument(
        "--scale", type=float, default=0.1, help="scale factor for the tenant datasets"
    )
    serve.add_argument(
        "--window-ms",
        type=float,
        default=2.0,
        help="micro-batch coalescing window in milliseconds (default 2)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64, help="flush early at this batch size"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel workers per runtime pass (default 1; 0 = in-session serial)",
    )
    serve.add_argument(
        "--executor",
        choices=("serial", "process"),
        default="process",
        help="execution backend for the tenants' shared runtime (default: process)",
    )
    serve.add_argument(
        "--task-deadline",
        type=float,
        default=None,
        help=(
            "per-task supervision deadline in seconds for every tenant "
            "runtime (default: the runtime's own default)"
        ),
    )
    serve.add_argument(
        "--request-deadline",
        type=float,
        default=None,
        help="gateway per-request waiting bound in seconds (default: none)",
    )
    serve.add_argument(
        "--wal-dir",
        default=None,
        help=(
            "run every tenant durably: write-ahead log + checkpoints under "
            "<wal-dir>/<tenant>; recover later with 'repro recover'"
        ),
    )
    serve.add_argument(
        "--http",
        required=True,
        metavar="HOST:PORT",
        help=(
            "bind an EgoServer (native frames + HTTP /healthz, /metrics, "
            "POST /v1/query + WebSocket /ws on one port) and run until "
            "SIGTERM/SIGINT drains it (PORT 0 picks a free port)"
        ),
    )
    serve.add_argument(
        "--max-connections",
        type=int,
        default=256,
        help="admission cap on open connections (default 256)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        help="admission cap on in-flight requests per tenant (default 256)",
    )
    serve.add_argument(
        "--result-cache",
        type=int,
        default=64,
        help=(
            "per-tenant hot-key result LRU entries in the gateway "
            "(0 disables; default 64)"
        ),
    )
    serve.add_argument(
        "--encoded-cache",
        type=int,
        default=128,
        help=(
            "serialised-response cache entries in the server "
            "(0 disables; default 128)"
        ),
    )
    serve.add_argument(
        "--drain-seconds",
        type=float,
        default=5.0,
        help="bound on the SIGTERM/SIGINT drain (default 5)",
    )
    _add_kernel_argument(serve)
    _add_sharding_arguments(serve)
    _add_json_argument(serve)

    partition = subparsers.add_parser(
        "partition",
        help=(
            "partition a graph into halo-augmented shards and report the "
            "plan without running queries"
        ),
    )
    _add_graph_source_arguments(partition)
    partition.add_argument(
        "--shards",
        type=int,
        default=4,
        metavar="N",
        help="number of shards to plan (default 4)",
    )
    partition.add_argument(
        "--partitioner",
        choices=("auto", "range", "community"),
        default="auto",
        help=_PARTITIONER_HELP,
    )
    _add_json_argument(partition)

    recover = subparsers.add_parser(
        "recover",
        help="rebuild a session from a durability directory and report it",
    )
    recover.add_argument(
        "--dir",
        required=True,
        dest="directory",
        help="durability directory (the EgoSession(durability=...) root)",
    )
    recover.add_argument(
        "--verify-only",
        action="store_true",
        help=(
            "fsck mode: validate every checkpoint and WAL record without "
            "repairing, replaying or building a session"
        ),
    )
    recover.add_argument(
        "-k",
        type=int,
        default=0,
        help="also print the top-k ego-betweenness of the recovered graph",
    )
    _add_json_argument(recover)

    checkpoint = subparsers.add_parser(
        "checkpoint",
        help="force a checkpoint on a durability directory and prune its WAL",
    )
    checkpoint.add_argument(
        "--dir",
        required=True,
        dest="directory",
        help="durability directory (the EgoSession(durability=...) root)",
    )
    _add_json_argument(checkpoint)

    experiment = subparsers.add_parser("experiment", help="run a reproduction experiment")
    experiment.add_argument("experiment_id", choices=sorted(EXPERIMENTS), help="experiment id")
    experiment.add_argument("--scale", type=float, default=0.5, help="dataset scale factor")
    experiment.add_argument(
        "--backend",
        choices=("auto", "compact", "hash"),
        default=None,
        help=_BACKEND_HELP + "; forwarded to experiments that support it "
        "(a warning names it when the experiment does not)",
    )

    subparsers.add_parser("datasets", help="list the registry datasets")
    return parser


def _add_graph_source_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--edge-list", help="path to a whitespace edge-list file")
    source.add_argument(
        "--dataset",
        choices=dataset_names(),
        help="name of a registry dataset (synthetic stand-in)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.5, help="scale factor for registry datasets"
    )


def _add_kernel_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel",
        choices=("auto", "python", "numpy"),
        default="auto",
        help=_KERNEL_HELP,
    )


def _add_sharding_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards", type=int, default=0, metavar="N", help=_SHARDS_HELP
    )
    parser.add_argument(
        "--partitioner",
        choices=("auto", "range", "community"),
        default="auto",
        help=_PARTITIONER_HELP,
    )


def _add_json_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON payload instead of tables",
    )


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.edge_list:
        return read_edge_list(args.edge_list)
    return load_dataset(args.dataset, scale=args.scale)


def _emit_json(payload: Dict[str, Any]) -> None:
    print(json.dumps(payload, default=repr))


def _run_topk(args: argparse.Namespace) -> None:
    session = EgoSession(
        _load_graph(args),
        backend=args.backend,
        kernel=args.kernel,
        shards=args.shards,
        partitioner=args.partitioner,
    )
    result = session.top_k(
        args.k,
        algorithm=args.method,
        theta=args.theta,
        parallel=args.parallel,
        executor=args.executor,
    )
    # Snapshot the stats before close(): closing detaches the runtimes,
    # and with them the runtime-side accounting (sharded batches, ships).
    session_stats = session.stats().as_dict()
    session.close()
    entries = [
        {"rank": rank + 1, "vertex": vertex, "ego_betweenness": score}
        for rank, (vertex, score) in enumerate(result.entries)
    ]
    if args.json:
        _emit_json(
            {
                "command": "topk",
                "k": args.k,
                "algorithm": result.stats.algorithm,
                "theta": args.theta,
                "entries": entries,
                "search_stats": vars(result.stats),
                "session": session_stats,
            }
        )
        return
    rows = [
        {**entry, "ego_betweenness": round(entry["ego_betweenness"], 4)}
        for entry in entries
    ]
    print(format_table(rows, title=f"Top-{args.k} ego-betweenness ({result.stats.algorithm})"))
    print(
        f"exact computations: {result.stats.exact_computations}, "
        f"elapsed: {result.stats.elapsed_seconds:.4f}s"
    )


def _run_stats(args: argparse.Namespace) -> None:
    graph = _load_graph(args)
    statistics = graph_statistics(graph).as_dict()
    if args.json:
        _emit_json({"command": "stats", "statistics": statistics})
        return
    print(format_table([statistics], title="Graph statistics"))


def _run_maintain(args: argparse.Namespace) -> None:
    """Replay a generated update stream through maintenance sessions."""
    from repro.dynamic.stream import apply_stream, generate_update_stream

    graph = _load_graph(args)
    stream = generate_update_stream(
        graph, args.updates, seed=args.seed, insert_fraction=args.insert_fraction
    )
    inserts = sum(1 for event in stream if event.operation == "insert")

    # One session maintains everything the chosen mode asks for: the exact
    # index exists only when "local" work was requested (the session builds
    # it on demand), and a "lazy"-only run pays just the lazy maintainer
    # plus topology bookkeeping.  Per-row timings come from each
    # component's own update timer (EgoSession.maintenance_seconds), so the
    # table compares the algorithms, not the combined session wall-clock.
    session = EgoSession(graph, backend=args.backend, kernel=args.kernel)
    if args.mode in ("local", "both"):
        session.scores()  # demand full values: the promotion seeds the index
        session.promote()
    if args.mode in ("lazy", "both"):
        session.maintained_top_k(args.k, mode="lazy")  # attach before the stream
    applied = apply_stream(session, stream)
    timings = session.maintenance_seconds()

    rows = []
    if args.mode in ("local", "both"):
        rows.append(
            {
                "algorithm": "LocalInsert/Delete",
                "backend": session.backend,
                "events": applied,
                "mean_us_per_update": round(timings["index"] / max(applied, 1) * 1e6, 1),
                "exact_recomputations": "-",
                "skipped": "-",
            }
        )
    if args.mode in ("lazy", "both"):
        counters = session.lazy_counters(args.k)
        rows.append(
            {
                "algorithm": f"LazyTopK (k={args.k})",
                "backend": session.backend,
                "events": applied,
                "mean_us_per_update": round(
                    timings["lazy"][args.k] / max(applied, 1) * 1e6, 1
                ),
                "exact_recomputations": counters["exact_recomputations"],
                "skipped": counters["skipped_recomputations"],
            }
        )
    ranked = []
    if args.mode in ("lazy", "both"):
        top = session.maintained_top_k(args.k, mode="lazy")
        ranked = [
            {"rank": rank + 1, "vertex": vertex, "ego_betweenness": score}
            for rank, (vertex, score) in enumerate(top.entries)
        ]
    if args.json:
        payload: Dict[str, Any] = {
            "command": "maintain",
            "updates": len(stream),
            "insertions": inserts,
            "deletions": len(stream) - inserts,
            "maintainers": rows,
            "top_k": ranked,
            "session": session.stats().as_dict(),
        }
        _emit_json(payload)
        return
    title = (
        f"Dynamic maintenance over {len(stream)} updates "
        f"({inserts} insertions, {len(stream) - inserts} deletions)"
    )
    print(format_table(rows, title=title))
    if ranked:
        rounded = [
            {**entry, "ego_betweenness": round(entry["ego_betweenness"], 4)}
            for entry in ranked
        ]
        print(format_table(rounded, title=f"Maintained top-{args.k} after the stream"))


def _load_tenant_graphs(args: argparse.Namespace) -> Dict[str, Any]:
    names = [name.strip() for name in args.datasets.split(",") if name.strip()]
    known = set(dataset_names())
    unknown = [name for name in names if name not in known]
    if unknown:
        raise DatasetError(
            f"unknown dataset(s) {', '.join(sorted(unknown))}; "
            f"choose from {', '.join(sorted(known))}"
        )
    return {name: load_dataset(name, scale=args.scale) for name in names}


def _run_serve(args: argparse.Namespace) -> None:
    """Bind an EgoServer on the tenants and run until a signal drains it."""
    import asyncio

    from repro.net import EgoServer
    from repro.serving import ServingGateway

    graphs = _load_tenant_graphs(args)
    host, _, port_text = args.http.partition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_text or "0")
    except ValueError:
        raise ReproError(f"malformed --http address {args.http!r}; use HOST:PORT")

    async def run() -> Dict[str, Any]:
        gateway = ServingGateway(
            window_seconds=args.window_ms / 1e3,
            max_batch=args.max_batch,
            parallel=args.workers or None,
            executor=args.executor,
            request_deadline=args.request_deadline,
            durability_root=args.wal_dir,
            result_cache_size=args.result_cache,
        )
        session_options: Dict[str, Any] = {"kernel": args.kernel}
        if args.task_deadline is not None:
            session_options["task_deadline"] = args.task_deadline
        if args.shards:
            session_options["shards"] = args.shards
            session_options["partitioner"] = args.partitioner
        for name, graph in graphs.items():
            gateway.add_tenant(name, graph, **session_options)
        server = EgoServer(
            gateway,
            host=host,
            port=port,
            max_connections=args.max_connections,
            max_inflight_per_tenant=args.max_inflight,
            encoded_cache_size=args.encoded_cache,
            drain_seconds=args.drain_seconds,
        )
        await server.start()
        server.install_signal_handlers()
        print(
            f"serving {len(graphs)} tenants on {server.host}:{server.port} "
            "(native frames + HTTP /healthz /metrics /v1/query + WebSocket "
            "/ws; SIGTERM or Ctrl-C drains)",
            flush=True,
        )
        await server.serve_forever()
        return server.stats.as_dict()

    summary = asyncio.run(run())
    if args.json:
        _emit_json({"command": "serve", "mode": "http", "server": summary})
        return
    print(
        f"drained: {summary['requests']} requests "
        f"({summary['answered']} answered, {summary['errors']} errors, "
        f"{summary['shed']} shed, {summary['cancelled']} cancelled) over "
        f"{summary['connections']} connections; no segments leaked"
    )


def _run_partition(args: argparse.Namespace) -> None:
    """Plan a sharding and report it without running any queries."""
    from repro.graph.partition import partition_graph

    graph = _load_graph(args)
    plan = partition_graph(graph.to_compact(), args.shards, args.partitioner)
    summary = plan.summary()
    if args.json:
        _emit_json({"command": "partition", **summary})
        return
    rows = [
        {
            "shard": shard.index,
            "owned": shard.num_owned,
            "members": shard.num_members,
            "halo": shard.halo_count,
        }
        for shard in plan.shards
    ]
    print(
        format_table(
            rows,
            title=(
                f"Shard plan: {summary['shards']} shards "
                f"({summary['partitioner']} partitioner, "
                f"{summary['num_vertices']} vertices)"
            ),
        )
    )
    print(
        f"cut edges: {summary['cut_edges']}/{summary['total_edges']} "
        f"({summary['cut_edge_fraction']:.4f} of all edges); "
        f"halo overhead: {summary['halo_vertices']} duplicated vertices "
        f"({summary['halo_overhead']:.4f} of the vertex count)"
    )


def _run_recover(args: argparse.Namespace) -> None:
    """Recover (or fsck) a durability directory and report what happened."""
    from repro.durability import recover as durability_recover
    from repro.durability import verify as durability_verify

    if args.verify_only:
        report = durability_verify(args.directory)
        session = None
    else:
        # resume=False: inspection does not re-open the WAL for writing.
        session, report = durability_recover(args.directory, resume=False)

    ranked = []
    if session is not None and args.k > 0:
        result = session.top_k(args.k)
        ranked = [
            {"rank": rank + 1, "vertex": vertex, "ego_betweenness": score}
            for rank, (vertex, score) in enumerate(result.entries)
        ]

    if args.json:
        payload: Dict[str, Any] = {"command": "recover", "report": report.as_dict()}
        if ranked:
            payload["top_k"] = ranked
        if session is not None:
            payload["session"] = session.stats().as_dict()
        _emit_json(payload)
        return

    mode = "fsck" if report.verify_only else "recovery"
    verdict = "ok" if report.ok else "PROBLEMS FOUND"
    print(f"{mode} of {report.directory}: {verdict}")
    rows = [
        {
            "checkpoint_seq": report.checkpoint_sequence,
            "wal_last_seq": report.wal_last_sequence,
            "replayed": report.replayed_events,
            "skipped": report.skipped_events,
            "torn_bytes": report.torn_bytes_dropped,
            "segments": report.segments_scanned,
            "elapsed_s": round(report.elapsed_seconds, 4),
        }
    ]
    print(format_table(rows, title=f"{mode.capitalize()} report"))
    if report.checkpoint_path:
        print(f"checkpoint: {report.checkpoint_path}")
    if report.invalid_checkpoints:
        for path in report.invalid_checkpoints:
            print(f"invalid checkpoint skipped: {path}")
    for error in report.wal_errors:
        print(f"WAL error: {error}")
    if session is not None:
        print(
            f"recovered graph: {report.num_vertices} vertices, "
            f"{report.num_edges} edges"
            + (", memoised values restored" if report.values_restored else "")
        )
    if ranked:
        rounded = [
            {**entry, "ego_betweenness": round(entry["ego_betweenness"], 4)}
            for entry in ranked
        ]
        print(format_table(rounded, title=f"Top-{args.k} after recovery"))


def _run_checkpoint(args: argparse.Namespace) -> None:
    """Force a checkpoint: recover, snapshot, prune the covered WAL."""
    from repro.durability import recover as durability_recover

    session, report = durability_recover(args.directory)
    try:
        # Warm the values first so the snapshot carries them: the next
        # recover with an empty WAL tail then restores the memo instead of
        # recomputing from scratch.
        session.scores()
        path = str(session.checkpoint())
        stats = session.stats().as_dict()
    finally:
        session.close()
    if args.json:
        _emit_json(
            {
                "command": "checkpoint",
                "checkpoint_path": path,
                "report": report.as_dict(),
                "session": stats,
            }
        )
        return
    durability = stats.get("durability") or {}
    wal = durability.get("wal", {})
    print(f"checkpoint written: {path}")
    print(
        f"covers sequence {wal.get('last_sequence', report.wal_last_sequence)} "
        f"({report.replayed_events} events replayed from the WAL tail; "
        f"{wal.get('segments', 0)} segment(s) remain after pruning)"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "topk":
            _run_topk(args)
        elif args.command == "stats":
            _run_stats(args)
        elif args.command == "maintain":
            _run_maintain(args)
        elif args.command == "serve":
            _run_serve(args)
        elif args.command == "partition":
            _run_partition(args)
        elif args.command == "recover":
            _run_recover(args)
        elif args.command == "checkpoint":
            _run_checkpoint(args)
        elif args.command == "experiment":
            kwargs = {} if args.backend is None else {"backend": args.backend}
            result = run_experiment(args.experiment_id, scale=args.scale, **kwargs)
            print(result.render())
        elif args.command == "datasets":
            print(format_table(registry_table(scale=0.25), title="Registry datasets (scale=0.25)"))
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
