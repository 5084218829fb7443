"""Tests for the command-line interface."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main
from repro.graph.generators import barabasi_albert_graph
from repro.graph.io import write_edge_list


@pytest.fixture
def edge_list_file(tmp_path):
    graph = barabasi_albert_graph(60, 2, seed=1)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_topk_defaults(self):
        args = build_parser().parse_args(["topk", "--dataset", "dblp"])
        assert args.k == 10
        assert args.method == "opt"

    def test_mutually_exclusive_sources(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["topk", "--dataset", "dblp", "--edge-list", "x.txt"]
            )


class TestCommands:
    def test_topk_on_edge_list(self, edge_list_file, capsys):
        assert main(["topk", "--edge-list", edge_list_file, "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "Top-3" in out
        assert "exact computations" in out

    def test_topk_methods(self, edge_list_file, capsys):
        for method in ("base", "naive"):
            assert main(["topk", "--edge-list", edge_list_file, "-k", "2", "--method", method]) == 0

    def test_stats_on_dataset(self, capsys):
        assert main(["stats", "--dataset", "youtube", "--scale", "0.08"]) == 0
        out = capsys.readouterr().out
        assert "Graph statistics" in out

    def test_maintain_on_dataset(self, capsys):
        assert main(
            ["maintain", "--dataset", "youtube", "--scale", "0.08",
             "--updates", "20", "-k", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "Dynamic maintenance over 20 updates" in out
        assert "LazyTopK" in out
        assert "Maintained top-3" in out

    def test_maintain_backends_agree(self, edge_list_file, capsys):
        outputs = []
        for backend in ("compact", "hash"):
            assert main(
                ["maintain", "--edge-list", edge_list_file, "--updates", "15",
                 "-k", "2", "--mode", "lazy", "--backend", backend]
            ) == 0
            out = capsys.readouterr().out
            outputs.append(out[out.index("Maintained top-2"):])
        assert outputs[0] == outputs[1]

    def test_experiment_backend_forwarded(self, capsys):
        assert main(
            ["experiment", "fig8", "--scale", "0.08", "--backend", "hash"]
        ) == 0
        out = capsys.readouterr().out
        assert "backend=hash" in out

    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "LiveJournal" in out

    def test_experiment_command(self, capsys):
        assert main(["experiment", "table1", "--scale", "0.08"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out

    def test_topk_json_payload(self, edge_list_file, capsys):
        import json

        assert main(["topk", "--edge-list", edge_list_file, "-k", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "topk"
        assert payload["algorithm"] == "OptBSearch"
        assert len(payload["entries"]) == 3
        assert payload["entries"][0]["rank"] == 1
        assert payload["search_stats"]["exact_computations"] >= 3
        assert payload["session"]["backend"] == "compact"
        assert payload["session"]["queries"] == {"top_k": 1}

    def test_topk_json_matches_table_entries(self, edge_list_file, capsys):
        import json

        assert main(["topk", "--edge-list", edge_list_file, "-k", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["topk", "--edge-list", edge_list_file, "-k", "4"]) == 0
        table = capsys.readouterr().out
        for entry in payload["entries"]:
            assert str(entry["vertex"]) in table

    def test_stats_json_payload(self, capsys):
        import json

        assert main(["stats", "--dataset", "dblp", "--scale", "0.08", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "stats"
        assert payload["statistics"]["n"] > 0

    def test_maintain_json_payload(self, edge_list_file, capsys):
        import json

        assert main(
            ["maintain", "--edge-list", edge_list_file, "--updates", "12",
             "-k", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "maintain"
        assert payload["updates"] == 12
        assert len(payload["maintainers"]) == 2
        assert len(payload["top_k"]) == 2
        assert payload["session"]["state"] == "dynamic"
        assert payload["session"]["update_events"] == 12

    def test_experiment_without_backend_does_not_warn(self, capsys, recwarn):
        assert main(["experiment", "table1", "--scale", "0.08"]) == 0
        assert not [w for w in recwarn.list if "cross-cutting" in str(w.message)]

    def test_missing_edge_list_raises_os_error(self):
        with pytest.raises(OSError):
            main(["topk", "--edge-list", "/nonexistent/file.txt", "-k", "2"])

    def test_topk_invalid_k_reports_error(self, edge_list_file, capsys):
        exit_code = main(["topk", "--edge-list", edge_list_file, "-k", "0"])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    def test_serve_requires_http(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--datasets", "dblp"])
        assert exit_info.value.code == 2
        assert "--http" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--clients", "4"], ["--requests", "2"], ["--chaos"]]
    )
    def test_serve_rejects_load_generator_flags(self, flag, capsys):
        """``serve`` is only the network server: the load flags are gone."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--datasets", "dblp", "--http", "127.0.0.1:0", *flag])
        assert exit_info.value.code == 2
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["topk", "--dataset", "dblp", "--shards", "2"],
            ["topk", "--dataset", "dblp", "--partitioner", "community"],
            ["serve", "--datasets", "dblp", "--http", "127.0.0.1:0", "--shards", "2"],
        ],
    )
    def test_sharding_flags_are_rejected(self, argv, capsys):
        """Every graph is one payload: the sharding flags are gone."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    def test_partition_is_not_a_verb(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["partition", "--dataset", "dblp", "--shards", "2"])
        assert exit_info.value.code == 2
        assert "partition" in capsys.readouterr().err


def _executor_cases():
    """``(verb, choice)`` for every verb whose parser offers ``--executor``.

    ``serve`` runs until a signal drains it; its executor choices run in
    ``tests/test_net.py::TestDrain``.
    """
    parser = build_parser()
    verbs = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return [
        (verb, choice)
        for verb, verb_parser in verbs.choices.items()
        if verb != "serve"
        for action in verb_parser._actions
        if "--executor" in action.option_strings
        for choice in action.choices
    ]


#: Minimal tiny-graph arguments per verb; a verb that gains ``--executor``
#: without an entry here fails the test below with a KeyError.
_TINY_ARGS = {
    "topk": lambda path: ["--edge-list", path, "-k", "3", "--parallel", "2"],
}


@pytest.mark.parallel
@pytest.mark.parametrize("verb,executor", _executor_cases())
def test_every_executor_choice_runs(verb, executor, edge_list_file, capsys):
    argv = [verb, *_TINY_ARGS[verb](edge_list_file), "--executor", executor]
    assert main(argv) == 0
