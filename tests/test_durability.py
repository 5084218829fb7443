"""Durability-plane tests: checkpoints, session integration, recovery, CLI.

The WAL framing itself is pinned by ``tests/test_wal.py``; the subprocess
crash drills live in ``tests/test_crash_recovery.py``.  Here we test the
layers above the log in-process: :class:`CheckpointStore`'s self-verifying
snapshots, the write-ahead discipline inside
:meth:`EgoSession.apply <repro.session.EgoSession.apply>`, the
checkpoint+replay equivalence of :func:`repro.durability.recover`, the
gateway's durable tenants and the ``repro recover`` / ``repro checkpoint``
CLI verbs.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.cli import main as cli_main
from repro.durability import (
    CheckpointStore,
    DurabilityManager,
    WriteAheadLog,
    recover,
    verify,
)
from repro.dynamic.stream import UpdateEvent, apply_stream, generate_update_stream
from repro.errors import (
    CheckpointCorruptionError,
    DurabilityError,
    InvalidParameterError,
    RecoveryError,
)
from repro.graph.dynamic_csr import DynamicCompactGraph
from repro.graph.generators import barabasi_albert_graph, erdos_renyi_graph
from repro.session import EgoSession


@pytest.fixture
def graph():
    return barabasi_albert_graph(60, 3, seed=11)


@pytest.fixture
def stream(graph):
    return generate_update_stream(graph, 30, seed=5)


class TestCheckpointStore:
    def test_write_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.write({"labels": [1, 2], "values": None}, sequence=7)
        payload = store.load(path)
        assert payload["labels"] == [1, 2]
        assert payload["last_sequence"] == 7
        assert store.list() == [path]

    def test_latest_prefers_the_highest_sequence(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write({"n": 1}, sequence=1)
        store.write({"n": 2}, sequence=9)
        latest = store.latest()
        assert latest["n"] == 2
        assert latest["__path__"].endswith("ckpt-00000000000000000009.bin")

    def test_retention_keeps_the_last_n(self, tmp_path):
        store = CheckpointStore(tmp_path, retain=2)
        for sequence in range(1, 6):
            store.write({"n": sequence}, sequence=sequence)
        on_disk = store.list()
        assert len(on_disk) == 2
        assert store.stats()["retired"] == 3
        assert store.latest()["n"] == 5

    def test_corrupt_checkpoint_is_skipped_by_latest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write({"n": 1}, sequence=1)
        newest = store.write({"n": 2}, sequence=2)
        data = bytearray(newest.read_bytes())
        data[-1] ^= 0xFF
        newest.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptionError):
            store.load(newest)
        assert store.latest()["n"] == 1  # falls back to the older valid one
        rows = {row["path"]: row["valid"] for row in store.verify()}
        assert rows[str(newest)] is False
        assert sum(rows.values()) == 1

    def test_truncated_checkpoint_is_invalid(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.write({"n": 1}, sequence=1)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(CheckpointCorruptionError):
            store.load(path)

    def test_no_temp_litter_after_writes(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write({"n": 1}, sequence=1)
        assert [p.name for p in tmp_path.iterdir()] == [
            "ckpt-00000000000000000001.bin"
        ]


class TestSessionDurability:
    def test_apply_logs_before_ack_and_stats_report_it(self, tmp_path, graph, stream):
        with EgoSession(graph, durability=tmp_path / "d") as session:
            assert session.durable
            applied = apply_stream(session, stream)
            stats = session.stats().as_dict()["durability"]
            assert stats["wal"]["appends"] == applied
            assert stats["wal"]["last_sequence"] == applied
            # The baseline checkpoint was written at attach time.
            assert stats["checkpoints"]["written_by_session"] >= 1
        # close() is the clean-shutdown fence.
        with pytest.raises(DurabilityError):
            session.apply(UpdateEvent("insert", 0, 1))

    def test_plain_session_reports_no_durability(self, graph):
        with EgoSession(graph) as session:
            assert not session.durable
            assert "durability" not in session.stats().as_dict()

    def test_durability_knobs_require_durability(self, graph):
        with pytest.raises(InvalidParameterError) as excinfo:
            EgoSession(graph, fsync="always")
        assert "fsync" in str(excinfo.value)

    def test_fresh_constructor_refuses_a_directory_with_history(
        self, tmp_path, graph, stream
    ):
        with EgoSession(graph, durability=tmp_path / "d") as session:
            apply_stream(session, stream[:5])
        with pytest.raises(RecoveryError):
            EgoSession(graph, durability=tmp_path / "d")

    def test_checkpoint_requires_the_plane(self, graph):
        with EgoSession(graph) as session:
            with pytest.raises(DurabilityError):
                session.checkpoint()

    def test_checkpoint_cadence_prunes_the_wal(self, tmp_path, graph, stream):
        with EgoSession(
            graph,
            durability=tmp_path / "d",
            checkpoint_every=10,
            segment_bytes=256,
        ) as session:
            apply_stream(session, stream)
            stats = session.stats().as_dict()["durability"]
            assert stats["checkpoints"]["written_by_session"] >= 3
            # Checkpoints prune covered segments: far fewer remain than
            # were ever rotated to.
            assert stats["wal"]["segments"] <= stats["wal"]["rotations"] + 1

    def test_checkpoint_is_a_recorded_query_kind(self, tmp_path, graph):
        with EgoSession(graph, durability=tmp_path / "d") as session:
            session.checkpoint()
            assert session.stats().queries.get("checkpoint", 0) >= 1


class TestRecovery:
    @pytest.mark.parametrize("backend", ["compact", "hash"])
    def test_recovered_scores_are_bit_identical(self, tmp_path, backend):
        graph = erdos_renyi_graph(50, 0.12, seed=21)
        stream = generate_update_stream(graph, 30, seed=5)
        oracle = EgoSession(graph, backend=backend)
        with EgoSession(
            graph, backend=backend, durability=tmp_path / "d"
        ) as session:
            apply_stream(session, stream)
            expected = session.scores()
        apply_stream(oracle, stream)
        assert expected == oracle.scores()

        recovered, report = recover(tmp_path / "d", backend=backend, resume=False)
        assert recovered.scores() == expected
        assert report.replayed_events + report.skipped_events == len(stream)
        assert recovered.recovery_report is report

    def test_checkpointed_dynamic_backend_recovers_as_compact(self, tmp_path, graph):
        # Sessions opened on a DynamicCompactGraph once checkpointed the
        # backend name "dynamic"; such a directory still recovers.
        source = EgoSession(DynamicCompactGraph.from_graph(graph))
        snapshot = source.snapshot()
        CheckpointStore(tmp_path / "d" / "checkpoints").write(
            {
                "graph_id": "overlay",
                "backend": "dynamic",
                "session_version": 0,
                "update_events": 0,
                "labels": list(snapshot.labels),
                "indptr": list(snapshot.indptr),
                "indices": list(snapshot.indices),
                "num_vertices": snapshot.num_vertices,
                "num_edges": snapshot.num_edges,
                "values": None,
            },
            sequence=0,
        )
        recovered, _ = recover(tmp_path / "d", resume=False)
        assert recovered.backend == "compact"
        assert recovered.graph_id == "overlay"
        assert recovered.scores() == source.scores()

    def test_values_restored_only_with_empty_tail(self, tmp_path, graph, stream):
        with EgoSession(graph, durability=tmp_path / "d") as session:
            apply_stream(session, stream)
            expected = session.scores()
            session.checkpoint()  # snapshot carries the warm values
        recovered, report = recover(tmp_path / "d", resume=False)
        assert report.values_restored
        assert report.replayed_events == 0
        assert recovered.scores() == expected

    def test_values_dropped_when_a_tail_must_replay(self, tmp_path, graph, stream):
        with EgoSession(graph, durability=tmp_path / "d") as session:
            session.scores()
            session.checkpoint()
            apply_stream(session, stream)  # tail past the checkpoint
        recovered, report = recover(tmp_path / "d", resume=False)
        assert report.replayed_events > 0
        assert not report.values_restored

    def test_resume_continues_the_same_wal(self, tmp_path, graph, stream):
        with EgoSession(graph, durability=tmp_path / "d") as session:
            apply_stream(session, stream)
        session = EgoSession.recover(tmp_path / "d")
        try:
            assert session.durable
            before = session.stats().as_dict()["durability"]["wal"]["last_sequence"]
            session.apply(UpdateEvent("insert", 201, 202))
            after = session.stats().as_dict()["durability"]["wal"]["last_sequence"]
            assert after == before + 1
        finally:
            session.close()
        # And the new event is durable: recover again and look for it.
        recovered, report = recover(tmp_path / "d", resume=False)
        assert 201 in recovered.scores() and 202 in recovered.scores()

    def test_recover_missing_directory_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            recover(tmp_path / "nope")

    def test_recover_without_checkpoint_raises(self, tmp_path, graph):
        # A WAL alone is not recoverable: no base snapshot to replay onto.
        (tmp_path / "d" / "checkpoints").mkdir(parents=True)
        WriteAheadLog(tmp_path / "d" / "wal").close()
        with pytest.raises(RecoveryError):
            recover(tmp_path / "d")

    def test_skipped_events_reproduce_the_acked_state(self, tmp_path, graph):
        # Force a logged-but-never-applied event: inserting an existing
        # edge raises live *after* the WAL append (write-ahead), so replay
        # must skip it — and end up in exactly the acked state.
        u, v = next(iter(graph.edges()))
        with EgoSession(graph, durability=tmp_path / "d") as session:
            with pytest.raises(Exception):
                session.apply(UpdateEvent("insert", u, v))
            session.apply(UpdateEvent("delete", u, v))
            expected = session.scores()
        recovered, report = recover(tmp_path / "d", resume=False)
        assert report.skipped_events == 1
        assert report.replayed_events == 1
        assert recovered.scores() == expected

    def test_verify_reports_without_repairing(self, tmp_path, graph, stream):
        with EgoSession(graph, durability=tmp_path / "d") as session:
            apply_stream(session, stream)
        [segment] = sorted((tmp_path / "d" / "wal").glob("wal-*.log"))
        size = segment.stat().st_size
        with open(segment, "r+b") as handle:
            handle.truncate(size - 2)  # torn tail
        report = verify(tmp_path / "d")
        assert report.verify_only
        assert report.ok  # a torn tail is a crash artefact, not corruption
        assert report.torn_bytes_dropped > 0
        assert segment.stat().st_size == size - 2  # fsck never repairs
        report_dict = report.as_dict()
        assert report_dict["replayed_events"] == report.replayed_events

    def test_verify_flags_corruption(self, tmp_path, graph, stream):
        with EgoSession(graph, durability=tmp_path / "d") as session:
            apply_stream(session, stream)
        [segment] = sorted((tmp_path / "d" / "wal").glob("wal-*.log"))
        data = bytearray(segment.read_bytes())
        data[20] ^= 0xFF
        segment.write_bytes(bytes(data))
        report = verify(tmp_path / "d")
        assert not report.ok
        assert report.wal_errors


class TestDurabilityManager:
    def test_checkpoint_syncs_then_prunes(self, tmp_path):
        manager = DurabilityManager(
            tmp_path, checkpoint_every=5, segment_bytes=128
        )
        try:
            for i in range(5):
                manager.log_event(UpdateEvent("insert", i, i + 1))
            assert manager.should_checkpoint()
            manager.write_checkpoint({"labels": [], "indptr": [0], "indices": []})
            assert not manager.should_checkpoint()
            stats = manager.stats()
            assert stats["checkpoints"]["written_by_session"] == 1
            assert stats["checkpoints"]["events_since_checkpoint"] == 0
        finally:
            manager.close()


@pytest.mark.serving
class TestGatewayDurability:
    def test_tenants_are_durable_under_a_root(self, tmp_path, graph):
        from repro.serving import ServingGateway

        async def run():
            async with ServingGateway(
                parallel=None, durability_root=str(tmp_path)
            ) as gateway:
                session = gateway.add_tenant("alpha", graph)
                assert session.durable
                session.apply(UpdateEvent("insert", 301, 302))
                return await gateway.scores("alpha")

        scores = asyncio.run(run())
        assert scores  # answered
        assert (tmp_path / "alpha" / "wal").is_dir()
        # The gateway closed the session; the directory now recovers.
        recovered, report = recover(tmp_path / "alpha", resume=False)
        assert 301 in recovered.scores() and 302 in recovered.scores()

    def test_recover_tenant_reattaches(self, tmp_path, graph):
        from repro.serving import ServingGateway

        async def seed():
            async with ServingGateway(
                parallel=None, durability_root=str(tmp_path)
            ) as gateway:
                session = gateway.add_tenant("alpha", graph)
                session.apply(UpdateEvent("insert", 301, 302))
                return await gateway.scores("alpha")

        async def revive():
            async with ServingGateway(
                parallel=None, durability_root=str(tmp_path)
            ) as gateway:
                session = gateway.recover_tenant("alpha")
                assert session.durable
                assert session.recovery_report is not None
                return await gateway.scores("alpha")

        before = asyncio.run(seed())
        after = asyncio.run(revive())
        assert after == before

    def test_explicit_session_opts_out(self, tmp_path, graph):
        from repro.serving import ServingGateway

        async def run():
            async with ServingGateway(
                parallel=None, durability_root=str(tmp_path)
            ) as gateway:
                session = gateway.add_tenant("alpha", graph, durability=None)
                return session.durable

        assert asyncio.run(run()) is False
        assert not (tmp_path / "alpha").exists()


class TestCli:
    def _seed(self, tmp_path, graph, stream):
        with EgoSession(graph, durability=tmp_path / "d") as session:
            apply_stream(session, stream)

    def test_recover_json(self, tmp_path, graph, stream, capsys):
        self._seed(tmp_path, graph, stream)
        code = cli_main(
            ["recover", "--dir", str(tmp_path / "d"), "-k", "3", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "recover"
        assert payload["report"]["ok"]
        assert payload["report"]["replayed_events"] == len(stream)
        assert len(payload["top_k"]) == 3

    def test_recover_verify_only(self, tmp_path, graph, stream, capsys):
        self._seed(tmp_path, graph, stream)
        code = cli_main(
            ["recover", "--dir", str(tmp_path / "d"), "--verify-only", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["verify_only"]
        assert payload["report"]["ok"]

    def test_recover_human_output(self, tmp_path, graph, stream, capsys):
        self._seed(tmp_path, graph, stream)
        assert cli_main(["recover", "--dir", str(tmp_path / "d")]) == 0
        out = capsys.readouterr().out
        assert "recovery of" in out
        assert "recovered graph" in out

    def test_recover_missing_dir_is_a_cli_error(self, tmp_path, capsys):
        code = cli_main(["recover", "--dir", str(tmp_path / "missing")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_verb_compacts(self, tmp_path, graph, stream, capsys):
        self._seed(tmp_path, graph, stream)
        code = cli_main(["checkpoint", "--dir", str(tmp_path / "d"), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "checkpoint"
        assert os.path.exists(payload["checkpoint_path"])
        # After the forced checkpoint the WAL tail is empty and warm
        # values ride along.
        code = cli_main(["recover", "--dir", str(tmp_path / "d"), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["report"]["replayed_events"] == 0
        assert payload["report"]["values_restored"]
