"""SpatialIndexServer: ops over the wire, batching, checkpoints,
commit at once, and fail-stop under injected faults."""

import asyncio
import errno
import os
import threading

import pytest

from repro.geometry import Point, Rect
from repro.obs import Tracer, tracing
from repro.quadtree import PRQuadtree
from repro.service import (
    ServiceError,
    SpatialIndexServer,
    open_state,
    wal_path_for,
)
from repro.service.cli import main as serve_main
from repro.service.loadgen import ServiceClient
from repro.service.wal import OP_INSERT
from repro.storage import PagedPRQuadtree, PageFile
from repro.workloads import UniformPoints


def _with_server(tmp_path, coroutine_fn, tracer=None, **server_kwargs):
    """Run ``coroutine_fn(server, client)`` against a fresh server on an
    ephemeral port, tearing everything down afterwards."""

    async def go():
        tree, wal, _ = open_state(
            tmp_path / "state.pf", create=True, capacity=4
        )
        server = SpatialIndexServer(tree, wal, port=0, **server_kwargs)
        await server.start()
        host, port = server.address
        client = await ServiceClient.connect(host, port)
        try:
            return await coroutine_fn(server, client)
        finally:
            await client.close()
            await server.stop()

    if tracer is not None:
        with tracing(tracer):
            return asyncio.run(go())
    return asyncio.run(go())


class TestOps:
    def test_insert_delete_semantics(self, tmp_path):
        async def go(server, client):
            r1 = await client.call("insert", point=[0.25, 0.75])
            r2 = await client.call("insert", point=[0.25, 0.75])
            r3 = await client.call("delete", point=[0.25, 0.75])
            r4 = await client.call("delete", point=[0.25, 0.75])
            return r1, r2, r3, r4

        r1, r2, r3, r4 = _with_server(tmp_path, go)
        assert (r1["ok"], r1["result"]) == (True, True)
        assert (r2["ok"], r2["result"]) == (True, False)  # duplicate
        assert (r3["ok"], r3["result"]) == (True, True)
        assert (r4["ok"], r4["result"]) == (True, False)  # already gone

    def test_range_and_nearest_match_local_tree(self, tmp_path):
        points = UniformPoints(seed=5).generate(200)
        local = PRQuadtree(capacity=4)
        local.insert_many(points)

        async def go(server, client):
            for p in points:
                await client.call("insert", point=list(p.coords))
            box = await client.call(
                "range", lo=[0.2, 0.1], hi=[0.7, 0.5]
            )
            near = await client.call("nearest", point=[0.31, 0.62], k=5)
            return box["result"], near["result"]

        box, near = _with_server(tmp_path, go)
        expected_box = local.range_search(
            Rect(Point(0.2, 0.1), Point(0.7, 0.5))
        )
        assert sorted(map(tuple, box)) == \
            sorted(tuple(p.coords) for p in expected_box)
        assert [tuple(p) for p in near] == \
            [tuple(p.coords) for p in local.nearest(Point(0.31, 0.62), 5)]

    def test_census_and_stat(self, tmp_path):
        async def go(server, client):
            for p in UniformPoints(seed=9).generate(150):
                await client.call("insert", point=list(p.coords))
            census = await client.call("census")
            stat = await client.call("stat")
            ping = await client.call("ping")
            return census["result"], stat["result"], ping["result"]

        census, stat, ping = _with_server(tmp_path, go)
        assert ping == "pong"
        assert census["points"] == 150
        assert sum(
            i * c for i, c in enumerate(census["counts"])
        ) == 150
        assert census["generation"] == 0
        assert stat["points"] == 150
        assert stat["capacity"] == 4
        assert stat["dim"] == 2
        assert stat["sessions"] == 1
        assert stat["wal_records"] == 150
        assert stat["ops"]["insert"] == 150
        assert "drift" in stat and "pool" in stat

    def test_stat_reports_latency_histograms_when_traced(self, tmp_path):
        async def go(server, client):
            await client.call("insert", point=[0.5, 0.5])
            stat = await client.call("stat")
            return stat["result"]

        stat = _with_server(tmp_path, go, tracer=Tracer())
        assert stat["latency_ms"]["insert"]["count"] == 1
        assert stat["latency_ms"]["insert"]["p99_ms"] > 0


class TestErrors:
    @pytest.mark.parametrize("request_fields", [
        {"op": "insert"},                                # missing point
        {"op": "insert", "point": "nope"},               # not a list
        {"op": "insert", "point": []},                   # empty
        {"op": "insert", "point": [0.1, "x"]},           # non-numeric
        {"op": "insert", "point": [0.1, 0.2, 0.3]},      # wrong dim
        {"op": "insert", "point": [2.0, 2.0]},           # out of bounds
        {"op": "nearest", "point": [0.5, 0.5], "k": 0},  # bad k
        {"op": "nearest", "point": [0.5, 0.5], "k": True},
        {"op": "range", "lo": [0.0, 0.0]},               # missing hi
        {"op": "frobnicate"},                            # unknown op
        {},                                              # no op at all
    ])
    def test_bad_requests_get_error_responses(self, tmp_path,
                                              request_fields):
        async def go(server, client):
            bad = await client.call(**{"op": "invalid", **request_fields}) \
                if "op" not in request_fields else \
                await client.call(
                    request_fields["op"],
                    **{k: v for k, v in request_fields.items() if k != "op"}
                )
            good = await client.call("ping")  # connection survived
            return bad, good

        bad, good = _with_server(tmp_path, go)
        assert bad["ok"] is False
        assert isinstance(bad["error"], str) and bad["error"]
        assert good["result"] == "pong"

    def test_undecodable_frame_drops_connection(self, tmp_path):
        async def go(server, client):
            client._writer.write(b"\x00\x00\x00\x04junk")
            await client._writer.drain()
            # server should close on us; next call fails
            with pytest.raises(Exception):
                await asyncio.wait_for(client.call("ping"), timeout=5)
            return server.protocol_errors

        assert _with_server(tmp_path, go) == 1


class TestBatchingAndCheckpoints:
    def test_pipelined_mutations_share_group_commits(self, tmp_path):
        tracer = Tracer()

        async def go(server, client):
            futures = [
                await client.submit("insert", point=[x / 300.0, 0.5])
                for x in range(200)
            ]
            responses = await asyncio.gather(*futures)
            assert all(r["ok"] and r["result"] for r in responses)

        _with_server(tmp_path, go, tracer=tracer)
        syncs = tracer.counters["service.wal.sync_calls"]
        assert tracer.counters["service.wal.append"] == 200
        assert syncs < 200 / 4  # group commit actually batched

    def test_checkpoint_op_bumps_generation_and_rotates_wal(self, tmp_path):
        async def go(server, client):
            await client.call("insert", point=[0.5, 0.5])
            before = (await client.call("stat"))["result"]
            ck = await client.call("checkpoint")
            after = (await client.call("stat"))["result"]
            return before, ck, after

        before, ck, after = _with_server(tmp_path, go)
        assert before["generation"] == 0
        assert before["wal_records"] == 1
        assert ck["result"] == 1
        assert after["generation"] == 1
        assert after["wal_records"] == 0  # fresh log after rotation

    def test_automatic_checkpoint_by_mutation_count(self, tmp_path):
        async def go(server, client):
            for x in range(30):
                await client.call("insert", point=[x / 30.0, 0.25])
            return (await client.call("stat"))["result"]

        stat = _with_server(tmp_path, go, checkpoint_every=10)
        assert stat["generation"] >= 2
        assert stat["mutations_since_checkpoint"] < 10

    def test_mutation_order_preserved_within_connection(self, tmp_path):
        async def go(server, client):
            # pipelined insert→delete→insert of the SAME point: final
            # state depends on application order, not ack order
            futures = []
            for op in ("insert", "delete", "insert"):
                futures.append(await client.submit(op, point=[0.5, 0.5]))
            responses = await asyncio.gather(*futures)
            assert [r["result"] for r in responses] == [True, True, True]
            census = await client.call("census")
            return census["result"]["points"]

        assert _with_server(tmp_path, go) == 1


class TestCommitAtOnce:
    def test_idle_mutation_acks_without_a_timer(self, tmp_path):
        async def go():
            tree, wal, _ = open_state(
                tmp_path / "state.pf", create=True, capacity=4
            )
            server = SpatialIndexServer(tree, wal, port=0)
            await server.start()
            try:
                future = server.enqueue_mutation(OP_INSERT, Point(0.5, 0.5))
                for _ in range(5):
                    await asyncio.sleep(0)
                return future.done() and future.result()
            finally:
                await server.stop()

        assert asyncio.run(go()) is True


def _inject(monkeypatch, owner, name, fault, calls):
    """Make ``owner.name`` raise ``fault`` from its ``calls``-th call
    on; returns the list of calls seen."""
    real = getattr(owner, name)
    seen = []

    def injected(*args):
        seen.append(args)
        if len(seen) >= calls:
            raise fault
        return real(*args)

    monkeypatch.setattr(owner, name, injected)
    return seen


def _inject_fsync_eio(monkeypatch):
    return _inject(monkeypatch, os, "fsync",
                   OSError(errno.EIO, os.strerror(errno.EIO)), calls=3)


def _inject_insert_fault(monkeypatch):
    return _inject(monkeypatch, PagedPRQuadtree, "insert",
                   RuntimeError("injected handler fault"), calls=20)


def _inject_checkpoint_enospc(monkeypatch):
    return _inject(monkeypatch, PageFile, "checkpoint",
                   OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), calls=1)


class TestFailStop:
    """A commit failure reaches every waiting client, blocks later
    writes, keeps reads up, and loses no acknowledged mutation."""

    @pytest.mark.parametrize("inject, error, server_kwargs, calls", [
        (_inject_fsync_eio, f"[Errno {errno.EIO}]", {}, 3),
        (_inject_insert_fault, "injected handler fault", {}, 20),
        (_inject_checkpoint_enospc, f"[Errno {errno.ENOSPC}]",
         {"checkpoint_every": 24}, 1),
    ], ids=["fsync-eio", "insert-raises", "checkpoint-enospc"])
    def test_fault_fails_every_waiter_and_recovers_acked_set(
        self, tmp_path, monkeypatch, inject, error, server_kwargs, calls
    ):
        points = UniformPoints(seed=16).generate(120)
        expected = f"writer failed: {error}"

        async def go():
            tree, wal, _ = open_state(
                tmp_path / "state.pf", create=True, capacity=4
            )
            # small batches, so the fault lands mid-stream
            server = SpatialIndexServer(
                tree, wal, port=0, max_batch=8, **server_kwargs
            )
            await server.start()
            clients = [
                await ServiceClient.connect(*server.address)
                for _ in range(3)
            ]
            seen = inject(monkeypatch)
            try:
                sent = [
                    (p, await clients[i % 3].submit(
                        "insert", point=list(p.coords)
                    ))
                    for i, p in enumerate(points)
                ]
                responses = await asyncio.wait_for(
                    asyncio.gather(*(f for _, f in sent)), timeout=10
                )
                later = await asyncio.wait_for(
                    clients[0].call("insert", point=[0.5, 0.5]), timeout=10
                )
                box = await asyncio.wait_for(
                    clients[1].call("range", lo=[0.0, 0.0], hi=[1.0, 1.0]),
                    timeout=10,
                )
                stat = await clients[2].call("stat")
                metrics = await clients[2].call("metrics")
                refused_checkpoint = await clients[2].call("checkpoint")
            finally:
                for client in clients:
                    await client.close()
                await asyncio.wait_for(server.stop(), timeout=10)
            acked = {
                p.coords for (p, _), r in zip(sent, responses) if r["ok"]
            }
            failed = [r for r in responses if not r["ok"]]
            return (acked, failed, later, box, stat, metrics,
                    refused_checkpoint, len(seen))

        acked, failed, later, box, stat, metrics, refused, seen = \
            asyncio.run(go())
        assert seen == calls  # the fault fired once, never retried
        assert failed, "the fault never reached a client"
        assert all(r["error"].startswith(expected) for r in failed)
        assert len(acked) + len(failed) == len(points)
        assert later["ok"] is False and later["error"].startswith(expected)
        assert refused["ok"] is False
        assert box["ok"] is True
        assert {tuple(p) for p in box["result"]} == acked
        assert stat["result"]["writer_state"].startswith(expected)
        assert metrics["result"]["writer_state"].startswith(expected)

        monkeypatch.undo()
        tree, wal, _ = open_state(tmp_path / "state.pf")
        try:
            assert {p.coords for p in tree.range_search(tree.bounds)} == acked
            assert len(tree) == len(acked)
        finally:
            wal.close()
            tree.close()

    def test_healthy_server_reports_writer_ok(self, tmp_path):
        async def go(server, client):
            await client.call("insert", point=[0.5, 0.5])
            stat = await client.call("stat")
            metrics = await client.call("metrics")
            return stat["result"], metrics["result"]

        stat, metrics = _with_server(tmp_path, go)
        assert stat["writer_state"] == metrics["writer_state"] == "ok"

    def test_serve_stat_prints_the_writer_state(
        self, tmp_path, monkeypatch, capsys
    ):
        # the server runs on its own loop, since `serve stat` runs one
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()

        def run(coroutine):
            return asyncio.run_coroutine_threadsafe(coroutine, loop).result(10)

        async def start():
            tree, wal, _ = open_state(
                tmp_path / "state.pf", create=True, capacity=4
            )
            server = SpatialIndexServer(tree, wal, port=0)
            await server.start()
            return server

        async def failed_checkpoint():
            _inject_checkpoint_enospc(monkeypatch)
            with pytest.raises(ServiceError):
                server.checkpoint()

        server = run(start())
        try:
            argv = ["stat", "--port", str(server.address[1])]
            assert serve_main(argv) == 0
            healthy = capsys.readouterr().out
            run(failed_checkpoint())
            assert serve_main(argv) == 0
            poisoned = capsys.readouterr().out
        finally:
            run(server.stop())
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10)
            loop.close()
        assert "\n  writer   : ok\n" in healthy
        assert f"\n  writer   : writer failed: [Errno {errno.ENOSPC}]" \
            in poisoned


class TestLeafFull:
    """A full leaf pinned at the depth limit refuses the insert that
    does not fit; the writer stays up for every other client."""

    def test_refused_insert_does_not_poison_the_writer(self, tmp_path):
        import math
        import shutil

        # 30 distinct points inside one depth-32 block: the 2-d path
        # limit pins that leaf, and a 512-byte page holds 24 points
        base = math.floor(0.3 * 2 ** 32) / 2 ** 32 + 1e-11
        crowd = [[base + i * 1e-13, base + i * 1e-13] for i in range(30)]
        crash = tmp_path / "crash"
        crash.mkdir()
        tracer = Tracer()

        async def go():
            tree, wal, _ = open_state(
                tmp_path / "state.pf", create=True, capacity=4,
                page_size=512,
            )
            server = SpatialIndexServer(tree, wal, port=0)
            await server.start()
            crowding = await ServiceClient.connect(*server.address)
            other = await ServiceClient.connect(*server.address)
            try:
                responses = [
                    await crowding.call("insert", point=p) for p in crowd
                ]
                later = await other.call("insert", point=[0.7, 0.2])
                stat = await other.call("stat")
                # the log is fsynced through `later`: copying it now is
                # the state a crash at this instant leaves
                for name in ("state.pf", "state.pf.wal"):
                    shutil.copy(tmp_path / name, crash / name)
            finally:
                await crowding.close()
                await other.close()
                await server.stop()
            return responses, later, stat

        with tracing(tracer):
            responses, later, stat = asyncio.run(go())
        assert [r["ok"] for r in responses] == [True] * 24 + [False] * 6
        assert all(r["result"] is True for r in responses[:24])
        assert all(
            r["error"] == "leaf at depth limit is full"
            for r in responses[24:]
        )
        assert tracer.counters["service.leaf_full"] == 6
        assert later["ok"] is True and later["result"] is True
        assert stat["result"]["writer_state"] == "ok"

        expected = {tuple(p) for p in crowd[:24]} | {(0.7, 0.2)}
        for state in (tmp_path / "state.pf", crash / "state.pf"):
            tree, wal, replayed = open_state(state)
            try:
                # the clean stop checkpointed; the crash copy replays
                # all 31 logged inserts and refuses the same 6 again
                assert replayed == (31 if state.parent == crash else 0)
                assert {p.coords for p in tree.range_search(tree.bounds)} \
                    == expected
                tree.validate()
            finally:
                wal.close()
                tree.close()


class TestLifecycle:
    def test_shutdown_op_stops_serve_forever(self, tmp_path):
        async def go():
            tree, wal, _ = open_state(
                tmp_path / "state.pf", create=True, capacity=4
            )
            server = SpatialIndexServer(tree, wal, port=0)
            await server.start()
            host, port = server.address
            serving = asyncio.ensure_future(server.serve_forever())
            client = await ServiceClient.connect(host, port)
            response = await client.call("shutdown")
            await client.close()
            await asyncio.wait_for(serving, timeout=10)
            return response

        response = asyncio.run(go())
        assert response["ok"] and response["result"] is True

    def test_state_survives_clean_restart(self, tmp_path):
        points = UniformPoints(seed=3).generate(80)

        async def first(server, client):
            for p in points:
                await client.call("insert", point=list(p.coords))

        _with_server(tmp_path, first)
        tree, wal, replayed = open_state(tmp_path / "state.pf")
        try:
            # clean stop checkpoints: nothing to replay, nothing lost
            assert replayed == 0
            assert len(tree) == len(set(points))
            for p in points:
                assert tree.contains(p)
        finally:
            wal.close()
            tree.close()

    def test_queued_mutations_drain_on_stop(self, tmp_path):
        async def go():
            tree, wal, _ = open_state(
                tmp_path / "state.pf", create=True, capacity=4
            )
            server = SpatialIndexServer(tree, wal, port=0)
            await server.start()
            futures = [
                server.enqueue_mutation(1, Point(x / 50.0, 0.5))
                for x in range(40)
            ]
            await server.stop()
            return [f.result() for f in futures if f.done()]

        results = asyncio.run(go())
        assert len(results) == 40
        assert all(results)

    def test_stopping_server_refuses_mutations_over_the_wire(self, tmp_path):
        async def go():
            tree, wal, _ = open_state(
                tmp_path / "state.pf", create=True, capacity=4
            )
            server = SpatialIndexServer(tree, wal, port=0)
            await server.start()
            client = await ServiceClient.connect(*server.address)
            server._closed = True  # what stop() sets first
            try:
                return await asyncio.wait_for(
                    client.call("insert", point=[0.5, 0.5]), timeout=10
                )
            finally:
                await client.close()
                server._closed = False
                await server.stop()

        response = asyncio.run(go())
        assert response == {
            "id": 1, "ok": False, "error": "server is shutting down",
        }

    def test_open_state_missing_file_without_create(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_state(tmp_path / "absent.pf")

    def test_wal_lives_beside_page_file(self, tmp_path):
        tree, wal, _ = open_state(tmp_path / "s.pf", create=True)
        try:
            assert wal.path == wal_path_for(tmp_path / "s.pf")
            assert wal.path.exists()
        finally:
            wal.close()
            tree.close()
