"""ServingServer: concurrent clients, conservation, drain, sockets, clocks.

The acceptance bar from the issue: >= 100 concurrent asyncio clients,
zero request loss (every accepted request answered exactly once), and a
clean graceful drain.  Everything runs on the virtual clock unless a
test is specifically about the real one, so the suite never waits wall
time.  No pytest-asyncio in the toolchain — each test drives its own
``asyncio.run``.
"""

import asyncio
import json

import pytest

from repro.errors import ServingError
from repro.serving import (
    RealClock,
    ServeRequest,
    ServingEngine,
    ServingServer,
    VirtualClock,
    request_to_json,
    uniform_arrivals,
)
from repro.workloads.deepbench import task

T = task("lstm", 512, 25)
GRU = task("gru", 256, 50)


def run(coro):
    return asyncio.run(coro)


class TestConservation:
    def test_100_concurrent_clients_zero_loss(self):
        """The acceptance criterion, pinned: 120 concurrent clients, every
        request answered, drain leaves nothing behind."""

        async def main():
            async with ServingServer("gpu", replicas=4, slo_ms=50.0) as server:
                responses = await asyncio.gather(
                    *(server.submit(T) for _ in range(120))
                )
            return server, responses

        server, responses = run(main())
        assert len(responses) == 120
        assert server.accepted == server.served == 120
        assert server.summary.n_requests == 120
        assert len({r.request.request_id for r in responses}) == 120
        assert sum(server.summary.per_replica_counts) == 120

    def test_closed_loop_clients(self):
        async def client(server, n):
            out = []
            for _ in range(n):
                out.append(await server.submit(T))
            return out

        async def main():
            async with ServingServer("gpu", replicas=2) as server:
                batches = await asyncio.gather(
                    *(client(server, 10) for _ in range(12))
                )
            return server, batches

        server, batches = run(main())
        assert server.accepted == server.served == 120
        assert all(len(b) == 10 for b in batches)

    def test_drain_flushes_queue_and_rejects_new(self):
        async def main():
            server = await ServingServer("gpu").start()
            pending = [
                asyncio.ensure_future(server.submit(T)) for _ in range(20)
            ]
            await asyncio.sleep(0)  # let every submit enqueue
            summary = await server.drain()
            responses = await asyncio.gather(*pending)
            with pytest.raises(ServingError, match="draining"):
                await server.submit(T)
            return server, summary, responses

        server, summary, responses = run(main())
        assert len(responses) == 20
        assert server.accepted == server.served == 20
        assert summary.n_requests == 20

    def test_drain_is_idempotent(self):
        async def main():
            async with ServingServer("gpu") as server:
                await server.submit(T)
            await server.drain()
            await server.drain()
            return server

        assert run(main()).served == 1


class TestTimeline:
    def test_single_replica_serializes(self):
        async def main():
            async with ServingServer("gpu", replicas=1) as server:
                return await asyncio.gather(
                    *(server.submit(T) for _ in range(25))
                ), server

        responses, server = run(main())
        latency = ServingEngine("gpu").serve(T).result.latency_s
        by_start = sorted(responses, key=lambda r: r.start_s)
        for prev, nxt in zip(by_start, by_start[1:]):
            assert nxt.start_s >= prev.finish_s - 1e-12
        for resp in responses:
            assert resp.start_s >= resp.request.arrival_s
            assert resp.finish_s == pytest.approx(resp.start_s + latency)
            assert resp.queue_delay_s >= 0.0

    def test_replicas_overlap(self):
        async def main():
            async with ServingServer("gpu", replicas=4) as server:
                return await asyncio.gather(
                    *(server.submit(T) for _ in range(40))
                ), server

        responses, server = run(main())
        single = sorted(r.finish_s for r in responses)[-1]
        # 4 replicas must finish the 40 requests ~4x sooner than one
        # replica's serial chain would.
        latency = ServingEngine("gpu").serve(T).result.latency_s
        assert single < 40 * latency * 0.5
        assert server.summary.n_replicas == 4

    def test_virtual_clock_closed_loop_advances(self):
        async def main():
            clock = VirtualClock()
            async with ServingServer("gpu", clock=clock) as server:
                first = await server.submit(T)
                second = await server.submit(T)
            return first, second

        first, second = run(main())
        # The clock advanced to the first finish, so the closed-loop
        # follow-up arrives there — not at time zero.
        assert second.request.arrival_s >= first.finish_s
        assert second.queue_delay_s == pytest.approx(0.0)

    def test_explicit_arrivals_preserved(self):
        async def main():
            reqs = uniform_arrivals(T, rate_per_s=100, n_requests=5)
            async with ServingServer("gpu") as server:
                return await server.serve_all(reqs)

        responses = run(main())
        assert [r.request.arrival_s for r in responses] == [
            pytest.approx((i + 1) * 0.01) for i in range(5)
        ]


class TestBatchingAndPolicies:
    def test_size_cap_batching_coalesces(self):
        async def main():
            async with ServingServer(
                "gpu", batcher="size-cap", max_batch=8
            ) as server:
                return await asyncio.gather(
                    *(server.submit(T) for _ in range(64))
                ), server

        responses, server = run(main())
        assert server.summary.mean_batch_size > 1.0
        sizes = {r.batch_size for r in responses}
        assert max(sizes) > 1
        for resp in responses:
            assert 0 <= resp.batch_index < resp.batch_size

    def test_batch_members_share_timeline(self):
        async def main():
            async with ServingServer(
                "gpu", batcher="size-cap", max_batch=4
            ) as server:
                return await asyncio.gather(
                    *(server.submit(T) for _ in range(32))
                )

        responses = run(main())
        by_start = {}
        for resp in responses:
            if resp.batch_size > 1:
                by_start.setdefault((resp.start_s, resp.finish_s), []).append(resp)
        assert by_start  # at least one real batch formed
        for (start, finish), members in by_start.items():
            assert len({m.result.latency_s for m in members}) == 1

    def test_closed_loop_batching_terminates(self):
        """Regression: a closed-loop client mix under size-cap batching
        once deadlocked — a batch follower stamped later than the head
        produced a non-positive sojourn, crashed the worker, and left
        every remaining client stranded.  The batch start must cover
        every member's arrival."""

        async def client(server, n):
            return [await server.submit(T) for _ in range(n)]

        async def main():
            async with ServingServer(
                "gpu", batcher="size-cap", max_batch=4, slo_ms=5.0
            ) as server:
                batches = await asyncio.gather(
                    *(client(server, 10) for _ in range(8))
                )
            return server, batches

        server, batches = run(main())
        assert server.accepted == server.served == 80
        for resp in (r for batch in batches for r in batch):
            assert resp.sojourn_s > 0.0
            assert resp.start_s >= resp.request.arrival_s

    def test_crashed_worker_fails_clients_instead_of_hanging(self):
        class _Exploding(list):
            def __getitem__(self, index):
                raise RuntimeError("injected replica failure")

        async def main():
            server = await ServingServer("gpu").start()
            server._free_at = _Exploding(server._free_at)
            return await asyncio.gather(
                *(server.submit(T) for _ in range(5)), return_exceptions=True
            )

        results = run(main())
        assert results and all(
            isinstance(r, RuntimeError) for r in results
        )

    def test_scheduler_registry_plugs_in(self):
        async def main():
            async with ServingServer("gpu", scheduler="edf", slo_ms=5.0) as server:
                await asyncio.gather(*(server.submit(T) for _ in range(10)))
            return server

        assert run(main()).summary.n_requests == 10

    def test_server_summary_matches_responses(self):
        async def main():
            async with ServingServer("gpu", slo_ms=5.0) as server:
                responses = await asyncio.gather(
                    *(server.submit(T) for _ in range(50))
                )
            return server, responses

        server, responses = run(main())
        summary = server.summary
        sojourns = sorted((r.finish_s - r.request.arrival_s) * 1e3 for r in responses)
        assert summary.n_requests == 50
        assert summary.max_sojourn_ms == pytest.approx(sojourns[-1])
        assert summary.mean_ms == pytest.approx(sum(sojourns) / len(sojourns))


class TestLifecycleErrors:
    def test_submit_before_start(self):
        async def main():
            server = ServingServer("gpu")
            with pytest.raises(ServingError, match="not started"):
                await server.submit(T)

        run(main())

    def test_summary_before_drain(self):
        async def main():
            server = await ServingServer("gpu").start()
            with pytest.raises(ServingError, match="drain"):
                server.summary
            await server.drain()
            return server

        server = run(main())
        with pytest.raises(ServingError, match="no responses"):
            server.summary

    def test_drain_without_start(self):
        async def main():
            with pytest.raises(ServingError, match="never started"):
                await ServingServer("gpu").drain()

        run(main())

    def test_bad_replicas(self):
        with pytest.raises(ServingError, match="replica"):
            ServingServer("gpu", replicas=0)


class TestSockets:
    @staticmethod
    async def roundtrip(reader, writer, req):
        writer.write((json.dumps(request_to_json(req)) + "\n").encode())
        await writer.drain()
        return json.loads(await reader.readline())

    def test_tcp_concurrent_connections(self):
        async def client(host, port, i):
            reader, writer = await asyncio.open_connection(host, port)
            reply = await self.roundtrip(
                reader, writer,
                ServeRequest(task=T, request_id=i, tenant=f"t{i % 4}"),
            )
            writer.close()
            await writer.wait_closed()
            return reply

        async def main():
            server = await ServingServer("gpu", replicas=2, slo_ms=50.0).start()
            host, port = await server.listen()
            replies = await asyncio.gather(
                *(client(host, port, i) for i in range(40))
            )
            await server.drain()
            return server, replies

        server, replies = run(main())
        assert all(r["ok"] for r in replies)
        assert {r["request_id"] for r in replies} == set(range(40))
        assert server.accepted == server.served == 40
        assert server.summary.n_requests == 40
        for reply in replies:
            assert reply["sojourn_ms"] >= reply["latency_ms"] - 1e-9
            assert reply["batch_size"] == 1

    def test_malformed_line_gets_error_reply_and_connection_survives(self):
        async def main():
            server = await ServingServer("gpu").start()
            host, port = await server.listen()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            await writer.drain()
            bad = json.loads(await reader.readline())
            writer.write(b'["a","list"]\n')
            await writer.drain()
            not_obj = json.loads(await reader.readline())
            good = await self.roundtrip(
                reader, writer, ServeRequest(task=GRU, request_id=7)
            )
            writer.close()
            await writer.wait_closed()
            await server.drain()
            return bad, not_obj, good, server

        bad, not_obj, good, server = run(main())
        assert bad["ok"] is False and "line 1" in bad["error"]
        assert not_obj["ok"] is False and "line 2" in not_obj["error"]
        assert good["ok"] is True and good["request_id"] == 7
        assert server.served == 1

    def test_invalid_task_record_gets_error_reply_not_a_crash(self):
        """Regression: a well-formed JSON object whose *task* fields are
        invalid used to escape as WorkloadError past the handler's
        ServingError catch, killing the connection with no reply."""

        async def main():
            server = await ServingServer("gpu").start()
            host, port = await server.listen()
            reader, writer = await asyncio.open_connection(host, port)
            for record in (
                {"kind": "nope", "hidden": 512, "timesteps": 25},
                {"kind": "lstm", "hidden": -4, "timesteps": 25},
                {"kind": "lstm", "hidden": "big", "timesteps": 25},
            ):
                writer.write((json.dumps(record) + "\n").encode())
            await writer.drain()
            bad = [json.loads(await reader.readline()) for _ in range(3)]
            good = await self.roundtrip(
                reader, writer, ServeRequest(task=GRU, request_id=9)
            )
            writer.close()
            await writer.wait_closed()
            await server.drain()
            return bad, good, server

        bad, good, server = run(main())
        for i, reply in enumerate(bad):
            assert reply["ok"] is False, reply
            assert f"line {i + 1}" in reply["error"]
        assert good["ok"] is True and good["request_id"] == 9
        assert server.served == 1

    @pytest.mark.parametrize(
        "bad_line,named",
        [
            (
                json.dumps(
                    {**request_to_json(ServeRequest(task=T)), "tenant": [1]}
                ).encode(),
                "tenant",
            ),
            (b"\x80 not utf-8", "utf-8"),
        ],
        ids=["list-tenant", "not-utf8"],
    )
    def test_bad_record_gets_error_reply_and_server_survives(self, bad_line, named):
        """Regression: a record with a list ``tenant`` used to parse, then
        kill the replica worker, so neither it nor the next valid record
        got a reply and the drain raised TypeError; a line that is not
        UTF-8 killed the connection's handler.  Every wait is bounded,
        so a regression fails instead of hanging."""

        async def main():
            server = await ServingServer("gpu").start()
            host, port = await server.listen()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(bad_line + b"\n")
            await writer.drain()
            bad = json.loads(await asyncio.wait_for(reader.readline(), 30))
            good = await asyncio.wait_for(
                self.roundtrip(reader, writer, ServeRequest(task=T, request_id=2)),
                30,
            )
            writer.close()
            await writer.wait_closed()
            summary = await asyncio.wait_for(server.drain(), 30)
            return bad, good, summary

        bad, good, summary = run(main())
        assert bad["ok"] is False, bad
        assert "line 1" in bad["error"] and named in bad["error"], bad
        assert good["ok"] is True and good["request_id"] == 2
        assert summary.n_requests == 1

    def test_over_long_line_gets_error_reply_and_connection_reads_on(self):
        """Regression: a line past the stream reader's 64 KiB limit made
        ``readline`` raise, which ended the connection's handler, so
        neither that line nor any later one got a reply.  Every wait is
        bounded, so a regression fails instead of hanging."""

        async def main():
            server = await ServingServer("gpu").start()
            host, port = await server.listen()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"{" + b" " * 100_000 + b"}\n")
            await writer.drain()
            bad = json.loads(await asyncio.wait_for(reader.readline(), 30))
            good = await asyncio.wait_for(
                self.roundtrip(reader, writer, ServeRequest(task=T, request_id=3)),
                30,
            )
            writer.close()
            await writer.wait_closed()
            summary = await asyncio.wait_for(server.drain(), 30)
            return bad, good, summary

        bad, good, summary = run(main())
        assert bad["ok"] is False, bad
        assert "line 1" in bad["error"] and "65536 bytes" in bad["error"], bad
        assert good["ok"] is True and good["request_id"] == 3
        assert summary.n_requests == 1

    @pytest.mark.parametrize("chunks", [1, 7], ids=["whole", "in-pieces"])
    def test_read_request_line_skips_only_the_over_long_line(self, chunks):
        """The newline past the limit may arrive with the long line or
        after several reads; either way the next line is read whole."""
        from repro.serving.server import _read_request_line

        async def main():
            reader = asyncio.StreamReader(limit=16)
            data = b"x" * 50 + b"\nshort\n" + b"y" * 40
            step = -(-len(data) // chunks)

            async def feed():
                for start in range(0, len(data), step):
                    reader.feed_data(data[start:start + step])
                    await asyncio.sleep(0)
                reader.feed_eof()

            feeding = asyncio.create_task(feed())
            lines = [await _read_request_line(reader) for _ in range(4)]
            await feeding
            return lines

        assert run(main()) == [None, b"short\n", None, b""]

    def test_pipelined_requests_one_connection(self):
        async def main():
            server = await ServingServer("gpu", replicas=2).start()
            host, port = await server.listen()
            reader, writer = await asyncio.open_connection(host, port)
            for i in range(16):
                writer.write(
                    (json.dumps(request_to_json(
                        ServeRequest(task=T, request_id=i))) + "\n").encode()
                )
            await writer.drain()
            replies = [json.loads(await reader.readline()) for _ in range(16)]
            writer.close()
            await writer.wait_closed()
            await server.drain()
            return replies, server

        replies, server = run(main())
        assert {r["request_id"] for r in replies} == set(range(16))
        assert server.served == 16

    def test_unix_socket(self, tmp_path):
        path = str(tmp_path / "serving.sock")

        async def main():
            server = await ServingServer("gpu").start()
            await server.listen_unix(path)
            reader, writer = await asyncio.open_unix_connection(path)
            reply = await self.roundtrip(
                reader, writer, ServeRequest(task=T, request_id=1)
            )
            writer.close()
            await writer.wait_closed()
            await server.drain()
            return reply

        reply = run(main())
        assert reply["ok"] is True
        # The drain removed the socket file.
        assert not (tmp_path / "serving.sock").exists()

    def test_trace_schema_is_the_wire_schema(self):
        """A recorded-trace line replays against the socket verbatim."""
        line = json.dumps(request_to_json(
            ServeRequest(task=T, request_id=3, tenant="replayed", slo_ms=9.0)
        ))

        async def main():
            server = await ServingServer("gpu").start()
            host, port = await server.listen()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write((line + "\n").encode())
            await writer.drain()
            reply = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await server.drain()
            return reply, server

        reply, server = run(main())
        assert reply["ok"] and reply["tenant"] == "replayed"
        assert reply["slo_ms"] == 9.0
        assert server.summary.tenants == ("replayed",)


class TestSubmitTimeout:
    def test_bad_timeout_rejected(self):
        with pytest.raises(ServingError, match="timeout_ms"):
            ServingServer("gpu", timeout_ms=0.0)

    def test_generous_timeout_is_invisible(self):
        async def main():
            async with ServingServer("gpu", timeout_ms=60_000.0) as server:
                return await asyncio.gather(
                    *(server.submit(T) for _ in range(20))
                ), server

        responses, server = run(main())
        assert len(responses) == 20
        assert server.accepted == server.served == 20

    def test_expiry_raises_yet_request_still_drains(self):
        # A real clock slowed far below real time makes the single dwell
        # outlast the 50 ms budget; submit must fail fast with a
        # ServingError while the worker still finishes the execution, so
        # the conservation counters balance after drain.
        async def main():
            server = await ServingServer(
                "gpu", clock=RealClock(speedup=0.002), timeout_ms=50.0
            ).start()
            with pytest.raises(ServingError, match="timed out after 50"):
                await server.submit(T)
            await server.drain()
            return server

        server = run(main())
        assert server.accepted == server.served == 1
        assert server.summary.n_requests == 1


class TestClocks:
    def test_real_clock_dwells_scaled(self):
        async def main():
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            async with ServingServer(
                "gpu", clock=RealClock(speedup=50.0)
            ) as server:
                resp = await server.submit(T)
            return loop.time() - t0, resp

        wall, resp = run(main())
        latency = resp.result.latency_s
        # The dwell is latency/speedup wall seconds (plus scheduling
        # noise); it must be positive yet far below the unscaled latency.
        assert wall >= latency / 50.0 * 0.5

    def test_real_clock_validation(self):
        with pytest.raises(ServingError, match="speedup"):
            RealClock(speedup=0.0)

    def test_virtual_clock_never_waits(self):
        async def main():
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            async with ServingServer("gpu", replicas=2) as server:
                await asyncio.gather(*(server.submit(T) for _ in range(200)))
            return loop.time() - t0

        # 200 requests x ~0.74 ms simulated latency settle instantly.
        assert run(main()) < 5.0

    def test_virtual_clock_monotone(self):
        clock = VirtualClock(start_s=1.0)
        clock.advance_to(3.0)
        clock.advance_to(2.0)
        assert clock.now() == 3.0
