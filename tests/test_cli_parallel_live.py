"""CLI coverage for the parallel-shard and live-serving frontends.

`repro serve --shards/--workers/--shard-by` (process-pool replay) and
`--clients/--listen` (the live asyncio server) ride the same table
pipeline as the classic stream simulation; these tests pin the flag
validation, the table output, and the parity between a sharded run and
the equivalent round-robin fleet at the CLI level.  A seeded fuzz of
the whole serve-flag matrix checks that every combination either runs
or fails with one clean ``error:`` line.
"""

import asyncio
import json
import os
import random
from collections import Counter

import pytest

from repro.harness.cli import main
from repro.serving import ServeRequest, request_to_json
from repro.workloads.deepbench import task


def _serve(*extra):
    return [
        "serve", "lstm", "512", "--platform", "gpu",
        "--rate", "2000", "--requests", "300", "--slo-ms", "5", *extra,
    ]


class TestShardedCLI:
    def test_shards_table(self, capsys):
        assert main(_serve("--shards", "2", "--workers", "1")) == 0
        out = capsys.readouterr().out
        assert "2 replica shard(s)" in out
        assert "summary mode" in out

    def test_shards_row_matches_round_robin_fleet(self, capsys):
        assert main(_serve("--shards", "2", "--workers", "1")) == 0
        sharded = capsys.readouterr().out
        assert main(
            _serve("--stream", "--replicas", "2", "--policy", "round-robin",
                   "--mode", "summary")
        ) == 0
        fleet = capsys.readouterr().out
        # Same columns, same numbers: only the titles differ.
        assert sharded.splitlines()[-1] == fleet.splitlines()[-1]

    def test_tenant_sharded_mix(self, capsys):
        assert main([
            "serve", "--platform", "gpu", "--rate", "2000",
            "--requests", "300", "--slo-ms", "5", "--shards", "2",
            "--shard-by", "tenant", "--workers", "1",
            "--mix", "lstm:512,gru:512",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 tenant shard(s)" in out
        assert "Per-tenant breakdown (gpu)" in out

    def test_sharded_trace_replay(self, capsys, tmp_path):
        trace = str(tmp_path / "stream.jsonl")
        assert main(_serve("--stream", "--record-trace", trace)) == 0
        capsys.readouterr()
        assert main([
            "serve", "--platform", "gpu", "--slo-ms", "5",
            "--trace", trace, "--shards", "2", "--workers", "2",
        ]) == 0
        assert "2 replica shard(s)" in capsys.readouterr().out


class TestFlagValidation:
    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--shards", "0"), "--shards must be >= 1"),
            (("--workers", "2"), "add --shards"),
            (("--shards", "2", "--mode", "full"), "drop --mode full"),
            (("--shards", "2", "--listen", "127.0.0.1:0"), "pick one frontend"),
            (("--listen", "nonsense"), "bad --listen spec"),
            (("--listen", "unix:"), "needs a socket path"),
            (("--clients", "0"), "--clients must be >= 1"),
            (("--clients", "4", "--autoscale", "1:4"),
             "--clients does not read --autoscale"),
            (("--clients", "4", "--policy", "round-robin"),
             "--clients does not read --policy"),
            (("--plan-capacity", "--length-dist", "uniform:5:30"),
             "--plan-capacity does not read --length-dist"),
            (("--plan-capacity", "--mode", "summary"),
             "--plan-capacity does not read --mode"),
            (("--shard-by", "tenant"),
             "the simulated stream does not read --shard-by"),
            (("--max-batch", "-3"),
             "--batcher none serves batch-1 and does not read --max-batch"),
            (("--stream", "--affinity-by", "tenant"),
             "--policy least-loaded does not read --affinity-by"),
            (("--stream", "--policy", "round-robin"),
             "one replica runs no dispatcher and does not read --policy; "
             "add --replicas N (N > 1), --fleet-mix or --autoscale"),
            (("--shards", "2", "--workers", "1", "--policy", "affinity",
              "--affinity-by", "tenant"),
             "does not read --policy, --affinity-by; add --replicas"),
        ],
    )
    def test_rejected_combinations(self, capsys, extra, message):
        assert main(_serve(*extra)) == 1
        assert message in capsys.readouterr().err

    def test_plan_capacity_rejects_record_trace_and_writes_nothing(
        self, capsys, tmp_path
    ):
        trace = tmp_path / "never.jsonl"
        assert main(_serve("--plan-capacity", "--record-trace", str(trace))) == 1
        assert "--plan-capacity does not read --record-trace" in capsys.readouterr().err
        assert not trace.exists()

    @pytest.fixture
    def interrupt_idle_server(self, monkeypatch):
        """Should a real-time server start, its idle sleep delivers the
        Ctrl-C at once instead of serving forever."""
        real_sleep = asyncio.sleep

        async def interrupt(seconds, *a, **kw):
            if seconds != 3600:
                return await real_sleep(seconds, *a, **kw)
            raise KeyboardInterrupt

        monkeypatch.setattr(asyncio, "sleep", interrupt)

    def test_listen_alone_rejects_traffic_flags(self, capsys, interrupt_idle_server):
        assert main(_serve("--listen", "127.0.0.1:0", "--mix", "lstm:512")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --listen without --clients does not read")
        for flag in ("--rate", "--requests", "--mix"):
            assert flag in err

    def test_listen_alone_rejects_positional_task(self, capsys, interrupt_idle_server):
        argv = ["serve", "gru", "2816", "--platform", "gpu", "--listen", "127.0.0.1:0"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: --listen without --clients does not read the positional task"
        )
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "extra", [("--mix", "lstm:512,gru:512"), ("--mode", "summary")]
    )
    def test_stream_only_flag_selects_stream(self, capsys, extra):
        assert main(["serve", "--platform", "gpu", *extra]) == 0
        assert capsys.readouterr().out.startswith("Streaming ")

    def test_listen_forever_needs_one_platform(self, capsys):
        assert main([
            "serve", "lstm", "512", "--listen", "127.0.0.1:0",
        ]) == 1
        assert "needs one platform" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--timeout-ms", "0"), "--timeout-ms must be positive"),
            (("--hedge-ms", "-1"), "--hedge-ms must be positive"),
            (("--retries", "-1"), "--retries must be >= 0"),
            (("--retries", "2"), "add --timeout-ms"),
            (("--faults", "chaos", "--clients", "4"),
             "inject into the simulated stream"),
            (("--hedge-ms", "5", "--listen", "127.0.0.1:0"),
             "inject into the simulated stream"),
        ],
    )
    def test_rejected_fault_flags(self, capsys, extra, message):
        assert main(_serve(*extra)) == 1
        assert message in capsys.readouterr().err

    def test_unknown_fault_policy_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(_serve("--faults", "gremlins"))
        assert "--faults" in capsys.readouterr().err


def _fuzz_pool(trace: str, record: str) -> dict:
    """Serve flags the matrix fuzz draws from, each with its valid
    values (``None`` for a switch)."""
    return {
        "--stream": [None],
        "--rate": ["800", "3000"],
        "--slo-ms": ["0.5", "inf"],
        "--mode": ["full", "summary"],
        "--seed": ["3"],
        "--replicas": ["2"],
        "--fleet-mix": ["gpu:2", "gpu,cpu"],
        "--policy": ["round-robin", "affinity"],
        "--affinity-by": ["tenant", "length-band"],
        "--plan-capacity": [None],
        "--dse-workers": ["1"],
        "--no-dse-prune": [None],
        "--scheduler": ["edf", "priority"],
        "--batcher": ["size-cap", "bucket"],
        "--max-batch": ["4"],
        "--autoscale": ["1:3"],
        "--faults": ["crash", "chaos"],
        "--fault-seed": ["5"],
        "--timeout-ms": ["20"],
        "--retries": ["1"],
        "--hedge-ms": ["10"],
        "--mix": ["lstm:256,gru:256", "lstm:256@5^1"],
        "--length-dist": ["uniform:5:30"],
        "--trace": [trace],
        "--record-trace": [record],
        "--shards": ["2"],
        "--workers": ["1"],
        "--shard-by": ["tenant", "hash"],
        "--clients": ["2"],
        "--listen": ["127.0.0.1:0"],
    }


#: Out-of-range or malformed values the fuzz substitutes now and then.
_FUZZ_BAD = {
    "--rate": ["0"],
    "--slo-ms": ["-1"],
    "--replicas": ["0"],
    "--fleet-mix": ["gpu:x"],
    "--dse-workers": ["0"],
    "--scheduler": ["bogus"],
    "--max-batch": ["0"],
    "--autoscale": ["3:1", "x"],
    "--timeout-ms": ["0"],
    "--retries": ["-1"],
    "--mix": ["lstm"],
    "--length-dist": ["nope:1"],
    "--trace": ["missing.jsonl"],
    "--shards": ["0"],
    "--clients": ["0"],
    "--listen": ["nonsense"],
}


#: The fuzz flags that make a simulated stream run a dispatcher (the
#: pool's --replicas value is 2), and the policies a title may name.
_DISPATCHED = ("--fleet-mix", "--replicas", "--autoscale")
_POLICIES = ("round-robin", "least-loaded", "affinity")


#: Flags the fuzz mostly draws together with the flag they need.
#: --shards and --listen always get theirs: one pool worker, and no
#: server that runs until interrupted.
_FUZZ_PARTNERS = (
    ("--retries", "--timeout-ms"),
    ("--dse-workers", "--plan-capacity"),
    ("--no-dse-prune", "--plan-capacity"),
    ("--workers", "--shards"),
    ("--shard-by", "--shards"),
    ("--shards", "--workers"),
    ("--listen", "--clients"),
)


class TestFlagMatrixFuzz:
    def test_seeded_flag_combinations_exit_cleanly(self, capsys, tmp_path):
        """Random serve-flag combinations at toy sizes either run (exit 0)
        or fail with exactly one ``error:`` line (exit 1); argparse
        rejects bad choices with exit 2.  Nothing escapes as a
        traceback, an accepted --record-trace writes its file, and a
        stream title names a dispatch policy only where one runs."""
        from repro.serving import record_trace, uniform_arrivals

        trace = str(tmp_path / "replay.jsonl")
        record = tmp_path / "recorded.jsonl"
        record_trace(
            uniform_arrivals(task("lstm", 256, 25), rate_per_s=500, n_requests=30),
            trace,
        )
        pool = _fuzz_pool(trace, str(record))
        rng = random.Random(20)
        outcomes = Counter()
        dispatch_runs = Counter()
        for _ in range(250):
            drawn = rng.sample(sorted(pool), rng.randint(1, 4))
            for flag, partner in _FUZZ_PARTNERS:
                if flag in drawn and partner not in drawn and (
                    flag in ("--shards", "--listen") or rng.random() < 0.8
                ):
                    drawn.append(partner)
            argv = ["serve", "lstm", "256", "--requests", rng.choice(["20", "50"])]
            if "--fleet-mix" not in drawn:
                argv += ["--platform", "gpu"]
            for flag in drawn:
                values = pool[flag]
                if flag in _FUZZ_BAD and rng.random() < 0.15:
                    values = _FUZZ_BAD[flag]
                value = rng.choice(values)
                argv += [flag] if value is None else [flag, value]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback: report the command
                pytest.fail(f"repro {' '.join(argv)} raised {exc!r}")
            out, err = capsys.readouterr()
            outcomes[code] += 1
            if code == 0:
                assert out.strip(), argv
                if "--record-trace" in drawn:
                    assert record.exists(), argv
                title = out.splitlines()[0]
                if title.startswith("Streaming ") and not any(
                    flag in drawn for flag in _DISPATCHED
                ):
                    dispatch_runs[False] += 1
                    assert not any(p in title for p in _POLICIES), argv
                elif title.startswith("Streaming "):
                    dispatch_runs[True] += 1
            elif code == 1:
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            else:
                assert code == 2, (argv, code)
            record.unlink(missing_ok=True)
        # Every outcome occurs, so the draw is not all rejections, and
        # streams ran both with and without a dispatcher.
        assert set(outcomes) == {0, 1, 2}
        assert set(dispatch_runs) == {False, True}


class TestFaultyCLI:
    def test_chaos_run_prints_breakdown_and_is_deterministic(self, capsys):
        cmd = _serve(
            "--faults", "chaos", "--fault-seed", "11",
            "--timeout-ms", "20", "--retries", "1", "--hedge-ms", "10",
            "--replicas", "2",
        )
        assert main(cmd) == 0
        first = capsys.readouterr().out
        assert "faults chaos" in first
        assert "fault injection (chaos)" in first
        assert "crashes" in first and "hedges" in first
        assert main(cmd) == 0
        assert capsys.readouterr().out == first

    def test_faults_none_output_matches_plain_stream(self, capsys):
        assert main(_serve("--stream")) == 0
        plain = capsys.readouterr().out
        assert main(_serve("--stream", "--faults", "none")) == 0
        assert capsys.readouterr().out == plain

    def test_sharded_chaos_pool_size_invisible(self, capsys):
        cmd = _serve("--faults", "crash", "--fault-seed", "3", "--shards", "2")
        assert main(cmd + ["--workers", "1"]) == 0
        one = capsys.readouterr().out
        assert main(cmd + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == one


class TestLiveClients:
    def test_in_process_clients(self, capsys):
        assert main(_serve("--requests", "120", "--clients", "8")) == 0
        out = capsys.readouterr().out
        assert "Live serving" in out
        assert "8 in-process client(s)" in out
        assert "120" in out and "yes" in out

    def test_socket_clients_tcp(self, capsys):
        assert main(
            _serve("--requests", "60", "--clients", "4",
                   "--listen", "127.0.0.1:0")
        ) == 0
        assert "4 socket client(s)" in capsys.readouterr().out

    def test_socket_clients_unix(self, capsys, tmp_path):
        path = str(tmp_path / "live.sock")
        assert main(
            _serve("--requests", "40", "--clients", "2",
                   "--listen", f"unix:{path}")
        ) == 0
        assert "2 socket client(s)" in capsys.readouterr().out
        assert not os.path.exists(path)  # drained server removed the socket

    def test_batched_live_serving(self, capsys):
        assert main(
            _serve("--requests", "80", "--clients", "8",
                   "--batcher", "size-cap", "--max-batch", "4")
        ) == 0
        out = capsys.readouterr().out
        assert "size-cap batching" in out
        assert "mean batch" in out


class TestListenForever:
    def test_serves_until_interrupt_then_drains(
        self, capsys, tmp_path, monkeypatch
    ):
        """The real-time `--listen` frontend, end to end in-process: the
        idle-loop sleep is hijacked to act as one socket client and then
        deliver the Ctrl-C, so the command binds, serves a request over
        the UNIX socket, drains, and reports what it served."""
        path = str(tmp_path / "forever.sock")
        real_sleep = asyncio.sleep

        async def client_then_interrupt(seconds, *a, **kw):
            if seconds != 3600:  # worker dwells etc. sleep normally
                return await real_sleep(seconds, *a, **kw)
            reader, writer = await asyncio.open_unix_connection(path)
            req = ServeRequest(task=task("lstm", 512, 25), request_id=1)
            writer.write((json.dumps(request_to_json(req)) + "\n").encode())
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["ok"] is True
            writer.close()
            await writer.wait_closed()
            raise KeyboardInterrupt

        monkeypatch.setattr(asyncio, "sleep", client_then_interrupt)
        assert main([
            "serve", "lstm", "512", "--platform", "gpu", "--slo-ms", "5",
            "--listen", f"unix:{path}",
        ]) == 0
        captured = capsys.readouterr()
        assert "serving gpu on" in captured.err
        assert "live server drained: 1 served" in captured.out
        assert not os.path.exists(path)
