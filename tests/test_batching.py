"""Dynamic batching: the registry, the policies, and the cost model."""

import pytest

from repro.errors import ServingError
from repro.serving import (
    AdaptiveBatcher,
    Batcher,
    Fleet,
    NoneBatcher,
    ServeRequest,
    ServingEngine,
    SizeCapBatcher,
    TimeWindowBatcher,
    available_batchers,
    available_platforms,
    get_batcher,
    get_platform,
    make_batcher,
    mix,
    uniform_arrivals,
)
from repro.serving.batching import unregister_batcher
from repro.serving.scheduler import QueuedRequest, Scheduler, get_scheduler
from repro.serving.result import ServingResult
from repro.workloads.deepbench import task

T = task("lstm", 512, 25)
T2 = task("gru", 512, 25)


def _entry(seq, t=T, arrival=0.0, service=1e-3):
    req = ServeRequest(task=t, arrival_s=arrival, request_id=seq)
    result = ServingResult(platform="x", task=t, latency_s=service,
                           effective_tflops=0.0)
    return QueuedRequest(seq=seq, request=req, result=result, service_s=service)


def _burst(n, t=T):
    """n same-task requests arriving (effectively) at once."""
    return uniform_arrivals(t, rate_per_s=1e9, n_requests=n)


class TestRegistry:
    def test_builtins_registered(self):
        names = available_batchers()
        for expected in ("none", "size-cap", "time-window", "adaptive"):
            assert expected in names

    def test_unknown_batcher_raises(self):
        with pytest.raises(ServingError, match="unknown batcher 'piggyback'"):
            get_batcher("piggyback")

    def test_duplicate_registration_rejected(self):
        from repro.serving import register_batcher

        with pytest.raises(ServingError, match="already registered"):
            @register_batcher("none")
            class Impostor(Batcher):
                pass

    def test_non_batcher_rejected(self):
        from repro.serving import register_batcher

        with pytest.raises(ServingError, match="Batcher subclass"):
            register_batcher("bogus")(object)

    def test_register_round_trip(self):
        from repro.serving import register_batcher

        @register_batcher("solo-test")
        class SoloBatcher(Batcher):
            pass

        try:
            assert "solo-test" in available_batchers()
            assert get_batcher("solo-test", max_batch=3).max_batch == 3
        finally:
            unregister_batcher("solo-test")
        assert "solo-test" not in available_batchers()

    def test_make_batcher_specs(self):
        assert isinstance(make_batcher("size-cap"), SizeCapBatcher)
        inst = SizeCapBatcher(max_batch=3)
        assert make_batcher(inst) is inst
        assert isinstance(make_batcher(TimeWindowBatcher), TimeWindowBatcher)
        with pytest.raises(ServingError, match="registry key"):
            make_batcher(inst, max_batch=4)
        with pytest.raises(ServingError, match="factory"):
            make_batcher(lambda: object())
        with pytest.raises(ServingError):
            make_batcher(42)

    def test_engine_rejects_unknown_batcher(self):
        with pytest.raises(ServingError, match="unknown batcher"):
            ServingEngine("gpu").serve_stream([ServeRequest(task=T)],
                                              batcher="nope")

    def test_fleet_rejects_batcher_instance(self):
        with pytest.raises(ServingError, match="per replica"):
            Fleet("gpu", replicas=2).serve_stream(
                _burst(4), batcher=SizeCapBatcher()
            )

    def test_bad_max_batch_rejected(self):
        with pytest.raises(ServingError, match="max_batch"):
            SizeCapBatcher(max_batch=0)
        with pytest.raises(ServingError, match="window_ms"):
            TimeWindowBatcher(window_ms=-1.0)


class TestCostModel:
    @pytest.mark.parametrize("name", sorted(available_platforms()))
    def test_batch1_is_exactly_serve_latency(self, name):
        plat = get_platform(name)
        prepared = plat.prepare(T)
        assert plat.batch_latency_s(prepared, 1) == plat.serve(prepared).latency_s
        for steps in range(1, 400, 7):  # every length variant, exactly
            t = T.with_timesteps(steps)
            assert plat.batch_latency_s(prepared, 1, t) == plat.latency_s(prepared, t)

    @pytest.mark.parametrize("name", sorted(available_platforms()))
    def test_batch_latency_monotone_and_subadditive(self, name):
        plat = get_platform(name)
        prepared = plat.prepare(T)
        t1 = plat.batch_latency_s(prepared, 1)
        previous = 0.0
        for size in (1, 2, 4, 8, 32):
            lat = plat.batch_latency_s(prepared, size)
            assert lat > previous
            assert lat <= size * t1 + 1e-12
            previous = lat

    def test_plasticine_amortizes_pipeline_fill(self):
        plat = get_platform("plasticine")
        prepared = plat.prepare(T)
        t1 = plat.batch_latency_s(prepared, 1)
        # Strictly better than serializing: the per-step fill/drain is
        # paid once per step, not once per request.
        assert plat.batch_latency_s(prepared, 8) < 8 * t1

    def test_serve_batched_result_fields(self):
        engine = ServingEngine("gpu")
        single = engine.serve_batched(T, 1)
        assert single == engine.serve(T).result
        batched = engine.serve_batched(T, 8)
        assert batched.batch_size == 8
        assert batched.latency_s == engine.batch_latency_s(T, 8)
        assert batched.effective_tflops == pytest.approx(
            8 * T.effective_tflops(batched.latency_s)
        )

    def test_bad_batch_size_rejected(self):
        plat = get_platform("gpu")
        prepared = plat.prepare(T)
        for bad in (0, -1, 2.5):
            with pytest.raises(ServingError, match="batch_size"):
                plat.batch_latency_s(prepared, bad)
            with pytest.raises(ServingError, match="batch_size"):
                plat.serve(prepared, batch_size=bad)

    def test_foreign_prepared_model_rejected(self):
        prepared = get_platform("cpu").prepare(T)
        with pytest.raises(ServingError, match="compiled for platform"):
            get_platform("gpu").batch_latency_s(prepared, 2)


class TestSchedulerPeek:
    def test_keyed_schedulers_peek_matches_pop(self):
        for name in ("fifo", "priority", "edf", "sjf", "coalesce"):
            sched = get_scheduler(name)
            for seq in (2, 0, 1):
                sched.push(_entry(seq))
            while len(sched):
                head = sched.peek()
                assert sched.pop() is head

    def test_peek_empty_raises(self):
        for name in ("fifo", "coalesce"):
            with pytest.raises(ServingError, match="empty"):
                get_scheduler(name).peek()

    def test_default_peek_unsupported(self):
        class Opaque(Scheduler):
            def push(self, entry):  # pragma: no cover
                pass

            def pop(self):  # pragma: no cover
                raise NotImplementedError

            def __len__(self):
                return 0

        with pytest.raises(ServingError, match="peek"):
            Opaque().peek()

    def test_coalesce_peek_prefers_last_served_task(self):
        sched = get_scheduler("coalesce")
        sched.push(_entry(0, t=T))
        sched.push(_entry(1, t=T2))
        sched.push(_entry(2, t=T))
        assert sched.pop().seq == 0        # FIFO head; last task is now T
        assert sched.peek().seq == 2       # same-task run jumps the line
        assert sched.pop().seq == 2


class TestPolicies:
    def test_none_policy_never_batches(self):
        report = ServingEngine("gpu").serve_stream(
            _burst(32), batcher="none", max_batch=16
        )
        assert report.mean_batch_size == 1.0
        assert report.max_batch_size == 1

    def test_size_cap_respects_cap_and_order(self):
        report = ServingEngine("gpu").serve_stream(
            _burst(33), batcher="size-cap", max_batch=8
        )
        assert report.max_batch_size <= 8
        assert report.mean_batch_size > 1.0
        ids = [r.request.request_id for r in report.responses]
        assert ids == sorted(ids)
        # A batch starts and finishes together.
        by_start = {}
        for r in report.responses:
            by_start.setdefault((r.start_s, r.finish_s), []).append(r)
        for (_, _), members in by_start.items():
            sizes = {r.batch_size for r in members}
            assert sizes == {len(members)}
            assert sorted(r.batch_index for r in members) == list(range(len(members)))

    def test_size_cap_only_coalesces_same_task(self):
        interleaved = mix(_burst(8, T), _burst(8, T2))
        report = ServingEngine("gpu").serve_stream(
            interleaved, batcher="size-cap", max_batch=8
        )
        for r in report.responses:
            assert r.result.task in (T, T2)
        # Conservation: every request answered exactly once.
        assert report.n_requests == 16

    def test_size_cap_beats_none_on_backlog(self):
        burst = _burst(64)
        unbatched = ServingEngine("gpu").serve_stream(burst, batcher="none")
        batched = ServingEngine("gpu").serve_stream(
            burst, batcher="size-cap", max_batch=8
        )
        assert batched.throughput_rps > unbatched.throughput_rps
        assert batched.p99_ms < unbatched.p99_ms

    def test_time_window_waits_for_stragglers(self):
        # Three requests 0.2 ms apart; service is fast, so without a
        # window each would be served alone.  A 1 ms window batches them.
        reqs = [
            ServeRequest(task=T, arrival_s=i * 2e-4, request_id=i)
            for i in range(3)
        ]
        eager = ServingEngine("brainwave").serve_stream(reqs, batcher="size-cap")
        held = ServingEngine("brainwave").serve_stream(
            reqs, batcher=lambda: TimeWindowBatcher(max_batch=4, window_ms=1.0)
        )
        assert eager.max_batch_size == 1
        assert held.max_batch_size == 3
        # The hold delays the head request by (at most) the window.
        head = held.responses[0]
        assert head.queue_delay_s == pytest.approx(1e-3, abs=1e-9)

    def test_time_window_launches_early_at_cap(self):
        reqs = [
            ServeRequest(task=T, arrival_s=i * 1e-5, request_id=i)
            for i in range(4)
        ]
        report = ServingEngine("brainwave").serve_stream(
            reqs, batcher=lambda: TimeWindowBatcher(max_batch=2, window_ms=50.0)
        )
        assert report.max_batch_size == 2
        # The first batch did not wait out the 50 ms window.
        assert report.responses[0].start_s < 1e-3

    def test_adaptive_respects_head_deadline(self):
        # With a tight SLO the adaptive policy must not hold the head
        # past its deadline even though the window would allow it.
        reqs = [
            ServeRequest(task=T, arrival_s=i * 1e-4, request_id=i)
            for i in range(6)
        ]
        report = ServingEngine("brainwave").serve_stream(
            reqs, slo_ms=1.0, batcher="adaptive", max_batch=6
        )
        assert report.slo_miss_rate == 0.0
        loose = ServingEngine("brainwave").serve_stream(
            reqs, slo_ms=1000.0, batcher="adaptive", max_batch=6
        )
        # With slack the same policy batches more aggressively.
        assert loose.mean_batch_size >= report.mean_batch_size

    def test_adaptive_drains_maximally_once_deadline_is_lost(self):
        # A backlog whose deadlines are unmeetable even at batch 1: the
        # policy must switch to drain mode (max batching) instead of
        # serving one-by-one forever.
        burst = [
            ServeRequest(task=T, arrival_s=0.0, request_id=i, slo_ms=0.001)
            for i in range(16)
        ]
        report = ServingEngine("cpu").serve_stream(
            burst, batcher="adaptive", max_batch=8
        )
        assert report.max_batch_size == 8
        strict = ServingEngine("cpu").serve_stream(burst, batcher="none")
        assert report.throughput_rps > strict.throughput_rps

    def test_adaptive_without_slo_acts_like_time_window(self):
        reqs = [
            ServeRequest(task=T, arrival_s=i * 2e-4, request_id=i)
            for i in range(3)
        ]
        adaptive = ServingEngine("brainwave").serve_stream(
            reqs, batcher=lambda: AdaptiveBatcher(max_batch=4, window_ms=1.0)
        )
        window = ServingEngine("brainwave").serve_stream(
            reqs, batcher=lambda: TimeWindowBatcher(max_batch=4, window_ms=1.0)
        )
        assert adaptive.p99_ms == window.p99_ms
        assert adaptive.mean_batch_size == window.mean_batch_size

    def test_fleet_streams_support_batching(self):
        fleet = Fleet("gpu", replicas=2, policy="least-loaded")
        report = fleet.serve_stream(_burst(32), batcher="size-cap", max_batch=4)
        assert report.batcher == "size-cap"
        assert report.mean_batch_size > 1.0
        assert sorted(r.request.request_id for r in report.responses) == list(range(32))

    def test_none_batcher_forces_batch_one(self):
        assert NoneBatcher(max_batch=64).max_batch == 1
        assert get_batcher("none", max_batch=16).max_batch == 1
