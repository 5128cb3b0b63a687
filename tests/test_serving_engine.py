"""The serving package: registry, compile-once engine, batch and stream."""

import pytest

from repro.errors import ServingError
from repro.serving import (
    Platform,
    PreparedModel,
    ServeRequest,
    ServingEngine,
    available_platforms,
    get_platform,
    poisson_arrivals,
    register_platform,
    uniform_arrivals,
)
from repro.serving.platform import unregister_platform
from repro.workloads.deepbench import RNNTask, task


class TestRegistry:
    def test_builtin_platforms_registered(self):
        names = available_platforms()
        for expected in ("plasticine", "brainwave", "cpu", "gpu"):
            assert expected in names

    def test_unknown_platform_raises(self):
        with pytest.raises(ServingError, match="unknown platform 'tpu'"):
            get_platform("tpu")

    def test_unknown_platform_error_lists_known(self):
        with pytest.raises(ServingError, match="plasticine"):
            get_platform("nope")

    def test_register_decorator_round_trip(self):
        @register_platform("dummy-test")
        class DummyPlatform(Platform):
            def prepare(self, t):
                return PreparedModel(platform=self.name, task=t, state=None)

            def latency_s(self, prepared, t):
                return 1e-3

        try:
            assert "dummy-test" in available_platforms()
            plat = get_platform("dummy-test")
            assert isinstance(plat, DummyPlatform)
            assert plat.name == "dummy-test"
            result = ServingEngine("dummy-test").serve(task("lstm", 512, 25)).result
            assert result.platform == "dummy-test"
            assert result.latency_s == 1e-3
        finally:
            unregister_platform("dummy-test")
        assert "dummy-test" not in available_platforms()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ServingError, match="already registered"):
            @register_platform("plasticine")
            class Impostor(Platform):
                def prepare(self, t):  # pragma: no cover
                    raise NotImplementedError

                def serve(self, prepared):  # pragma: no cover
                    raise NotImplementedError

    def test_non_platform_class_rejected(self):
        with pytest.raises(ServingError, match="Platform subclass"):
            register_platform("notaplatform")(object)

    def test_mismatched_prepared_model_rejected(self):
        bw = get_platform("brainwave")
        cpu = get_platform("cpu")
        prepared = cpu.prepare(task("lstm", 512, 25))
        with pytest.raises(ServingError, match="compiled for platform"):
            bw.serve(prepared)


class TestEngineCache:
    def test_prepare_returns_same_object(self):
        engine = ServingEngine("plasticine")
        t = task("lstm", 512, 25)
        first = engine.prepare(t)
        second = engine.prepare(t)
        assert first is second
        assert engine.cache_stats.hits == 1
        assert engine.cache_stats.misses == 1

    def test_repeat_serve_reuses_compiled_design(self):
        engine = ServingEngine("plasticine")
        t = task("lstm", 512, 25)
        r1 = engine.serve(t).result
        r2 = engine.serve(t).result
        # Object identity, not equality: the mapped design and the
        # simulation were computed once and shared.
        assert r1.design is r2.design
        assert r1.simulation is r2.simulation
        assert engine.cache_stats.misses == 1

    def test_distinct_tasks_compile_separately(self):
        engine = ServingEngine("brainwave")
        engine.serve(task("lstm", 512, 25))
        engine.serve(task("lstm", 1024, 25))
        assert engine.cache_stats.misses == 2
        assert engine.cache_stats.hits == 0

    def test_platform_instance_with_options_rejected(self):
        with pytest.raises(ServingError, match="by name"):
            ServingEngine(get_platform("cpu"), bits=8)


class TestBatch:
    def test_batch_equals_sequential(self):
        engine = ServingEngine("brainwave")
        tasks = [task("lstm", 512, 25), task("gru", 512, 1), task("lstm", 512, 25)]
        batch = engine.serve_batch(tasks)
        sequential = [ServingEngine("brainwave").serve(t) for t in tasks]
        assert len(batch) == len(sequential)
        for b, s in zip(batch, sequential):
            assert b.result == s.result
            assert b.sojourn_s == s.sojourn_s

    def test_batch_shares_cache_across_duplicates(self):
        engine = ServingEngine("gpu")
        engine.serve_batch([task("lstm", 512, 25)] * 5)
        assert engine.cache_stats.misses == 1
        assert engine.cache_stats.hits == 4


class TestStream:
    def test_percentiles_monotone_in_arrival_rate(self):
        t = task("lstm", 512, 25)
        engine = ServingEngine("brainwave")
        p50s, p99s = [], []
        for rate in (2000.0, 6000.0, 11000.0):
            arrivals = poisson_arrivals(t, rate_per_s=rate, n_requests=500, seed=7)
            report = engine.serve_stream(arrivals, slo_ms=5.0)
            p50s.append(report.p50_ms)
            p99s.append(report.p99_ms)
        assert p50s == sorted(p50s)
        assert p99s == sorted(p99s)
        assert p99s[0] < p99s[-1]  # queueing delay genuinely grows

    def test_sojourn_is_queue_plus_service(self):
        t = task("lstm", 512, 25)
        report = ServingEngine("gpu").serve_stream(
            uniform_arrivals(t, rate_per_s=100.0, n_requests=20)
        )
        for resp in report.responses:
            assert resp.sojourn_s == pytest.approx(
                resp.queue_delay_s + resp.service_s
            )
            assert resp.start_s >= resp.request.arrival_s

    def test_fifo_respects_arrival_order(self):
        t = task("lstm", 512, 25)
        # Hand the engine an out-of-order iterable; it must serve FIFO.
        reqs = [
            ServeRequest(task=t, arrival_s=0.3, request_id=2),
            ServeRequest(task=t, arrival_s=0.1, request_id=0),
            ServeRequest(task=t, arrival_s=0.2, request_id=1),
        ]
        report = ServingEngine("cpu").serve_stream(reqs)
        ids = [r.request.request_id for r in report.responses]
        assert ids == [0, 1, 2]
        finishes = [r.finish_s for r in report.responses]
        assert finishes == sorted(finishes)

    def test_slo_accounting(self):
        t = task("lstm", 512, 25)
        engine = ServingEngine("gpu")
        arrivals = uniform_arrivals(t, rate_per_s=100.0, n_requests=50)
        report = engine.serve_stream(arrivals, slo_ms=5.0)
        assert report.slo_miss_rate == 0.0
        assert report.slo_attained
        tight = engine.serve_stream(arrivals, slo_ms=1e-6)
        assert tight.slo_miss_rate == 1.0
        assert not tight.slo_attained

    def test_slo_unconfigured_raises(self):
        t = task("lstm", 512, 25)
        report = ServingEngine("gpu").serve_stream(
            uniform_arrivals(t, rate_per_s=100.0, n_requests=5)
        )
        with pytest.raises(ServingError):
            report.slo_miss_rate

    def test_empty_stream_raises(self):
        with pytest.raises(ServingError, match="at least one request"):
            ServingEngine("cpu").serve_stream([])

    def test_single_request_stream_not_saturated(self):
        report = ServingEngine("gpu").serve_stream(
            [ServeRequest(task=task("lstm", 512, 25))]
        )
        assert report.offered_rate_per_s == 0.0
        assert not report.saturated

    def test_simultaneous_burst_is_saturated(self):
        t = task("lstm", 512, 25)
        reqs = [ServeRequest(task=t, arrival_s=0.0, request_id=i) for i in range(5)]
        report = ServingEngine("gpu").serve_stream(reqs)
        assert report.saturated

    def test_saturation_flag(self):
        t = task("lstm", 512, 25)  # CPU service ~12 ms -> ~83 req/s max
        engine = ServingEngine("cpu")
        hot = engine.serve_stream(
            uniform_arrivals(t, rate_per_s=400.0, n_requests=50)
        )
        assert hot.saturated
        cool = engine.serve_stream(
            uniform_arrivals(t, rate_per_s=10.0, n_requests=50)
        )
        assert not cool.saturated

    def test_poisson_arrivals_validation(self):
        t = task("lstm", 512, 25)
        with pytest.raises(ServingError):
            poisson_arrivals(t, rate_per_s=0.0, n_requests=10)
        with pytest.raises(ServingError):
            poisson_arrivals(t, rate_per_s=10.0, n_requests=0)

    def test_mixed_task_stream(self):
        engine = ServingEngine("brainwave")
        reqs = [
            ServeRequest(task=task("lstm", 512, 25), arrival_s=0.0, request_id=0),
            ServeRequest(task=task("gru", 512, 1), arrival_s=0.001, request_id=1),
            ServeRequest(task=task("lstm", 512, 25), arrival_s=0.002, request_id=2),
        ]
        report = engine.serve_stream(reqs)
        assert engine.cache_stats.misses == 2  # two distinct tasks
        assert report.n_requests == 3


class TestReportBreakdowns:
    def _tagged_stream(self):
        t_a, t_b = task("lstm", 512, 25), task("gru", 512, 1)
        return [
            ServeRequest(task=t_a, arrival_s=0.001 * i, request_id=i,
                         tenant="a" if i % 2 else "b",
                         priority=i % 2, slo_ms=2.0 if i % 2 else None)
            for i in range(10)
        ] + [
            ServeRequest(task=t_b, arrival_s=0.02 + 0.001 * i, request_id=10 + i,
                         tenant="c")
            for i in range(5)
        ]

    def test_per_tenant_partitions_the_stream(self):
        report = ServingEngine("gpu").serve_stream(self._tagged_stream(), slo_ms=5.0)
        subs = report.per_tenant()
        assert set(subs) == {"a", "b", "c"}
        assert report.tenants == ("a", "b", "c")
        assert sum(s.n_requests for s in subs.values()) == report.n_requests
        for tenant, sub in subs.items():
            assert all(r.request.tenant == tenant for r in sub.responses)
            assert sub.slo_ms == report.slo_ms
            assert sub.scheduler == report.scheduler

    def test_per_priority_partitions_the_stream(self):
        report = ServingEngine("gpu").serve_stream(self._tagged_stream(), slo_ms=5.0)
        subs = report.per_priority()
        assert set(subs) == {0, 1}
        assert report.priorities == (0, 1)
        assert sum(s.n_requests for s in subs.values()) == report.n_requests

    def test_per_request_slo_overrides_stream_slo(self):
        t = task("lstm", 512, 25)  # gpu service ~0.74 ms
        reqs = [
            ServeRequest(task=t, arrival_s=0.01, request_id=0, slo_ms=0.01),
            ServeRequest(task=t, arrival_s=0.02, request_id=1, slo_ms=100.0),
            ServeRequest(task=t, arrival_s=0.03, request_id=2),  # stream SLO
        ]
        report = ServingEngine("gpu").serve_stream(reqs, slo_ms=5.0)
        # Request 0 misses its own microscopic SLO; the others meet theirs.
        assert report.slo_miss_rate == pytest.approx(1 / 3)
        assert report.slo_attainment == pytest.approx(2 / 3)

    def test_scheduler_name_recorded(self):
        t = task("lstm", 512, 25)
        report = ServingEngine("gpu").serve_stream(
            [ServeRequest(task=t)], scheduler="edf"
        )
        assert report.scheduler == "edf"

    def test_fleet_report_breakdown_is_plain_stream_report(self):
        from repro.serving import Fleet, StreamReport, uniform_arrivals as ua

        report = Fleet("gpu", replicas=2).serve_stream(
            ua(task("lstm", 512, 25), rate_per_s=100.0, n_requests=10)
        )
        sub = report.per_tenant()["default"]
        assert type(sub) is StreamReport


#: Pre-redesign golden values captured from the original serve_on_*
#: implementations (commit af1c923) for every Table 6 task:
#: (plasticine latency_s, plasticine TFLOPS, plasticine power_w,
#:  plasticine cycles/step, brainwave latency_s, cpu latency_s,
#:  gpu latency_s).
_GOLDEN = {
    ("lstm", 256, 150): (4.08e-05, 3.8550588235294114, 36.5035294117647, 272,
                         0.0004316, 0.01627864, 0.0019250428235294116),
    ("lstm", 512, 25): (1.42e-05, 7.384338028169014, 57.583098591549295, 568,
                        8.06e-05, 0.012075844444444444, 0.0007383618823529412),
    ("lstm", 1024, 25): (3.0575e-05, 13.718083401471791, 96.4078495502862, 1223,
                         8.06e-05, 0.10272509756097563, 0.0011084475294117647),
    ("lstm", 1536, 50): (0.00012515, 15.081396723931281, 103.17868158210149, 2503,
                         0.0001508, 0.4608004390243903, 0.0030605138823529415),
    ("lstm", 2048, 25): (0.000107375, 15.624881024447033, 105.59558556461, 4295,
                         8.06e-05, 0.40962539024390254, 0.0025887901176470593),
    ("gru", 512, 1): (4.5e-07, 6.990506666666667, 56.78542222222222, 450,
                      1.2992e-05, 0.0007505253333333333, 0.0004027008564705882),
    ("gru", 1024, 1500): (0.0015585, 12.110598652550529, 86.5543792107796, 1039,
                          0.0038984, 4.605404390243903, 0.03609513882352942),
    ("gru", 1536, 375): (0.000775125, 13.696928882438316, 94.99429124334785, 2067,
                         0.0009824, 2.590246219512195, 0.016255390588235295),
    ("gru", 2048, 375): (0.001312125, 14.38458073735353, 98.21034581308945, 3499,
                         0.0009824, 4.604279390243903, 0.02597013882352941),
    ("gru", 2560, 375): (0.002002125, 14.729949428731972, 99.68391084472746, 5339,
                         0.0011894, 7.193750609756099, 0.03846052941176471),
}


class TestWrapperParity:
    """Every platform reproduces the numbers of the pre-redesign one-shot
    serving functions exactly."""

    @pytest.mark.parametrize("key", sorted(_GOLDEN), ids=lambda k: f"{k[0]}-h{k[1]}")
    def test_golden_values(self, key):
        kind, hidden, timesteps = key
        t = RNNTask(kind, hidden, timesteps)
        (p_lat, p_tflops, p_pow, p_cps, bw_lat, cpu_lat, gpu_lat) = _GOLDEN[key]

        plast = ServingEngine("plasticine").serve(t).result
        assert plast.latency_s == pytest.approx(p_lat, rel=1e-12)
        assert plast.effective_tflops == pytest.approx(p_tflops, rel=1e-12)
        assert plast.power_w == pytest.approx(p_pow, rel=1e-12)
        assert plast.cycles_per_step == p_cps
        bw = ServingEngine("brainwave").serve(t).result
        cpu = ServingEngine("cpu").serve(t).result
        gpu = ServingEngine("gpu").serve(t).result
        assert bw.latency_s == pytest.approx(bw_lat, rel=1e-12)
        assert cpu.latency_s == pytest.approx(cpu_lat, rel=1e-12)
        assert gpu.latency_s == pytest.approx(gpu_lat, rel=1e-12)
