"""Autoscaling: policy decisions and fleet-stream integration."""

import pytest

from repro.errors import ServingError
from repro.serving import (
    Autoscaler,
    Fleet,
    ServingEngine,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.serving.events import StreamDispatcher, run_stream
from repro.serving.scheduler import make_scheduler
from repro.workloads.deepbench import task

T = task("lstm", 512, 25)


class _RoundRobin(StreamDispatcher):
    def resize(self, active, work_until):
        self.active = active

    def choose(self, seq, request):
        return seq % self.active


class TestPolicy:
    def test_constructor_validation(self):
        with pytest.raises(ServingError, match="min_replicas"):
            Autoscaler(min_replicas=0)
        with pytest.raises(ServingError, match="max_replicas"):
            Autoscaler(min_replicas=4, max_replicas=2)
        with pytest.raises(ServingError, match="depth_per_replica"):
            Autoscaler(depth_per_replica=0)
        with pytest.raises(ServingError, match="slo_headroom"):
            Autoscaler(slo_headroom=0)
        with pytest.raises(ServingError, match="cooldown_s"):
            Autoscaler(cooldown_s=-1)

    def test_scales_up_on_queue_depth(self):
        scaler = Autoscaler(min_replicas=1, max_replicas=8, depth_per_replica=4.0)
        scaler.reset()
        d = scaler.decide(now=0.0, active=1, queue_depth=13,
                          projected_wait_s=0.0, slo_ms=None)
        assert d.action == "up"
        assert d.target == 4  # ceil(13 / 4)

    def test_scale_up_capped_at_max(self):
        scaler = Autoscaler(min_replicas=1, max_replicas=3)
        scaler.reset()
        d = scaler.decide(now=0.0, active=1, queue_depth=100,
                          projected_wait_s=0.0, slo_ms=None)
        assert d.target == 3

    def test_scales_up_on_slo_pressure(self):
        scaler = Autoscaler(min_replicas=1, max_replicas=4, slo_headroom=0.5)
        scaler.reset()
        d = scaler.decide(now=0.0, active=2, queue_depth=1,
                          projected_wait_s=0.004, slo_ms=5.0)
        assert (d.action, d.target) == ("up", 3)
        scaler.reset()
        assert scaler.decide(now=0.0, active=2, queue_depth=1,
                             projected_wait_s=0.001, slo_ms=5.0) is None

    def test_scales_down_when_idle(self):
        scaler = Autoscaler(min_replicas=2, max_replicas=8)
        scaler.reset()
        d = scaler.decide(now=0.0, active=5, queue_depth=0,
                          projected_wait_s=0.0, slo_ms=None)
        assert (d.action, d.target) == ("down", 4)
        scaler.reset()
        assert scaler.decide(now=0.0, active=2, queue_depth=0,
                             projected_wait_s=0.0, slo_ms=None) is None

    def test_cooldown_suppresses_thrash(self):
        scaler = Autoscaler(min_replicas=1, max_replicas=8, cooldown_s=0.1)
        scaler.reset()
        assert scaler.decide(now=0.0, active=1, queue_depth=50,
                             projected_wait_s=0.0, slo_ms=None) is not None
        scaler.note_applied(0.0)
        assert scaler.decide(now=0.05, active=4, queue_depth=50,
                             projected_wait_s=0.0, slo_ms=None) is None
        assert scaler.decide(now=0.11, active=4, queue_depth=50,
                             projected_wait_s=0.0, slo_ms=None) is not None

    def test_unapplied_decision_does_not_charge_cooldown(self):
        # A decision the event loop could not honor (e.g. scale-up with
        # no replica factory) must not start the cooldown window:
        # deciding is free, only note_applied() commits.
        scaler = Autoscaler(min_replicas=1, max_replicas=8, cooldown_s=0.1)
        scaler.reset()
        assert scaler.decide(now=0.0, active=1, queue_depth=50,
                             projected_wait_s=0.0, slo_ms=None) is not None
        assert scaler.decide(now=0.01, active=1, queue_depth=50,
                             projected_wait_s=0.0, slo_ms=None) is not None


class TestFleetIntegration:
    def _bursty(self, n=600, rate=4000.0, seed=3):
        return poisson_arrivals(T, rate_per_s=rate, n_requests=n, seed=seed)

    def test_grows_under_load_and_records_events(self):
        fleet = Fleet("gpu", replicas=1)
        report = fleet.serve_stream(
            self._bursty(),
            slo_ms=5.0,
            autoscaler=Autoscaler(min_replicas=1, max_replicas=8),
        )
        assert report.n_replicas > 1
        assert report.scale_events
        ups = [e for e in report.scale_events if e.action == "up"]
        assert ups
        for event in report.scale_events:
            assert 1 <= event.replicas <= 8
        # Every request still answered exactly once, in arrival order.
        assert sorted(r.request.request_id for r in report.responses) == list(
            range(600)
        )

    def test_scale_down_during_lull(self):
        # A burst then a long quiet tail: the fleet must shed replicas.
        burst = poisson_arrivals(T, rate_per_s=6000.0, n_requests=300, seed=1)
        tail = poisson_arrivals(
            T, rate_per_s=50.0, n_requests=100, seed=2,
            start_s=max(r.arrival_s for r in burst) + 0.01,
        )
        from repro.serving import mix

        fleet = Fleet("gpu", replicas=1)
        report = fleet.serve_stream(
            mix(burst, tail),
            slo_ms=5.0,
            autoscaler=Autoscaler(min_replicas=1, max_replicas=8),
        )
        assert any(e.action == "down" for e in report.scale_events)
        # The report distinguishes peak capacity from what survived the
        # lull: the last scale event's count is the active set at the end.
        assert report.active_replicas == report.scale_events[-1].replicas
        assert report.active_replicas <= report.n_replicas

    def test_autoscaling_beats_fixed_single_replica(self):
        arrivals = self._bursty()
        fixed = Fleet("gpu", replicas=1).serve_stream(arrivals, slo_ms=5.0)
        scaled = Fleet("gpu", replicas=1).serve_stream(
            arrivals,
            slo_ms=5.0,
            autoscaler=Autoscaler(min_replicas=1, max_replicas=8),
        )
        assert scaled.slo_attainment > fixed.slo_attainment
        assert scaled.p99_ms < fixed.p99_ms

    def test_pinned_bounds_equal_fixed_fleet(self):
        # min == max pins the active set, so the run must be bit-identical
        # to the plain fixed fleet (and record no scale events).
        arrivals = self._bursty(n=300)
        fixed = Fleet("gpu", replicas=3, policy="least-loaded").serve_stream(
            arrivals, slo_ms=5.0
        )
        pinned = Fleet("gpu", replicas=3, policy="least-loaded").serve_stream(
            arrivals,
            slo_ms=5.0,
            autoscaler=Autoscaler(min_replicas=3, max_replicas=3),
        )
        assert pinned.scale_events == ()
        assert pinned.p50_ms == fixed.p50_ms
        assert pinned.p99_ms == fixed.p99_ms
        assert pinned.assignments == fixed.assignments

    def test_scaling_is_deterministic_and_reset_between_runs(self):
        arrivals = self._bursty(n=400)
        scaler = Autoscaler(min_replicas=1, max_replicas=6)
        first = Fleet("gpu", replicas=1).serve_stream(
            arrivals, slo_ms=5.0, autoscaler=scaler
        )
        second = Fleet("gpu", replicas=1).serve_stream(
            arrivals, slo_ms=5.0, autoscaler=scaler
        )
        assert first.scale_events == second.scale_events
        assert first.p99_ms == second.p99_ms

    def test_grown_replicas_share_compile_cache(self):
        fleet = Fleet("gpu", replicas=1)
        report = fleet.serve_stream(
            self._bursty(),
            slo_ms=5.0,
            autoscaler=Autoscaler(min_replicas=1, max_replicas=8),
        )
        assert report.n_replicas > 1
        # One task, one compile: every replica (initial or grown) reads
        # the shared cache, so the fleet-wide miss count stays 1.
        misses = sum(e.cache_stats.misses for e in fleet.engines)
        assert misses == 1

    def test_autoscale_starts_at_policy_floor(self):
        # Fleet built with 4 replicas, but the autoscaler floor is 2: the
        # stream starts (and stays, absent load) on 2 active replicas.
        fleet = Fleet("gpu", replicas=4)
        calm = uniform_arrivals(T, rate_per_s=100.0, n_requests=40)
        report = fleet.serve_stream(
            calm,
            slo_ms=50.0,
            autoscaler=Autoscaler(min_replicas=2, max_replicas=6),
        )
        assert set(report.assignments) <= {0, 1}

    def test_run_stream_requires_factory_to_grow(self):
        engine = ServingEngine("gpu")
        with pytest.raises(ServingError, match="replica_factory"):
            run_stream(
                self._bursty(n=200),
                engines=(engine,),
                schedulers=(make_scheduler("fifo"),),
                dispatch=_RoundRobin(),
                slo_ms=5.0,
                autoscaler=Autoscaler(min_replicas=1, max_replicas=4),
            )
