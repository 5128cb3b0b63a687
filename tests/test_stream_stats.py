"""StreamSummary vs StreamReport parity, memoization, and streaming paths.

The O(1)-memory summary (``serve_stream(..., mode="summary")``) must be
a drop-in mirror of the materialized report: every counter-derived
figure **exactly** equal (request counts, SLO attainment, batch sizes,
padding waste — these are integer/count arithmetic in both
representations), float means equal to reordering, and quantiles inside
the histogram estimator's tolerance.  A hand-rolled seeded fuzz suite
drives both representations over the same streams across schedulers,
batchers, tenants, priorities, per-request SLOs, and length
distributions, including the per-tenant/per-priority/per-length-band
slice rollups and their sum invariants.

Alongside it: the per-shape result memo (LRU, shared across fleet
replicas), the ``presorted=True`` lazy validation fast path, the
``materialize=False`` lazy generators (bit-identical to their eager
forms), streaming trace replay, the incremental least-loaded
dispatcher's exact parity with the naive O(replicas) scan, and the
k-replica FIFO loop's parity with the forced general heap loop (fold
order, abort point, errors, every capacity-planner candidate).
"""

import hashlib
import math
import random

import pytest

from repro.errors import ConfigError, ServingError
from repro.serving import (
    Autoscaler,
    Fleet,
    ServeRequest,
    ServingEngine,
    StreamDispatcher,
    StreamSummary,
    UniformLength,
    ZipfLength,
    diurnal_arrivals,
    iter_trace,
    mix,
    mmpp_arrivals,
    normalize_arrivals,
    poisson_arrivals,
    record_trace,
    replay_trace,
    run_stream,
    uniform_arrivals,
)
from repro.serving.batching import NoneBatcher
from repro.serving.engine import EvalMemo
from repro.serving.scheduler import make_scheduler
from repro.serving.stats import EXACT_SAMPLE_CAP, percentile
from repro.workloads.deepbench import task

T = task("lstm", 512, 25)
GRU = task("gru", 512, 25)

#: Histogram bucket ratio is 10^(1/128) ~ 1.8%; allow the full bucket.
QUANTILE_RTOL = 0.02


def _assert_quantile_close(estimate, sojourns_ms, q):
    """The estimate must land between the two order statistics the exact
    interpolation uses, within one histogram bucket of slack."""
    values = sorted(sojourns_ms)
    rank = (q / 100.0) * (len(values) - 1)
    lo = values[math.floor(rank)] * (1 - QUANTILE_RTOL)
    hi = values[math.ceil(rank)] * (1 + QUANTILE_RTOL)
    assert lo <= estimate <= hi, (estimate, lo, hi, q)


def _assert_mirrors(report, summary, *, check_slo=True):
    """Every shared figure: counters exact, means to reordering,
    quantiles within estimator tolerance."""
    assert summary.n_requests == report.n_requests
    assert summary.mean_batch_size == report.mean_batch_size
    assert summary.max_batch_size == report.max_batch_size
    assert summary.padding_waste_frac == report.padding_waste_frac
    assert summary.mean_ms == pytest.approx(report.mean_ms, rel=1e-9)
    assert summary.mean_queue_delay_ms == pytest.approx(
        report.mean_queue_delay_ms, rel=1e-9, abs=1e-15
    )
    assert summary.mean_service_ms == pytest.approx(
        report.mean_service_ms, rel=1e-9
    )
    assert summary.throughput_rps == pytest.approx(
        report.throughput_rps, rel=1e-9
    )
    assert summary.offered_rate_per_s == pytest.approx(
        report.offered_rate_per_s, rel=1e-9
    )
    assert summary.max_rate_per_s == pytest.approx(
        report.max_rate_per_s, rel=1e-9
    )
    assert summary.saturated == report.saturated
    for figure in (
        "energy_j",
        "joules_per_request",
        "fleet_watt_hours",
        "cost_usd_per_1m_requests",
    ):
        assert getattr(summary, figure) == pytest.approx(
            getattr(report, figure), rel=1e-9
        ), figure
    assert summary.per_platform_counts == report.per_platform_counts
    assert summary.tenants == report.tenants
    assert summary.priorities == report.priorities
    assert summary.outcomes == report.outcomes
    if check_slo:
        assert summary.slo_miss_rate == report.slo_miss_rate
        assert summary.slo_attainment == report.slo_attainment
    sojourns = [r.sojourn_ms for r in report.responses]
    for q in (50, 90, 99):
        _assert_quantile_close(summary.percentile_ms(q), sojourns, q)


class TestSummaryMirrorsReport:
    """Seeded fuzz: the summary and the report see the same stream."""

    SCENARIOS = list(range(10))

    def _scenario(self, seed):
        rng = random.Random(seed)
        platform = rng.choice(["gpu", "brainwave"])
        scheduler = rng.choice(["fifo", "edf", "priority", "sjf"])
        batcher = rng.choice(["none", "size-cap", "pad", "bucket"])
        lengths = rng.choice(
            [None, UniformLength(10, 60), ZipfLength(8, 120, alpha=1.4)]
        )
        n = rng.choice([300, 800])
        rate = rng.choice([400.0, 2000.0, 6000.0])
        streams = [
            poisson_arrivals(
                T,
                rate_per_s=rate,
                n_requests=n,
                seed=seed,
                tenant="alpha",
                priority=0,
                lengths=lengths,
            ),
            mmpp_arrivals(
                GRU,
                quiet_rate_per_s=rate / 2,
                burst_rate_per_s=rate * 4,
                n_requests=n // 2,
                seed=seed + 1,
                tenant="beta",
                priority=1,
                slo_ms=rng.choice([4.0, 25.0]),
                lengths=lengths,
            ),
        ]
        arrivals = mix(*streams)
        kwargs = dict(
            slo_ms=10.0,
            scheduler=scheduler,
            batcher=batcher,
            max_batch=rng.choice([2, 8]),
        )
        return platform, arrivals, kwargs

    @pytest.mark.parametrize("seed", SCENARIOS)
    def test_fuzzed_stream_mirrors(self, seed):
        platform, arrivals, kwargs = self._scenario(seed)
        report = ServingEngine(platform).serve_stream(arrivals, **kwargs)
        summary = ServingEngine(platform).serve_stream(
            arrivals, mode="summary", **kwargs
        )
        _assert_mirrors(report, summary)
        assert summary.platform == report.platform
        assert summary.scheduler == report.scheduler
        assert summary.batcher == report.batcher

    @pytest.mark.parametrize("seed", SCENARIOS[:4])
    def test_slices_mirror_and_sum(self, seed):
        platform, arrivals, kwargs = self._scenario(seed)
        report = ServingEngine(platform).serve_stream(arrivals, **kwargs)
        summary = ServingEngine(platform).serve_stream(
            arrivals, mode="summary", **kwargs
        )
        for slicer in ("per_tenant", "per_priority", "per_length_band"):
            report_slices = getattr(report, slicer)()
            summary_slices = getattr(summary, slicer)()
            assert set(report_slices) == set(summary_slices)
            assert sum(
                s.n_requests for s in summary_slices.values()
            ) == summary.n_requests
            for key, sub_report in report_slices.items():
                _assert_mirrors(sub_report, summary_slices[key])

    @pytest.mark.parametrize("base", [2.0, 3.0, 10.0])
    def test_length_bands_mirror_report_at_any_base(self, base):
        # Summary classes keep each request's own timesteps, so a
        # summary slices into length bands exactly at any base.
        arrivals = poisson_arrivals(
            T, rate_per_s=2000, n_requests=3000, seed=5,
            lengths=ZipfLength(8, 400),
        )
        report = ServingEngine("gpu").serve_stream(arrivals, slo_ms=5.0)
        summary = ServingEngine("gpu").serve_stream(
            arrivals, slo_ms=5.0, mode="summary"
        )
        report_bands = report.per_length_band(base)
        summary_bands = summary.per_length_band(base)
        assert list(summary_bands) == list(report_bands)
        assert len(report_bands) > 1
        for key, sub_report in report_bands.items():
            _assert_mirrors(sub_report, summary_bands[key])

    def test_presorted_summary_identical_to_unsorted(self):
        arrivals = poisson_arrivals(T, rate_per_s=2000, n_requests=500, seed=2)
        a = ServingEngine("gpu").serve_stream(
            arrivals, slo_ms=5.0, mode="summary"
        )
        b = ServingEngine("gpu").serve_stream(
            arrivals, slo_ms=5.0, mode="summary", presorted=True
        )
        assert a.n_requests == b.n_requests
        assert a.mean_ms == b.mean_ms
        assert a.p99_ms == b.p99_ms
        assert a.slo_attainment == b.slo_attainment


class TestSummaryExactSmallStreams:
    def test_small_stream_percentiles_exact(self):
        # Every class stays inside its reservoir -> exact interpolation.
        arrivals = poisson_arrivals(
            T, rate_per_s=3000, n_requests=EXACT_SAMPLE_CAP, seed=5
        )
        report = ServingEngine("gpu").serve_stream(arrivals, slo_ms=5.0)
        summary = ServingEngine("gpu").serve_stream(
            arrivals, slo_ms=5.0, mode="summary"
        )
        assert summary.p50_ms == report.p50_ms
        assert summary.p99_ms == report.p99_ms
        assert summary.min_sojourn_ms == min(r.sojourn_ms for r in report.responses)
        assert summary.max_sojourn_ms == max(r.sojourn_ms for r in report.responses)

    def test_small_slices_of_big_streams_stay_exact(self):
        # A rare tenant inside a large stream keeps exact percentiles as
        # long as its own classes stay inside their reservoirs.
        big = poisson_arrivals(
            T, rate_per_s=4000, n_requests=1500, seed=1, tenant="main"
        )
        rare = poisson_arrivals(
            GRU, rate_per_s=20, n_requests=30, seed=2, tenant="rare"
        )
        arrivals = mix(big, rare)
        report = ServingEngine("gpu").serve_stream(arrivals, slo_ms=10.0)
        summary = ServingEngine("gpu").serve_stream(
            arrivals, slo_ms=10.0, mode="summary"
        )
        assert (
            summary.per_tenant()["rare"].p99_ms
            == report.per_tenant()["rare"].p99_ms
        )

    def test_single_request(self):
        summary = ServingEngine("gpu").serve_stream(
            [ServeRequest(task=T)], slo_ms=5.0, mode="summary"
        )
        assert summary.n_requests == 1
        assert summary.p50_ms == summary.p99_ms == summary.mean_ms
        assert summary.offered_rate_per_s == 0.0


class TestSummaryErrors:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ServingError, match="unknown stream mode"):
            ServingEngine("gpu").serve_stream([T], mode="streaming")

    def test_empty_summary_finalize_raises(self):
        with pytest.raises(ServingError, match="no responses"):
            StreamSummary("gpu").finalize()

    def test_miss_rate_without_slo_raises(self):
        summary = ServingEngine("gpu").serve_stream([T], mode="summary")
        with pytest.raises(ServingError, match="no SLO"):
            summary.slo_miss_rate

    def test_percentile_helper_empty(self):
        with pytest.raises(ServingError, match="empty"):
            percentile([], 50)


class TestHistogramEdges:
    def test_bucket_index_clamps_both_ends(self):
        from repro.serving.stats import _HIST_BUCKETS, _bucket_index

        assert _bucket_index(1e-9) == 0
        assert _bucket_index(0.0) == 0
        assert _bucket_index(1e12) == _HIST_BUCKETS - 1
        assert 0 < _bucket_index(1.0) < _HIST_BUCKETS - 1

    def test_zero_sojourns_spill_into_bucket_zero(self):
        """Regression: a 0.45 us service is below half an ulp of an
        arrival at 1e12 s, so every finish equals its arrival.  Once the
        class spilled past its reservoir, summary mode raised ``math
        domain error`` from ``log10(0)``; full mode reported the stream."""
        gru = task("gru", 512, 1)
        arrivals = [
            ServeRequest(task=gru, arrival_s=1e12 + i, request_id=i)
            for i in range(100)
        ]
        assert len(arrivals) > EXACT_SAMPLE_CAP
        full = ServingEngine("plasticine").serve_stream(arrivals)
        assert full.p99_ms == 0.0
        summary = ServingEngine("plasticine").serve_stream(arrivals, mode="summary")
        assert summary.n_requests == full.n_requests == 100
        assert summary.p99_ms == full.p99_ms
        # The per-request fold (a sink overriding observe_served) agrees.
        sink = _OrderSink("plasticine")
        run_stream(
            arrivals,
            engines=[ServingEngine("plasticine")],
            schedulers=[make_scheduler("fifo")],
            summary=sink,
        )
        assert (sink.n_requests, sink.p99_ms) == (100, 0.0)

    def test_out_of_range_sojourns_still_bounded_by_min_max(self):
        # Values beyond the histogram range clamp into the edge buckets;
        # the quantile estimate is then clamped to the exact min/max.
        summary = StreamSummary("gpu", slo_ms=None)
        acc_values = [1e-7] * 60 + [1e9] * 60  # force a spill, both ends
        for i, v in enumerate(acc_values):
            req = ServeRequest(task=T, arrival_s=float(i), request_id=i)
            result = ServingEngine("gpu").serve(T).result
            summary.observe_served(req, result, float(i), float(i) + v / 1e3, 1)
        summary.finalize()
        assert summary.min_sojourn_ms <= summary.p50_ms <= summary.max_sojourn_ms
        assert summary.p99_ms <= summary.max_sojourn_ms


class TestFleetSummary:
    def test_replica_counts_match_full_report(self):
        arrivals = poisson_arrivals(T, rate_per_s=5000, n_requests=400, seed=11)
        report = Fleet("gpu", replicas=3, policy="least-loaded").serve_stream(
            arrivals, slo_ms=5.0
        )
        summary = Fleet("gpu", replicas=3, policy="least-loaded").serve_stream(
            arrivals, slo_ms=5.0, mode="summary"
        )
        assert summary.per_replica_counts == report.per_replica_counts
        assert summary.replicas == report.replicas
        assert summary.policy == "least-loaded"
        _assert_mirrors(report, summary)

    def test_single_replica_fast_paths_count_assignments(self):
        # The no-heap fast paths must still feed per-replica counts.
        arrivals = poisson_arrivals(T, rate_per_s=900, n_requests=50, seed=2)
        for scheduler in ("fifo", "edf"):
            summary = Fleet("gpu", replicas=1).serve_stream(
                arrivals, slo_ms=5.0, scheduler=scheduler, mode="summary"
            )
            assert summary.per_replica_counts == (50,)
            # A full-mode engine report carries its assignments too.
            report = ServingEngine("gpu").serve_stream(
                arrivals, slo_ms=5.0, scheduler=scheduler
            )
            assert report.n_replicas == 1
            assert report.per_replica_counts == (50,)

    def test_autoscaled_summary_carries_scale_events(self):
        arrivals = poisson_arrivals(T, rate_per_s=6000, n_requests=600, seed=4)
        fleet = Fleet("gpu", replicas=1)
        scaler = Autoscaler(min_replicas=1, max_replicas=4)
        report = fleet.serve_stream(arrivals, slo_ms=5.0, autoscaler=scaler)
        summary = Fleet("gpu", replicas=1).serve_stream(
            arrivals,
            slo_ms=5.0,
            autoscaler=Autoscaler(min_replicas=1, max_replicas=4),
            mode="summary",
        )
        assert summary.scale_events == report.scale_events
        assert summary.replicas == report.replicas
        assert summary.active_replicas == report.active_replicas


class TestResultMemo:
    def test_memo_returns_identical_object(self):
        engine = ServingEngine("gpu")
        first = engine.result_for(T)
        assert engine.result_for(T) is first
        assert engine.serve_batched(T, 4) is engine.serve_batched(T, 4)

    def test_memo_counts_like_prepare_hits(self):
        engine = ServingEngine("gpu")
        for _ in range(5):
            engine.result_for(T)
        assert engine.cache_stats.misses == 1
        assert engine.cache_stats.hits == 4

    def test_memoize_off_recomputes_equal_results(self):
        engine = ServingEngine("gpu", memoize=False)
        first = engine.result_for(T)
        second = engine.result_for(T)
        assert first is not second
        assert first == second

    def test_memo_capacity_evicts_lru(self):
        engine = ServingEngine("gpu", memo=EvalMemo(maxsize=2))
        a = engine.result_for(T.with_timesteps(10))
        engine.result_for(T.with_timesteps(20))
        # Touch the first shape so it is most-recently-used...
        assert engine.result_for(T.with_timesteps(10)) is a
        engine.result_for(T.with_timesteps(30))  # evicts timesteps=20
        assert engine.result_for(T.with_timesteps(10)) is a  # survived
        assert len(engine._memo) == 2

    def test_memo_capacity_validated(self):
        with pytest.raises(ConfigError, match="maxsize"):
            ServingEngine("gpu", memo=EvalMemo(maxsize=0))

    def test_fleet_replicas_share_memo(self):
        fleet = Fleet("gpu", replicas=3)
        arrivals = poisson_arrivals(T, rate_per_s=5000, n_requests=60, seed=0)
        fleet.serve_stream(arrivals, slo_ms=5.0)
        # One replica consulted the cost model once; the whole fleet
        # shares that entry.
        assert sum(e.cache_stats.misses for e in fleet.engines) == 1
        assert len(fleet._memos["gpu"]) == 1

    def test_stream_timeline_identical_with_and_without_memo(self):
        arrivals = poisson_arrivals(T, rate_per_s=2000, n_requests=300, seed=9)
        with_memo = ServingEngine("gpu").serve_stream(arrivals, slo_ms=5.0)
        without = ServingEngine("gpu", memoize=False).serve_stream(
            arrivals, slo_ms=5.0
        )
        assert with_memo.responses == without.responses


class TestPresortedValidation:
    def test_presorted_returns_lazy_iterator(self):
        arrivals = uniform_arrivals(T, rate_per_s=10, n_requests=3)
        lazy = normalize_arrivals(arrivals, presorted=True)
        assert not isinstance(lazy, list)
        assert [r.request_id for r in lazy] == [0, 1, 2]

    def test_out_of_order_arrivals_rejected(self):
        reqs = [
            ServeRequest(task=T, arrival_s=0.2, request_id=0),
            ServeRequest(task=T, arrival_s=0.1, request_id=1),
        ]
        with pytest.raises(ServingError, match="out of order"):
            list(normalize_arrivals(reqs, presorted=True))

    def test_non_monotone_ids_rejected(self):
        reqs = [
            ServeRequest(task=T, arrival_s=0.1, request_id=5),
            ServeRequest(task=T, arrival_s=0.2, request_id=5),
        ]
        with pytest.raises(ServingError, match="strictly increasing"):
            list(normalize_arrivals(reqs, presorted=True))

    def test_empty_presorted_stream_rejected_by_loop(self):
        with pytest.raises(ServingError, match="at least one request"):
            ServingEngine("gpu").serve_stream(
                iter(()), mode="summary", presorted=True
            )

    def test_presorted_full_mode_bit_identical(self):
        arrivals = poisson_arrivals(T, rate_per_s=1500, n_requests=400, seed=3)
        classic = ServingEngine("gpu").serve_stream(arrivals, slo_ms=5.0)
        lazy = ServingEngine("gpu").serve_stream(
            iter(arrivals), slo_ms=5.0, presorted=True
        )
        assert classic.responses == lazy.responses


class TestLazyGenerators:
    @pytest.mark.parametrize("lengths", [None, ZipfLength(8, 90)])
    def test_poisson_lazy_equals_eager(self, lengths):
        kwargs = dict(
            rate_per_s=700.0, n_requests=2000, seed=6, lengths=lengths,
            tenant="t", priority=2, slo_ms=9.0,
        )
        eager = poisson_arrivals(T, **kwargs)
        lazy = poisson_arrivals(T, materialize=False, **kwargs)
        assert tuple(lazy) == eager

    def test_uniform_lazy_equals_eager(self):
        eager = uniform_arrivals(
            T, rate_per_s=50, n_requests=200, lengths=UniformLength(5, 40)
        )
        lazy = uniform_arrivals(
            T,
            rate_per_s=50,
            n_requests=200,
            lengths=UniformLength(5, 40),
            materialize=False,
        )
        assert tuple(lazy) == eager

    def test_mmpp_lazy_equals_eager(self):
        kwargs = dict(
            quiet_rate_per_s=100.0, burst_rate_per_s=5000.0,
            n_requests=300, seed=8,
        )
        assert tuple(
            mmpp_arrivals(T, materialize=False, **kwargs)
        ) == mmpp_arrivals(T, **kwargs)

    def test_diurnal_lazy_equals_eager(self):
        kwargs = dict(
            base_rate_per_s=50.0, peak_rate_per_s=800.0, period_s=1.5,
            n_requests=300, seed=2,
        )
        assert tuple(
            diurnal_arrivals(T, materialize=False, **kwargs)
        ) == diurnal_arrivals(T, **kwargs)

    def test_lazy_mix_equals_eager_mix(self):
        def streams(materialize):
            return [
                poisson_arrivals(
                    T, rate_per_s=300, n_requests=150, seed=1, tenant="a",
                    materialize=materialize,
                ),
                poisson_arrivals(
                    GRU, rate_per_s=500, n_requests=150, seed=2, tenant="b",
                    slo_ms=3.0, materialize=materialize,
                ),
            ]

        eager = mix(*streams(True))
        lazy = mix(*streams(False), presorted=True)
        assert tuple(lazy) == eager

    def test_lazy_stream_through_summary_mode(self):
        eager = poisson_arrivals(T, rate_per_s=1500, n_requests=800, seed=12)
        report = ServingEngine("gpu").serve_stream(eager, slo_ms=5.0)
        summary = ServingEngine("gpu").serve_stream(
            poisson_arrivals(
                T, rate_per_s=1500, n_requests=800, seed=12, materialize=False
            ),
            slo_ms=5.0,
            mode="summary",
            presorted=True,
        )
        _assert_mirrors(report, summary)


class TestStreamingTraces:
    def test_iter_trace_matches_replay(self, tmp_path):
        reqs = poisson_arrivals(
            T, rate_per_s=200, n_requests=50, seed=4, slo_ms=7.0
        )
        path = record_trace(reqs, tmp_path / "t.jsonl")
        assert tuple(iter_trace(path)) == replay_trace(path) == reqs

    def test_record_trace_from_lazy_generator(self, tmp_path):
        lazy = poisson_arrivals(
            T, rate_per_s=200, n_requests=50, seed=4, materialize=False
        )
        path = record_trace(lazy, tmp_path / "t.jsonl")
        assert replay_trace(path) == poisson_arrivals(
            T, rate_per_s=200, n_requests=50, seed=4
        )

    def test_record_empty_trace_leaves_no_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        with pytest.raises(ServingError, match="empty trace"):
            record_trace(iter(()), path)
        assert not path.exists()

    def test_failed_recording_preserves_existing_trace(self, tmp_path):
        reqs = uniform_arrivals(T, rate_per_s=10, n_requests=3)
        path = record_trace(reqs, tmp_path / "keep.jsonl")
        with pytest.raises(ServingError, match="empty trace"):
            record_trace(iter(()), path)  # must not clobber the old trace
        assert replay_trace(path) == reqs

        def exploding():
            yield reqs[0]
            raise RuntimeError("generator died mid-stream")

        with pytest.raises(RuntimeError):
            record_trace(exploding(), path)
        assert replay_trace(path) == reqs  # still the original, whole
        assert not (tmp_path / "keep.jsonl.partial").exists()

    def test_iter_trace_missing_file(self):
        with pytest.raises(ServingError, match="not found"):
            iter_trace("no/such/trace.jsonl")

    def test_replayed_trace_streams_through_summary(self, tmp_path):
        reqs = mix(
            poisson_arrivals(T, rate_per_s=800, n_requests=120, seed=1,
                             tenant="a"),
            poisson_arrivals(GRU, rate_per_s=400, n_requests=80, seed=2,
                             tenant="b"),
        )
        path = record_trace(reqs, tmp_path / "mix.jsonl")
        report = ServingEngine("gpu").serve_stream(reqs, slo_ms=5.0)
        summary = ServingEngine("gpu").serve_stream(
            iter_trace(path), slo_ms=5.0, mode="summary", presorted=True
        )
        _assert_mirrors(report, summary)


class _NaiveLeastLoaded(StreamDispatcher):
    """Join-the-shortest-queue by a full scan (earliest projection,
    lowest index).  It projects each dispatch itself and ignores
    ``assign``, so it checks the loop's projections instead of trusting
    them."""

    def bind(self, engines):
        self.engines = engines

    def resize(self, active, work_until):
        self.work = list(work_until[:active])

    def choose(self, seq, request):
        work = self.work
        j = min(range(len(work)), key=lambda j: (work[j], j))
        latency = self.engines[j].result_for(request.task).latency_s
        work[j] = max(request.arrival_s, work[j]) + latency
        return j


class TestLeastLoadedDispatcherParity:
    """The incremental heap dispatcher must pick the exact replica the
    naive O(replicas) scan picked, on every arrival."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("replicas", [2, 5])
    def test_matches_naive_scan(self, seed, replicas):
        arrivals = poisson_arrivals(
            T, rate_per_s=3000.0 * replicas, n_requests=400, seed=seed
        )
        fleet = Fleet("gpu", replicas=replicas, policy="least-loaded")
        report = fleet.serve_stream(arrivals, slo_ms=5.0)
        reference = run_stream(
            arrivals,
            engines=[ServingEngine("gpu") for _ in range(replicas)],
            schedulers=[make_scheduler("fifo") for _ in range(replicas)],
            dispatch=_NaiveLeastLoaded(),
            slo_ms=5.0,
        )
        assert list(report.assignments) == reference.assignments
        assert list(report.responses) == reference.responses


class _HeapForcedNone(NoneBatcher):
    """Overriding hold_until (same value) forces the general heap loop."""

    def hold_until(self, queue, now):
        return now


class TestFastPathParity:
    """The specialized single-replica loops must be bit-identical to the
    general heap loop on the same stream."""

    @pytest.mark.parametrize("scheduler", ["fifo", "edf", "sjf"])
    @pytest.mark.parametrize("rate", [900.0, 6000.0])
    def test_single_replica_fast_paths_match_heap(self, scheduler, rate):
        arrivals = poisson_arrivals(T, rate_per_s=rate, n_requests=500, seed=7)
        fast = ServingEngine("gpu").serve_stream(
            arrivals, slo_ms=5.0, scheduler=scheduler
        )
        heap = ServingEngine("gpu").serve_stream(
            arrivals,
            slo_ms=5.0,
            scheduler=scheduler,
            batcher=lambda: _HeapForcedNone(),
        )
        assert fast.responses == heap.responses

    def test_batched_single_replica_matches_heap(self):
        arrivals = poisson_arrivals(
            GRU, rate_per_s=8000, n_requests=400, seed=3,
            lengths=ZipfLength(10, 80),
        )
        fast = ServingEngine("brainwave").serve_stream(
            arrivals, slo_ms=50.0, batcher="bucket", max_batch=8
        )
        # Same policy, but with hold_until overridden (returning `now`
        # unchanged), which forces the general heap loop.
        heap = ServingEngine("brainwave").serve_stream(
            arrivals, slo_ms=50.0, batcher=_forced_bucket
        )
        assert fast.responses == heap.responses


class _Stop(Exception):
    """Raised by :class:`_OrderSink` to end a stream mid-way."""


class _OrderSink(StreamSummary):
    """A summary that records its fold order and can stop the stream
    after ``stop_after`` folds, as a pruning sink does."""

    def __init__(self, *args, stop_after=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.order = []
        self.stop_after = stop_after

    def observe_served(self, request, result, start_s, finish_s, batch_size,
                       outcome="ok"):
        super().observe_served(
            request, result, start_s, finish_s, batch_size, outcome
        )
        self.order.append((request.request_id, start_s, finish_s))
        if len(self.order) == self.stop_after:
            raise _Stop


def _figures(summary):
    """Every figure a planner point or a pruned replay reports, as exact
    reprs (bit-identity, NaN-safe)."""
    service, _count = summary._per_platform_service()
    figures = {
        "p50": summary.p50_ms,
        "p99": summary.p99_ms,
        "mean": summary.mean_ms,
        "queue": summary.mean_queue_delay_ms,
        "service": summary.mean_service_ms,
        "slo": summary.slo_attainment,
        "throughput": summary.throughput_rps,
        "energy": summary.energy_j,
        "j_per_request": summary.joules_per_request,
        "fleet_wh": summary.fleet_watt_hours,
        "usd_per_1m": summary.cost_usd_per_1m_requests,
        "makespan": summary.makespan_s,
        "min_sojourn": summary.min_sojourn_ms,
        "max_sojourn": summary.max_sojourn_ms,
        "replicas": summary.per_replica_counts,
        "platforms": summary.per_platform_counts,
        "service_sums": service,
        "n": summary.n_requests,
    }
    for name in ("simulated", "clear_misses", "order"):
        if hasattr(summary, name):
            figures[name] = getattr(summary, name)
    return {name: repr(value) for name, value in figures.items()}


def _tied_arrivals(latency, k, seed, n=160):
    """Same-instant bursts on a grid of running sums of one service time,
    so every finish lands exactly on an arrival or another start."""
    rng = random.Random(seed)
    t = 0.0
    requests = []
    while len(requests) < n:
        for _ in range(rng.randint(1, k + 2)):
            requests.append(
                ServeRequest(task=T, arrival_s=t, request_id=len(requests))
            )
        for _ in range(rng.randint(0, 2)):
            t += latency
    return requests


class _JoinEarliest(StreamDispatcher):
    """A custom incremental dispatcher: earliest projection, highest
    index on ties (the opposite of the built-in heap's tie-break)."""

    def resize(self, active, work_until):
        self.work = list(work_until[:active])

    def assign(self, replica, work_until_s):
        self.work[replica] = work_until_s

    def choose(self, seq, request):
        work = self.work
        return min(range(len(work)), key=lambda j: (work[j], -j))


class _Scatter(StreamDispatcher):
    """A seeded uniform pick among the active replicas."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def resize(self, active, work_until):
        self.active = active

    def choose(self, seq, request):
        return self.rng.randrange(self.active)


class _PickAt(StreamDispatcher):
    """``replica`` for the third arrival, replica 0 for every other."""

    def __init__(self, replica):
        self.replica = replica

    def choose(self, seq, request):
        return self.replica if seq == 2 else 0


class _Recorder(StreamDispatcher):
    """Replica 0 for every arrival, logging each protocol call."""

    def __init__(self):
        self.calls = []

    def resize(self, active, work_until):
        self.calls.append(("resize", active, list(work_until)))

    def assign(self, replica, work_until_s):
        self.calls.append(("assign", replica, work_until_s))

    def choose(self, seq, request):
        self.calls.append(("choose", seq, request.request_id))
        return 0


def _run_both(arrivals, k, make_dispatch, *, summary=False, stop_after=None):
    """The same stream on the FIFO loop and on the forced heap loop:
    one (outcome or None, sink) pair each."""
    runs = []
    for forced in (False, True):
        sink = (
            _OrderSink("gpu", slo_ms=1.0, stop_after=stop_after)
            if summary
            else None
        )
        try:
            outcome = run_stream(
                arrivals,
                engines=[ServingEngine("gpu") for _ in range(k)],
                schedulers=[make_scheduler("fifo") for _ in range(k)],
                batchers=[
                    _HeapForcedNone() if forced else NoneBatcher()
                    for _ in range(k)
                ],
                dispatch=make_dispatch(),
                summary=sink,
            )
        except _Stop:
            outcome = None
        runs.append((outcome, sink))
    return runs


class TestFifoFleetLoop:
    """The k-replica FIFO/batch-1 loop against the general heap loop:
    same responses, same fold order (the launch-order rule), same abort
    point and the same errors."""

    LATENCY = ServingEngine("gpu").result_for(T).latency_s

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize(
        "make_dispatch",
        [lambda: _Scatter(3), _JoinEarliest],
        ids=["legacy", "stream-dispatcher"],
    )
    def test_equal_time_ties_match_heap(self, k, make_dispatch):
        arrivals = _tied_arrivals(self.LATENCY, k, seed=k)
        (fast, _), (heap, _) = _run_both(arrivals, k, make_dispatch)
        assert fast.responses == heap.responses
        assert fast.assignments == heap.assignments
        assert len(set(fast.assignments)) == k
        # The stream really is tied: queued requests start on other
        # requests' arrival instants, and on one instant on several
        # replicas at once.
        arrival_times = {r.arrival_s for r in arrivals}
        launches = {}
        for r, replica in zip(fast.responses, fast.assignments):
            if r.queue_delay_s > 0:
                launches.setdefault(r.start_s, set()).add(replica)
        assert len(arrival_times.intersection(launches)) > 10
        assert sum(len(on) > 1 for on in launches.values()) > 10
        (fast, fast_sink), (heap, heap_sink) = _run_both(
            arrivals, k, make_dispatch, summary=True
        )
        assert fast_sink.order == heap_sink.order
        assert _figures(fast_sink) == _figures(heap_sink)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("stop_after", [1, 41, 120])
    def test_abort_point_matches_heap(self, k, stop_after):
        arrivals = _tied_arrivals(self.LATENCY, k, seed=10 + k)
        (fast, fast_sink), (heap, heap_sink) = _run_both(
            arrivals, k, _JoinEarliest, summary=True, stop_after=stop_after
        )
        assert fast is None and heap is None
        assert fast_sink.order == heap_sink.order
        assert fast_sink._replica_counts == heap_sink._replica_counts

    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_fleet_policies_match_heap(self, policy, k):
        arrivals = _tied_arrivals(self.LATENCY, k, seed=20 + k)
        reports = [
            Fleet("gpu", replicas=k, policy=policy).serve_stream(
                arrivals, slo_ms=1.0, batcher=batcher
            )
            for batcher in ("none", lambda: _HeapForcedNone())
        ]
        assert reports[0].responses == reports[1].responses
        assert reports[0].assignments == reports[1].assignments
        sinks = [_OrderSink("gpu", slo_ms=1.0) for _ in range(2)]
        for sink, batcher in zip(sinks, ("none", lambda: _HeapForcedNone())):
            Fleet("gpu", replicas=k, policy=policy).serve_stream(
                arrivals, slo_ms=1.0, batcher=batcher, mode="summary",
                summary=sink,
            )
        assert _figures(sinks[0]) == _figures(sinks[1])

    @pytest.mark.parametrize("replica", [-1, 3])
    def test_invalid_replica_raises_like_heap(self, replica):
        arrivals = uniform_arrivals(T, rate_per_s=100.0, n_requests=4)
        for forced in (False, True):
            with pytest.raises(
                ServingError, match=f"dispatcher chose invalid replica {replica}"
            ):
                run_stream(
                    arrivals,
                    engines=[ServingEngine("gpu") for _ in range(3)],
                    schedulers=[make_scheduler("fifo") for _ in range(3)],
                    batchers=[
                        _HeapForcedNone() if forced else NoneBatcher()
                        for _ in range(3)
                    ],
                    dispatch=_PickAt(replica),
                )

    def test_empty_stream_raises_like_heap(self):
        for forced in (False, True):
            with pytest.raises(ServingError, match="at least one request"):
                run_stream(
                    iter(()),
                    engines=[ServingEngine("gpu") for _ in range(2)],
                    schedulers=[make_scheduler("fifo") for _ in range(2)],
                    batchers=[
                        _HeapForcedNone() if forced else NoneBatcher()
                        for _ in range(2)
                    ],
                    dispatch=_JoinEarliest(),
                    presorted=True,
                    summary=StreamSummary("gpu"),
                )


class TestDispatchContract:
    """``run_stream`` takes a :class:`StreamDispatcher` or ``None`` (one
    replica, no autoscaler), and every loop drives it alike."""

    @pytest.mark.parametrize("scheduler", ["fifo", "edf"])
    def test_fast_loops_call_the_protocol_like_heap(self, scheduler):
        # fifo runs the k-replica FIFO loop, edf the single-replica loop.
        arrivals = poisson_arrivals(T, rate_per_s=60_000.0, n_requests=200, seed=1)
        logs = []
        for batcher in (NoneBatcher(), _HeapForcedNone()):
            recorder = _Recorder()
            run_stream(
                arrivals,
                engines=[ServingEngine("gpu")],
                schedulers=[make_scheduler(scheduler)],
                batchers=[batcher],
                dispatch=recorder,
                slo_ms=5.0,
            )
            logs.append(recorder.calls)
        assert logs[0] == logs[1]
        assert len(logs[0]) == 1 + 2 * len(arrivals)

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {
                "autoscaler": Autoscaler(min_replicas=1, max_replicas=2),
                "replica_factory": lambda index: (
                    ServingEngine("gpu"), make_scheduler("fifo"), NoneBatcher()
                ),
            },
            {"timeout_ms": 5},
        ],
        ids=["plain", "autoscaler", "timeout"],
    )
    def test_zero_replicas_rejected(self, options):
        with pytest.raises(ServingError, match="at least one replica"):
            run_stream(
                uniform_arrivals(T, rate_per_s=100.0, n_requests=4),
                engines=[],
                schedulers=[],
                dispatch=_Scatter(0),
                **options,
            )

    def test_dispatch_is_a_stream_dispatcher_or_none(self):
        arrivals = uniform_arrivals(T, rate_per_s=100.0, n_requests=4)

        def run(k, dispatch, **options):
            return run_stream(
                arrivals,
                engines=[ServingEngine("gpu") for _ in range(k)],
                schedulers=[make_scheduler("fifo") for _ in range(k)],
                dispatch=dispatch,
                **options,
            )

        with pytest.raises(ServingError, match="StreamDispatcher"):
            run(1, lambda seq, req, work: 0)
        with pytest.raises(ServingError, match="StreamDispatcher"):
            run(2, None)
        with pytest.raises(ServingError, match="StreamDispatcher"):
            run(1, None, autoscaler=Autoscaler(min_replicas=1, max_replicas=2))
        assert run(1, None).assignments == [0] * 4


def _responses_digest(report):
    digest = hashlib.sha256()
    for r, replica in zip(report.responses, report.assignments):
        row = (
            r.request.request_id, replica, r.result.platform,
            r.result.latency_s, r.start_s, r.finish_s, r.queue_delay_s,
            r.batch_size, r.batch_index, r.outcome, r.attempts,
        )
        digest.update(repr(row).encode())
    return digest.hexdigest()


class TestCachedPricingPins:
    """Mixed fleets keep the cost-aware dispatcher's per-task latency
    cache on the loops that still price every arrival; their full
    responses are pinned to digests taken before the cache existed."""

    ARRIVALS = dict(n_requests=600, seed=5, lengths=UniformLength(10, 40))

    def test_chaos_mixed_fleet_digest(self):
        from repro.serving import get_fault_policy

        report = Fleet(
            "plasticine:1,brainwave:1,gpu:1", policy="least-loaded"
        ).serve_stream(
            poisson_arrivals(GRU, rate_per_s=9000.0, **self.ARRIVALS),
            slo_ms=5.0,
            faults=lambda: get_fault_policy("chaos", mtbf_s=0.02, mttr_s=0.002),
            fault_seed=7,
            timeout_ms=20,
            retries=1,
            hedge_ms=10,
        )
        assert report.fault_stats.crashes == 5  # recoveries swap engines
        assert _responses_digest(report) == (
            "66fc1dcf45627e60768bff2682d242881dac22e458933da1298a14cd8e3d34fe"
        )

    def test_autoscaled_mixed_fleet_digest(self):
        report = Fleet("brainwave:1,gpu:1", policy="least-loaded").serve_stream(
            poisson_arrivals(GRU, rate_per_s=30000.0, **self.ARRIVALS),
            slo_ms=1.0,
            autoscaler=Autoscaler(min_replicas=1, max_replicas=4),
        )
        assert report.replicas == 4  # growth appends engines
        assert _responses_digest(report) == (
            "d15a7bea7e61e48bc9dc446b98728d70d0b2a19f3c1f3b8313512e130fa2930c"
        )


def _index_gaps(report):
    """Batched executions whose recorded members skip a ``batch_index``
    (a copy superseded by a retry or beaten by a hedge leaves a hole)."""
    batches = {}
    for r, replica in zip(report.responses, report.assignments):
        if r.batch_size > 1:
            key = (replica, r.start_s, r.finish_s, r.batch_size)
            batches.setdefault(key, []).append(r.batch_index)
    return sum(sorted(v) != list(range(len(v))) for v in batches.values())


_PIN_ARRIVALS = dict(n_requests=600, seed=5, lengths=UniformLength(10, 40))


def _two_tenants():
    tagged = dict(rate_per_s=6000.0, n_requests=300, lengths=UniformLength(10, 40))
    return mix(
        poisson_arrivals(GRU, seed=5, tenant="chat", slo_ms=2.0, **tagged),
        poisson_arrivals(GRU, seed=6, tenant="batch", slo_ms=20.0, **tagged),
    )


def _chaos():
    from repro.serving import get_fault_policy

    return get_fault_policy("chaos", mtbf_s=0.05, mttr_s=0.002)


#: (event loop, full-mode report on it, digest taken before the loops
#: shared one response log).
_LOOP_PINS = [
    (
        "_run_fifo_runs",
        lambda: ServingEngine("gpu").serve_stream(
            poisson_arrivals(GRU, rate_per_s=9000.0, **_PIN_ARRIVALS),
            slo_ms=5.0,
        ),
        "aee63dcf25e0d251e0f30e0e8e853614159f3aab48f3af9f1894634b0f39eb90",
    ),
    (
        "_run_fifo_unbatched",
        lambda: Fleet("gpu", replicas=3, policy="round-robin").serve_stream(
            poisson_arrivals(GRU, rate_per_s=27000.0, **_PIN_ARRIVALS),
            slo_ms=5.0,
        ),
        "f601bc16f2fbc510324e7528fb74ba553c4aaaf9920f433a3578835e7530d147",
    ),
    (
        "_run_single_replica",
        lambda: ServingEngine("brainwave").serve_stream(
            _two_tenants(), scheduler="edf", batcher="bucket", max_batch=8
        ),
        "ad5d68f154d61825c6c609c70ba01c1eae5156a7d88657ebca0c954af0529d70",
    ),
    (
        "_run_heap",
        lambda: ServingEngine("gpu").serve_stream(
            poisson_arrivals(GRU, rate_per_s=9000.0, **_PIN_ARRIVALS),
            slo_ms=5.0,
            batcher="time-window",
            max_batch=8,
        ),
        "a76e1dd7185f4b60e42006a606156a2ad04f4c1663fdbeb82f0dc9aa3c89a5d1",
    ),
    (
        "_run_faulty",
        lambda: Fleet("gpu", replicas=2, policy="least-loaded").serve_stream(
            poisson_arrivals(GRU, rate_per_s=2000.0, **_PIN_ARRIVALS),
            slo_ms=5.0,
            batcher="size-cap",
            max_batch=4,
            faults=_chaos,
            fault_seed=7,
            timeout_ms=20,
            retries=1,
            hedge_ms=1,
        ),
        "9d603d45c4b565d1b6f32f7fc3b4458b5ce29c0eeb06f3797f31fbec04d287a2",
    ),
]


class TestFullReportPins:
    """A full-mode report through each of the five event loops, pinned
    to a digest of every response field and assignment.  The loop-vs-
    loop parity tests cannot see a fault that every loop shares; these
    pins can."""

    @pytest.mark.parametrize(
        "loop, build, expected", _LOOP_PINS, ids=[p[0] for p in _LOOP_PINS]
    )
    def test_full_report_digest(self, monkeypatch, loop, build, expected):
        from repro.serving import events

        entered = []
        inner = getattr(events, loop)

        def spy(*args, **kwargs):
            entered.append(loop)
            return inner(*args, **kwargs)

        monkeypatch.setattr(events, loop, spy)
        report = build()
        assert entered == [loop]
        assert len(report.responses) == len(report.assignments) == 600
        if loop in ("_run_single_replica", "_run_heap", "_run_faulty"):
            assert report.max_batch_size > 1
        if loop == "_run_faulty":
            assert set(report.outcomes) == {"ok", "retried", "hedged", "timeout"}
            assert _index_gaps(report) > 0
        assert _responses_digest(report) == expected


class TestCacheHitsPerRequest:
    """Every fault-free loop credits one hit per request served from an
    already-prepared model, whatever it looked up."""

    @pytest.mark.parametrize("scheduler", ["fifo", "edf"])
    def test_engine_stream(self, scheduler):
        engine = ServingEngine("gpu")
        engine.serve_stream(
            uniform_arrivals(T, rate_per_s=1000.0, n_requests=9),
            scheduler=scheduler,
        )
        assert (engine.cache_stats.hits, engine.cache_stats.misses) == (8, 1)

    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded"])
    def test_fleet_stream(self, policy):
        fleet = Fleet("gpu", replicas=3, policy=policy)
        fleet.serve_stream(uniform_arrivals(T, rate_per_s=1000.0, n_requests=9))
        stats = [e.cache_stats for e in fleet.engines]
        assert sum(s.hits for s in stats) == 8
        assert sum(s.misses for s in stats) == 1


#: The plan-capacity workload at 3k requests: gru-2816 at a 5 ms SLO,
#: diurnal peak 12,000 req/s, 19 candidate fleets.
_PLAN_N = 3000
_PLAN_SLO = 5.0


def _plan_stream(n):
    from repro.dse.capacity import _StreamSpec

    peak = 12000.0
    base = peak / 4.0
    period = n / ((base + peak) / 2.0)
    return _StreamSpec(
        task("gru", 2816).with_timesteps(25), base, peak, period, n, 0
    ).materialize()


def _replay(fleet, arrivals, *, scheduler="fifo", forced, threshold):
    """One planner replay (as ``dse.capacity._evaluate`` runs it) into a
    pruning sink; ``forced`` pins it to the general heap loop."""
    from repro.dse.runner import PruneAbort, PruningSummary

    sink = PruningSummary(
        fleet.platform_name,
        slo_ms=_PLAN_SLO,
        scheduler=scheduler,
        batcher="none",
        prune_slo_ms=_PLAN_SLO,
        threshold=threshold,
    )
    pruned = False
    try:
        fleet.serve_stream(
            iter(arrivals),
            slo_ms=_PLAN_SLO,
            scheduler=scheduler,
            batcher=(lambda: _HeapForcedNone()) if forced else "none",
            mode="summary",
            presorted=True,
            summary=sink,
        )
    except PruneAbort:
        pruned = True
        roster = fleet.replica_platforms
        sink.finalize(
            replicas=fleet.n_replicas,
            active_replicas=fleet.n_replicas,
            policy=fleet.policy,
            platforms=roster if fleet.is_heterogeneous else (),
        )
    return pruned, _figures(sink)


class TestPlannerForcedLoopParity:
    """Every plan-capacity candidate, pruned or not, reports the same
    figures on the FIFO loop as on the forced general heap loop."""

    @pytest.mark.parametrize("policy", ["least-loaded", "round-robin", "affinity"])
    def test_every_candidate_matches_heap(self, policy):
        from repro.dse import FleetSpace
        from repro.dse.runner import prune_threshold

        arrivals = _plan_stream(_PLAN_N)
        space = FleetSpace(("plasticine", "brainwave", "gpu"), max_replicas=3)
        rosters = [roster for roster, *_ in space.candidates()]
        assert len(rosters) == 19
        pruned = 0
        for roster in rosters:
            fleet = Fleet(roster, policy=policy)
            # Pruning on (the planner's threshold), then off (a budget
            # no stream can exhaust, so every request folds).  A
            # candidate the first budget never prunes already folded
            # the whole stream exactly as it would with pruning off.
            for threshold in (prune_threshold(_PLAN_N), _PLAN_N):
                fast = _replay(fleet, arrivals, forced=False, threshold=threshold)
                heap = _replay(fleet, arrivals, forced=True, threshold=threshold)
                assert fast == heap, (roster, threshold)
                if not fast[0]:
                    break
                pruned += 1
        assert pruned >= 5  # the abort point is exercised

    @pytest.mark.parametrize("scheduler", ["fifo", "edf", "sjf", "priority"])
    def test_pruned_single_replica_candidates(self, scheduler):
        from repro.dse.runner import prune_threshold

        arrivals = _plan_stream(_PLAN_N)
        for platform in ("brainwave", "plasticine", "gpu"):
            fleet = Fleet(platform, replicas=1)
            fast, heap = (
                _replay(
                    fleet,
                    arrivals,
                    scheduler=scheduler,
                    forced=forced,
                    threshold=prune_threshold(_PLAN_N),
                )
                for forced in (False, True)
            )
            assert fast[0] and heap[0]  # both pruned
            assert fast == heap, platform
            # Counted up to the abort, not left at zero.
            assert fast[1]["replicas"] != "(0,)"


def _forced_bucket():
    from repro.serving.batching import BucketBatcher

    class _HeapForcedBucket(BucketBatcher):
        def hold_until(self, queue, now):
            return now

    return _HeapForcedBucket(max_batch=8)


class TestRequestCountParsing:
    def test_scientific_notation(self):
        from repro.harness.cli import _request_count

        assert _request_count("1e6") == 1_000_000
        assert _request_count("2.5e3") == 2500
        assert _request_count("1000") == 1000

    @pytest.mark.parametrize("bad", ["0", "-5", "1.5", "abc", "1e-3"])
    def test_rejects_non_counts(self, bad):
        import argparse

        from repro.harness.cli import _request_count

        with pytest.raises(argparse.ArgumentTypeError):
            _request_count(bad)

    def test_cli_summary_mode_end_to_end(self, capsys):
        from repro.harness.cli import main

        assert main([
            "serve", "lstm", "512", "--platform", "gpu", "--stream",
            "--rate", "1000", "--requests", "2e3", "--slo-ms", "5",
            "--mode", "summary",
        ]) == 0
        out = capsys.readouterr().out
        assert "summary mode" in out
        assert "2000 requests" in out
