"""Golden parity: the event-driven FIFO path reproduces the pre-refactor
``serve_stream`` numbers bit for bit.

The values below were captured from the sequential simulations that
shipped in PR 1 (commit a3313d9), before ``serve_stream`` was rewritten
on the shared heap-based discrete-event loop.  The new loop evaluates
``start = max(arrival, free_at)`` with the same floats in the same
order, so equality here is exact — no tolerances.
"""

import dataclasses

import pytest

from repro.serving import Fleet, FixedLength, ServingEngine, poisson_arrivals
from repro.workloads.deepbench import task

T = task("lstm", 512, 25)

#: (platform, rate, n, seed) -> (p50, p99, mean, mean_queue_delay, miss)
_ENGINE_GOLDEN = {
    ("gpu", 1200.0, 500, 42): (
        2.3906660299806983,
        9.385833554846206,
        3.25724334995052,
        2.518881467597585,
        0.232,
    ),
    ("brainwave", 1200.0, 500, 42): (
        0.08059999999998624,
        0.15193248526555622,
        0.08415798635344744,
        0.0035579863534571238,
        0.0,
    ),
}

#: (replicas, policy, rate, n, seed) ->
#:   (p50, p99, mean, mean_queue_delay, miss, per_replica_counts)
_FLEET_GOLDEN = {
    (3, "round-robin", 2500.0, 400, 11): (
        0.7383618823529475,
        1.5131255967286463,
        0.8407867314129973,
        0.10242484906005153,
        0.0,
        (134, 133, 133),
    ),
    (3, "least-loaded", 2500.0, 400, 11): (
        0.7383618823529475,
        1.5131255967286463,
        0.8407867314129973,
        0.10242484906005153,
        0.0,
        (134, 133, 133),
    ),
    (2, "round-robin", 4000.0, 400, 11): (
        23.63142366450988,
        49.28863762836958,
        24.89258834901658,
        24.154226466663644,
        0.9,
        (200, 200),
    ),
    (2, "least-loaded", 4000.0, 400, 11): (
        23.63142366450988,
        49.28863762836958,
        24.89258834901658,
        24.154226466663644,
        0.9,
        (200, 200),
    ),
}


class TestEngineGolden:
    @pytest.mark.parametrize("key", sorted(_ENGINE_GOLDEN), ids=lambda k: k[0])
    def test_fifo_stream_is_bit_identical(self, key):
        platform, rate, n, seed = key
        p50, p99, mean, queue, miss = _ENGINE_GOLDEN[key]
        arrivals = poisson_arrivals(T, rate_per_s=rate, n_requests=n, seed=seed)
        report = ServingEngine(platform).serve_stream(arrivals, slo_ms=5.0)
        assert report.scheduler == "fifo"
        assert report.p50_ms == p50
        assert report.p99_ms == p99
        assert report.mean_ms == mean
        assert report.mean_queue_delay_ms == queue
        assert report.slo_miss_rate == miss

    def test_responses_in_arrival_order(self):
        arrivals = poisson_arrivals(T, rate_per_s=1200.0, n_requests=100, seed=42)
        report = ServingEngine("gpu").serve_stream(arrivals, slo_ms=5.0)
        ids = [r.request.request_id for r in report.responses]
        assert ids == sorted(ids)


class TestFleetGolden:
    @pytest.mark.parametrize(
        "key", sorted(_FLEET_GOLDEN), ids=lambda k: f"{k[0]}x-{k[1]}-r{k[2]:.0f}"
    )
    def test_fifo_stream_is_bit_identical(self, key):
        replicas, policy, rate, n, seed = key
        p50, p99, mean, queue, miss, counts = _FLEET_GOLDEN[key]
        arrivals = poisson_arrivals(T, rate_per_s=rate, n_requests=n, seed=seed)
        fleet = Fleet("gpu", replicas=replicas, policy=policy)
        report = fleet.serve_stream(arrivals, slo_ms=5.0)
        assert report.scheduler == "fifo"
        assert report.p50_ms == p50
        assert report.p99_ms == p99
        assert report.mean_ms == mean
        assert report.mean_queue_delay_ms == queue
        assert report.slo_miss_rate == miss
        assert report.per_replica_counts == counts


class TestBatcherNoneGolden:
    """The ``"none"`` batching policy cannot drift from classic batch-1
    serving: the same golden numbers must come out bit for bit whether the
    batcher is defaulted, named explicitly, or replaced by ``size-cap``
    with a cap of one (which coalesces nothing by construction)."""

    @pytest.mark.parametrize("key", sorted(_ENGINE_GOLDEN), ids=lambda k: k[0])
    @pytest.mark.parametrize("batcher,max_batch", [
        ("none", None),
        ("none", 64),       # the cap is ignored: the policy is batch-1
        ("size-cap", 1),
    ])
    def test_engine_stream_is_bit_identical(self, key, batcher, max_batch):
        platform, rate, n, seed = key
        p50, p99, mean, queue, miss = _ENGINE_GOLDEN[key]
        arrivals = poisson_arrivals(T, rate_per_s=rate, n_requests=n, seed=seed)
        report = ServingEngine(platform).serve_stream(
            arrivals, slo_ms=5.0, batcher=batcher, max_batch=max_batch
        )
        assert report.batcher == batcher
        assert report.p50_ms == p50
        assert report.p99_ms == p99
        assert report.mean_ms == mean
        assert report.mean_queue_delay_ms == queue
        assert report.slo_miss_rate == miss
        assert report.mean_batch_size == 1.0
        assert all(r.batch_size == 1 for r in report.responses)

    @pytest.mark.parametrize(
        "key", sorted(_FLEET_GOLDEN), ids=lambda k: f"{k[0]}x-{k[1]}-r{k[2]:.0f}"
    )
    def test_fleet_stream_is_bit_identical(self, key):
        replicas, policy, rate, n, seed = key
        p50, p99, mean, queue, miss, counts = _FLEET_GOLDEN[key]
        arrivals = poisson_arrivals(T, rate_per_s=rate, n_requests=n, seed=seed)
        fleet = Fleet("gpu", replicas=replicas, policy=policy)
        report = fleet.serve_stream(arrivals, slo_ms=5.0, batcher="none")
        assert report.batcher == "none"
        assert report.p50_ms == p50
        assert report.p99_ms == p99
        assert report.mean_ms == mean
        assert report.mean_queue_delay_ms == queue
        assert report.slo_miss_rate == miss
        assert report.per_replica_counts == counts


class TestVariableLengthPathGolden:
    """Fixed-length tasks routed through the variable-length machinery
    stay bit-identical to the classic ``serve_stream`` numbers.

    Three routes into the new code path are pinned: (a) a ``FixedLength``
    sampler attaching per-request length overrides that equal the task's
    own length, (b) request tasks constructed as ``with_timesteps``
    variants (exercising the engine's family-keyed compile cache and
    ``Platform.serve`` -> ``latency_s`` re-costing), and (c) the length-aware
    ``pad``/``bucket`` batchers with a cap of one, which must coalesce
    nothing.  All of them must reproduce the goldens exactly — no
    tolerances."""

    @pytest.mark.parametrize("key", sorted(_ENGINE_GOLDEN), ids=lambda k: k[0])
    def test_fixed_length_sampler_is_bit_identical(self, key):
        platform, rate, n, seed = key
        p50, p99, mean, queue, miss = _ENGINE_GOLDEN[key]
        arrivals = poisson_arrivals(
            T,
            rate_per_s=rate,
            n_requests=n,
            seed=seed,
            lengths=FixedLength(T.timesteps),
        )
        report = ServingEngine(platform).serve_stream(arrivals, slo_ms=5.0)
        assert report.p50_ms == p50
        assert report.p99_ms == p99
        assert report.mean_ms == mean
        assert report.mean_queue_delay_ms == queue
        assert report.slo_miss_rate == miss
        assert report.padding_waste_frac == 0.0

    @pytest.mark.parametrize("key", sorted(_ENGINE_GOLDEN), ids=lambda k: k[0])
    def test_variant_constructed_tasks_are_bit_identical(self, key):
        platform, rate, n, seed = key
        p50, p99, mean, queue, miss = _ENGINE_GOLDEN[key]
        base = poisson_arrivals(T, rate_per_s=rate, n_requests=n, seed=seed)
        # Same lengths, but every task object rebuilt through the
        # variant API from a differently-lengthed family member.
        variant = T.with_timesteps(999).with_timesteps(T.timesteps)
        assert variant == T
        arrivals = [dataclasses.replace(r, task=variant) for r in base]
        engine = ServingEngine(platform)
        report = engine.serve_stream(arrivals, slo_ms=5.0)
        assert report.p50_ms == p50
        assert report.p99_ms == p99
        assert report.mean_ms == mean
        assert report.mean_queue_delay_ms == queue
        assert report.slo_miss_rate == miss
        # The whole family compiled exactly once.
        assert engine.cache_stats.misses == 1

    @pytest.mark.parametrize("key", sorted(_ENGINE_GOLDEN), ids=lambda k: k[0])
    @pytest.mark.parametrize("batcher", ["pad", "bucket"])
    def test_length_aware_batchers_at_cap_one_are_bit_identical(
        self, key, batcher
    ):
        platform, rate, n, seed = key
        p50, p99, mean, queue, miss = _ENGINE_GOLDEN[key]
        arrivals = poisson_arrivals(T, rate_per_s=rate, n_requests=n, seed=seed)
        report = ServingEngine(platform).serve_stream(
            arrivals, slo_ms=5.0, batcher=batcher, max_batch=1
        )
        assert report.batcher == batcher
        assert report.p50_ms == p50
        assert report.p99_ms == p99
        assert report.mean_ms == mean
        assert report.mean_queue_delay_ms == queue
        assert report.slo_miss_rate == miss
        assert report.mean_batch_size == 1.0
        assert report.padding_waste_frac == 0.0
