"""serve_parallel: shard parity, pool independence, deterministic seeding.

The load-bearing theorem: a round-robin fleet assigns arrival *i* to
replica ``i % K`` and replicas never interact after dispatch, so serving
shard *i* (every K-th arrival) on its own single-replica event loop
reproduces the fleet's per-replica timelines bit for bit.  These tests
pin that exactly — counters, per-replica counts, and histogram
quantiles — including the K=1 degenerate case against
``serve_stream(mode="summary")``, the ``shards × replicas ≡ K·R fleet``
generalization, and a ~100k-request acceptance stream.

Worker scheduling must be invisible: the same seed and shard count give
the identical merged summary for any pool size (workers=1 serial,
workers=2/4 forked), because results merge in shard order regardless of
which process finished first.
"""

import math
from functools import partial

import pytest

from repro.errors import ServingError
from repro.serving import (
    Autoscaler,
    Fleet,
    ServingEngine,
    mix,
    poisson_arrivals,
    serve_parallel,
    shard_of,
    shard_seed,
    split_requests,
    uniform_arrivals,
)
from repro.serving.request import ServeRequest
from repro.workloads.deepbench import task

T = task("lstm", 512, 25)
GRU = task("gru", 512, 25)

EXACT_ATTRS = (
    "n_requests",
    "slo_attainment",
    "mean_batch_size",
    "max_batch_size",
    "padding_waste_frac",
    "min_sojourn_ms",
    "max_sojourn_ms",
    "p50_ms",
    "p99_ms",
)


def make_stream(n=2000, rate=4000.0, seed=11, **kw):
    return partial(
        poisson_arrivals, T, rate_per_s=rate, n_requests=n, seed=seed,
        materialize=False, **kw,
    )


def two_tenant_stream(n=1200, rate=3000.0, seed=5):
    def factory():
        return mix(
            poisson_arrivals(T, rate_per_s=rate / 2, n_requests=n // 2,
                             seed=seed, tenant="asr", materialize=False),
            poisson_arrivals(GRU, rate_per_s=rate / 2, n_requests=n // 2,
                             seed=seed + 1, tenant="tts", materialize=False),
            presorted=True,
        )

    return factory


def assert_same_summary(a, b, *, bit_exact_floats=False):
    for attr in EXACT_ATTRS:
        assert getattr(a, attr) == getattr(b, attr), attr
    for attr in ("mean_ms", "mean_queue_delay_ms", "throughput_rps"):
        if bit_exact_floats:
            assert getattr(a, attr) == getattr(b, attr), attr
        else:
            assert math.isclose(
                getattr(a, attr), getattr(b, attr), rel_tol=1e-9
            ), attr


class TestReplicaShardParity:
    def test_k1_degenerates_to_serve_stream(self):
        make = make_stream(n=500)
        single = ServingEngine("gpu").serve_stream(
            make(), slo_ms=5.0, mode="summary", presorted=True
        )
        par = serve_parallel(make, "gpu", shards=1, slo_ms=5.0)
        assert_same_summary(par, single, bit_exact_floats=True)
        assert par.per_replica_counts == single.per_replica_counts

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_matches_round_robin_fleet(self, shards):
        make = make_stream()
        fleet = Fleet("gpu", replicas=shards, policy="round-robin").serve_stream(
            make(), slo_ms=5.0, mode="summary", presorted=True
        )
        par = serve_parallel(make, "gpu", shards=shards, workers=1, slo_ms=5.0)
        assert_same_summary(par, fleet)
        assert par.per_replica_counts == fleet.per_replica_counts
        assert par.n_replicas == shards

    def test_shards_times_replicas_is_kr_fleet(self):
        make = make_stream(n=1600)
        fleet = Fleet("gpu", replicas=6, policy="round-robin").serve_stream(
            make(), slo_ms=5.0, mode="summary", presorted=True
        )
        par = serve_parallel(
            make, "gpu", shards=2, replicas=3, policy="round-robin",
            workers=1, slo_ms=5.0,
        )
        assert_same_summary(par, fleet)
        assert par.n_replicas == 6
        assert sorted(par.per_replica_counts) == sorted(fleet.per_replica_counts)

    def test_with_scheduler_and_batcher(self):
        make = make_stream(n=1500, rate=8000.0)
        fleet = Fleet("gpu", replicas=2, policy="round-robin").serve_stream(
            make(), slo_ms=5.0, scheduler="edf", batcher="size-cap",
            max_batch=4, mode="summary", presorted=True,
        )
        par = serve_parallel(
            make, "gpu", shards=2, workers=1, slo_ms=5.0,
            scheduler="edf", batcher="size-cap", max_batch=4,
        )
        assert_same_summary(par, fleet)
        assert par.mean_batch_size > 1.0

    def test_acceptance_100k_stream_parity(self):
        """ISSUE acceptance: >=100k seeded requests, exact counter parity."""
        make = make_stream(n=100_000, rate=20_000.0, seed=2026)
        fleet = Fleet("gpu", replicas=4, policy="round-robin").serve_stream(
            make(), slo_ms=5.0, mode="summary", presorted=True
        )
        par = serve_parallel(make, "gpu", shards=4, workers=2, slo_ms=5.0)
        assert par.n_requests == 100_000
        assert_same_summary(par, fleet)
        assert par.per_replica_counts == fleet.per_replica_counts


class TestPoolIndependence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_is_invisible(self, workers):
        make = make_stream(n=800, seed=21)
        reference = serve_parallel(make, "gpu", shards=4, workers=1, slo_ms=5.0)
        got = serve_parallel(make, "gpu", shards=4, workers=workers, slo_ms=5.0)
        # Shard order fixes the merge order, so even float sums are
        # bit-identical across pool sizes.
        assert_same_summary(got, reference, bit_exact_floats=True)
        assert got.per_replica_counts == reference.per_replica_counts

    def test_same_seed_same_counters_across_runs(self):
        make = make_stream(n=600, seed=33)
        a = serve_parallel(make, "gpu", shards=3, workers=2, slo_ms=5.0)
        b = serve_parallel(make, "gpu", shards=3, workers=2, slo_ms=5.0)
        assert_same_summary(a, b, bit_exact_floats=True)


class TestShardModes:
    def test_tenant_mode_conserves_and_isolates(self):
        factory = two_tenant_stream()
        # With 4 shards the two tenants land on distinct shards
        # (crc32("asr") % 4 == 0, crc32("tts") % 4 == 2); isolation then
        # makes each tenant's slice equal its solo run.
        merged = serve_parallel(
            factory, "gpu", shards=4, workers=1, shard_by="tenant", slo_ms=5.0
        )
        assert merged.n_requests == 1200
        # Each tenant lands whole on one shard, so its slice equals an
        # independent single-replica run of that tenant's sub-stream.
        for tenant in ("asr", "tts"):
            def tenant_only(t=tenant):
                return (r for r in factory() if r.tenant == t)

            solo = ServingEngine("gpu").serve_stream(
                tenant_only(), slo_ms=5.0, mode="summary", presorted=True
            )
            sub = merged.per_tenant()[tenant]
            assert sub.n_requests == solo.n_requests
            assert sub.p99_ms == solo.p99_ms
            assert sub.slo_attainment == solo.slo_attainment

    def test_more_shards_than_tenants_tolerates_empty_shard(self):
        merged = serve_parallel(
            two_tenant_stream(), "gpu", shards=5, workers=1,
            shard_by="tenant", slo_ms=5.0,
        )
        assert merged.n_requests == 1200

    def test_hash_mode_conserves(self):
        make = make_stream(n=900, seed=40)
        merged = serve_parallel(
            make, "gpu", shards=3, workers=1, shard_by="hash", slo_ms=5.0
        )
        assert merged.n_requests == 900

    def test_shard_of_partitions_every_request(self):
        reqs = list(make_stream(n=200)())
        for mode in ("replica", "tenant", "hash"):
            assignments = [shard_of(r, i, 4, mode) for i, r in enumerate(reqs)]
            assert all(0 <= s < 4 for s in assignments)
        with pytest.raises(ServingError, match="shard mode"):
            shard_of(reqs[0], 0, 4, "bogus")

    def test_split_requests_partition(self):
        reqs = list(make_stream(n=100)())
        parts = split_requests(reqs, 3, shard_by="hash")
        assert sum(len(p) for p in parts) == 100
        ids = sorted(r.request_id for p in parts for r in p)
        assert ids == sorted(r.request_id for r in reqs)
        with pytest.raises(ServingError, match="generate"):
            split_requests(reqs, 2, shard_by="generate")

    def test_materialized_sequence_input(self):
        reqs = list(make_stream(n=400)())
        fleet = Fleet("gpu", replicas=2, policy="round-robin").serve_stream(
            reqs, slo_ms=5.0, mode="summary"
        )
        par = serve_parallel(reqs, "gpu", shards=2, workers=2, slo_ms=5.0)
        assert_same_summary(par, fleet)


def _generated_shard(shard: int, shards: int, seed: int):
    """Module-level generate-mode factory (pool workers must pickle it)."""
    return poisson_arrivals(
        T, rate_per_s=1000.0, n_requests=300, seed=seed,
        tenant=f"cell{shard}", materialize=False,
    )


class TestGenerateMode:
    def test_per_shard_generation(self):
        merged = serve_parallel(
            _generated_shard, "gpu", shards=3, workers=1,
            shard_by="generate", slo_ms=5.0, seed=77,
        )
        assert merged.n_requests == 900
        assert set(merged.tenants) == {"cell0", "cell1", "cell2"}

    def test_generate_deterministic_across_pools(self):
        one = serve_parallel(
            _generated_shard, "gpu", shards=3, workers=1,
            shard_by="generate", slo_ms=5.0, seed=77,
        )
        two = serve_parallel(
            _generated_shard, "gpu", shards=3, workers=2,
            shard_by="generate", slo_ms=5.0, seed=77,
        )
        assert_same_summary(one, two, bit_exact_floats=True)

    def test_generate_requires_factory(self):
        reqs = list(make_stream(n=10)())
        with pytest.raises(ServingError, match="generate"):
            serve_parallel(reqs, "gpu", shards=2, shard_by="generate")


class TestShardSeed:
    def test_deterministic_and_distinct(self):
        seeds = [shard_seed(123, s) for s in range(64)]
        assert seeds == [shard_seed(123, s) for s in range(64)]
        assert len(set(seeds)) == 64

    def test_base_seed_changes_everything(self):
        assert shard_seed(1, 0) != shard_seed(2, 0)

    def test_splitmix_values_pinned(self):
        # Shard seeds and straggler draws share one SplitMix64; a changed
        # mix would still pass the determinism tests, so pin its output.
        from repro.serving.faults import _uniform

        assert [shard_seed(42, s) for s in range(4)] == [
            6332618229526065668,
            17532488217563185893,
            8238092213399105094,
            18036798128018490698,
        ]
        assert _uniform(7, 0x57A6, 12345) == 0.07188112433498381

    def test_negative_shard_rejected(self):
        with pytest.raises(ServingError):
            shard_seed(1, -1)


class TestValidationAndEdges:
    def test_bad_arguments(self):
        make = make_stream(n=10)
        with pytest.raises(ServingError, match="shards"):
            serve_parallel(make, "gpu", shards=0)
        with pytest.raises(ServingError, match="workers"):
            serve_parallel(make, "gpu", shards=2, workers=0)
        with pytest.raises(ServingError, match="replicas"):
            serve_parallel(make, "gpu", shards=2, replicas=0)
        with pytest.raises(ServingError, match="shard mode"):
            serve_parallel(make, "gpu", shards=2, shard_by="bogus")

    def test_empty_stream_rejected(self):
        with pytest.raises(ServingError, match="at least one request"):
            serve_parallel(lambda: iter(()), "gpu", shards=2, workers=1)

    def test_autoscaler_per_shard(self):
        make = make_stream(n=1000, rate=20_000.0)
        merged = serve_parallel(
            make, "gpu", shards=2, workers=1, replicas=1,
            autoscaler=Autoscaler(min_replicas=1, max_replicas=3),
            slo_ms=5.0,
        )
        assert merged.n_requests == 1000
        # Each shard scales independently; the merged report carries
        # every shard's scale events in time order.
        times = [e.time_s for e in merged.scale_events]
        assert times == sorted(times)

    def test_request_conservation_across_modes(self):
        make = make_stream(n=700, seed=50)
        for mode in ("replica", "tenant", "hash"):
            merged = serve_parallel(
                make, "gpu", shards=3, workers=1, shard_by=mode, slo_ms=5.0
            )
            assert merged.n_requests == 700
