"""StreamSummary.merge: identities, disjoint classes, promotion, associativity.

The sharded parallel runner (``repro.serving.parallel``) depends on the
merge being a true monoid over summaries:

* empty summaries are identities (a shard may draw no traffic),
* disjoint tenant/priority/length-band classes union cleanly,
* the exact-reservoir → histogram promotion commutes with merging —
  ``absorb`` promotes at the same :data:`EXACT_SAMPLE_CAP` threshold as
  single-stream accumulation, so the merged summary lands in the
  *identical* samples-vs-histogram state as a single pass over the whole
  stream and quantiles agree exactly, not just within tolerance,
* merging is associative and order-insensitive for every count-derived
  figure (float sums only to reordering), pinned by a seeded fuzz over
  random partitions of one response set.
"""

import math
import random

import pytest

from repro.errors import ServingError
from repro.serving import (
    Fleet,
    ServingEngine,
    StreamSummary,
    ZipfLength,
    mix,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.serving.stats import EXACT_SAMPLE_CAP
from repro.workloads.deepbench import task

T = task("lstm", 512, 25)
GRU = task("gru", 512, 25)

#: Count-derived figures that must merge exactly.
EXACT_ATTRS = (
    "n_requests",
    "slo_attainment",
    "slo_miss_rate",
    "mean_batch_size",
    "max_batch_size",
    "padding_waste_frac",
    "min_sojourn_ms",
    "max_sojourn_ms",
)
#: Float sums: equal only up to summation order.
CLOSE_ATTRS = ("mean_ms", "mean_queue_delay_ms", "mean_service_ms", "throughput_rps")


def _summary_of(responses, slo_ms=5.0, scheduler="fifo", batcher="none"):
    """Fold a response list into a fresh (unfinalized) summary."""
    summary = StreamSummary("gpu", slo_ms=slo_ms, scheduler=scheduler, batcher=batcher)
    for resp in responses:
        summary.observe_served(
            resp.request, resp.result, resp.start_s, resp.finish_s, resp.batch_size
        )
    return summary


def _responses(n=200, seed=3, rate=2000.0, batcher="none"):
    stream = mix(
        poisson_arrivals(
            T, rate_per_s=rate / 2, n_requests=n // 2, seed=seed,
            tenant="asr", priority=1,
        ),
        poisson_arrivals(
            GRU, rate_per_s=rate / 2, n_requests=n - n // 2, seed=seed + 1,
            tenant="tts", slo_ms=8.0,
        ),
    )
    return ServingEngine("gpu").serve_stream(stream, slo_ms=5.0, batcher=batcher,
                                             max_batch=4).responses


def assert_merged_matches(merged, reference):
    for attr in EXACT_ATTRS:
        assert getattr(merged, attr) == getattr(reference, attr), attr
    for attr in CLOSE_ATTRS:
        assert math.isclose(
            getattr(merged, attr), getattr(reference, attr), rel_tol=1e-9
        ), attr
    # Promotion-state equivalence makes even the quantiles exact.
    for q in (0.25, 0.5, 0.9, 0.99):
        assert merged.percentile_ms(q) == reference.percentile_ms(q), q
    assert merged.tenants == reference.tenants
    assert merged.priorities == reference.priorities
    for tenant, sub in reference.per_tenant().items():
        got = merged.per_tenant()[tenant]
        assert got.n_requests == sub.n_requests
        assert got.percentile_ms(0.99) == sub.percentile_ms(0.99)


class TestMergeIdentity:
    def test_empty_is_identity(self):
        responses = _responses(60)
        full = _summary_of(responses)
        empty = StreamSummary("gpu", slo_ms=5.0)
        for merged in (full.merge(empty), empty.merge(full)):
            assert_merged_matches(merged, _summary_of(responses))
        assert empty.is_empty and not full.is_empty

    def test_empty_merge_empty_is_empty(self):
        a = StreamSummary("gpu", slo_ms=5.0)
        b = StreamSummary("gpu", slo_ms=5.0)
        assert a.merge(b).is_empty

    def test_merge_does_not_mutate_inputs(self):
        responses = _responses(80)
        left = _summary_of(responses[:40])
        right = _summary_of(responses[40:])
        before = (left.n_requests, right.n_requests, left.percentile_ms(0.9))
        merged = left.merge(right)
        assert merged.n_requests == 80
        assert (left.n_requests, right.n_requests, left.percentile_ms(0.9)) == before

    def test_single_merge_matches_self(self):
        responses = _responses(50)
        assert_merged_matches(
            _summary_of(responses).merge(), _summary_of(responses)
        )


class TestDisjointClasses:
    def test_disjoint_tenants_union(self):
        responses = _responses(120)
        by_tenant = {}
        for resp in responses:
            by_tenant.setdefault(resp.request.tenant, []).append(resp)
        parts = [_summary_of(rs) for rs in by_tenant.values()]
        merged = parts[0].merge(*parts[1:])
        assert_merged_matches(merged, _summary_of(responses))
        assert set(merged.tenants) == set(by_tenant)

    def test_disjoint_length_bands(self):
        stream = poisson_arrivals(
            T, rate_per_s=2000, n_requests=150, seed=9,
            lengths=ZipfLength(10, 200),
        )
        responses = ServingEngine("gpu").serve_stream(stream, slo_ms=5.0).responses
        short = [r for r in responses if r.request.task.timesteps <= 40]
        long = [r for r in responses if r.request.task.timesteps > 40]
        assert short and long
        merged = _summary_of(short).merge(_summary_of(long))
        reference = _summary_of(responses)
        assert_merged_matches(merged, reference)
        assert merged.per_length_band().keys() == reference.per_length_band().keys()


class TestPromotionAcrossMerge:
    def test_parts_exact_whole_promoted(self):
        """Each part under the reservoir cap, the union above it: the
        merge must promote and land on the single-pass histogram."""
        n = EXACT_SAMPLE_CAP + 20
        stream = poisson_arrivals(T, rate_per_s=3000, n_requests=n, seed=7)
        responses = ServingEngine("gpu").serve_stream(stream, slo_ms=5.0).responses
        half = n // 2
        assert half <= EXACT_SAMPLE_CAP < n
        merged = _summary_of(responses[:half]).merge(_summary_of(responses[half:]))
        assert_merged_matches(merged, _summary_of(responses))

    def test_promoted_absorbs_exact_and_vice_versa(self):
        big = EXACT_SAMPLE_CAP * 2
        stream = poisson_arrivals(T, rate_per_s=3000, n_requests=big + 10, seed=8)
        responses = ServingEngine("gpu").serve_stream(stream, slo_ms=5.0).responses
        promoted = _summary_of(responses[:big])       # over the cap: histogram
        exact = _summary_of(responses[big:])          # under the cap: reservoir
        reference = _summary_of(responses)
        assert_merged_matches(promoted.merge(exact), reference)
        assert_merged_matches(exact.merge(promoted), reference)

    def test_merge_boundary_exactly_at_cap(self):
        n = EXACT_SAMPLE_CAP
        stream = poisson_arrivals(T, rate_per_s=3000, n_requests=n, seed=12)
        responses = ServingEngine("gpu").serve_stream(stream, slo_ms=5.0).responses
        merged = _summary_of(responses[: n // 2]).merge(_summary_of(responses[n // 2:]))
        reference = _summary_of(responses)
        # Exactly at the cap the reference is still exact; the merged
        # state must be too (promotion triggers strictly above the cap).
        assert_merged_matches(merged, reference)


class TestAssociativityFuzz:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_partitions_merge_to_one_answer(self, seed):
        rng = random.Random(seed)
        responses = _responses(
            n=rng.randrange(30, 260), seed=seed,
            batcher=rng.choice(["none", "size-cap"]),
        )
        reference = _summary_of(responses)
        k = rng.randrange(2, 7)
        parts = [[] for _ in range(k)]
        for resp in responses:
            parts[rng.randrange(k)].append(resp)
        summaries = [_summary_of(p) for p in parts]

        flat = summaries[0].merge(*summaries[1:])
        assert_merged_matches(flat, reference)

        shuffled = summaries[:]
        rng.shuffle(shuffled)
        assert_merged_matches(shuffled[0].merge(*shuffled[1:]), reference)

        # Left-fold pairwise grouping: ((a+b)+c)+d ...
        folded = summaries[0]
        for part in summaries[1:]:
            folded = folded.merge(part)
        assert_merged_matches(folded, reference)

        # A nested grouping: (first half) + (second half).
        mid = max(1, k // 2)
        left = summaries[0].merge(*summaries[1:mid])
        right = summaries[mid].merge(*summaries[mid + 1:])
        assert_merged_matches(left.merge(right), reference)


class TestMergeValidation:
    def test_mismatched_config_rejected(self):
        base = StreamSummary("gpu", slo_ms=5.0)
        for other in (
            StreamSummary("cpu", slo_ms=5.0),
            StreamSummary("gpu", slo_ms=9.0),
            StreamSummary("gpu", slo_ms=5.0, scheduler="edf"),
            StreamSummary("gpu", slo_ms=5.0, batcher="size-cap"),
        ):
            with pytest.raises(ServingError, match="merge"):
                base.merge(other)

    def test_event_loop_summaries_merge(self):
        """End to end: two independent serve_stream summaries combine."""
        run = lambda start, n, seed: ServingEngine("gpu").serve_stream(
            poisson_arrivals(T, rate_per_s=1500, n_requests=n, seed=seed,
                             start_s=start),
            slo_ms=5.0, mode="summary",
        )
        a, b = run(0.0, 40, 1), run(10.0, 30, 2)
        merged = a.merge(b)
        assert merged.n_requests == 70
        assert merged.n_replicas == 2
        assert len(merged.per_replica_counts) == 2

    def test_fleet_summaries_concatenate_replica_counts(self):
        run = lambda seed: Fleet("gpu", replicas=2).serve_stream(
            uniform_arrivals(T, rate_per_s=500, n_requests=20, seed=seed),
            slo_ms=5.0, mode="summary",
        )
        merged = run(0).merge(run(1))
        assert merged.n_replicas == 4
        assert sum(merged.per_replica_counts) == 40
