"""The block merge of ``mix(presorted=True)`` against the per-request merge.

``mix(presorted=True)`` merges unstarted generated streams from their
chunks (``traffic._block_mix``); every other input goes through
``traffic._lazy_mix``, a ``heapq.merge`` of the streams' requests.  Each
case here builds the same streams twice, merges one copy each way, and
requires the same requests (``==``, exact type, ids) followed by the same
exception and message after the same number of requests.
"""

import math
import random
import warnings

import pytest

from repro.errors import ServingError
from repro.serving import (
    EmpiricalLength,
    FixedLength,
    LengthSampler,
    ServeRequest,
    UniformLength,
    ZipfLength,
    diurnal_arrivals,
    mix,
    mmpp_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.serving.traffic import _CHUNK, _WINDOW, _block_mix, _lazy_mix
from repro.workloads.deepbench import task

T = task("lstm", 512, 25)
G = task("gru", 512, 1)

#: Counts on both sides of one and two chunks.
_SIZES = (1, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 1)

_SAMPLERS = (
    None,
    FixedLength(40),
    UniformLength(10, 300),
    ZipfLength(5, 200, alpha=1.3),
    EmpiricalLength((3, 7, 7, 50, 120)),
)

#: The largest float: an arrival past it is infinite.
_MAX = 1.7976931348623157e308


def _drain(requests):
    """Every request an iterator yields, and the exception that ended it."""
    out = []
    try:
        for req in requests:
            out.append(req)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return out, exc
    return out, None


def _assert_same(got, want):
    (got_reqs, got_exc), (want_reqs, want_exc) = got, want
    assert len(got_reqs) == len(want_reqs)
    assert got_reqs == want_reqs
    assert all(type(r) is ServeRequest for r in got_reqs)
    assert all(type(r.arrival_s) is float for r in got_reqs)
    assert [r.request_id for r in got_reqs] == list(range(len(got_reqs)))
    assert type(got_exc) is type(want_exc)
    assert str(got_exc) == str(want_exc)


def _compare(build):
    """Merge ``build()``'s streams both ways; the block merge must run."""
    merged = mix(*build(), presorted=True)
    assert merged.gi_code is _block_mix.__code__
    want = _drain(_lazy_mix(tuple(build())))
    got = _drain(merged)
    _assert_same(got, want)
    return got


def _random_stream(rng: random.Random, idx: int, n: int):
    kind = rng.choice(("poisson", "uniform", "mmpp", "diurnal"))
    common = dict(
        n_requests=n,
        seed=rng.randrange(1000),
        start_s=rng.choice((0.0, 3, 0.25, 1e6 + 0.1)),
        tenant=f"t{idx}",
        priority=rng.randrange(3),
        slo_ms=rng.choice((None, 5.0, math.inf)),
        lengths=rng.choice(_SAMPLERS),
        materialize=False,
    )
    base = rng.choice((T, G))
    if kind == "poisson":
        rate = rng.choice((50.0, 937.0, 5000.0))
        return poisson_arrivals(base, rate_per_s=rate, **common)
    if kind == "uniform":
        return uniform_arrivals(base, rate_per_s=rng.choice((50.0, 700.0)), **common)
    if kind == "mmpp":
        return mmpp_arrivals(
            base, quiet_rate_per_s=100.0, burst_rate_per_s=3000.0, **common
        )
    return diurnal_arrivals(
        base, base_rate_per_s=50.0, peak_rate_per_s=3000.0, period_s=1.0, **common
    )


@pytest.mark.parametrize("case", range(200))
def test_random_generated_mixes(case):
    """Short streams, so many cases stay cheap; the chunk-sized counts
    are covered below."""
    rng = random.Random(case)
    specs = [
        (rng.randrange(2**32), rng.choice((1, 2, 5, 40, 300)))
        for _ in range(rng.randint(1, 4))
    ]

    def build():
        return [
            _random_stream(random.Random(seed), idx, n)
            for idx, (seed, n) in enumerate(specs)
        ]

    reqs, exc = _compare(build)
    assert exc is None and len(reqs) == sum(n for _, n in specs)


def _stream_of(kind: str, idx: int, n: int, lengths):
    if kind == "poisson":
        return poisson_arrivals(
            T, rate_per_s=900.0 + idx, n_requests=n, seed=idx, lengths=lengths,
            tenant=f"p{idx}", materialize=False,
        )
    if kind == "uniform":
        return uniform_arrivals(
            G, rate_per_s=700.0 + idx, n_requests=n, seed=idx, lengths=lengths,
            priority=idx, materialize=False,
        )
    if kind == "mmpp":
        return mmpp_arrivals(
            T, quiet_rate_per_s=100.0, burst_rate_per_s=2000.0, n_requests=n,
            seed=idx, start_s=0.25, lengths=lengths, materialize=False,
        )
    return diurnal_arrivals(
        G, base_rate_per_s=50.0, peak_rate_per_s=800.0, period_s=3.0,
        n_requests=n, seed=idx, slo_ms=20.0, lengths=lengths, materialize=False,
    )


@pytest.mark.parametrize("kind", ["poisson", "uniform", "mmpp", "diurnal"])
@pytest.mark.parametrize("lengths", _SAMPLERS, ids=repr)
def test_each_generator_and_sampler(kind, lengths):
    def build():
        return [_stream_of(kind, idx, n, lengths) for idx, n in enumerate(_SIZES)]

    reqs, exc = _compare(build)
    assert exc is None and len(reqs) == sum(_SIZES)


@pytest.mark.parametrize("n", _SIZES)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_uniform_streams_tie_across_streams(n, k):
    """One rate and one offset: every arrival ties across all streams,
    so the order is decided by stream index alone."""

    def build():
        return [
            uniform_arrivals(
                T, rate_per_s=400.0, n_requests=n, start_s=1.5, tenant=f"u{i}",
                lengths=ZipfLength(5, 50) if i % 2 else None, seed=i,
                materialize=False,
            )
            for i in range(k)
        ]

    reqs, exc = _compare(build)
    assert exc is None
    assert [r.tenant for r in reqs[:k]] == [f"u{i}" for i in range(k)]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", ["uniform", "poisson"])
def test_runs_of_equal_arrivals_span_windows(kind, k):
    """At a 1e9 s offset an arrival float is ~1.2e-7 s wide, so about a
    hundred consecutive requests 1 ns apart share one arrival: runs of
    ties within each stream cross window ends, and tie across streams."""

    def build():
        make = uniform_arrivals if kind == "uniform" else poisson_arrivals
        return [
            make(
                T, rate_per_s=1e9 / (i + 1), n_requests=_CHUNK + 77, start_s=1e9,
                seed=i, tenant=f"r{i}", materialize=False,
            )
            for i in range(k)
        ]

    reqs, exc = _compare(build)
    assert exc is None
    arrivals = [r.arrival_s for r in reqs]
    assert len(set(arrivals)) < len(arrivals) // 20


def _overflow(at: int, n: int = 2 * _CHUNK + 1, **kwargs):
    """A uniform stream whose arrival ``at`` is the first infinite one."""
    period = _MAX / (at + 0.5)
    return uniform_arrivals(
        T, rate_per_s=1.0 / period, n_requests=n, materialize=False, **kwargs
    )


#: (id, the failing position, what builds the failing stream)
_FAILURES = [
    ("first-diurnal", 0, lambda: diurnal_arrivals(
        T, base_rate_per_s=1e-310, peak_rate_per_s=1e-309, period_s=1.0,
        n_requests=5, materialize=False,
    )),
    ("first-offset", 0, lambda: uniform_arrivals(
        T, rate_per_s=1e-308, start_s=1.7e308, n_requests=5, materialize=False,
    )),
    ("first-mmpp", 0, lambda: mmpp_arrivals(
        T, quiet_rate_per_s=1e-310, burst_rate_per_s=1e-309, n_requests=5,
        materialize=False,
    )),
    ("middle-uniform", 1, lambda: uniform_arrivals(
        T, rate_per_s=1e-308, n_requests=20, materialize=False,
    )),
    ("middle-poisson", 9, lambda: poisson_arrivals(
        T, rate_per_s=1e-306, start_s=1.7e308, n_requests=20, materialize=False,
    )),
    ("middle-lengths", 9, lambda: poisson_arrivals(
        T, rate_per_s=1e-306, start_s=1.7e308, n_requests=20,
        lengths=ZipfLength(5, 50), materialize=False,
    )),
    ("chunk-last", _CHUNK - 1, lambda: _overflow(_CHUNK - 1)),
    ("chunk-first", _CHUNK, lambda: _overflow(_CHUNK, lengths=UniformLength(5, 9))),
    ("late-chunk", 2 * _CHUNK, lambda: _overflow(2 * _CHUNK)),
]


@pytest.mark.parametrize(
    "at, failing", [case[1:] for case in _FAILURES], ids=[case[0] for case in _FAILURES]
)
@pytest.mark.parametrize("where", range(3))
def test_overflow_surfaces_where_heapq_merge_meets_it(at, failing, where):
    def build():
        streams = [
            poisson_arrivals(
                T, rate_per_s=5000.0, n_requests=_CHUNK + 7, seed=1, tenant="a",
                materialize=False,
            ),
            uniform_arrivals(
                G, rate_per_s=3000.0, n_requests=40, tenant="b",
                lengths=ZipfLength(5, 60), materialize=False,
            ),
        ]
        streams.insert(where, failing())
        return streams

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reqs, exc = _compare(build)
    assert isinstance(exc, ServingError)
    assert str(exc) == "arrival_s must be finite, got inf"
    assert sum(r.tenant == "default" for r in reqs) == at


class _WrongCount(LengthSampler):
    """Returns one length too few on its ``bad_call``-th chunk."""

    def __init__(self, bad_call: int) -> None:
        self.bad_call = bad_call
        self.calls = 0

    def sample(self, rng) -> int:
        return 5 + int(rng.integers(4))

    def sample_chunk(self, rng, n: int) -> list[int]:
        self.calls += 1
        steps = super().sample_chunk(rng, n)
        return steps[:-1] if self.calls == self.bad_call else steps


class _BadLength(LengthSampler):
    """Returns a length no task may have at position ``at``."""

    def __init__(self, at: int) -> None:
        self.at = at
        self.drawn = 0

    def sample(self, rng) -> int:
        self.drawn += 1
        return 0 if self.drawn == self.at + 1 else 9


@pytest.mark.parametrize(
    "lengths, at",
    [
        (lambda: _WrongCount(1), 0),
        (lambda: _WrongCount(2), _CHUNK),
        (lambda: _BadLength(0), 0),
        (lambda: _BadLength(17), 17),
        (lambda: _BadLength(_CHUNK + 3), _CHUNK + 3),
    ],
    ids=[
        "count-first", "count-second", "variant-first", "variant-middle",
        "variant-chunk2",
    ],
)
def test_custom_sampler_errors_surface_in_place(lengths, at):
    def build():
        return [
            poisson_arrivals(
                T, rate_per_s=2000.0, n_requests=_CHUNK + 9, seed=3, tenant="a",
                materialize=False,
            ),
            poisson_arrivals(
                G, rate_per_s=2500.0, n_requests=_CHUNK + 9, seed=4, tenant="bad",
                lengths=lengths(), materialize=False,
            ),
        ]

    reqs, exc = _compare(build)
    assert exc is not None
    assert sum(r.tenant == "bad" for r in reqs) == at


def test_variant_error_wins_over_arrival_error_at_one_position():
    """The per-request stream builds a request's task before it checks the
    arrival, so at one position the task's error is the one raised."""

    def build():
        return [
            poisson_arrivals(T, rate_per_s=5.0, n_requests=30, materialize=False),
            uniform_arrivals(
                T, rate_per_s=1e-308, n_requests=5, lengths=_BadLength(1),
                materialize=False,
            ),
        ]

    reqs, exc = _compare(build)
    assert exc is not None and "arrival_s" not in str(exc)


def _pair():
    return [
        poisson_arrivals(
            T, rate_per_s=900.0, n_requests=_CHUNK + 5, seed=1, tenant="a",
            lengths=ZipfLength(5, 100), materialize=False,
        ),
        uniform_arrivals(G, rate_per_s=700.0, n_requests=300, tenant="b",
                         materialize=False),
    ]


def test_same_stream_twice_takes_the_reference_path():
    stream, _ = _pair()
    merged = mix(stream, stream, presorted=True)
    assert merged.gi_code is _lazy_mix.__code__
    twin, _ = _pair()
    _assert_same(_drain(merged), _drain(_lazy_mix((twin, twin))))


@pytest.mark.parametrize("advance", ["next", "iter"])
def test_started_stream_takes_the_reference_path(advance):
    def build():
        streams = _pair()
        if advance == "next":
            next(streams[1])
        else:
            next(iter(streams[1]))
        return streams

    streams = build()
    merged = mix(*streams, presorted=True)
    assert merged.gi_code is _lazy_mix.__code__
    _assert_same(_drain(merged), _drain(_lazy_mix(tuple(build()))))


def test_other_inputs_take_the_reference_path():
    lazy, eager = _pair()[0], uniform_arrivals(G, rate_per_s=700.0, n_requests=30)
    assert mix(lazy, eager, presorted=True).gi_code is _lazy_mix.__code__


def test_block_merge_claims_its_streams():
    """Once merged from blocks, a stream reads as exhausted by itself."""
    streams = _pair()
    merged = mix(*streams, presorted=True)
    assert merged.gi_code is _block_mix.__code__
    assert [tuple(s) for s in streams] == [(), ()]
    assert len(tuple(merged)) == _CHUNK + 305


def test_windows_cut_inside_a_chunk():
    """Streams far longer than a window, at rates that interleave them
    unevenly, so windows end inside chunks and inside runs of ties."""

    def build():
        return [
            uniform_arrivals(T, rate_per_s=1000.0, n_requests=3 * _WINDOW + 1,
                             tenant="x", materialize=False),
            uniform_arrivals(T, rate_per_s=500.0, n_requests=_WINDOW, tenant="y",
                             materialize=False),
            uniform_arrivals(T, rate_per_s=1000.0, n_requests=5 * _WINDOW,
                             tenant="z", materialize=False),
        ]

    reqs, exc = _compare(build)
    assert exc is None and len(reqs) == 9 * _WINDOW + 1
