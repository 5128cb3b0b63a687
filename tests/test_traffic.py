"""Traffic generation: determinism, tenant tags, mixes, and traces."""

import copy
import dataclasses
import hashlib
import json
import math
import pickle
import warnings
from array import array

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving import (
    EmpiricalLength,
    FixedLength,
    Fleet,
    LengthSampler,
    ServeRequest,
    ServingEngine,
    UniformLength,
    ZipfLength,
    diurnal_arrivals,
    mix,
    mmpp_arrivals,
    poisson_arrivals,
    record_trace,
    replay_trace,
    request_from_json,
    request_to_json,
    uniform_arrivals,
)
from repro.serving.request import _trusted_request
from repro.serving.traffic import _CHUNK
from repro.workloads.deepbench import task

T = task("lstm", 512, 25)
G = task("gru", 512, 1)


class TestDeterminism:
    def test_poisson_same_seed_identical(self):
        a = poisson_arrivals(T, rate_per_s=400.0, n_requests=100, seed=9)
        b = poisson_arrivals(T, rate_per_s=400.0, n_requests=100, seed=9)
        assert a == b

    def test_poisson_different_seed_differs(self):
        a = poisson_arrivals(T, rate_per_s=400.0, n_requests=100, seed=9)
        b = poisson_arrivals(T, rate_per_s=400.0, n_requests=100, seed=10)
        assert a != b

    def test_mmpp_same_seed_identical(self):
        kwargs = dict(
            quiet_rate_per_s=100.0,
            burst_rate_per_s=900.0,
            n_requests=200,
            seed=4,
        )
        assert mmpp_arrivals(T, **kwargs) == mmpp_arrivals(T, **kwargs)

    def test_diurnal_same_seed_identical(self):
        kwargs = dict(
            base_rate_per_s=50.0,
            peak_rate_per_s=500.0,
            period_s=2.0,
            n_requests=150,
            seed=13,
        )
        assert diurnal_arrivals(T, **kwargs) == diurnal_arrivals(T, **kwargs)

    def test_mix_same_inputs_identical(self):
        def build():
            return mix(
                poisson_arrivals(T, rate_per_s=200.0, n_requests=50, seed=1),
                mmpp_arrivals(
                    G,
                    quiet_rate_per_s=100.0,
                    burst_rate_per_s=600.0,
                    n_requests=50,
                    seed=2,
                ),
            )

        assert build() == build()


class TestGenerators:
    def test_arrivals_strictly_increasing(self):
        for stream in (
            poisson_arrivals(T, rate_per_s=300.0, n_requests=200, seed=0),
            mmpp_arrivals(
                T, quiet_rate_per_s=50.0, burst_rate_per_s=800.0,
                n_requests=200, seed=0,
            ),
            diurnal_arrivals(
                T, base_rate_per_s=50.0, peak_rate_per_s=400.0,
                period_s=1.0, n_requests=200, seed=0,
            ),
        ):
            times = [r.arrival_s for r in stream]
            assert times == sorted(times)
            assert all(t > 0 for t in times)

    def test_tags_flow_through(self):
        stream = mmpp_arrivals(
            T,
            quiet_rate_per_s=100.0,
            burst_rate_per_s=400.0,
            n_requests=20,
            seed=1,
            tenant="translate",
            priority=3,
            slo_ms=7.5,
        )
        for req in stream:
            assert req.tenant == "translate"
            assert req.priority == 3
            assert req.slo_ms == 7.5

    def test_start_offset_shifts_stream(self):
        base = poisson_arrivals(T, rate_per_s=100.0, n_requests=10, seed=5)
        shifted = poisson_arrivals(
            T, rate_per_s=100.0, n_requests=10, seed=5, start_s=2.0
        )
        for b, s in zip(base, shifted):
            assert s.arrival_s == pytest.approx(b.arrival_s + 2.0)

    def test_mmpp_is_burstier_than_poisson(self):
        # Squared coefficient of variation of inter-arrivals: ~1 for
        # Poisson, > 1 for a two-state MMPP with distinct rates.
        mmpp = mmpp_arrivals(
            T, quiet_rate_per_s=50.0, burst_rate_per_s=2000.0,
            quiet_dwell_s=0.5, burst_dwell_s=0.05, n_requests=2000, seed=3,
        )
        times = [r.arrival_s for r in mmpp]
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        assert var / mean**2 > 1.5

    def test_validation(self):
        with pytest.raises(ServingError):
            poisson_arrivals(T, rate_per_s=0.0, n_requests=10)
        with pytest.raises(ServingError):
            poisson_arrivals(T, rate_per_s=10.0, n_requests=0)
        with pytest.raises(ServingError):
            mmpp_arrivals(
                T, quiet_rate_per_s=10.0, burst_rate_per_s=-1.0, n_requests=5
            )
        with pytest.raises(ServingError):
            mmpp_arrivals(
                T, quiet_rate_per_s=10.0, burst_rate_per_s=20.0,
                n_requests=5, quiet_dwell_s=0.0,
            )
        with pytest.raises(ServingError):
            diurnal_arrivals(
                T, base_rate_per_s=100.0, peak_rate_per_s=50.0,
                period_s=1.0, n_requests=5,
            )
        with pytest.raises(ServingError):
            diurnal_arrivals(
                T, base_rate_per_s=10.0, peak_rate_per_s=50.0,
                period_s=0.0, n_requests=5,
            )

    def test_negative_slo_rejected(self):
        with pytest.raises(ServingError, match="slo_ms"):
            poisson_arrivals(T, rate_per_s=10.0, n_requests=5, slo_ms=-1.0)


class TestMix:
    def test_ids_globally_unique_and_sorted(self):
        merged = mix(
            poisson_arrivals(T, rate_per_s=200.0, n_requests=40, seed=1),
            poisson_arrivals(G, rate_per_s=200.0, n_requests=40, seed=2),
            uniform_arrivals(T, rate_per_s=100.0, n_requests=20),
        )
        assert len(merged) == 100
        ids = [r.request_id for r in merged]
        assert ids == list(range(100))  # unique, dense, in arrival order
        times = [r.arrival_s for r in merged]
        assert times == sorted(times)

    def test_mix_preserves_tags(self):
        merged = mix(
            poisson_arrivals(
                T, rate_per_s=100.0, n_requests=10, seed=1,
                tenant="a", priority=2, slo_ms=3.0,
            ),
            poisson_arrivals(
                G, rate_per_s=100.0, n_requests=10, seed=2, tenant="b"
            ),
        )
        by_tenant = {r.tenant for r in merged}
        assert by_tenant == {"a", "b"}
        for r in merged:
            if r.tenant == "a":
                assert r.priority == 2 and r.slo_ms == 3.0
            else:
                assert r.priority == 0 and r.slo_ms is None

    def test_unmixed_merge_rejected_by_engine(self):
        # Both generators number from 0 — a hand-concatenated merge has
        # colliding ids, which the event loop rejects with a pointer at
        # mix(); the same merge through mix() is accepted.
        a = poisson_arrivals(T, rate_per_s=200.0, n_requests=10, seed=1)
        b = poisson_arrivals(G, rate_per_s=200.0, n_requests=10, seed=2)
        engine = ServingEngine("gpu")
        with pytest.raises(ServingError, match="mix"):
            engine.serve_stream(a + b)
        report = engine.serve_stream(mix(a, b))
        assert report.n_requests == 20

    def test_fleet_rejects_duplicate_ids_too(self):
        a = poisson_arrivals(T, rate_per_s=200.0, n_requests=10, seed=1)
        b = poisson_arrivals(G, rate_per_s=200.0, n_requests=10, seed=2)
        with pytest.raises(ServingError, match="duplicate request_id"):
            Fleet("gpu", replicas=2).serve_stream(a + b)

    def test_empty_mix_rejected(self):
        with pytest.raises(ServingError):
            mix()
        with pytest.raises(ServingError):
            mix((), ())


class TestTrace:
    def test_round_trip_exact(self, tmp_path):
        stream = mix(
            mmpp_arrivals(
                T, quiet_rate_per_s=100.0, burst_rate_per_s=700.0,
                n_requests=50, seed=6, tenant="interactive", priority=1,
                slo_ms=5.0,
            ),
            poisson_arrivals(
                G, rate_per_s=80.0, n_requests=30, seed=7, tenant="bulk"
            ),
        )
        path = tmp_path / "trace.jsonl"
        record_trace(stream, path)
        replayed = replay_trace(path)
        assert replayed == stream  # exact, including float arrival times

    def test_round_trip_same_report(self, tmp_path):
        stream = poisson_arrivals(T, rate_per_s=900.0, n_requests=100, seed=8)
        path = tmp_path / "trace.jsonl"
        record_trace(stream, path)
        engine = ServingEngine("gpu")
        original = engine.serve_stream(stream, slo_ms=5.0)
        replayed = engine.serve_stream(replay_trace(path), slo_ms=5.0)
        assert replayed.p50_ms == original.p50_ms
        assert replayed.p99_ms == original.p99_ms
        assert replayed.slo_miss_rate == original.slo_miss_rate

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ServingError, match="not found"):
            replay_trace(tmp_path / "nope.jsonl")

    def test_corrupt_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "lstm"}\n')
        with pytest.raises(ServingError, match="bad trace line 1"):
            replay_trace(path)

    def test_nan_arrival_line_rejected(self, tmp_path):
        # json accepts a bare NaN, and NaN compares false against
        # everything, so a presorted order check cannot catch it.
        rec = request_to_json(ServeRequest(task=T, arrival_s=0.5))
        path = tmp_path / "nan.jsonl"
        path.write_text(json.dumps({**rec, "arrival_s": math.nan}) + "\n")
        with pytest.raises(ServingError, match="bad trace line 1.*arrival_s"):
            replay_trace(path)

    @pytest.mark.parametrize(
        "line", [b"\x80 not utf-8\n", b"[" * 100_000 + b"\n"],
        ids=["not-utf8", "nested-too-deep"],
    )
    def test_undecodable_line_raises(self, tmp_path, line):
        # Regression: these escaped as UnicodeDecodeError and
        # RecursionError tracebacks instead of naming the line.
        path = tmp_path / "bad.jsonl"
        path.write_bytes(line)
        with pytest.raises(ServingError, match="bad trace line 1"):
            replay_trace(path)

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ServingError, match="empty"):
            record_trace([], tmp_path / "empty.jsonl")
        path = tmp_path / "blank.jsonl"
        path.write_text("\n")
        with pytest.raises(ServingError, match="no requests"):
            replay_trace(path)

    def test_record_is_atomic_under_midstream_failure(self, tmp_path):
        """Regression: a generator blowing up mid-stream must neither
        clobber the existing trace nor leave a half-written temp file."""
        path = tmp_path / "trace.jsonl"
        good = poisson_arrivals(T, rate_per_s=200.0, n_requests=5, seed=4)
        record_trace(good, path)
        before = path.read_text()

        def exploding():
            yield from good[:3]
            raise RuntimeError("disk fell over")

        with pytest.raises(RuntimeError, match="disk fell over"):
            record_trace(exploding(), path)
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_record_empty_stream_keeps_existing_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        record_trace(poisson_arrivals(
            T, rate_per_s=200.0, n_requests=3, seed=1), path)
        before = path.read_text()
        with pytest.raises(ServingError, match="empty"):
            record_trace([], path)
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]


class TestRequestFromJson:
    def test_non_dict_records_raise_serving_error(self):
        for rec in ([1, 2], "a string", 7, None, 3.5):
            with pytest.raises(ServingError, match="expected a JSON object"):
                request_from_json(rec)

    def test_task_validation_failures_become_serving_errors(self):
        # Regression: these used to escape as WorkloadError (unknown
        # kind, bad sizes) or TypeError (wrong field types), past
        # handlers that only catch ServingError.
        base = request_to_json(ServeRequest(task=T, request_id=0))
        for corrupt in (
            {"kind": "nope"},
            {"hidden": -4},
            {"timesteps": 0},
            {"hidden": "big"},
            {"arrival_s": "soon"},
            {"layers": 0},
        ):
            with pytest.raises(ServingError, match="bad request record"):
                request_from_json({**base, **corrupt})

    def test_integer_too_large_for_a_float_is_a_serving_error(self):
        # Regression: a 400-digit arrival_s parsed as an int and later
        # crashed the event loop with OverflowError.
        base = request_to_json(ServeRequest(task=T, request_id=0))
        for name in ("arrival_s", "slo_ms"):
            with pytest.raises(ServingError, match="bad request record"):
                request_from_json({**base, name: 10**400})

    def test_missing_fields_raise_serving_error(self):
        with pytest.raises(ServingError, match="bad request record"):
            request_from_json({"kind": "lstm"})

    def test_where_names_the_source(self):
        with pytest.raises(ServingError, match="bad socket peer"):
            request_from_json([1], where="socket peer")


class TestRequestValidation:
    @pytest.mark.parametrize("arrival_s", [math.nan, math.inf, -1e-9])
    def test_constructor_rejects_bad_arrival(self, arrival_s):
        with pytest.raises(ServingError, match="arrival_s"):
            ServeRequest(task=T, arrival_s=arrival_s)

    @pytest.mark.parametrize("slo_ms", [math.nan, 0.0, -5.0])
    def test_constructor_rejects_bad_slo(self, slo_ms):
        with pytest.raises(ServingError, match="slo_ms"):
            ServeRequest(task=T, slo_ms=slo_ms)

    def test_infinite_slo_stays_legal(self):
        assert ServeRequest(task=T, slo_ms=math.inf).deadline_s() == math.inf

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # record_trace would write it; replay_trace would refuse it.
            ("tenant", None, "tenant must be a string, got None"),
            ("priority", "x", "priority must be an integer, got 'x'"),
            ("priority", True, "priority must be an integer, got True"),
            ("request_id", "7", "request_id must be an integer, got '7'"),
            ("request_id", 1.5, "request_id must be an integer, got 1.5"),
        ],
        ids=["tenant-none", "priority-str", "priority-bool", "id-str", "id-float"],
    )
    def test_constructor_rejects_wrongly_typed_tags(self, field, value, message):
        with pytest.raises(ServingError) as caught:
            ServeRequest(task=T, **{field: value})
        assert str(caught.value) == message


#: (generator, valid keyword arguments) for the up-front argument checks.
_GENERATORS = {
    "poisson": (poisson_arrivals, dict(rate_per_s=100.0)),
    "uniform": (uniform_arrivals, dict(rate_per_s=100.0)),
    "mmpp": (
        mmpp_arrivals,
        dict(quiet_rate_per_s=50.0, burst_rate_per_s=500.0,
             quiet_dwell_s=0.2, burst_dwell_s=0.05),
    ),
    "diurnal": (
        diurnal_arrivals,
        dict(base_rate_per_s=20.0, peak_rate_per_s=200.0, period_s=1.0),
    ),
}

_BAD_ARGS = [
    (name, field, value)
    for name, (_fn, valid) in _GENERATORS.items()
    for field, value in [
        *((f, bad) for f in valid for bad in (math.nan, math.inf, 0.0)),
        ("start_s", math.nan),
        ("start_s", math.inf),
        ("start_s", -0.5),
        ("slo_ms", math.nan),
        ("slo_ms", -1.0),
    ]
]


#: Arguments of the wrong type, each rejected up front with a
#: ServingError: a bool where a number or count belongs (it would act as
#: 1), a string, an int no float holds, and tags that a replayed trace
#: refuses.  (id, generator, field, value, the error after the field)
_BAD_TYPES = [
    (f"{name}-{field}-{label}", name, field, value, message)
    for name, (_fn, valid) in _GENERATORS.items()
    for field, label, value, message in [
        *(
            (f, label, bad, message)
            for f in (*valid, "start_s")
            for label, bad, message in (
                ("bool", True, "must be a number, got bool"),
                ("str", "5", "must be a number, got str"),
                ("huge", 10**400, "must fit in a float, got a larger int"),
            )
        ),
        ("n_requests", "bool", True, "must be an integer, got True"),
        ("priority", "str", "x", "must be an integer, got 'x'"),
        ("priority", "bool", True, "must be an integer, got True"),
        ("tenant", "none", None, "must be a string, got None"),
    ]
]


class TestUpFrontValidation:
    """Every generator checks its arguments once, before the first
    request, because it builds requests through the unchecked fast path."""

    @pytest.mark.parametrize(
        "name,field,value,message",
        [case[1:] for case in _BAD_TYPES],
        ids=[case[0] for case in _BAD_TYPES],
    )
    def test_bad_argument_type_names_the_field(self, name, field, value, message):
        fn, valid = _GENERATORS[name]
        kwargs = {"n_requests": 5, **valid, field: value}
        for materialize in (True, False):
            with pytest.raises(ServingError) as caught:
                fn(T, materialize=materialize, **kwargs)
            assert str(caught.value) == f"{field} {message}"

    @pytest.mark.parametrize(
        "name,field,value", _BAD_ARGS, ids=[f"{n}-{f}-{v}" for n, f, v in _BAD_ARGS]
    )
    def test_bad_argument_names_the_field(self, name, field, value):
        fn, valid = _GENERATORS[name]
        kwargs = {**valid, field: value}
        for materialize in (True, False):
            with pytest.raises(ServingError, match=field):
                fn(T, n_requests=5, materialize=materialize, **kwargs)

    @pytest.mark.parametrize("name", sorted(_GENERATORS))
    def test_fractional_request_count_rejected(self, name):
        fn, valid = _GENERATORS[name]
        with pytest.raises(ServingError, match="n_requests must be an integer"):
            fn(T, n_requests=5.0, lengths=ZipfLength(5, 50), **valid)

    @pytest.mark.parametrize("name", sorted(_GENERATORS))
    def test_valid_arguments_still_generate(self, name):
        fn, valid = _GENERATORS[name]
        reqs = fn(T, n_requests=5, start_s=1.5, slo_ms=math.inf, **valid)
        assert len(reqs) == 5
        assert all(r.arrival_s > 1.5 and r.slo_ms == math.inf for r in reqs)


class TestMixRejectsNonRequests:
    @pytest.mark.parametrize("presorted", [False, True])
    @pytest.mark.parametrize("item", [T, {"arrival_s": 0.5}], ids=["task", "dict"])
    def test_bad_item_names_stream_and_type(self, presorted, item):
        good = poisson_arrivals(T, rate_per_s=100.0, n_requests=3, seed=1)
        kind = type(item).__name__
        with pytest.raises(ServingError, match=f"mix stream 1 yielded a {kind}"):
            tuple(mix(good, [item], presorted=presorted))
        with pytest.raises(ServingError, match=f"mix stream 0 yielded a {kind}"):
            tuple(mix([*good, item], presorted=presorted))

    @pytest.mark.parametrize("presorted", [False, True])
    def test_request_subclasses_keep_their_type(self, presorted):
        @dataclasses.dataclass(frozen=True, slots=True)
        class Tagged(ServeRequest):
            note: str = ""

        tagged = Tagged(task=T, arrival_s=0.05, note="x")
        plain = poisson_arrivals(T, rate_per_s=100.0, n_requests=3, seed=1)
        merged = tuple(mix(plain, [tagged], presorted=presorted))
        (out,) = [r for r in merged if isinstance(r, Tagged)]
        assert out.note == "x" and out.arrival_s == 0.05
        assert [r.request_id for r in merged] == [0, 1, 2, 3]


#: Built-in samplers, with the edge cases of each draw: a one-value
#: uniform range, a range past 32 bits, a one-length Zipf, a one-element
#: population.
_SAMPLERS = (
    FixedLength(40),
    UniformLength(10, 300),
    UniformLength(7, 7),
    UniformLength(1, 2**40),
    ZipfLength(5, 200, alpha=1.3),
    ZipfLength(3, 3),
    EmpiricalLength((3, 7, 7, 50, 120)),
    EmpiricalLength((9,)),
)


class _CountingLength(LengthSampler):
    """A custom sampler that defines only ``sample``."""

    def __init__(self) -> None:
        self.calls = 0

    def sample(self, rng) -> int:
        self.calls += 1
        return 5 + int(rng.integers(4))


class TestChunkedLengths:
    @pytest.mark.parametrize("sampler", _SAMPLERS, ids=repr)
    def test_chunks_equal_scalar_draws(self, sampler):
        total = 2 * _CHUNK + 5
        for seed in range(3):
            rng = np.random.default_rng(seed)
            scalar = [sampler.sample(rng) for _ in range(total)]
            end_state = rng.bit_generator.state
            for size in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, total):
                rng = np.random.default_rng(seed)
                chunked: list = []
                while len(chunked) < total:
                    n = min(size, total - len(chunked))
                    chunked += sampler.sample_chunk(rng, n)
                assert chunked == scalar, (seed, size)
                assert all(type(v) is int for v in chunked)
                assert rng.bit_generator.state == end_state, (seed, size)

    @pytest.mark.parametrize("n", [3, _CHUNK + 1])
    def test_custom_sampler_called_once_per_request(self, n):
        for materialize in (True, False):
            lengths = _CountingLength()
            stream = poisson_arrivals(
                T, rate_per_s=100.0, n_requests=n, lengths=lengths,
                materialize=materialize,
            )
            assert len(tuple(stream)) == n
            assert lengths.calls == n

    def test_short_chunk_override_rejected(self):
        class Short(FixedLength):
            def sample_chunk(self, rng, n):
                return [self.timesteps] * (n - 1)

        with pytest.raises(ServingError, match="returned 4 lengths, 5 were asked"):
            poisson_arrivals(T, rate_per_s=100.0, n_requests=5, lengths=Short(9))

    def test_one_task_per_length(self):
        reqs = poisson_arrivals(
            T, rate_per_s=500.0, n_requests=400, seed=2, lengths=ZipfLength(5, 40)
        )
        first: dict = {}
        for req in reqs:
            assert first.setdefault(req.task.timesteps, req.task) is req.task


def _public_copy(req: ServeRequest) -> ServeRequest:
    return ServeRequest(
        task=req.task,
        arrival_s=req.arrival_s,
        request_id=req.request_id,
        tenant=req.tenant,
        priority=req.priority,
        slo_ms=req.slo_ms,
    )


class TestTrustedRecords:
    """Generators and mix skip the constructor's checks; the records they
    build must still behave exactly like publicly built ones."""

    @pytest.mark.parametrize("presorted", [False, True])
    def test_records_match_public_constructor(self, presorted):
        streams = (
            poisson_arrivals(
                T, rate_per_s=300.0, n_requests=30, seed=1, tenant="a",
                slo_ms=5.0, lengths=ZipfLength(5, 60), materialize=not presorted,
            ),
            uniform_arrivals(
                G, rate_per_s=200.0, n_requests=20, priority=2,
                materialize=not presorted,
            ),
        )
        merged = tuple(mix(*streams, presorted=presorted))
        direct = poisson_arrivals(T, rate_per_s=300.0, n_requests=10, seed=4)
        for req in merged + direct:
            public = _public_copy(req)
            assert req == public and hash(req) == hash(public)
            assert repr(req) == repr(public)
            assert pickle.loads(pickle.dumps(req)) == public
            assert dataclasses.replace(req, request_id=-1) == dataclasses.replace(
                public, request_id=-1
            )
            with pytest.raises(dataclasses.FrozenInstanceError):
                req.arrival_s = 0.0
        assert len(set(merged)) == len(merged)

    @pytest.mark.parametrize(
        "fields",
        [
            (T, 0.0, 0, "default", 0, None),
            (G.with_timesteps(7), 1e6 + 0.1, 41, "asr", -3, 5.0),
            (T, 2.5, 2**70, "", 9, math.inf),
        ],
        ids=["defaults", "tagged", "edges"],
    )
    def test_builder_matches_public_record(self, fields):
        names = [f.name for f in dataclasses.fields(ServeRequest)]
        built = _trusted_request(*fields)
        public = ServeRequest(**dict(zip(names, fields, strict=True)))
        assert type(built) is ServeRequest
        # Every field is set: a slot the builder misses raises here.
        assert [getattr(built, name) for name in names] == list(fields)
        assert built == public and hash(built) == hash(public)
        assert repr(built) == repr(public)
        clone = pickle.loads(pickle.dumps(built))
        assert type(clone) is ServeRequest and clone == public
        assert type(copy.copy(built)) is ServeRequest and copy.copy(built) == public
        assert dataclasses.replace(built, priority=1) == dataclasses.replace(
            public, priority=1
        )
        assert dataclasses.asdict(built) == dataclasses.asdict(public)
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.arrival_s = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del built.tenant


#: Pinned SHA-256 digests of request_to_json over the traffic matrices
#: below, recorded before generators and mix built requests through the
#: unchecked fast path.  Any change to generated traffic (arrival times,
#: lengths, ids, tags) changes them.
_MATRIX_SHA256 = "2fd06773bb7b2beffefafbbd33c083e8b742c328d3aabb1f01603799d57c5440"
_LONG_SHA256 = "c5e39df565b92fed755ff3e9df60a0d3453c0ea2a001d54a10daa492b132fd26"

_DIGEST_SAMPLERS = (
    None,
    FixedLength(40),
    UniformLength(10, 300),
    ZipfLength(5, 200, alpha=1.3),
    EmpiricalLength((3, 7, 7, 50, 120)),
)


def _sha256(requests) -> str:
    h = hashlib.sha256()
    for req in requests:
        h.update(json.dumps(request_to_json(req), sort_keys=True).encode())
    return h.hexdigest()


class TestTrafficDigest:
    def test_generator_mix_matrix(self):
        """4 generators x 5 length settings x eager/lazy mix."""
        h = hashlib.sha256()
        for lengths in _DIGEST_SAMPLERS:
            for presorted in (False, True):
                kw = dict(n_requests=40, lengths=lengths, materialize=not presorted)
                streams = (
                    poisson_arrivals(
                        T, rate_per_s=900.0, seed=1, slo_ms=5.0, tenant="a", **kw
                    ),
                    uniform_arrivals(
                        G, rate_per_s=700.0, seed=2, priority=2, tenant="b", **kw
                    ),
                    mmpp_arrivals(
                        T, quiet_rate_per_s=100.0, burst_rate_per_s=2000.0,
                        seed=3, start_s=0.25, tenant="c", **kw,
                    ),
                    diurnal_arrivals(
                        G, base_rate_per_s=50.0, peak_rate_per_s=800.0,
                        period_s=3.0, seed=4, slo_ms=20.0, tenant="d", **kw,
                    ),
                )
                for req in mix(*streams, presorted=presorted):
                    h.update(json.dumps(request_to_json(req), sort_keys=True).encode())
        assert h.hexdigest() == _MATRIX_SHA256

    def test_long_lazy_streams(self):
        """Streams long enough to cross length-chunk boundaries."""
        h = hashlib.sha256()
        for lengths in _DIGEST_SAMPLERS:
            stream = poisson_arrivals(
                T, rate_per_s=5000.0, n_requests=4500, seed=5, lengths=lengths,
                materialize=False,
            )
            h.update(_sha256(stream).encode())
        assert h.hexdigest() == _LONG_SHA256


def _fold(h, requests) -> None:
    """Fold every request into ``h``: the exact bits of its arrival (the
    binary64 that ``float.hex`` spells out, hashed as bytes because the
    hex strings would double the pins' cost), its id, priority, task
    name, timesteps, tenant, SLO and record type.  Column by column, so
    a 4k-request stream costs a few milliseconds."""
    reqs = tuple(requests)
    tasks = [r.task for r in reqs]
    distinct = dict(zip(map(id, tasks), tasks))
    names = {key: f"{t.name}/{t.timesteps}" for key, t in distinct.items()}
    h.update(array("d", [r.arrival_s for r in reqs]).tobytes())
    h.update(array("q", [r.request_id for r in reqs]).tobytes())
    h.update(array("q", [r.priority for r in reqs]).tobytes())
    for column in (
        map(names.__getitem__, map(id, tasks)),
        [r.tenant for r in reqs],
        map(repr, [r.slo_ms for r in reqs]),
        [type(r).__name__ for r in reqs],
    ):
        h.update("\0".join(column).encode())


#: Stream counts on both sides of one and two 2,048-draw chunks.
_PIN_COUNTS = (1, 2047, 2049, 4097)
#: The length sampler each seed's cases also run with, so every rate,
#: offset and count meets both.
_PIN_LENGTHS = {0: ZipfLength(5, 100), 1: UniformLength(10, 300), 7: ZipfLength(5, 100)}


def _open_loop_streams(generator):
    for seed, lengths in _PIN_LENGTHS.items():
        for rate in (1.0, 937.0, 123456.7):
            for start_s in (0.0, 3, 1e6 + 0.1):  # 3: an int offset
                for n in _PIN_COUNTS:
                    for sampler in (None, lengths):
                        yield generator(
                            T, rate_per_s=rate, n_requests=n, seed=seed,
                            start_s=start_s, lengths=sampler, tenant=f"s{seed}",
                            priority=seed, slo_ms=5.0 if seed == 1 else None,
                            materialize=False,
                        )


def _mmpp_streams():
    for seed in (0, 7):
        for start_s, lengths in ((0.0, None), (3, ZipfLength(5, 100))):
            for n in (1, 2049, 4097):
                yield mmpp_arrivals(
                    T, quiet_rate_per_s=200.0, burst_rate_per_s=5000.0,
                    n_requests=n, seed=seed, start_s=start_s, lengths=lengths,
                    tenant="m", materialize=False,
                )


def _diurnal_streams():
    for seed in (0, 7):
        for start_s, lengths in ((0.0, None), (1e6 + 0.1, UniformLength(10, 300))):
            for n in (1, 2049, 4097):
                yield diurnal_arrivals(
                    G, base_rate_per_s=50.0, peak_rate_per_s=3000.0,
                    period_s=1.0, n_requests=n, seed=seed, start_s=start_s,
                    lengths=lengths, slo_ms=20.0, materialize=False,
                )


def _mix_streams():
    yield mix(
        poisson_arrivals(
            T, rate_per_s=900.0, n_requests=3000, seed=1, tenant="a",
            slo_ms=5.0, lengths=ZipfLength(5, 100), materialize=False,
        ),
        uniform_arrivals(
            G, rate_per_s=700.0, n_requests=3000, tenant="b", priority=2,
            materialize=False,
        ),
        mmpp_arrivals(
            T, quiet_rate_per_s=100.0, burst_rate_per_s=2000.0, n_requests=3000,
            seed=3, start_s=0.25, tenant="c", materialize=False,
        ),
        presorted=True,
    )


#: (streams, SHA-256 of every request in them) per generator family,
#: taken before the generators built arrivals per numpy chunk and
#: records as retyped drafts.  Any change to a generated stream (an
#: arrival's last bit, an id, a length, a tag, the record type) changes
#: its family's digest.
_STREAM_PINS = {
    "poisson": (
        lambda: _open_loop_streams(poisson_arrivals),
        "b2d37d60251eb64cddc33f2c3187264491d2712360b785917eeb9adbd53bcf0a",
    ),
    "uniform": (
        lambda: _open_loop_streams(uniform_arrivals),
        "812d5d9992b03134218a1ece70c346fdb9cac10ad70df344cd9d42ec8ce8f572",
    ),
    "mmpp": (
        _mmpp_streams,
        "a03c0e501eae3ae763966dfc158e28ce92aff4d5743d7179130bc233ac27ed4b",
    ),
    "diurnal": (
        _diurnal_streams,
        "6f6c8c09b97ed7244ef1ff2f8e8c83b457f2926a4d6ed14d8a0361a91fd1da7c",
    ),
    "mix": (
        _mix_streams,
        "08b5e1b7588ac4514d1b76f79ce5eed1fff3bb454ef7b159d0b0934d623bad6e",
    ),
}


class TestStreamPins:
    @pytest.mark.parametrize("family", list(_STREAM_PINS))
    def test_stream_digest(self, family):
        streams, expected = _STREAM_PINS[family]
        h = hashlib.sha256()
        for stream in streams():
            _fold(h, stream)
        assert h.hexdigest() == expected

    @pytest.mark.parametrize(
        "generator, kwargs, n_before",
        [
            # The offset overflows the sum, not the running total.
            (poisson_arrivals, dict(rate_per_s=1e-306, start_s=1.7e308), 9),
            # The running total itself overflows.
            (poisson_arrivals, dict(rate_per_s=1e-308, seed=3), 2),
            (uniform_arrivals, dict(rate_per_s=1e-308), 1),
            # A subnormal peak rate: the first gap is already infinite.
            (
                diurnal_arrivals,
                dict(base_rate_per_s=1e-310, peak_rate_per_s=1e-309, period_s=1.0),
                0,
            ),
            (
                diurnal_arrivals,
                dict(base_rate_per_s=1e-308, peak_rate_per_s=1e-308, period_s=1.0),
                3,
            ),
            # Both states' mean gaps overflow: no state can yield.
            (mmpp_arrivals, dict(quiet_rate_per_s=1e-310, burst_rate_per_s=1e-309), 0),
            # The state clock itself overflows.
            (
                mmpp_arrivals,
                dict(
                    quiet_rate_per_s=1e-308, burst_rate_per_s=1e-308,
                    quiet_dwell_s=1e308, burst_dwell_s=1e308,
                ),
                2,
            ),
        ],
        ids=[
            "poisson-offset", "poisson-total", "uniform", "diurnal-gap",
            "diurnal-total", "mmpp-gaps", "mmpp-clock",
        ],
    )
    def test_overflow_fails_at_the_first_infinite_arrival(
        self, generator, kwargs, n_before
    ):
        built = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ServingError, match="arrival_s must be finite, got inf"):
                for req in generator(T, n_requests=20, materialize=False, **kwargs):
                    built.append(req)
            with pytest.raises(ServingError, match="arrival_s must be finite, got inf"):
                generator(T, n_requests=20, **kwargs)
        assert len(built) == n_before
        assert [r.request_id for r in built] == list(range(n_before))
        assert all(r.arrival_s < math.inf for r in built)

    def test_mmpp_one_subnormal_rate_still_flips_and_yields(self):
        # The quiet state's mean gap overflows, so it yields nothing; the
        # burst state it flips to does.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reqs = mmpp_arrivals(
                T, quiet_rate_per_s=1e-310, burst_rate_per_s=2.0, n_requests=5
            )
        arrivals = [r.arrival_s for r in reqs]
        assert len(arrivals) == 5
        assert arrivals == sorted(arrivals)
        assert all(0 < a < math.inf for a in arrivals)

    def test_diurnal_phase_overflow_keeps_the_periodic_rate(self):
        # Finite arrivals near 1e307 over a 10 ms period: t / period_s
        # overflows, but the rate is periodic, so the stream goes on.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reqs = diurnal_arrivals(
                T, base_rate_per_s=1e-307, peak_rate_per_s=2e-307,
                period_s=0.01, n_requests=3,
            )
        arrivals = [r.arrival_s for r in reqs]
        assert arrivals == sorted(arrivals)
        assert all(1e305 < a < math.inf for a in arrivals)


class TestMmppDwells:
    @pytest.mark.parametrize("materialize", [True, False])
    def test_dwells_too_short_to_fit_an_arrival_fail_up_front(self, materialize):
        # Each state lasts about 1e-310 s against mean gaps of 0.5-1 s:
        # the loop would flip state once per dwell and never yield.
        with pytest.raises(ServingError) as caught:
            mmpp_arrivals(
                T, quiet_rate_per_s=1.0, burst_rate_per_s=2.0,
                quiet_dwell_s=1e-310, burst_dwell_s=1e-310, n_requests=3,
                materialize=materialize,
            )
        message = str(caught.value)
        assert "quiet_dwell_s=1e-310" in message
        assert "burst_dwell_s=1e-310" in message

    def test_one_dwell_long_enough_still_generates(self):
        reqs = mmpp_arrivals(
            T, quiet_rate_per_s=1.0, burst_rate_per_s=2000.0,
            quiet_dwell_s=1e-310, burst_dwell_s=0.05, n_requests=50, seed=2,
        )
        arrivals = [r.arrival_s for r in reqs]
        assert len(arrivals) == 50 and arrivals == sorted(arrivals)
