"""The run fold against the per-request fold, bit for bit.

The single-replica FIFO loop folds a plain :class:`StreamSummary` run by
run (:meth:`StreamSummary.observe_run`, numpy over each buffered run); a
sink that overrides ``observe_served`` keeps one call per request.  The
reference here is such a sink, with no other change, so each case runs
the same stream both ways and compares every class accumulator field
exactly: floats through ``float.hex`` (a numpy scalar leaking into an
accumulator fails too), everything else through ``repr``.

A run starts only once its class has spilled the 64-sample reservoir on
one platform and a whole chunk of ``_RUN_CHUNK`` requests has shown the
run; ``observe_run`` folds nothing else and raises when called outside
that contract.

Cases: runs around the 64-sample reservoir, the run buffer's size and
the run lengths at which the loop starts to buffer; short runs (which
never reach the run fold); equal tasks built anew per request, as a
trace builds them (one run); class switches from mixed tenants,
priorities and SLO tags; sojourns at
every histogram bucket edge (where ``np.log10`` and ``math.log10``
disagree on about one value in 200), exactly at the SLO, zero, below
the histogram's range and above it; a summary reused across a GPU and a
CPU stream (a second platform, folded one request at a time) and a
padded result; direct run folds outside the contract; a presorted
stream that turns out of order mid-way; and a class-level wrap of
``observe_served`` (a tracer's), which keeps the run path.  All of it
runs with warnings as errors, so a numpy ``RuntimeWarning`` (a
``log10`` of zero) fails.
"""

import dataclasses
import math
import random
import warnings

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving import (
    ServeRequest,
    ServingEngine,
    StreamSummary,
    mix,
    poisson_arrivals,
    run_stream,
)
from repro.serving.events import _RUN_BUFFER, _RUN_CHUNK
from repro.serving.scheduler import make_scheduler
from repro.serving.stats import (
    _HIST_BUCKETS,
    _HIST_LO_EXP,
    _HIST_PER_DECADE,
    EXACT_SAMPLE_CAP,
)
from repro.workloads.deepbench import task

T = task("lstm", 512, 25)
LONG = task("lstm", 512, 50)
GPU_T = ServingEngine("gpu").result_for(T)
LATENCY = GPU_T.latency_s
CPU_T = ServingEngine("cpu").result_for(T)

#: Requests a new class folds one by one before its first run: whole
#: chunks, until one ends past the reservoir's spill.
HEAD = (EXACT_SAMPLE_CAP // _RUN_CHUNK + 1) * _RUN_CHUNK

FIELDS = (
    "n",
    "sojourn_sum_ms",
    "queue_sum_s",
    "service_sum_s",
    "batch_sum",
    "batch_max",
    "miss",
    "pad_flops",
    "max_arrival_s",
    "max_finish_s",
    "min_sojourn_ms",
    "max_sojourn_ms",
    "samples",
    "counts",
)


@pytest.fixture(autouse=True)
def _warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


class _PerRequest(StreamSummary):
    """The reference: overriding ``observe_served`` keeps the loop's
    per-request fold, and counts its calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def observe_served(self, request, result, start_s, finish_s, batch_size,
                       outcome="ok"):
        self.calls += 1
        super().observe_served(
            request, result, start_s, finish_s, batch_size, outcome
        )


class _Runs(StreamSummary):
    """The folded sink, recording the length of each run it folds."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.runs = []

    def observe_run(self, request, result, free_at, arrivals, finishes):
        self.runs.append(len(arrivals))
        super().observe_run(request, result, free_at, arrivals, finishes)


def _exact(value):
    if type(value) is float:
        return value.hex()
    if type(value) is list:
        return [_exact(item) for item in value]
    if type(value) is dict:
        return {key: _exact(item) for key, item in value.items()}
    return repr(value)


def _state(summary):
    """Every class accumulator field, exactly, and the replica counts."""
    classes = {
        key: {
            **{name: _exact(getattr(acc, name)) for name in FIELDS},
            "platform_service": _exact(acc.platform_service()),
        }
        for key, acc in summary._classes.items()
    }
    return classes, summary._replica_counts


def _serve(arrivals, sink, platform="gpu"):
    """One replica, FIFO and batch 1: the loop that folds by runs."""
    engine = ServingEngine(platform)
    try:
        run_stream(
            arrivals,
            engines=[engine],
            schedulers=[make_scheduler("fifo")],
            presorted=True,
            summary=sink,
        )
    except ServingError as exc:
        return str(exc), engine.cache_stats
    return None, engine.cache_stats


def _both(arrivals, slo_ms=1.0):
    """(run-fold sink, reference sink) after serving ``arrivals``."""
    folded = _Runs("gpu", slo_ms=slo_ms)
    reference = _PerRequest("gpu", slo_ms=slo_ms)
    assert _serve(arrivals, folded) == _serve(arrivals, reference)
    assert _state(folded) == _state(reference)
    return folded, reference


def _loaded_times(n, seed, load=0.9):
    """Poisson arrival times at ``load`` of one GPU replica: queues that
    build and drain, with idle gaps between."""
    rng = random.Random(seed)
    t, times = 0.0, []
    for _ in range(n):
        t += rng.expovariate(load / LATENCY)
        times.append(t)
    return times


@pytest.mark.parametrize(
    "run",
    [
        63,
        64,
        65,
        _RUN_BUFFER - 1,
        _RUN_BUFFER,
        _RUN_BUFFER + 1,
        2 * _RUN_CHUNK + _RUN_BUFFER - 1,
        2 * _RUN_CHUNK + _RUN_BUFFER,
        2 * _RUN_CHUNK + _RUN_BUFFER + 1,
        HEAD + _RUN_BUFFER - 1,
        HEAD + _RUN_BUFFER,
        HEAD + _RUN_BUFFER + 1,
    ],
)
def test_runs_around_the_reservoir_and_the_buffer(run):
    """Two tenants in alternating runs of ``run`` requests, then one run
    of a third: a class's reservoir fills and spills across runs or ends
    just short of, at or just past its size, and runs fill the buffer
    or end just short of, at or just past it (a new class's first run
    buffers after ``HEAD`` requests, a spilled class's after two
    chunks)."""
    times = _loaded_times(5 * run, seed=run)
    arrivals = [
        ServeRequest(task=T, arrival_s=t, request_id=i,
                     tenant="ababc"[i // run])
        for i, t in enumerate(times)
    ]
    folded, reference = _both(arrivals)
    assert reference.calls == folded.n_requests == 5 * run
    slices = folded.per_tenant()
    assert [slices[name].n_requests for name in "abc"] == [2 * run, 2 * run, run]
    # A run reaches the run fold once its class has spilled and a whole
    # chunk in it has shown the run, so after at most HEAD single folds,
    # in full buffers and one partial one.
    assert max(folded.runs, default=0) <= _RUN_BUFFER
    if run <= _RUN_CHUNK:
        assert folded.runs == []
    if run > HEAD:
        assert 5 * run - sum(folded.runs) <= 5 * HEAD


def test_short_runs_fold_one_request_at_a_time():
    """Two tenants interleaved at random: no run covers a whole chunk of
    ``_RUN_CHUNK`` requests, so the loop folds every request with
    ``observe_served``, as the per-request body does, and never calls
    the run fold."""
    streams = [
        poisson_arrivals(T, rate_per_s=0.4 / LATENCY, n_requests=300,
                         seed=seed, tenant=name)
        for seed, name in enumerate("ab")
    ]
    folded, _ = _both(list(mix(*streams)))
    assert folded.n_requests == 600 and folded.runs == []


def test_equal_tasks_built_per_request_make_one_run():
    """A trace builds a new, equal task for every line: the requests
    stay one run and one lookup, with the cache counts of the
    per-request body, which looks up every new task object."""
    times = _loaded_times(HEAD + 500, seed=5)
    arrivals = [
        ServeRequest(task=dataclasses.replace(T), arrival_s=t, request_id=i)
        for i, t in enumerate(times)
    ]
    assert arrivals[0].task == arrivals[1].task
    assert arrivals[0].task is not arrivals[1].task
    folded, _ = _both(arrivals)
    assert folded.runs == [500]


def test_one_long_run_spills_once():
    arrivals = poisson_arrivals(
        T, rate_per_s=0.8 / LATENCY, n_requests=3 * _RUN_BUFFER + 7, seed=4,
        materialize=False,
    )
    folded, _ = _both(list(arrivals))
    (acc,) = folded._classes.values()
    assert acc.samples is None and sum(acc.counts) == acc.n


#: Request classes that differ from the first in one field only: the
#: task (of equal length), the tenant, the priority, the SLO tag (an
#: int, compared exactly) or no tag (the stream SLO).
ONE_FIELD_APART = [
    {},
    {"task": task("gru", 512, 25)},
    {"tenant": "tts"},
    {"priority": 2},
    {"slo_ms": 1},
    {"slo_ms": None},
]


def test_mixed_tasks_tenants_priorities_and_slo_tags():
    """Class switches at random points, between classes one field apart."""
    streams = [
        poisson_arrivals(
            **{"task": T, "tenant": "chat", "slo_ms": 0.8, **tag},
            rate_per_s=0.15 / LATENCY, n_requests=400, seed=seed,
        )
        for seed, tag in enumerate(ONE_FIELD_APART)
    ]
    folded, _ = _both(list(mix(*streams)), slo_ms=0.9)
    assert len(folded._classes) == len(ONE_FIELD_APART)
    assert 0.0 < folded.slo_attainment < 1.0


def test_a_run_ends_at_any_class_field():
    """Runs long enough to reach the buffer, each followed by one of a
    class one field apart: every field change ends the buffered run."""
    run = HEAD + _RUN_CHUNK
    base, *others = ONE_FIELD_APART
    order = [tag for other in others for tag in (base, other)] + [base]
    tags = [tag for tag in order for _ in range(run)]
    times = _loaded_times(len(tags), seed=6)
    arrivals = [
        ServeRequest(
            **{"task": T, "tenant": "chat", "slo_ms": 0.8, **tag},
            arrival_s=t,
            request_id=i,
        )
        for i, (tag, t) in enumerate(zip(tags, times))
    ]
    folded, _ = _both(arrivals, slo_ms=0.9)
    assert len(folded._classes) == len(ONE_FIELD_APART)
    assert len(folded.runs) == len(order)


def test_out_of_order_stream_leaves_the_per_request_state():
    """A presorted stream found out of order past the first buffered
    run: both sinks raise the same error and keep what was folded."""
    times = _loaded_times(_RUN_BUFFER + 300, seed=9)
    times[_RUN_BUFFER + 200] = times[_RUN_BUFFER + 198]
    arrivals = [
        ServeRequest(task=T, arrival_s=t, request_id=i)
        for i, t in enumerate(times)
    ]
    folded = _Runs("gpu", slo_ms=1.0)
    reference = _PerRequest("gpu", slo_ms=1.0)
    error, stats = _serve(arrivals, folded)
    assert "out of order" in error
    assert (error, stats) == _serve(arrivals, reference)
    assert _state(folded) == _state(reference)
    assert folded.n_requests == _RUN_BUFFER + 200
    assert folded.runs == [_RUN_BUFFER, 200 - HEAD]


def _observe_each(sink, request, result, free_at, arrivals, finishes):
    """Fold a run through ``observe_served``, one request at a time."""
    prev = free_at
    for arrival, finish in zip(arrivals, finishes):
        sink.observe_served(
            ServeRequest(task=request.task, arrival_s=arrival,
                         tenant=request.tenant),
            result,
            arrival if arrival > prev else prev,
            finish,
            1,
        )
        prev = finish


def _spill(request, n=80):
    """A run that takes ``request``'s class past its reservoir."""
    arrivals = [i * 2 * LATENCY for i in range(n)]
    return request, GPU_T, 0.0, arrivals, [a + LATENCY for a in arrivals]


def _fold_both(request, runs, slo_ms):
    """Spill ``request``'s class through ``observe_served`` on both sides,
    then feed ``(result, free_at, arrivals, finishes)`` runs of it to
    ``observe_run`` and, one request at a time, to the reference."""
    folded = StreamSummary("gpu", slo_ms=slo_ms)
    reference = _PerRequest("gpu", slo_ms=slo_ms)
    for sink in (folded, reference):
        _observe_each(sink, *_spill(request))
    for run in runs:
        folded.observe_run(request, *run)
        _observe_each(reference, request, *run)
    assert _state(folded) == _state(reference)
    return folded


def test_sojourns_at_every_bucket_edge():
    """Eight ulps either side of every bucket edge, in seconds-scale
    finishes, shuffled: where ``np.log10`` and ``math.log10`` put a
    value in different buckets, the fold must use ``math.log10``."""
    edges = 10.0 ** (np.arange(_HIST_BUCKETS + 1) / _HIST_PER_DECADE + _HIST_LO_EXP)
    finishes = edges / 1e3
    around = [finishes]
    low = high = finishes
    for _ in range(8):
        low = np.nextafter(low, 0.0)
        high = np.nextafter(high, np.inf)
        around += [low, high]
    finishes = np.concatenate(around)
    np.random.default_rng(0).shuffle(finishes)
    finishes = finishes.tolist()
    scaled = (np.log10(np.array(finishes) * 1e3) - _HIST_LO_EXP) * _HIST_PER_DECADE
    vector = np.clip(scaled, 0, _HIST_BUCKETS - 1).astype(int)
    # The sweep does reach values numpy bins differently (about 120 with
    # numpy 2.4); math.log10 must decide them.
    exact = [
        min(max(int((math.log10(f * 1e3) - _HIST_LO_EXP) * _HIST_PER_DECADE), 0),
            _HIST_BUCKETS - 1)
        for f in finishes
    ]
    assert (vector != np.array(exact)).any()
    request = ServeRequest(task=T, tenant="edges")
    _fold_both(
        request, [(GPU_T, 0.0, [0.0] * len(finishes), finishes)], slo_ms=1.0
    )


def test_sojourns_at_the_slo_zero_and_out_of_range():
    """Sojourns exactly at the SLO (not a miss) and one ulp either side,
    zero (finish at arrival), below 1e-4 ms and above 1e7 ms."""
    finish = 0.005
    slo = finish * 1e3  # exactly the sojourn of arrival 0, this finish
    arrivals = [0.0] * 3 + [1e6, 1e6 + 1.0, 2.0, 3.0, 0.0, 0.0]
    finishes = [
        finish,
        float(np.nextafter(finish, 0.0)),
        float(np.nextafter(finish, 1.0)),
        1e6,  # zero sojourn
        1e6 + 1.0,  # zero sojourn
        2.0 + 5e-9,  # 5e-6 ms
        3.0 + 1e-12,
        2e4,  # 2e7 ms
        1e9,
    ]
    request = ServeRequest(task=T)
    folded = _fold_both(request, [(GPU_T, 0.0, arrivals, finishes)], slo_ms=slo)
    (acc,) = folded._classes.values()
    assert acc.min_sojourn_ms == 0.0 and acc.max_sojourn_ms == 1e12
    assert acc.counts[0] >= 4 and acc.counts[-1] == 2


def test_second_platform_and_padding_fold_per_request():
    """One summary reused across a GPU stream and a CPU stream: the CPU
    requests join the class the GPU stream spilled, so the loop folds
    them one by one and never calls the run fold, and a direct run fold
    raises.  A padded result (a longer executed task) folds by run and
    charges padding FLOPs."""
    folded = _Runs("gpu", slo_ms=1.0)
    reference = _PerRequest("gpu", slo_ms=1.0)
    for platform, seed in (("gpu", 10), ("cpu", 11)):
        arrivals = [
            ServeRequest(task=T, arrival_s=t, request_id=i)
            for i, t in enumerate(_loaded_times(400, seed=seed))
        ]
        assert _serve(arrivals, folded, platform) == _serve(
            arrivals, reference, platform
        )
        assert _state(folded) == _state(reference)
        if platform == "gpu":
            gpu_runs = list(folded.runs)
    assert gpu_runs == [400 - HEAD] and folded.runs == gpu_runs
    assert reference.calls == folded.n_requests == 800
    (acc,) = folded._classes.values()
    assert set(acc.platform_service()) == {"cpu", "gpu"}
    _assert_rejected(folded, ServeRequest(task=T), CPU_T)

    request = ServeRequest(task=T)
    padded = ServingEngine("gpu").result_for(LONG)
    arrivals = [5.0 + i * 0.01 for i in range(40)]
    finishes = [a + 0.001 for a in arrivals]
    folded = _fold_both(request, [(padded, 0.0, arrivals, finishes)], slo_ms=1.0)
    (acc,) = folded._classes.values()
    assert acc.pad_flops > 0


def _assert_rejected(summary, request, result):
    """A direct ``observe_run`` outside its contract raises and leaves
    every class accumulator field, and the set of classes, as it was."""
    before = _state(summary)
    with pytest.raises(ServingError, match="observe_run needs a class"):
        summary.observe_run(request, result, 0.0, [1.0, 2.0], [1.5, 2.5])
    assert _state(summary) == before


def test_a_run_outside_the_contract_raises_and_changes_nothing():
    """``observe_run`` on a class it has not seen, on one still filling
    its reservoir, on one just full but not yet spilled, and on a
    spilled class that another platform has served (or for a run on
    another platform) raises ``ServingError`` and folds nothing."""
    summary = StreamSummary("gpu", slo_ms=1.0)
    request = ServeRequest(task=T)
    _assert_rejected(summary, request, GPU_T)
    _, result, free_at, arrivals, finishes = _spill(request)
    done = 0
    for count in (1, EXACT_SAMPLE_CAP):
        _observe_each(summary, request, result, free_at, arrivals[done:count],
                      finishes[done:count])
        done = count
        (acc,) = summary._classes.values()
        assert len(acc.samples) == count
        _assert_rejected(summary, request, GPU_T)
    _observe_each(summary, request, result, free_at, arrivals[done:],
                  finishes[done:])
    assert acc.samples is None
    _assert_rejected(summary, request, CPU_T)
    _observe_each(summary, request, CPU_T, 100.0, [100.0], [101.0])
    for result in (GPU_T, CPU_T):
        _assert_rejected(summary, request, result)


def test_a_class_level_wrap_keeps_the_run_path(monkeypatch):
    """Wrapping ``StreamSummary.observe_served`` on the class, as a
    tracer does, keeps the identity check true and so the run path:
    ``observe_served`` sees only the ``HEAD`` requests that start each
    run (its class spills, then a whole chunk shows the run), each
    request its own."""
    calls = []
    wrapped = StreamSummary.observe_served

    def counted(self, request, *args):
        calls.append(request.request_id)
        wrapped(self, request, *args)

    monkeypatch.setattr(StreamSummary, "observe_served", counted)
    times = _loaded_times(600, seed=3)
    arrivals = [
        ServeRequest(task=T, arrival_s=t, request_id=i, tenant="ab"[i // 300])
        for i, t in enumerate(times)
    ]
    folded = StreamSummary("gpu", slo_ms=1.0)
    _serve(arrivals, folded)
    assert folded.n_requests == 600
    assert calls == [*range(HEAD), *range(300, 300 + HEAD)]
