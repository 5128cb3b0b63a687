"""Composable traffic generation: arrival processes, mixes, and traces.

The paper's serving scenario is a stream of batch-1 requests; real
data-center RNN serving adds multiple tenants, bursty arrivals, and
per-request deadlines on top.  This module generates that traffic:

* :func:`poisson_arrivals` / :func:`uniform_arrivals` — the classic
  open-loop processes;
* :func:`mmpp_arrivals` — a two-state Markov-modulated Poisson process
  (quiet/burst), the standard model for bursty interactive traffic;
* :func:`diurnal_arrivals` — a non-homogeneous Poisson process whose
  rate ramps sinusoidally over a period (a compressed day/night cycle);
* :func:`mix` — interleave several single-tenant streams into one
  multi-tenant workload with globally unique request ids;
* :func:`record_trace` / :func:`replay_trace` — JSONL capture and exact
  replay of any stream.

Every generator is seeded and deterministic: the same arguments produce
the identical request sequence, so experiments and tests are repeatable.
All generators accept ``tenant``, ``priority``, and ``slo_ms`` tags that
flow through to the schedulers and per-tenant report breakdowns.

Real RNN traffic is also **length-distributed**: utterances and
sentences vary, and padding a batch to its longest member is the
dominant cost of batched RNN serving.  Every generator therefore accepts
a ``lengths`` sampler (:class:`FixedLength`, :class:`UniformLength`,
:class:`ZipfLength`, or :class:`EmpiricalLength` built from a recorded
trace) that attaches a per-request ``timesteps`` override to each
arrival via :meth:`RNNTask.with_timesteps
<repro.workloads.deepbench.RNNTask.with_timesteps>`.  Length sampling
draws from its own seeded RNG stream, so attaching a distribution never
perturbs the arrival times.
"""

from __future__ import annotations

import heapq
import json
import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import ServingError, WorkloadError
from repro.serving.request import (
    ServeRequest,
    _arrival_error,
    _check_budget_ms,
    _trusted_request,
)
from repro.workloads.deepbench import RNNTask

__all__ = [
    "LengthSampler",
    "FixedLength",
    "UniformLength",
    "ZipfLength",
    "EmpiricalLength",
    "length_sampler",
    "length_band",
    "lengths_from_trace",
    "poisson_arrivals",
    "uniform_arrivals",
    "mmpp_arrivals",
    "diurnal_arrivals",
    "mix",
    "record_trace",
    "replay_trace",
    "iter_trace",
    "request_to_json",
    "request_from_json",
]

#: Chunk size for vectorized lazy RNG draws (arrival gaps and lengths):
#: big enough to amortize the numpy call, small enough that a lazy
#: stream's working set stays tiny.  Draws are bit-identical at any size.
_CHUNK = 2048

_INF = math.inf


def _check_stream_args(
    n_requests: int, start_s: float, slo_ms: float | None, **positive: float
) -> None:
    """A generator's once-per-stream argument checks.

    They stand in for the checks the public :class:`ServeRequest`
    constructor would run on every generated request (``start_s``
    offsets each arrival, ``slo_ms`` is copied to each), so
    :func:`_request_stream` can build its requests through the unchecked
    ``_trusted_request``.  ``positive`` names the rates, dwells and
    periods, each of which must be finite and positive; the negated
    range tests also reject NaN.
    """
    for name, value in positive.items():
        if not 0.0 < value < math.inf:
            raise ServingError(f"{name} must be finite and positive, got {value!r}")
    try:
        operator.index(n_requests)  # it sizes the RNG draws
    except TypeError:
        raise ServingError(
            f"n_requests must be an integer, got {n_requests!r}"
        ) from None
    if n_requests < 1:
        raise ServingError("n_requests must be >= 1")
    if not 0.0 <= start_s < math.inf:
        raise ServingError(f"start_s must be finite and >= 0, got {start_s!r}")
    _check_budget_ms("slo_ms", slo_ms)


# -- sequence-length distributions ---------------------------------------

#: Seed-stream tag separating length sampling from arrival-time sampling:
#: the same ``seed`` yields the same arrival times with or without a
#: length distribution attached.
_LENGTH_STREAM = 0x4C454E  # "LEN"


class LengthSampler(ABC):
    """Seeded per-request sequence-length distribution.

    Samplers are pure descriptions; all randomness comes from the
    generator-owned RNG passed to :meth:`sample`, so the same traffic
    seed reproduces the same lengths.

    The generators draw lengths through :meth:`sample_chunk`, a few
    thousand at a time and never more than the stream still needs.  A
    subclass need only define :meth:`sample`: the default chunk calls it
    once per request.  An override of :meth:`sample_chunk` (every
    built-in has one) must return exactly the values that many
    :meth:`sample` calls would, and leave ``rng`` in the same state, so
    chunking never changes a stream.

    Example::

        >>> from repro.serving import FixedLength
        >>> import numpy as np
        >>> FixedLength(25).sample(np.random.default_rng(0))
        25
        >>> FixedLength(25).sample_chunk(np.random.default_rng(0), 3)
        [25, 25, 25]
    """

    @abstractmethod
    def sample(self, rng) -> int:
        """Draw one sequence length (``timesteps >= 1``)."""

    def sample_chunk(self, rng, n: int) -> list[int]:
        """Draw ``n`` lengths: the next ``n`` values of :meth:`sample`."""
        return [self.sample(rng) for _ in range(n)]


@dataclass(frozen=True)
class FixedLength(LengthSampler):
    """Every request gets the same length — the paper's fixed-T scenario
    expressed through the variable-length machinery.

    Example::

        >>> from repro.serving import FixedLength
        >>> import numpy as np
        >>> rng = np.random.default_rng(7)
        >>> {FixedLength(50).sample(rng) for _ in range(5)}
        {50}
    """

    timesteps: int

    def __post_init__(self) -> None:
        if self.timesteps < 1:
            raise ServingError("FixedLength timesteps must be >= 1")

    def sample(self, rng) -> int:
        return self.timesteps

    def sample_chunk(self, rng, n: int) -> list[int]:
        return [self.timesteps] * n


@dataclass(frozen=True)
class UniformLength(LengthSampler):
    """Lengths drawn uniformly from ``[lo, hi]`` inclusive.

    Example::

        >>> from repro.serving import UniformLength
        >>> import numpy as np
        >>> rng = np.random.default_rng(3)
        >>> all(10 <= UniformLength(10, 20).sample(rng) <= 20
        ...     for _ in range(50))
        True
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 1 or self.hi < self.lo:
            raise ServingError(f"need 1 <= lo <= hi, got [{self.lo}, {self.hi}]")

    def sample(self, rng) -> int:
        return int(rng.integers(self.lo, self.hi + 1))

    def sample_chunk(self, rng, n: int) -> list[int]:
        # One bounded draw of size n consumes the bit generator exactly
        # as n scalar draws do (tests pin the parity).
        return rng.integers(self.lo, self.hi + 1, size=n).tolist()


@dataclass(frozen=True)
class ZipfLength(LengthSampler):
    """Zipf-distributed lengths on ``[lo, hi]``: short sequences dominate,
    long ones form a heavy tail — the shape interactive speech/translation
    traffic actually has, and the worst case for padded batching.

    ``P(length = lo + k) ∝ (k + 1)^-alpha``.

    Example::

        >>> from repro.serving import ZipfLength
        >>> import numpy as np
        >>> rng = np.random.default_rng(0)
        >>> draws = [ZipfLength(10, 200).sample(rng) for _ in range(200)]
        >>> (min(draws) >= 10, max(draws) <= 200,
        ...  sum(d < 30 for d in draws) > sum(d > 100 for d in draws))
        (True, True, True)
    """

    lo: int
    hi: int
    alpha: float = 1.2

    def __post_init__(self) -> None:
        if self.lo < 1 or self.hi < self.lo:
            raise ServingError(f"need 1 <= lo <= hi, got [{self.lo}, {self.hi}]")
        if self.alpha <= 0:
            raise ServingError("ZipfLength alpha must be positive")

    @cached_property
    def _probs(self):
        import numpy as np

        ranks = np.arange(1, self.hi - self.lo + 2, dtype=float)
        weights = ranks**-self.alpha
        return weights / weights.sum()

    @cached_property
    def _cdf(self):
        # ``Generator.choice(n, p=probs)`` recomputes this cumsum on
        # every call — the hot cost of sampling a million lengths.
        # Caching it and replaying choice's own algorithm (one uniform
        # draw + a right-bisect on the normalized cdf) produces the
        # *identical* draw sequence an order of magnitude faster.
        cdf = self._probs.cumsum()
        cdf /= cdf[-1]
        return cdf

    def sample(self, rng) -> int:
        return self.lo + int(self._cdf.searchsorted(rng.random(), side="right"))

    def sample_chunk(self, rng, n: int) -> list[int]:
        return (self.lo + self._cdf.searchsorted(rng.random(n), side="right")).tolist()


@dataclass(frozen=True)
class EmpiricalLength(LengthSampler):
    """Lengths resampled (with replacement) from an observed population —
    e.g. the ``timesteps`` column of a recorded trace.

    Example::

        >>> from repro.serving import EmpiricalLength
        >>> import numpy as np
        >>> rng = np.random.default_rng(1)
        >>> sampler = EmpiricalLength((5, 5, 80))
        >>> set(sampler.sample(rng) for _ in range(60)) <= {5, 80}
        True
    """

    population: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.population:
            raise ServingError("EmpiricalLength needs a non-empty population")
        if any(t < 1 for t in self.population):
            raise ServingError("EmpiricalLength lengths must be >= 1")

    def sample(self, rng) -> int:
        return int(self.population[int(rng.integers(len(self.population)))])

    def sample_chunk(self, rng, n: int) -> list[int]:
        population = self.population
        picks = rng.integers(len(population), size=n).tolist()
        return [int(population[i]) for i in picks]


def length_sampler(spec: str) -> LengthSampler:
    """Parse a CLI-style length-distribution spec into a sampler.

    Accepted forms (see ``docs/CLI.md``):

    * ``fixed:T`` — every request T steps;
    * ``uniform:LO:HI`` — uniform on [LO, HI];
    * ``zipf:LO:HI`` / ``zipf:LO:HI:ALPHA`` — Zipf on [LO, HI];
    * ``trace:PATH`` — empirical, resampled from a recorded JSONL trace.

    Example::

        >>> from repro.serving import length_sampler
        >>> length_sampler("zipf:10:200:1.5").alpha
        1.5
        >>> length_sampler("uniform:10:50").hi
        50
    """
    kind, _, rest = spec.partition(":")
    fields = rest.split(":") if rest else []
    try:
        if kind == "fixed" and len(fields) == 1:
            return FixedLength(int(fields[0]))
        if kind == "uniform" and len(fields) == 2:
            return UniformLength(int(fields[0]), int(fields[1]))
        if kind == "zipf" and len(fields) in (2, 3):
            alpha = float(fields[2]) if len(fields) == 3 else 1.2
            return ZipfLength(int(fields[0]), int(fields[1]), alpha)
        if kind == "trace" and rest:
            return lengths_from_trace(rest)
    except ValueError as exc:
        raise ServingError(f"bad length-distribution spec {spec!r}: {exc}") from exc
    raise ServingError(
        f"bad length-distribution spec {spec!r}; expected fixed:T, "
        f"uniform:LO:HI, zipf:LO:HI[:ALPHA], or trace:PATH"
    )


def length_band(timesteps: int, band_base: float = 2.0) -> tuple[int, int]:
    """The inclusive geometric band ``[lo, hi]`` containing ``timesteps``.

    Bands partition lengths into ``[base^k, base^(k+1))`` intervals —
    the grouping used by the ``bucket`` batcher and by
    :meth:`StreamReport.per_length_band
    <repro.serving.engine.StreamReport.per_length_band>`.  Edges are
    found by exact multiplication up from 1 rather than a float
    logarithm, so boundary lengths land in the right band (``floor(log)``
    puts 1000 in base-10 band 2 because ``log10(1000)`` rounds below 3).

    Example::

        >>> from repro.serving import length_band
        >>> (length_band(15), length_band(16), length_band(1))
        ((8, 15), (16, 31), (1, 1))
        >>> length_band(1000, band_base=10)
        (1000, 9999)
    """
    if band_base <= 1.0:
        raise ServingError("band_base must be > 1")
    if timesteps < 1:
        raise ServingError("timesteps must be >= 1")
    lo = 1.0
    while lo * band_base <= timesteps:
        lo *= band_base
    return math.ceil(lo), math.ceil(lo * band_base) - 1


def lengths_from_trace(path: str | Path) -> EmpiricalLength:
    """Build an empirical length sampler from a recorded trace's
    per-request ``timesteps`` (see :func:`record_trace`).

    Example::

        >>> import os, tempfile
        >>> from repro.serving import (lengths_from_trace, record_trace,
        ...                            uniform_arrivals)
        >>> from repro.workloads.deepbench import task
        >>> reqs = uniform_arrivals(task("lstm", 512, 25),
        ...                         rate_per_s=10, n_requests=3)
        >>> p = os.path.join(tempfile.mkdtemp(), "t.jsonl")
        >>> lengths_from_trace(record_trace(reqs, p)).population
        (25, 25, 25)
    """
    return EmpiricalLength(
        tuple(req.task.timesteps for req in replay_trace(path))
    )


def _request_stream(
    times: Iterator[float],
    n_requests: int,
    task: RNNTask,
    start_s: float,
    tenant: str,
    priority: int,
    slo_ms: float | None,
    lengths: LengthSampler | None,
    seed: int,
) -> Iterator[ServeRequest]:
    """Wrap a lazy stream of ``n_requests`` arrival times into tagged requests.

    Requests are built by the unchecked ``_trusted_request``: the caller
    has run :func:`_check_stream_args`, and each arrival is range-checked
    here, so a bad stream still fails with the public constructor's error.

    Length sampling draws from its own seeded RNG stream
    (``(seed, _LENGTH_STREAM)``), so attaching a distribution never
    perturbs the arrival times.  Lengths come from
    :meth:`LengthSampler.sample_chunk` in chunks of at most
    :data:`_CHUNK`, never more than the stream still needs, and equal the
    historical one-``sample``-per-request sequence.  Each distinct length
    derives its task variant once per stream.
    """
    if lengths is None:
        for i, t in enumerate(times):
            arrival = start_s + t
            if not 0.0 <= arrival < _INF:
                raise _arrival_error(arrival)
            yield _trusted_request(task, arrival, i, tenant, priority, slo_ms)
        return
    import numpy as np

    rng = np.random.default_rng((seed, _LENGTH_STREAM))
    variants: dict[int, RNNTask] = {}
    times = iter(times)
    i = 0
    remaining = n_requests
    while remaining:
        n = min(_CHUNK, remaining)
        chunk = lengths.sample_chunk(rng, n)
        if len(chunk) != n:
            raise ServingError(
                f"{type(lengths).__name__}.sample_chunk returned "
                f"{len(chunk)} lengths, {n} were asked for"
            )
        remaining -= n
        for timesteps, t in zip(chunk, times):
            variant = variants.get(timesteps)
            if variant is None:
                variant = variants[timesteps] = task.with_timesteps(timesteps)
            arrival = start_s + t
            if not 0.0 <= arrival < _INF:
                raise _arrival_error(arrival)
            yield _trusted_request(variant, arrival, i, tenant, priority, slo_ms)
            i += 1


def _poisson_times(rate_per_s: float, n_requests: int, seed: int) -> Iterator[float]:
    """Exponential inter-arrival times, drawn lazily in chunks.

    Chunked ``Generator.exponential`` draws are bit-identical to one
    ``size=n`` draw, and the Python running sum is the same sequential
    IEEE-754 addition ``np.cumsum`` performs — so the lazy stream equals
    the historical materialized one float for float.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    scale = 1.0 / rate_per_s
    t = 0.0
    remaining = n_requests
    while remaining:
        draw = rng.exponential(scale, size=min(_CHUNK, remaining))
        remaining -= len(draw)
        for gap in draw.tolist():
            t += gap
            yield t


def poisson_arrivals(
    task: RNNTask,
    *,
    rate_per_s: float,
    n_requests: int,
    seed: int = 0,
    start_s: float = 0.0,
    tenant: str = "default",
    priority: int = 0,
    slo_ms: float | None = None,
    lengths: LengthSampler | None = None,
    materialize: bool = True,
) -> "tuple[ServeRequest, ...] | Iterator[ServeRequest]":
    """A Poisson request stream for one task (exponential inter-arrivals).

    The same seed at two different rates yields time-scaled copies of the
    same stream, which keeps rate sweeps comparable.  ``lengths`` draws a
    per-request ``timesteps`` override from its own seeded stream, so
    arrival times are identical with or without it.

    ``materialize=False`` returns a lazy generator producing the *same
    requests* one at a time (RNG draws are chunked internally), so a
    multi-million-request stream can feed ``serve_stream(...,
    presorted=True)`` in O(1) memory.

    Example::

        >>> from repro.serving import poisson_arrivals
        >>> from repro.workloads.deepbench import task
        >>> reqs = poisson_arrivals(task("lstm", 512, 25),
        ...                         rate_per_s=100, n_requests=5, seed=0)
        >>> (len(reqs), reqs[0].tenant, reqs[0].request_id)
        (5, 'default', 0)
        >>> all(a.arrival_s < b.arrival_s for a, b in zip(reqs, reqs[1:]))
        True
        >>> lazy = poisson_arrivals(task("lstm", 512, 25), rate_per_s=100,
        ...                         n_requests=5, seed=0, materialize=False)
        >>> tuple(lazy) == reqs
        True
    """
    _check_stream_args(n_requests, start_s, slo_ms, rate_per_s=rate_per_s)
    stream = _request_stream(
        _poisson_times(rate_per_s, n_requests, seed), n_requests,
        task, start_s, tenant, priority, slo_ms, lengths, seed,
    )
    return tuple(stream) if materialize else stream


def _uniform_times(rate_per_s: float, n_requests: int) -> Iterator[float]:
    period = 1.0 / rate_per_s
    for i in range(n_requests):
        yield (i + 1) * period


def uniform_arrivals(
    task: RNNTask,
    *,
    rate_per_s: float,
    n_requests: int,
    start_s: float = 0.0,
    tenant: str = "default",
    priority: int = 0,
    slo_ms: float | None = None,
    seed: int = 0,
    lengths: LengthSampler | None = None,
    materialize: bool = True,
) -> "tuple[ServeRequest, ...] | Iterator[ServeRequest]":
    """A deterministic evenly-spaced request stream for one task.

    ``seed`` only feeds the optional ``lengths`` sampler — the arrival
    times themselves are deterministic.  ``materialize=False`` returns
    the same stream as a lazy generator.

    Example::

        >>> from repro.serving import uniform_arrivals
        >>> from repro.workloads.deepbench import task
        >>> reqs = uniform_arrivals(task("lstm", 512, 25),
        ...                         rate_per_s=10, n_requests=3)
        >>> [round(r.arrival_s, 3) for r in reqs]
        [0.1, 0.2, 0.3]
    """
    _check_stream_args(n_requests, start_s, slo_ms, rate_per_s=rate_per_s)
    stream = _request_stream(
        _uniform_times(rate_per_s, n_requests), n_requests,
        task, start_s, tenant, priority, slo_ms, lengths, seed,
    )
    return tuple(stream) if materialize else stream


def mmpp_arrivals(
    task: RNNTask,
    *,
    quiet_rate_per_s: float,
    burst_rate_per_s: float,
    n_requests: int,
    quiet_dwell_s: float = 0.25,
    burst_dwell_s: float = 0.05,
    seed: int = 0,
    start_s: float = 0.0,
    tenant: str = "default",
    priority: int = 0,
    slo_ms: float | None = None,
    lengths: LengthSampler | None = None,
    materialize: bool = True,
) -> "tuple[ServeRequest, ...] | Iterator[ServeRequest]":
    """A two-state Markov-modulated Poisson process (quiet vs burst).

    The process alternates between a quiet state and a burst state; dwell
    times in each state are exponential with the given means, and within
    a state arrivals are Poisson at that state's rate.  The result is the
    bursty traffic real interactive services see: long stretches near the
    quiet rate punctuated by short storms at the burst rate.

    Example::

        >>> from repro.serving import mmpp_arrivals
        >>> from repro.workloads.deepbench import task
        >>> t = task("lstm", 512, 25)
        >>> reqs = mmpp_arrivals(t, quiet_rate_per_s=50, burst_rate_per_s=2000,
        ...                      n_requests=20, seed=1)
        >>> len(reqs)
        20
        >>> reqs == mmpp_arrivals(t, quiet_rate_per_s=50,
        ...                       burst_rate_per_s=2000, n_requests=20, seed=1)
        True
    """
    _check_stream_args(
        n_requests, start_s, slo_ms,
        quiet_rate_per_s=quiet_rate_per_s,
        burst_rate_per_s=burst_rate_per_s,
        quiet_dwell_s=quiet_dwell_s,
        burst_dwell_s=burst_dwell_s,
    )

    def times() -> Iterator[float]:
        import numpy as np

        rng = np.random.default_rng(seed)
        rates = (quiet_rate_per_s, burst_rate_per_s)
        dwells = (quiet_dwell_s, burst_dwell_s)
        state = 0
        t = 0.0
        state_end = float(rng.exponential(dwells[state]))
        produced = 0
        while produced < n_requests:
            gap = float(rng.exponential(1.0 / rates[state]))
            if t + gap < state_end:
                t += gap
                produced += 1
                yield t
            else:
                # No arrival before the state flips; jump to the boundary.
                t = state_end
                state = 1 - state
                state_end = t + float(rng.exponential(dwells[state]))

    stream = _request_stream(
        times(), n_requests, task, start_s, tenant, priority, slo_ms, lengths, seed
    )
    return tuple(stream) if materialize else stream


def diurnal_arrivals(
    task: RNNTask,
    *,
    base_rate_per_s: float,
    peak_rate_per_s: float,
    period_s: float,
    n_requests: int,
    seed: int = 0,
    start_s: float = 0.0,
    tenant: str = "default",
    priority: int = 0,
    slo_ms: float | None = None,
    lengths: LengthSampler | None = None,
    materialize: bool = True,
) -> "tuple[ServeRequest, ...] | Iterator[ServeRequest]":
    """A sinusoidal rate ramp: a compressed day/night traffic cycle.

    Generates a non-homogeneous Poisson process via thinning against the
    peak rate, with ``rate(t) = base + (peak - base) * (1 - cos(2*pi*t /
    period)) / 2`` — the stream starts at the base rate, crests at the
    peak half a period in, and returns to base.

    Example::

        >>> from repro.serving import diurnal_arrivals
        >>> from repro.workloads.deepbench import task
        >>> reqs = diurnal_arrivals(task("lstm", 512, 25),
        ...                         base_rate_per_s=20, peak_rate_per_s=500,
        ...                         period_s=2.0, n_requests=30, seed=4)
        >>> (len(reqs), reqs[0].arrival_s > 0)
        (30, True)
    """
    _check_stream_args(
        n_requests, start_s, slo_ms,
        base_rate_per_s=base_rate_per_s,
        peak_rate_per_s=peak_rate_per_s,
        period_s=period_s,
    )
    if peak_rate_per_s < base_rate_per_s:
        raise ServingError("peak_rate_per_s must be >= base_rate_per_s")

    def times() -> Iterator[float]:
        import numpy as np

        rng = np.random.default_rng(seed)
        swing = peak_rate_per_s - base_rate_per_s
        t = 0.0
        produced = 0
        while produced < n_requests:
            t += float(rng.exponential(1.0 / peak_rate_per_s))
            rate = base_rate_per_s + swing * (
                1.0 - math.cos(2.0 * math.pi * t / period_s)
            ) / 2.0
            if float(rng.uniform()) * peak_rate_per_s <= rate:
                produced += 1
                yield t

    stream = _request_stream(
        times(), n_requests, task, start_s, tenant, priority, slo_ms, lengths, seed
    )
    return tuple(stream) if materialize else stream


def _renumbered(req: ServeRequest, request_id: int) -> ServeRequest:
    """``req`` with a new id.  A valid request stays valid, so a plain
    one is rebuilt unchecked; a subclass keeps its type via ``replace``."""
    if type(req) is ServeRequest:
        return _trusted_request(
            req.task, req.arrival_s, request_id, req.tenant, req.priority, req.slo_ms
        )
    return replace(req, request_id=request_id)


def _checked(stream: Iterable[ServeRequest], stream_idx: int) -> Iterator[ServeRequest]:
    """``mix``'s view of one input stream: its items, which must be requests."""
    for req in stream:
        if not isinstance(req, ServeRequest):
            raise ServingError(
                f"mix stream {stream_idx} yielded a {type(req).__name__}, "
                f"not a ServeRequest"
            )
        yield req


def _lazy_mix(streams: tuple[Iterable[ServeRequest], ...]) -> Iterator[ServeRequest]:
    """K-way merge of already-sorted streams, renumbered on the fly.

    ``heapq.merge`` breaks arrival-time ties by stream position, and each
    sorted input stream is already in ``(arrival_s, request_id)`` order,
    so the merged order matches the eager path's
    ``(arrival_s, stream_idx, request_id)`` sort key exactly.
    """
    merged = heapq.merge(
        *(_checked(stream, idx) for idx, stream in enumerate(streams)),
        key=operator.attrgetter("arrival_s"),
    )
    for new_id, req in enumerate(merged):
        yield _renumbered(req, new_id)


def mix(
    *streams: Iterable[ServeRequest], presorted: bool = False
) -> "tuple[ServeRequest, ...] | Iterator[ServeRequest]":
    """Interleave several streams into one multi-tenant workload.

    Requests are merged in arrival order (ties break by stream position,
    then by original id) and re-numbered with globally unique
    ``request_id``s — the per-stream ids almost always collide, and the
    event loop rejects duplicate ids outright.  Tenant, priority, and
    per-request SLO tags are preserved.

    With ``presorted=True`` the inputs are promised to be individually
    time-ordered (every built-in generator is — including their
    ``materialize=False`` lazy forms) and the merge happens lazily with
    O(#streams) memory, returning a generator suitable for
    ``serve_stream(..., presorted=True)``.

    Example::

        >>> from repro.serving import mix, uniform_arrivals
        >>> from repro.workloads.deepbench import task
        >>> t = task("lstm", 512, 25)
        >>> merged = mix(
        ...     uniform_arrivals(t, rate_per_s=10, n_requests=3, tenant="a"),
        ...     uniform_arrivals(t, rate_per_s=10, n_requests=3, tenant="b"))
        >>> [r.request_id for r in merged]       # globally re-numbered
        [0, 1, 2, 3, 4, 5]
        >>> [r.tenant for r in merged]
        ['a', 'b', 'a', 'b', 'a', 'b']
    """
    if not streams:
        raise ServingError("mix needs at least one stream")
    if presorted:
        return _lazy_mix(streams)
    tagged = [
        (req.arrival_s, stream_idx, req.request_id, req)
        for stream_idx, stream in enumerate(streams)
        for req in _checked(stream, stream_idx)
    ]
    if not tagged:
        raise ServingError("mix needs at least one request across its streams")
    tagged.sort(key=lambda item: item[:3])
    return tuple(
        _renumbered(req, new_id) for new_id, (_, _, _, req) in enumerate(tagged)
    )


#: Trace schema version, recorded on every line for forward compatibility.
#: v2 added ``layers``/``decoder_timesteps`` and dropped the always-1
#: ``batch`` field; v1 traces still replay (a non-1 ``batch`` is
#: rejected — per-request batching was never representable).
_TRACE_VERSION = 2


def request_to_json(req: ServeRequest) -> dict:
    """One request as a trace-schema dict (the JSONL wire format).

    The same schema serves two transports: trace files
    (:func:`record_trace`) and the live server's socket protocol
    (:class:`~repro.serving.server.ServingServer`) — a recorded trace
    can be replayed against a socket with no translation.

    Example::

        >>> from repro.serving import ServeRequest, request_to_json
        >>> from repro.workloads.deepbench import task
        >>> rec = request_to_json(ServeRequest(task=task("lstm", 512, 25)))
        >>> (rec["v"], rec["kind"], rec["hidden"], rec["tenant"])
        (2, 'lstm', 512, 'default')
    """
    return {
        "v": _TRACE_VERSION,
        "kind": req.task.kind,
        "hidden": req.task.hidden,
        "timesteps": req.task.timesteps,
        "layers": req.task.layers,
        "decoder_timesteps": req.task.decoder_timesteps,
        "in_table6": req.task.in_table6,
        "arrival_s": req.arrival_s,
        "request_id": req.request_id,
        "tenant": req.tenant,
        "priority": req.priority,
        "slo_ms": req.slo_ms,
    }


def request_from_json(rec: dict, *, where: str = "request record") -> ServeRequest:
    """Parse one trace-schema dict back into a :class:`ServeRequest`.

    The inverse of :func:`request_to_json`, shared by trace replay and
    the live server.  ``where`` names the source in error messages
    (trace line, socket peer).  Raises
    :class:`~repro.errors.ServingError` on malformed records — *every*
    malformed record: non-dict JSON values and records whose fields
    fail task validation (an unknown kind, a non-positive size) land
    here too, so a trace replayer or socket handler catching
    ``ServingError`` really does survive arbitrary input.

    Example::

        >>> from repro.serving import ServeRequest, request_from_json
        >>> from repro.serving import request_to_json
        >>> from repro.workloads.deepbench import task
        >>> req = ServeRequest(task=task("gru", 256, 50), tenant="asr")
        >>> request_from_json(request_to_json(req)) == req
        True
        >>> request_from_json([1, 2])
        Traceback (most recent call last):
            ...
        repro.errors.ServingError: bad request record: expected a JSON \
object, got list
    """
    if not isinstance(rec, dict):
        raise ServingError(
            f"bad {where}: expected a JSON object, got {type(rec).__name__}"
        )
    if rec.get("batch", 1) != 1:
        # v1 recorded the (removed, always-1) RNNTask.batch field.
        raise ServingError(
            f"{where} carries batch={rec['batch']}; per-request "
            f"batch sizes were never supported — batching is a "
            f"serving policy, not a task attribute"
        )
    try:
        return ServeRequest(
            task=RNNTask(
                rec["kind"],
                rec["hidden"],
                rec["timesteps"],
                layers=rec.get("layers", 1),
                decoder_timesteps=rec.get("decoder_timesteps", 0),
                in_table6=rec.get("in_table6", True),
            ),
            arrival_s=rec["arrival_s"] if rec.get("arrival_s") is not None else 0.0,
            request_id=rec.get("request_id", 0),
            tenant=rec.get("tenant", "default"),
            priority=rec.get("priority", 0),
            slo_ms=rec.get("slo_ms"),
        )
    except (ServingError, KeyError, TypeError, ValueError, WorkloadError) as exc:
        # WorkloadError: RNNTask validation (unknown kind, bad sizes)
        # must not escape as a non-serving exception past a handler
        # that promised ServingError for malformed records; the
        # request's own checks (arrival, SLO) get the source named too.
        raise ServingError(f"bad {where}: {exc}") from exc


def record_trace(requests: Iterable[ServeRequest], path: str | Path) -> Path:
    """Write a stream to a JSONL trace file (one request per line).

    Floats are serialized with ``repr`` precision, so
    :func:`replay_trace` reproduces the exact same requests — and
    therefore the exact same :class:`~repro.serving.engine.StreamReport`.

    Example::

        >>> import os, tempfile
        >>> from repro.serving import record_trace, replay_trace, uniform_arrivals
        >>> from repro.workloads.deepbench import task
        >>> reqs = uniform_arrivals(task("lstm", 512, 25),
        ...                         rate_per_s=10, n_requests=3)
        >>> path = os.path.join(tempfile.mkdtemp(), "stream.jsonl")
        >>> replay_trace(record_trace(reqs, path)) == reqs
        True
    """
    path = Path(path)
    # Written line by line so recording a lazy multi-million-request
    # stream never materializes it — but into a sibling temp file that
    # only replaces ``path`` on success, so an empty stream or a
    # mid-stream generator failure cannot clobber an existing trace.
    tmp = path.parent / (path.name + ".partial")
    try:
        n = 0
        with tmp.open("w") as handle:
            for req in requests:
                handle.write(
                    json.dumps(request_to_json(req), sort_keys=True) + "\n"
                )
                n += 1
        if not n:
            raise ServingError("refusing to record an empty trace")
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    tmp.replace(path)
    return path


def _parse_trace_line(line: str, lineno: int, path: Path) -> ServeRequest:
    where = f"trace line {lineno} in {path}"
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServingError(f"bad {where}: {exc}") from exc
    return request_from_json(rec, where=where)


def _iter_trace(path: Path) -> Iterator[ServeRequest]:
    n = 0
    with path.open() as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            yield _parse_trace_line(line, lineno, path)
            n += 1
    if not n:
        raise ServingError(f"trace {path} holds no requests")


def iter_trace(path: str | Path) -> Iterator[ServeRequest]:
    """Stream a JSONL trace lazily, one request at a time.

    The streaming counterpart of :func:`replay_trace`: the file is read
    line by line, so replaying a multi-gigabyte trace through
    ``serve_stream(..., presorted=True, mode="summary")`` never loads it
    into memory.  Parsing, validation, and error messages are identical
    to :func:`replay_trace` (which is just ``tuple(iter_trace(path))``).

    Example::

        >>> import os, tempfile
        >>> from repro.serving import iter_trace, record_trace, uniform_arrivals
        >>> from repro.workloads.deepbench import task
        >>> reqs = uniform_arrivals(task("lstm", 512, 25),
        ...                         rate_per_s=10, n_requests=3)
        >>> p = record_trace(reqs, os.path.join(tempfile.mkdtemp(), "t.jsonl"))
        >>> tuple(iter_trace(p)) == reqs
        True
    """
    path = Path(path)
    if not path.exists():
        raise ServingError(f"trace file not found: {path}")
    return _iter_trace(path)


def replay_trace(path: str | Path) -> tuple[ServeRequest, ...]:
    """Load a JSONL trace back into the identical request stream.

    Example::

        >>> from repro.serving import replay_trace
        >>> from repro.errors import ServingError
        >>> try:
        ...     replay_trace("no/such/trace.jsonl")
        ... except ServingError as exc:
        ...     print("rejected")
        rejected
    """
    return tuple(iter_trace(path))
