"""O(1)-memory online statistics for million-request streams.

:class:`~repro.serving.engine.StreamReport` materializes every
:class:`~repro.serving.request.ServeResponse` and sorts full sojourn
lists, so its memory grows linearly with the stream — fine for the
~10k-request runs the paper's tables need, infeasible for the
datacenter-scale traces the ROADMAP targets.  This module is the O(1)
alternative: :class:`StreamSummary` mirrors the ``StreamReport`` API
(percentiles, SLO attainment, padding waste, per-tenant /
per-priority / per-length-band slices) from a fixed-size set of online
accumulators, so ``serve_stream(..., mode="summary")`` can consume a
10M-request stream without ever holding it.  Both derive every other
figure (rates, energy, $/1M, SLO, slices) through one shared base class.

Design:

* **One accumulator per request class.**  Requests are grouped by
  ``(task, tenant, priority, slo_ms)``; each class keeps exact integer
  counters (count, SLO misses, batch sizes, padding FLOPs),
  exact running float sums (sojourn, queueing delay, service time), and
  exact min/max.  Every report-level figure that is a sum or a count —
  ``n_requests``, ``slo_attainment``, ``mean_batch_size``,
  ``padding_waste_frac`` — therefore matches the materialized report
  *exactly*; float means agree to reordering (summation order differs).
  The root summary and every slice are rollups over class accumulators,
  so one update per request feeds all breakdowns at once.
* **A run folds as one update.**  Batch-1 requests of one class that
  executed back to back on one replica all land in one accumulator, so
  :meth:`StreamSummary.observe_run` folds such a run with numpy rather
  than one :meth:`~StreamSummary.observe_served` call per request, and
  ends in the same state bit for bit: its sums add in the same
  left-to-right order (``np.add.accumulate`` seeded with the running
  total, where ``np.sum`` would add pairwise), and a sojourn whose
  vector ``log10`` lies within a hair of a bucket edge is re-binned with
  :func:`math.log10`.  It takes only a class that has spilled its exact
  reservoir on one platform, so it never touches the reservoir or the
  per-platform sums.  The one-replica FIFO loop of
  :func:`repro.serving.events.run_stream` folds requests one by one in
  chunks of 32 and hands it the rest of a run once such a class has
  filled a whole chunk: a shorter run costs less that way.
* **Fixed-bucket log histogram for quantiles** (the mergeable
  alternative to the P² estimator, whose markers cannot be combined
  across slices).  Sojourns land in geometric buckets of ratio
  ``10^(1/128)`` (~1.8% wide), so a quantile read is within ~1% of the
  exact order statistic; each class additionally keeps its first
  :data:`EXACT_SAMPLE_CAP` sojourns verbatim, so small streams — and
  small slices of huge streams — report *exact* numpy-style
  interpolated percentiles.

Example::

    >>> from repro.serving import ServingEngine, uniform_arrivals
    >>> from repro.workloads.deepbench import task
    >>> summary = ServingEngine("gpu").serve_stream(
    ...     uniform_arrivals(task("lstm", 512, 25),
    ...                      rate_per_s=100, n_requests=50),
    ...     slo_ms=5.0, mode="summary")
    >>> (summary.n_requests, summary.scheduler, summary.batcher)
    (50, 'fifo', 'none')
    >>> summary.p50_ms <= summary.p99_ms
    True
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import ServingError
from repro.platforms import ELECTRICITY_USD_PER_KWH, device_usd_per_hour, tdp_of
from repro.serving.request import ServeRequest
from repro.serving.result import FaultStats, ServingResult
from repro.serving.traffic import length_band

if TYPE_CHECKING:  # pragma: no cover
    from repro.serving.autoscaler import ScaleEvent
    from repro.workloads.deepbench import RNNTask

__all__ = ["StreamSummary", "percentile", "EXACT_SAMPLE_CAP"]

#: Per-class exact reservoir: a class (and any slice made only of such
#: classes) with at most this many requests reports exact percentiles.
EXACT_SAMPLE_CAP = 64

#: Histogram geometry: log10-spaced buckets covering sojourns from
#: 1e-4 ms to 1e7 ms at 128 buckets per decade (~1.8% bucket ratio).
_HIST_LO_EXP = -4.0
_HIST_PER_DECADE = 128
_HIST_BUCKETS = 11 * _HIST_PER_DECADE
_HIST_RATIO = 10.0 ** (1.0 / _HIST_PER_DECADE)


_log10 = math.log10

#: How close, in buckets, a vector-computed scaled log may come to a
#: bucket edge before the run fold re-bins it with :func:`math.log10`
#: (``np.log10`` may differ from it in the last ulp: under 1e-12 once
#: scaled).
_EDGE_TOL = 1e-9


def _bucket_index(value_ms: float) -> int:
    """Histogram bucket for a sojourn (clamped at both ends: a zero
    sojourn, which has no log, lands in bucket 0)."""
    if not value_ms > 0.0:
        return 0
    idx = int((_log10(value_ms) - _HIST_LO_EXP) * _HIST_PER_DECADE)
    if idx < 0:
        return 0
    if idx >= _HIST_BUCKETS:
        return _HIST_BUCKETS - 1
    return idx


def _running_sum(total: float, values: np.ndarray) -> float:
    """``total + values[0] + values[1] + ...``, added left to right as
    the per-request fold adds them (``np.sum`` adds pairwise, which
    rounds differently).  Overwrites ``values`` with the running sums."""
    values[0] += total
    return float(np.add.accumulate(values, out=values)[-1])


def _add_to_buckets(counts: "list[int]", sojourn_ms: np.ndarray) -> None:
    """Count each sojourn in its :func:`_bucket_index` bucket, by numpy.

    ``np.log10`` may differ from :func:`math.log10` in the last ulp, which
    moves a value right at a bucket edge, so each value whose scaled log
    lies within :data:`_EDGE_TOL` of an integer is binned by
    :func:`_bucket_index` itself.
    """
    # A zero sojourn has no log: it lands below the range, in bucket 0.
    scaled = np.full(len(sojourn_ms), _HIST_LO_EXP - 1.0)
    np.log10(sojourn_ms, out=scaled, where=sojourn_ms > 0.0)
    scaled -= _HIST_LO_EXP
    scaled *= _HIST_PER_DECADE
    off_edge = np.rint(scaled)
    off_edge -= scaled
    near_edge = np.flatnonzero(np.abs(off_edge, out=off_edge) < _EDGE_TOL)
    idx = np.clip(scaled, 0, _HIST_BUCKETS - 1, out=scaled).astype(np.intp)
    for i in near_edge.tolist():
        idx[i] = _bucket_index(float(sojourn_ms[i]))
    hist = np.bincount(idx)
    filled = np.flatnonzero(hist)
    for i, c in zip(filled.tolist(), hist[filled].tolist()):
        counts[i] += c


def percentile(sorted_values: "list[float] | tuple[float, ...]", q: float) -> float:
    """Linear-interpolation percentile (numpy's default) on sorted data.

    Example::

        >>> from repro.serving.stats import percentile
        >>> percentile([1.0, 2.0, 3.0, 4.0], 50)
        2.5
    """
    if not sorted_values:
        raise ServingError("percentile of an empty stream")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (q / 100.0) * (len(sorted_values) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    frac = rank - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


class _ClassAcc:
    """Online accumulator for one request class.

    A class is the finest slice the summary can report:
    ``(task, tenant, priority, request-level slo, outcome)``.
    Everything the summary (or any of its tenant/priority/length-band/
    outcome rollups) exposes is derived by merging these.  ``outcome``
    is ``"ok"`` everywhere outside fault-injected runs, so faultless
    grouping is unchanged.
    """

    __slots__ = (
        "tenant",
        "priority",
        "outcome",
        "slo_key",
        "eff_slo_ms",
        "timesteps",
        "useful_flops",
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
        "platform",
        "plat",
    )

    def __init__(
        self,
        tenant: str,
        priority: int,
        slo_key: float | None,
        eff_slo_ms: float | None,
        timesteps: int,
        useful_flops: int,
        outcome: str = "ok",
    ) -> None:
        self.tenant = tenant
        self.priority = priority
        self.outcome = outcome
        #: The request-level ``slo_ms`` tag (before the stream fallback).
        self.slo_key = slo_key
        #: The SLO requests of this class are judged against (request
        #: tag, falling back to the stream SLO), ``None`` when neither
        #: is configured.
        self.eff_slo_ms = eff_slo_ms
        self.timesteps = timesteps
        self.useful_flops = useful_flops
        self.n = 0
        self.sojourn_sum_ms = 0.0
        self.queue_sum_s = 0.0
        self.service_sum_s = 0.0
        self.batch_sum = 0
        self.batch_max = 0
        self.miss = 0
        #: FLOPs executed beyond the useful ones: the padding of requests
        #: that ran inside a longer batch.
        self.pad_flops = 0
        self.max_arrival_s = 0.0
        self.max_finish_s = 0.0
        self.min_sojourn_ms = math.inf
        self.max_sojourn_ms = 0.0
        #: Exact sojourns until the class outgrows the reservoir, then
        #: ``None`` (spilled into ``counts``).
        self.samples: list[float] | None = []
        self.counts: list[int] | None = None
        #: Which hardware actually served this class's requests (energy
        #: attribution and per-platform capacity on mixed fleets), read
        #: through :meth:`platform_service`.  While one platform has
        #: served them all, ``platform`` names it, its sums are the
        #: class's own ``service_sum_s`` and ``n``, and ``plat`` is
        #: ``None``: the fold skips the per-platform dict.  From a second
        #: platform on, ``plat`` maps each to ``[service_sum_s, count]``
        #: and ``platform`` is ``None``.
        self.platform: str | None = None
        self.plat: dict[str, list] | None = None

    def add_sojourn(self, sojourn_ms: float) -> None:
        samples = self.samples
        if samples is not None:
            samples.append(sojourn_ms)
            if len(samples) > EXACT_SAMPLE_CAP:
                self._promote()
        else:
            self.counts[_bucket_index(sojourn_ms)] += 1  # type: ignore[index]

    def add_platform(self, platform: str, service_s: float) -> None:
        """Attribute one request's service to ``platform``.

        The fold calls this only when ``platform`` is not the class's
        single platform so far, and before ``n`` and ``service_sum_s``
        count the request.
        """
        if self.plat is None and not self.n:  # the class's first request
            self.platform = platform
            return
        plat = self._per_platform()
        entry = plat.get(platform)
        if entry is None:
            plat[platform] = [service_s, 1]
        else:
            entry[0] += service_s
            entry[1] += 1

    def platform_service(self) -> "dict[str, list]":
        """Executing platform -> ``[service_sum_s, count]``, as a new dict."""
        if self.plat is None:
            return {self.platform: [self.service_sum_s, self.n]}
        return {name: list(entry) for name, entry in self.plat.items()}

    def takes_runs(self, platform: str) -> bool:
        """Whether a run of this class on ``platform`` may fold at once
        (:meth:`StreamSummary.observe_run`): the exact reservoir has
        spilled, so each sojourn only counts in a bucket, and
        ``platform`` alone has served the class, so the run adds to the
        class's own sums."""
        return self.samples is None and self.platform == platform

    def _per_platform(self) -> "dict[str, list]":
        """The per-platform dict, built from the class's own sums if this
        is the first time a second platform shows up."""
        if self.plat is None:
            self.plat = self.platform_service()
            self.platform = None
        return self.plat

    def _promote(self) -> None:
        """Spill the exact reservoir into histogram buckets."""
        counts = [0] * _HIST_BUCKETS
        for value in self.samples:  # type: ignore[union-attr]
            counts[_bucket_index(value)] += 1
        self.counts = counts
        self.samples = None

    def clone(self) -> "_ClassAcc":
        """A deep-enough copy: merging into the clone never mutates the
        original (the reservoir/histogram lists are copied)."""
        new = _ClassAcc(
            tenant=self.tenant,
            priority=self.priority,
            slo_key=self.slo_key,
            eff_slo_ms=self.eff_slo_ms,
            timesteps=self.timesteps,
            useful_flops=self.useful_flops,
            outcome=self.outcome,
        )
        for name in (
            "n", "sojourn_sum_ms", "queue_sum_s", "service_sum_s",
            "batch_sum", "batch_max", "miss", "pad_flops",
            "max_arrival_s", "max_finish_s", "min_sojourn_ms",
            "max_sojourn_ms", "platform",
        ):
            setattr(new, name, getattr(self, name))
        new.samples = None if self.samples is None else list(self.samples)
        new.counts = None if self.counts is None else list(self.counts)
        new.plat = None if self.plat is None else self.platform_service()
        return new

    def absorb(self, other: "_ClassAcc") -> None:
        """Fold another accumulator of the *same class* into this one.

        Counters and sums add; extrema combine; the reservoir stays
        exact while the combined count fits :data:`EXACT_SAMPLE_CAP` and
        promotes to histogram buckets beyond it — the same threshold a
        single-stream accumulator applies, so a merged summary is in the
        identical samples-vs-counts state as the run it reassembles
        (which is what makes merged quantiles match the single-process
        run exactly, not just within tolerance).
        """
        if other.plat is not None or other.platform != self.platform:
            # Mixed hardware: per-platform sums, before n counts other's.
            plat = self._per_platform()
            for name, entry in other.platform_service().items():
                mine = plat.get(name)
                if mine is None:
                    plat[name] = entry
                else:
                    mine[0] += entry[0]
                    mine[1] += entry[1]
        self.n += other.n
        self.sojourn_sum_ms += other.sojourn_sum_ms
        self.queue_sum_s += other.queue_sum_s
        self.service_sum_s += other.service_sum_s
        self.batch_sum += other.batch_sum
        self.miss += other.miss
        self.pad_flops += other.pad_flops
        if other.batch_max > self.batch_max:
            self.batch_max = other.batch_max
        if other.max_arrival_s > self.max_arrival_s:
            self.max_arrival_s = other.max_arrival_s
        if other.max_finish_s > self.max_finish_s:
            self.max_finish_s = other.max_finish_s
        if other.min_sojourn_ms < self.min_sojourn_ms:
            self.min_sojourn_ms = other.min_sojourn_ms
        if other.max_sojourn_ms > self.max_sojourn_ms:
            self.max_sojourn_ms = other.max_sojourn_ms
        if self.samples is not None and other.samples is not None:
            self.samples.extend(other.samples)
            if len(self.samples) > EXACT_SAMPLE_CAP:
                self._promote()
            return
        # At least one side already spilled: the result is a histogram.
        if self.samples is not None:
            self._promote()
        counts = self.counts
        if other.counts is not None:
            other_counts = other.counts
            for idx in range(_HIST_BUCKETS):
                c = other_counts[idx]
                if c:
                    counts[idx] += c  # type: ignore[index]
        else:
            for value in other.samples:  # type: ignore[union-attr]
                counts[_bucket_index(value)] += 1  # type: ignore[index]


class _StreamFigures:
    """Every figure derived from a stream's primitives, defined once.

    :class:`StreamSummary` (online class accumulators) and
    :class:`~repro.serving.engine.StreamReport` (materialized responses)
    each compute their own primitives, so the summary-vs-report mirror
    tests stay a genuine differential check: ``n_requests``,
    ``replicas``, ``replica_platforms``, ``makespan_s``,
    ``_last_arrival_s``, ``mean_service_ms``, ``slo_miss_rate``,
    ``percentile_ms(q)``, ``_per_platform_service()``, ``_members(field)``
    (``(member, value)`` pairs; ``"slo_key"`` is the request-level SLO
    tag), ``_subset(members)`` (a single-engine sub-report) and ``slo_ms``.
    """

    @property
    def n_replicas(self) -> int:
        return self.replicas

    @property
    def p50_ms(self) -> float:
        return self.percentile_ms(50)

    @property
    def p99_ms(self) -> float:
        return self.percentile_ms(99)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of stream makespan."""
        makespan = self.makespan_s
        if makespan <= 0:
            return math.inf
        return self.n_requests / makespan

    @property
    def offered_rate_per_s(self) -> float:
        """Arrival rate implied by the stream's time span.

        A single request has no rate (0.0); several requests arriving
        at the same instant are an infinite-rate burst.
        """
        span = self._last_arrival_s
        if span > 0:
            return self.n_requests / span
        return 0.0 if self.n_requests == 1 else math.inf

    @property
    def max_rate_per_s(self) -> float:
        """Sustainable rate of the serving capacity the stream used.

        A homogeneous fleet (or one engine) sustains ``replicas /
        mean_service``.  A mixed fleet sums each replica's *own* ``1 /
        mean_service`` under its platform; multiplying a fleet-wide mean
        by the replica count would let a slow edge tier inflate the fast
        tier's capacity and vice versa.  Platforms that served nothing
        fall back to the fleet-wide mean.  With autoscaling this is the
        *peak* capacity the stream reached (``replicas`` engines).
        """
        roster = self.replica_platforms
        if len(set(roster)) <= 1:
            return self.replicas / (self.mean_service_ms / 1e3)
        service, count = self._per_platform_service()
        fleet_mean = sum(service.values()) / self.n_requests
        rate = 0.0
        for name in roster:
            served = count.get(name, 0)
            mean = service[name] / served if served else fleet_mean
            rate += 1.0 / mean
        return rate

    @property
    def saturated(self) -> bool:
        """True when arrivals outpace what the servers can drain."""
        return self.offered_rate_per_s >= self.max_rate_per_s

    # -- energy / TCO accounting ------------------------------------------

    @property
    def per_platform_counts(self) -> "dict[str, int]":
        """Requests served per *executing* platform (the one that ran
        each request), so the values always sum to ``n_requests``."""
        _service, count = self._per_platform_service()
        return dict(sorted(count.items()))

    @property
    def energy_j(self) -> float:
        """Busy energy: each request's share of accelerator time × the
        power of the platform that *executed* it (Table 4/5 measured
        peak when reported, TDP otherwise).  Idle replicas cost nothing
        here; :attr:`fleet_watt_hours` is the provisioned bill."""
        service, _count = self._per_platform_service()
        return sum(
            seconds * tdp_of(name) for name, seconds in service.items()
        )

    @property
    def joules_per_request(self) -> float:
        """Busy energy per inference — the paper-style J/request figure."""
        return self.energy_j / self.n_requests

    @property
    def fleet_watt_hours(self) -> float:
        """Provisioned energy: every replica powered for the makespan.

        This is what the electricity meter sees — a provisioned
        accelerator burns its TDP whether or not the dispatcher sends it
        work — and it is the energy term the TCO model bills.
        """
        watts = sum(tdp_of(name) for name in self.replica_platforms)
        return watts * self.makespan_s / 3600.0

    @property
    def cost_usd_per_1m_requests(self) -> float:
        """Total cost of ownership normalized to one million requests.

        Electricity for the provisioned fleet over the makespan
        (:attr:`fleet_watt_hours` at :data:`ELECTRICITY_USD_PER_KWH`)
        plus linear capital amortization of every provisioned device
        (:func:`repro.platforms.device_usd_per_hour`), divided by the
        requests actually served and scaled to 1M — the objective the
        capacity planner (:mod:`repro.dse.capacity`) minimizes.
        """
        hours = self.makespan_s / 3600.0
        energy_usd = self.fleet_watt_hours / 1e3 * ELECTRICITY_USD_PER_KWH
        capital_usd = hours * sum(
            device_usd_per_hour(name) for name in self.replica_platforms
        )
        return (energy_usd + capital_usd) / self.n_requests * 1e6

    # -- SLO --------------------------------------------------------------

    @property
    def slo_attainment(self) -> float:
        """Fraction of requests that met their SLO (1 - miss rate)."""
        return 1.0 - self.slo_miss_rate

    @property
    def slo_attained(self) -> bool:
        return self.slo_ms is not None and self.p99_ms <= self.slo_ms

    def uniform_slo_ms(self) -> float | None:
        """The single request-level SLO every request carried, if any.

        ``None`` when requests carry mixed (or no) per-request SLO tags —
        callers then fall back to the stream-level SLO.
        """
        tags = self._values("slo_key")
        return tags.pop() if len(tags) == 1 else None

    # -- multi-tenant / multi-class breakdowns ----------------------------

    def _values(self, field: str) -> set:
        return {value for _member, value in self._members(field)}

    def _slices(self, field: str, band_base: float | None = None) -> dict:
        """Sub-reports by ``field`` (or its length band), in key order."""
        groups: dict = {}
        for member, value in self._members(field):
            if band_base is not None:
                value = length_band(value, band_base)
            groups.setdefault(value, []).append(member)
        return {key: self._subset(groups[key]) for key in sorted(groups)}

    @property
    def tenants(self) -> tuple[str, ...]:
        """Sorted tenant names present in the stream."""
        return tuple(sorted(self._values("tenant")))

    @property
    def priorities(self) -> tuple[int, ...]:
        """Sorted priority classes present in the stream."""
        return tuple(sorted(self._values("priority")))

    @property
    def outcomes(self) -> tuple[str, ...]:
        """Sorted outcomes present (``("ok",)`` outside fault runs)."""
        return tuple(sorted(self._values("outcome")))

    def per_tenant(self) -> dict:
        """Sub-reports keyed by tenant, each over that tenant's requests."""
        return self._slices("tenant")

    def per_priority(self) -> dict:
        """Sub-reports keyed by priority class."""
        return self._slices("priority")

    def per_outcome(self) -> dict:
        """Sub-reports keyed by outcome: how fault-injected requests
        left the system (``"ok"``/``"retried"``/``"hedged"``/
        ``"timeout"``); counts always sum to ``n_requests``.

        Example::

            >>> from repro.serving import ServingEngine, uniform_arrivals
            >>> from repro.workloads.deepbench import task
            >>> report = ServingEngine("gpu").serve_stream(
            ...     uniform_arrivals(task("lstm", 512, 25),
            ...                      rate_per_s=100, n_requests=10))
            >>> sorted(report.per_outcome()) == ["ok"]
            True
        """
        return self._slices("outcome")

    def per_length_band(self, band_base: float = 2.0) -> dict:
        """Sub-reports keyed by geometric sequence-length band.

        Requests are grouped by their *own* ``timesteps`` into bands
        ``[base^k, base^(k+1))``, labelled ``"T16-31"`` etc., so tail
        latency can be read per length class — long requests hiding
        behind a healthy global P99 show up here.

        Example::

            >>> from repro.serving import (ServingEngine, ZipfLength,
            ...                            poisson_arrivals)
            >>> from repro.workloads.deepbench import task
            >>> report = ServingEngine("gpu").serve_stream(poisson_arrivals(
            ...     task("lstm", 512, 25), rate_per_s=500, n_requests=40,
            ...     seed=1, lengths=ZipfLength(8, 120)))
            >>> bands = report.per_length_band()
            >>> sum(b.n_requests for b in bands.values()) == report.n_requests
            True
        """
        bands = self._slices("timesteps", band_base)
        return {f"T{lo}-{hi}": sub for (lo, hi), sub in bands.items()}


class StreamSummary(_StreamFigures):
    """O(1)-memory mirror of :class:`~repro.serving.engine.StreamReport`.

    Produced by ``serve_stream(..., mode="summary")``: the event loop
    feeds every completed request through :meth:`observe_served` (or a
    whole run of them through :meth:`observe_run`) and drops it, so
    memory is bounded by the number of distinct request
    *classes* (task x tenant x priority x SLO tag), not by the stream
    length.  Counts and sums (``n_requests``, ``slo_attainment``,
    ``mean_batch_size``, ``padding_waste_frac``, per-slice request
    counts) match the materialized report exactly; ``p50_ms`` /
    ``p99_ms`` are histogram estimates within ~1% (exact while a slice
    holds at most :data:`EXACT_SAMPLE_CAP` requests).

    ``per_tenant()`` / ``per_priority()`` / ``per_length_band()`` return
    sub-summaries over the same accumulators — slicing allocates no
    per-request state either.

    Example::

        >>> from repro.serving import ServingEngine, poisson_arrivals
        >>> from repro.workloads.deepbench import task
        >>> summary = ServingEngine("gpu").serve_stream(
        ...     poisson_arrivals(task("lstm", 512, 25), rate_per_s=500,
        ...                      n_requests=200, seed=1, tenant="tts"),
        ...     slo_ms=5.0, mode="summary")
        >>> summary.tenants
        ('tts',)
        >>> summary.per_tenant()["tts"].n_requests
        200
    """

    def __init__(
        self,
        platform: str,
        *,
        slo_ms: float | None = None,
        scheduler: str = "fifo",
        batcher: str = "none",
        faults: str = "none",
        _classes: "dict[tuple, _ClassAcc] | None" = None,
    ) -> None:
        self.platform = platform
        self.slo_ms = slo_ms
        self.scheduler = scheduler
        self.batcher = batcher
        self.faults = faults
        self.fault_stats = FaultStats()
        self.scale_events: "tuple[ScaleEvent, ...]" = ()
        self.policy: str | None = None
        self.replicas = 1
        self.active_replicas = 1
        #: Explicit per-replica platform roster for mixed fleets; empty
        #: means homogeneous (every replica is ``platform``).
        self._platforms: "tuple[str, ...]" = ()
        self._classes: dict[tuple, _ClassAcc] = (
            {} if _classes is None else _classes
        )
        self._replica_counts: list[int] = []
        #: Cache of executed-task FLOPs (task -> flops); the ``flops``
        #: property walks the task shape, far too slow per request.
        self._flops: dict["RNNTask", int] = {}
        # Identity fast path: streams overwhelmingly repeat the same
        # (task, tenant, priority, slo, outcome) class back to back.  The
        # one-replica FIFO loop reads _last_acc between chunks of folds to
        # find runs of one class (repro.serving.events._run_fifo_runs).
        self._last_task: "RNNTask | None" = None
        self._last_acc: _ClassAcc | None = None

    # -- ingestion --------------------------------------------------------

    def _flops_of(self, task: "RNNTask") -> int:
        flops = self._flops.get(task)
        if flops is None:
            flops = task.flops
            self._flops[task] = flops
        return flops

    def _class_for(self, request: ServeRequest, outcome: str) -> _ClassAcc:
        task = request.task
        key = (task, request.tenant, request.priority, request.slo_ms, outcome)
        acc = self._classes.get(key)
        if acc is None:
            slo = request.slo_ms
            eff = slo if slo is not None else self.slo_ms
            acc = _ClassAcc(
                tenant=request.tenant,
                priority=request.priority,
                slo_key=slo,
                eff_slo_ms=eff,
                timesteps=task.timesteps,
                useful_flops=self._flops_of(task),
                outcome=outcome,
            )
            self._classes[key] = acc
        self._last_task = task
        self._last_acc = acc
        return acc

    def observe_served(
        self,
        request: ServeRequest,
        result: ServingResult,
        start_s: float,
        finish_s: float,
        batch_size: int,
        outcome: str = "ok",
        *,
        batch_index: int = 0,
        attempts: int = 1,
    ) -> None:
        """Fold one completed request into the summary.

        This is the sink call of every event loop (in launch or
        completion order), with the fields of a
        :class:`~repro.serving.request.ServeResponse`: ``result`` is the
        executed (possibly padded, possibly batched) platform result,
        ``outcome`` how the request left the system (always ``"ok"``
        outside fault-injected runs).  The fold ignores the two
        keyword-only fields, ``batch_index`` (the request's position in
        its batch) and ``attempts`` (dispatches it consumed); a full
        report's response log keeps them.  Only a batched execution or
        the fault-aware loop passes them, so a subclass that overrides
        this method must accept them to serve batched or faulty streams.
        """
        task = request.task
        acc = self._last_acc
        # The last class's key fields, compared one by one with ``!=``
        # (the dict's equality, not identity: tenant strings parsed from
        # a trace are new objects on every line).
        if (
            task is not self._last_task
            or acc is None
            or request.tenant != acc.tenant
            or request.priority != acc.priority
            or request.slo_ms != acc.slo_key
            or outcome != acc.outcome
        ):
            acc = self._class_for(request, outcome)
        arrival = request.arrival_s
        sojourn_ms = (finish_s - arrival) * 1e3
        service_s = result.latency_s / batch_size
        if result.platform != acc.platform:
            acc.add_platform(result.platform, service_s)
        acc.n += 1
        acc.sojourn_sum_ms += sojourn_ms
        acc.queue_sum_s += start_s - arrival
        acc.service_sum_s += service_s
        acc.batch_sum += batch_size
        if batch_size > acc.batch_max:
            acc.batch_max = batch_size
        exec_task = result.task
        if exec_task is not task:
            acc.pad_flops += self._flops_of(exec_task) - acc.useful_flops
        eff = acc.eff_slo_ms
        if eff is not None and sojourn_ms > eff:
            acc.miss += 1
        if arrival > acc.max_arrival_s:
            acc.max_arrival_s = arrival
        if finish_s > acc.max_finish_s:
            acc.max_finish_s = finish_s
        if sojourn_ms < acc.min_sojourn_ms:
            acc.min_sojourn_ms = sojourn_ms
        if sojourn_ms > acc.max_sojourn_ms:
            acc.max_sojourn_ms = sojourn_ms
        counts = acc.counts
        if counts is None:
            acc.add_sojourn(sojourn_ms)
        else:
            # _bucket_index, inlined for the spilled (large-class) case.
            try:
                idx = int((_log10(sojourn_ms) - _HIST_LO_EXP) * _HIST_PER_DECADE)
            except ValueError:  # a zero sojourn has no log: bucket 0
                idx = 0
            if idx < 0:
                idx = 0
            elif idx >= _HIST_BUCKETS:
                idx = _HIST_BUCKETS - 1
            counts[idx] += 1

    def observe_run(
        self,
        request: ServeRequest,
        result: ServingResult,
        free_at: float,
        arrivals: Sequence[float],
        finishes: Sequence[float],
    ) -> None:
        """Fold a run of batch-1 requests that executed back to back.

        The run's requests share ``request``'s class (an equal task,
        tenant, priority and SLO tag; its arrival and id are not read),
        and executed in order as ``result`` on one replica that was free
        from ``free_at``: ``arrivals`` and ``finishes`` hold their
        times, so request ``i`` started at ``max(arrivals[i],
        finishes[i - 1])`` (``free_at`` for the first).  The summary
        ends in exactly the state :meth:`observe_served` leaves it in
        when called on each request in turn, bit for bit.

        The class must have spilled its exact reservoir, all of it
        served by ``result``'s platform (:meth:`_ClassAcc.takes_runs`):
        a run of any other class raises :class:`ServingError` and
        changes nothing, so fold such requests with
        :meth:`observe_served`.
        """
        key = (request.task, request.tenant, request.priority, request.slo_ms, "ok")
        acc = self._classes.get(key)
        if acc is None or not acc.takes_runs(result.platform):
            raise ServingError(
                "observe_run needs a class that has spilled its exact "
                f"reservoir, served by {result.platform!r} alone"
            )
        arrival_s = np.asarray(arrivals, dtype=np.float64)
        finish_s = np.asarray(finishes, dtype=np.float64)
        n = len(finish_s)
        if not n:
            return
        sojourn_ms = finish_s - arrival_s
        sojourn_ms *= 1e3
        queue_s = np.empty(n)
        queue_s[0] = free_at
        queue_s[1:] = finish_s[:-1]
        np.maximum(queue_s, arrival_s, out=queue_s)  # the starts
        queue_s -= arrival_s
        acc.n += n
        acc.batch_sum += n
        if result.task is not request.task:
            acc.pad_flops += n * (self._flops_of(result.task) - acc.useful_flops)
        eff = acc.eff_slo_ms
        if type(eff) is float:
            acc.miss += int(np.count_nonzero(sojourn_ms > eff))
        elif eff is not None:  # compared one by one, exactly, like the fold
            acc.miss += sum(1 for value in sojourn_ms.tolist() if value > eff)
        # max() and min() keep the first of equal values, as the fold does.
        acc.max_arrival_s = max(acc.max_arrival_s, float(arrival_s.max()))
        acc.max_finish_s = max(acc.max_finish_s, float(finish_s.max()))
        acc.min_sojourn_ms = min(acc.min_sojourn_ms, float(sojourn_ms.min()))
        acc.max_sojourn_ms = max(acc.max_sojourn_ms, float(sojourn_ms.max()))
        _add_to_buckets(acc.counts, sojourn_ms)  # type: ignore[arg-type]
        # Last, as they overwrite their arrays.
        acc.sojourn_sum_ms = _running_sum(acc.sojourn_sum_ms, sojourn_ms)
        acc.queue_sum_s = _running_sum(acc.queue_sum_s, queue_s)
        acc.service_sum_s = _running_sum(
            acc.service_sum_s, np.full(n, float(result.latency_s))
        )

    def note_assignment(self, replica: int, count: int = 1) -> None:
        """Count ``count`` requests dispatched to ``replica``.

        The event loops call this once per arrival, except the two
        one-replica loops, which call it once with their total when the
        stream ends (or aborts).
        """
        counts = self._replica_counts
        if replica >= len(counts):
            counts.extend([0] * (replica + 1 - len(counts)))
        counts[replica] += count

    def finalize(
        self,
        *,
        scale_events: "tuple[ScaleEvent, ...]" = (),
        replicas: int = 1,
        active_replicas: int = 1,
        policy: str | None = None,
        fault_stats: "FaultStats | None" = None,
        platforms: "tuple[str, ...]" = (),
    ) -> "StreamSummary":
        """Attach end-of-stream metadata; raises on an empty stream."""
        if not self._classes:
            raise ServingError("stream produced no responses")
        self.scale_events = scale_events
        self.replicas = replicas
        self.active_replicas = active_replicas
        self.policy = policy
        if fault_stats is not None:
            self.fault_stats = fault_stats
        self._platforms = tuple(platforms)
        return self

    # -- merging ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when no request has been folded in yet.

        An empty summary is the merge identity: it contributes no
        classes, no replicas, and no assignments.
        """
        return not self._classes

    def _check_mergeable(self, other: "StreamSummary") -> None:
        for attr in (
            "platform", "slo_ms", "scheduler", "batcher", "faults",
        ):
            mine, theirs = getattr(self, attr), getattr(other, attr)
            if mine != theirs:
                raise ServingError(
                    f"cannot merge summaries with different {attr}: "
                    f"{mine!r} vs {theirs!r}"
                )

    def merge(self, *others: "StreamSummary") -> "StreamSummary":
        """Combine summaries of disjoint sub-streams into one report.

        This is what makes :class:`StreamSummary` the unit of *sharded*
        simulation (:mod:`repro.serving.parallel`): run one event loop
        per shard, summarize each shard online, then reassemble.  The
        operation is associative and never mutates its inputs, so shard
        results can be merged in any grouping (a seeded fuzz test pins
        this over random splits).  All inputs must share the stream
        configuration (platform, scheduler, batcher, SLO, faults).

        Counters and sums (``n_requests``, SLO misses, batch sizes,
        padding FLOPs) add exactly.  Per-class reservoirs concatenate
        while the combined class stays within
        :data:`EXACT_SAMPLE_CAP` and spill into the (bucket-wise
        additive) log histogram beyond it — the same promotion rule a
        single-stream accumulator applies, so the merged quantile state
        equals the single-process run's.  Replica accounting
        concatenates: shard *i*'s replicas follow shard *i-1*'s in
        ``per_replica_counts``, and ``replicas``/``active_replicas``
        sum.  Empty summaries (no observed requests) are merge
        identities.

        Example::

            >>> from repro.serving import ServingEngine, uniform_arrivals
            >>> from repro.workloads.deepbench import task
            >>> t = task("lstm", 512, 25)
            >>> def run(n, start):
            ...     return ServingEngine("gpu").serve_stream(
            ...         uniform_arrivals(t, rate_per_s=100, n_requests=n,
            ...                          start_s=start),
            ...         slo_ms=5.0, mode="summary")
            >>> merged = run(30, 0.0).merge(run(20, 1.7))
            >>> (merged.n_requests, merged.n_replicas)
            (50, 2)
        """
        merged = StreamSummary(
            self.platform,
            slo_ms=self.slo_ms,
            scheduler=self.scheduler,
            batcher=self.batcher,
            faults=self.faults,
        )
        parts = (self, *others)
        events: list = []
        policies = set()
        replicas = active = 0
        counts: list[int] = []
        roster: list[str] = []
        explicit_roster = False
        fault_stats = FaultStats()
        for part in parts:
            self._check_mergeable(part)
            for key, acc in part._classes.items():
                mine = merged._classes.get(key)
                if mine is None:
                    merged._classes[key] = acc.clone()
                else:
                    mine.absorb(acc)
            events.extend(part.scale_events)
            policies.add(part.policy)
            fault_stats = fault_stats.merge(part.fault_stats)
            if not part.is_empty:
                replicas += part.replicas
                active += part.active_replicas
                counts.extend(part.per_replica_counts)
                # Rosters concatenate in shard order, exactly like
                # per_replica_counts; shards without an explicit roster
                # contribute their homogeneous expansion.
                if part._platforms:
                    explicit_roster = True
                roster.extend(part.replica_platforms)
        merged.fault_stats = fault_stats
        merged._replica_counts = counts
        if explicit_roster:
            merged._platforms = tuple(roster)
        merged.replicas = max(replicas, 1)
        merged.active_replicas = max(active, 1)
        merged.scale_events = tuple(sorted(events, key=lambda e: e.time_s))
        merged.policy = policies.pop() if len(policies) == 1 else None
        return merged

    # -- folded counters --------------------------------------------------

    def _accs(self) -> "list[_ClassAcc]":
        return list(self._classes.values())

    @property
    def n_requests(self) -> int:
        return sum(acc.n for acc in self._accs())

    @property
    def per_replica_counts(self) -> tuple[int, ...]:
        counts = list(self._replica_counts)
        counts.extend([0] * (self.replicas - len(counts)))
        return tuple(counts)

    @property
    def mean_ms(self) -> float:
        accs = self._accs()
        n = sum(acc.n for acc in accs)
        if n == 0:
            raise ServingError("stream produced no responses")
        return sum(acc.sojourn_sum_ms for acc in accs) / n

    @property
    def mean_queue_delay_ms(self) -> float:
        return sum(acc.queue_sum_s for acc in self._accs()) * 1e3 / self.n_requests

    @property
    def mean_service_ms(self) -> float:
        return sum(acc.service_sum_s for acc in self._accs()) * 1e3 / self.n_requests

    @property
    def mean_batch_size(self) -> float:
        return sum(acc.batch_sum for acc in self._accs()) / self.n_requests

    @property
    def max_batch_size(self) -> int:
        return max(acc.batch_max for acc in self._accs())

    @property
    def padding_waste_frac(self) -> float:
        accs = self._accs()
        padding = sum(acc.pad_flops for acc in accs)
        executed = sum(acc.n * acc.useful_flops for acc in accs) + padding
        if executed <= 0:
            return 0.0
        return padding / executed

    # -- primitives of the shared figures ---------------------------------

    def _per_platform_service(self) -> "tuple[dict[str, float], dict[str, int]]":
        service: dict[str, float] = {}
        count: dict[str, int] = {}
        for acc in self._accs():
            for name, entry in acc.platform_service().items():
                service[name] = service.get(name, 0.0) + entry[0]
                count[name] = count.get(name, 0) + entry[1]
        return service, count

    @property
    def makespan_s(self) -> float:
        """Wall-clock span of the stream: the last observed finish."""
        return max(acc.max_finish_s for acc in self._accs())

    @property
    def _last_arrival_s(self) -> float:
        return max(acc.max_arrival_s for acc in self._accs())

    @property
    def replica_platforms(self) -> "tuple[str, ...]":
        """Platform key of every provisioned replica, in replica order
        (shard order after a merge)."""
        if self._platforms:
            return self._platforms
        return (self.platform,) * self.replicas

    @property
    def slo_miss_rate(self) -> float:
        accs = self._accs()
        if any(acc.eff_slo_ms is None for acc in accs):
            raise ServingError("no SLO configured for this stream")
        return sum(acc.miss for acc in accs) / sum(acc.n for acc in accs)

    # -- quantiles --------------------------------------------------------

    def percentile_ms(self, q: float) -> float:
        """Sojourn percentile: exact while every class is inside its
        reservoir, histogram-estimated (~1%) beyond."""
        accs = self._accs()
        if not accs:
            raise ServingError("percentile of an empty stream")
        if all(acc.samples is not None for acc in accs):
            values: list[float] = []
            for acc in accs:
                values.extend(acc.samples)  # type: ignore[arg-type]
            values.sort()
            return percentile(values, q)
        counts = [0] * _HIST_BUCKETS
        for acc in accs:
            if acc.counts is not None:
                bucket_counts = acc.counts
                for idx in range(_HIST_BUCKETS):
                    c = bucket_counts[idx]
                    if c:
                        counts[idx] += c
            else:
                for value in acc.samples:  # type: ignore[union-attr]
                    counts[_bucket_index(value)] += 1
        total = sum(counts)
        rank = (q / 100.0) * (total - 1)
        cum = 0
        estimate = self.max_sojourn_ms
        for idx, c in enumerate(counts):
            if not c:
                continue
            if cum + c > rank:
                frac = (rank - cum + 0.5) / c
                lo_edge = 10.0 ** (_HIST_LO_EXP + idx / _HIST_PER_DECADE)
                estimate = lo_edge * _HIST_RATIO**frac
                break
            cum += c
        lo, hi = self.min_sojourn_ms, self.max_sojourn_ms
        return min(max(estimate, lo), hi)

    @property
    def min_sojourn_ms(self) -> float:
        return min(acc.min_sojourn_ms for acc in self._accs())

    @property
    def max_sojourn_ms(self) -> float:
        return max(acc.max_sojourn_ms for acc in self._accs())

    # -- slices -----------------------------------------------------------

    def _subset(self, accs: Iterable[tuple]) -> "StreamSummary":
        # Stream-wide metadata (scale events, fault counters, replicas)
        # is not attributable to a slice; slices keep the identities.
        return StreamSummary(
            self.platform,
            slo_ms=self.slo_ms,
            scheduler=self.scheduler,
            batcher=self.batcher,
            faults=self.faults,
            _classes={key: self._classes[key] for key in accs},
        )

    def _members(self, field: str) -> "list[tuple[tuple, object]]":
        return [(key, getattr(acc, field)) for key, acc in self._classes.items()]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamSummary(platform={self.platform!r}, "
            f"n_requests={self.n_requests}, scheduler={self.scheduler!r}, "
            f"batcher={self.batcher!r})"
        )
