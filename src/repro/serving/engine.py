"""The serving engine: compile-once sessions and batch/stream requests.

The paper's serving scenario (Section 1) is a stream of individual
batch-1 requests under a stringent latency window.  The engine models
one accelerator running that loop:

* a keyed cache of :class:`~repro.serving.platform.PreparedModel` per
  task — the platform's compile phase (for Plasticine: parameter
  selection, mapping, cycle simulation) runs once and every later
  request for the same task reuses it;
* ``serve`` / ``serve_batch`` for one-off and grouped requests;
* ``serve_stream`` — a heap-based discrete-event simulation of a
  single-server queue over timestamped arrivals (see
  :mod:`repro.serving.events`), with a pluggable queue discipline
  (:mod:`repro.serving.scheduler`) and per-request queueing delay,
  SLO, tenant, and priority accounting.

Example::

    engine = ServingEngine("plasticine")
    first = engine.serve(task)            # compiles, then serves
    again = engine.serve(task)            # cache hit: no re-mapping
    report = engine.serve_stream(poisson_arrivals(task, rate_per_s=400,
                                                  n_requests=2000),
                                 slo_ms=5.0, scheduler="edf")
    print(report.p99_ms, report.slo_miss_rate)
    print({t: r.p99_ms for t, r in report.per_tenant().items()})
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable

from repro.errors import ServingError
from repro.platforms import ELECTRICITY_USD_PER_KWH, device_usd_per_hour, tdp_of
from repro.serving.autoscaler import ScaleEvent
from repro.serving.batching import Batcher, make_batcher
from repro.serving.events import run_stream, single_replica_dispatch
from repro.serving.faults import FaultPolicy, make_fault_policy
from repro.serving.platform import PLATFORMS, Platform, PreparedModel
from repro.serving.request import ServeRequest, ServeResponse
from repro.serving.result import FaultStats, ServingResult
from repro.serving.scheduler import Scheduler, make_scheduler
# ``percentile`` is shared with the O(1) summary so both
# representations interpolate identically.
from repro.serving.stats import StreamSummary, percentile as _percentile
from repro.serving.traffic import length_band, poisson_arrivals, uniform_arrivals
from repro.workloads.deepbench import RNNTask

__all__ = [
    "ServeRequest",
    "ServeResponse",
    "StreamReport",
    "StreamSummary",
    "CacheStats",
    "ServingEngine",
    "poisson_arrivals",
    "uniform_arrivals",
]

#: Default bound on the per-shape result memo (see
#: :meth:`ServingEngine.result_for`); far above any realistic number of
#: distinct (task, batch) shapes, it only exists so an adversarial
#: stream of unique shapes cannot grow the memo without bound.
DEFAULT_MEMO_CAPACITY = 4096


@dataclass
class CacheStats:
    """Prepared-model cache counters.

    Example::

        >>> from repro.serving import ServingEngine
        >>> from repro.workloads.deepbench import task
        >>> engine = ServingEngine("gpu")
        >>> _ = engine.serve(task("lstm", 512, 25))   # compile miss
        >>> _ = engine.serve(task("lstm", 512, 25))   # cache hit
        >>> (engine.cache_stats.hits, engine.cache_stats.misses)
        (1, 1)
    """

    hits: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses




@dataclass(frozen=True)
class StreamReport:
    """Aggregate outcome of a request stream against an SLO.

    Responses are ordered by arrival, whatever order the scheduler
    actually served them in; ``per_tenant()`` and ``per_priority()``
    slice the same stream into per-class sub-reports.  ``batcher``
    records the batching policy that ran the stream (``"none"`` = the
    paper's batch-1 serving) and ``scale_events`` any autoscaler actions
    applied during it.

    Example::

        >>> from repro.serving import ServingEngine, uniform_arrivals
        >>> from repro.workloads.deepbench import task
        >>> report = ServingEngine("gpu").serve_stream(
        ...     uniform_arrivals(task("lstm", 512, 25),
        ...                      rate_per_s=100, n_requests=50),
        ...     slo_ms=5.0)
        >>> (report.n_requests, report.scheduler, report.batcher)
        (50, 'fifo', 'none')
        >>> report.p50_ms <= report.p99_ms
        True
    """

    platform: str
    responses: tuple[ServeResponse, ...] = field(repr=False)
    slo_ms: float | None = None
    scheduler: str = "fifo"
    batcher: str = "none"
    scale_events: tuple[ScaleEvent, ...] = field(default=(), repr=False)
    #: Fault policy the stream ran under (``"none"`` = perfect machine).
    faults: str = "none"
    #: Injected-fault counters (all zero outside fault-injected runs).
    fault_stats: FaultStats = field(default=FaultStats(), repr=False)

    def __post_init__(self) -> None:
        if not self.responses:
            raise ServingError("stream produced no responses")

    @property
    def n_requests(self) -> int:
        return len(self.responses)

    @cached_property
    def _sojourns_ms(self) -> tuple[float, ...]:
        # cached_property writes through __dict__, which frozen
        # dataclasses permit; the responses tuple never changes.
        return tuple(sorted(r.sojourn_ms for r in self.responses))

    @property
    def p50_ms(self) -> float:
        return _percentile(self._sojourns_ms, 50)

    @property
    def p99_ms(self) -> float:
        return _percentile(self._sojourns_ms, 99)

    @property
    def mean_ms(self) -> float:
        return sum(self._sojourns_ms) / len(self._sojourns_ms)

    @property
    def mean_queue_delay_ms(self) -> float:
        return sum(r.queue_delay_s for r in self.responses) * 1e3 / self.n_requests

    @property
    def mean_service_ms(self) -> float:
        """Average per-request accelerator time (batched requests count
        their share of the batch latency)."""
        return sum(r.service_s for r in self.responses) * 1e3 / self.n_requests

    def uniform_slo_ms(self) -> float | None:
        """The single request-level SLO every request carried, if any.

        ``None`` when requests carry mixed (or no) per-request SLO tags —
        callers then fall back to the stream-level SLO.
        """
        tags = {r.request.slo_ms for r in self.responses}
        if len(tags) == 1:
            return tags.pop()
        return None

    # -- batching ---------------------------------------------------------

    @property
    def mean_batch_size(self) -> float:
        """Average coalesced batch size across requests (1.0 = unbatched)."""
        return sum(r.batch_size for r in self.responses) / self.n_requests

    @property
    def max_batch_size(self) -> int:
        """Largest batch any request was served in."""
        return max(r.batch_size for r in self.responses)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of stream makespan."""
        makespan = max(r.finish_s for r in self.responses)
        if makespan <= 0:
            return math.inf
        return self.n_requests / makespan

    # -- variable-length / padding accounting ----------------------------

    @property
    def padding_waste_frac(self) -> float:
        """Fraction of executed FLOPs wasted on sequence padding.

        A batched execution of mixed-length requests runs every request
        at the longest member's length (the ``pad`` / ``bucket``
        policies); the excess over each request's own work is waste.
        Unbatched (batch-1) serving — the paper's spatial-accelerator
        scenario — never pads, so this is 0.0 for ``batcher="none"``.

        Example::

            >>> from repro.serving import ServingEngine, uniform_arrivals
            >>> from repro.workloads.deepbench import task
            >>> report = ServingEngine("gpu").serve_stream(
            ...     uniform_arrivals(task("lstm", 512, 25),
            ...                      rate_per_s=100, n_requests=10))
            >>> report.padding_waste_frac
            0.0
        """
        executed = sum(r.result.task.flops for r in self.responses)
        useful = sum(r.request.task.flops for r in self.responses)
        if executed <= 0:
            return 0.0
        return (executed - useful) / executed

    def per_length_band(self, band_base: float = 2.0) -> "dict[str, StreamReport]":
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
        groups: dict[tuple[int, int], list[ServeResponse]] = {}
        for r in self.responses:
            band = length_band(r.request.task.timesteps, band_base)
            groups.setdefault(band, []).append(r)
        return {
            f"T{lo}-{hi}": self._subset(groups[(lo, hi)])
            for lo, hi in sorted(groups)
        }

    @property
    def offered_rate_per_s(self) -> float:
        """Arrival rate implied by the stream's time span.

        A single request has no rate (0.0); several requests arriving
        at the same instant are an infinite-rate burst.
        """
        span = max(r.request.arrival_s for r in self.responses)
        if span > 0:
            return self.n_requests / span
        return 0.0 if self.n_requests == 1 else math.inf

    @property
    def max_rate_per_s(self) -> float:
        """Sustainable rate: one over the mean service time."""
        mean_service = sum(r.service_s for r in self.responses) / self.n_requests
        return 1.0 / mean_service

    @property
    def saturated(self) -> bool:
        """True when arrivals outpace what the server can drain."""
        return self.offered_rate_per_s >= self.max_rate_per_s

    # -- energy / TCO accounting ------------------------------------------

    @property
    def makespan_s(self) -> float:
        """Wall-clock span of the stream: the last response's finish."""
        return max(r.finish_s for r in self.responses)

    @property
    def replica_platforms(self) -> tuple[str, ...]:
        """Platform key of every *provisioned* replica.

        One engine here; :class:`~repro.serving.fleet.FleetReport`
        overrides this with the fleet's actual (possibly mixed) roster,
        and every provisioned-energy number below follows along.
        """
        return (self.platform,)

    @property
    def per_platform_counts(self) -> dict[str, int]:
        """Responses served per *executing* platform.

        Keyed by ``result.platform`` — the platform that actually ran
        each request — so mixed fleets attribute work correctly and the
        values always sum to ``n_requests``.
        """
        counts: dict[str, int] = {}
        for r in self.responses:
            key = r.result.platform
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def energy_j(self) -> float:
        """Busy energy: accelerator-seconds × that platform's power draw.

        Each response is charged at the power of the platform that
        *executed* it (Table 4/5 measured peak when reported, TDP
        otherwise), summed over its share of accelerator time — idle
        replicas contribute nothing here (see :attr:`fleet_watt_hours`
        for the provisioned bill).
        """
        return sum(
            r.service_s * tdp_of(r.result.platform) for r in self.responses
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
        watts = sum(tdp_of(p) for p in self.replica_platforms)
        return watts * self.makespan_s / 3600.0

    @property
    def cost_usd_per_1m_requests(self) -> float:
        """Total cost of ownership normalized to one million requests.

        Electricity for the provisioned fleet over the makespan
        (:attr:`fleet_watt_hours` at :data:`ELECTRICITY_USD_PER_KWH`)
        plus linear capital amortization of every provisioned device
        (:func:`repro.platforms.device_usd_per_hour`), divided by the
        requests actually served and scaled to 1M.  This is the
        objective the capacity planner (:mod:`repro.dse.capacity`)
        minimizes.
        """
        hours = self.makespan_s / 3600.0
        energy_usd = self.fleet_watt_hours / 1e3 * ELECTRICITY_USD_PER_KWH
        capital_usd = hours * sum(
            device_usd_per_hour(p) for p in self.replica_platforms
        )
        return (energy_usd + capital_usd) / self.n_requests * 1e6

    def _effective_slo_ms(self, response: ServeResponse) -> float:
        slo = response.request.effective_slo_ms(self.slo_ms)
        if slo is None:
            raise ServingError("no SLO configured for this stream")
        return slo

    @property
    def slo_miss_rate(self) -> float:
        """Fraction of requests whose sojourn exceeded their SLO.

        Each request is judged against its own ``slo_ms`` when set,
        falling back to the stream-level SLO otherwise.
        """
        misses = sum(
            1
            for r in self.responses
            if r.sojourn_ms > self._effective_slo_ms(r)
        )
        return misses / self.n_requests

    @property
    def slo_attainment(self) -> float:
        """Fraction of requests that met their SLO (1 - miss rate)."""
        return 1.0 - self.slo_miss_rate

    @property
    def slo_attained(self) -> bool:
        return self.slo_ms is not None and self.p99_ms <= self.slo_ms

    # -- multi-tenant / multi-class breakdowns ---------------------------

    @property
    def tenants(self) -> tuple[str, ...]:
        """Sorted tenant names present in the stream."""
        return tuple(sorted({r.request.tenant for r in self.responses}))

    @property
    def priorities(self) -> tuple[int, ...]:
        """Sorted priority classes present in the stream."""
        return tuple(sorted({r.request.priority for r in self.responses}))

    def _subset(self, responses: Iterable[ServeResponse]) -> "StreamReport":
        # Deliberately a plain StreamReport (not type(self)): subclass
        # extras such as fleet assignments do not slice meaningfully, and
        # scale events are stream-wide rather than per-class.
        return StreamReport(
            platform=self.platform,
            responses=tuple(responses),
            slo_ms=self.slo_ms,
            scheduler=self.scheduler,
            batcher=self.batcher,
            faults=self.faults,
        )

    def per_tenant(self) -> dict[str, "StreamReport"]:
        """Sub-reports keyed by tenant, each over that tenant's requests."""
        groups: dict[str, list[ServeResponse]] = {}
        for r in self.responses:
            groups.setdefault(r.request.tenant, []).append(r)
        return {t: self._subset(groups[t]) for t in sorted(groups)}

    def per_priority(self) -> dict[int, "StreamReport"]:
        """Sub-reports keyed by priority class."""
        groups: dict[int, list[ServeResponse]] = {}
        for r in self.responses:
            groups.setdefault(r.request.priority, []).append(r)
        return {p: self._subset(groups[p]) for p in sorted(groups)}

    @property
    def outcomes(self) -> tuple[str, ...]:
        """Sorted outcomes present (``("ok",)`` outside fault runs)."""
        return tuple(sorted({r.outcome for r in self.responses}))

    def per_outcome(self) -> dict[str, "StreamReport"]:
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
        groups: dict[str, list[ServeResponse]] = {}
        for r in self.responses:
            groups.setdefault(r.outcome, []).append(r)
        return {o: self._subset(groups[o]) for o in sorted(groups)}


class ServingEngine:
    """One accelerator's serving session: compile once, serve many.

    Args:
        platform: A registry key (``"plasticine"``, ``"brainwave"``,
            ``"cpu"``, ``"gpu"``, or anything registered via
            ``@register_platform``), an already-built
            :class:`~repro.serving.platform.Platform` instance, or a
            zero-argument factory returning one.
        cache: Optional externally-owned prepared-model cache, keyed by
            task.  A :class:`~repro.serving.fleet.Fleet` passes one
            shared dict so replicas compile each task only once.
        memoize: Memoize per-shape serving results (default on).  The
            four built-in platforms are deterministic, so the cost model
            needs consulting only once per distinct ``(compile_key,
            timesteps, batch_size)`` shape; every later request of that
            shape reuses the identical (frozen) result.  Turn off to
            force a cost-model walk per request (benchmarking the
            unmemoized loop).
        memo: Optional externally-owned result memo, shared the same way
            ``cache`` is (a fleet passes one dict across replicas).
        memo_capacity: Bound on the memo; least-recently-used shapes are
            evicted beyond it.
        **platform_options: Forwarded to the platform constructor when
            ``platform`` is a key.

    Example::

        >>> from repro.serving import ServingEngine
        >>> from repro.workloads.deepbench import task
        >>> engine = ServingEngine("gpu")
        >>> first = engine.serve(task("lstm", 512, 25))    # compiles
        >>> again = engine.serve(task("lstm", 512, 25))    # cache hit
        >>> first.result == again.result, engine.cache_stats.misses
        (True, 1)
    """

    def __init__(
        self,
        platform: str | Platform | Callable[[], Platform],
        *,
        cache: dict[RNNTask, PreparedModel] | None = None,
        memoize: bool = True,
        memo: dict | None = None,
        memo_capacity: int = DEFAULT_MEMO_CAPACITY,
        **platform_options: object,
    ) -> None:
        self.platform = PLATFORMS.make(platform, **platform_options)
        if memo_capacity < 1:
            raise ServingError("memo_capacity must be >= 1")
        self._cache: dict[RNNTask, PreparedModel] = cache if cache is not None else {}
        self.memoize = bool(memoize)
        #: Result memo: task -> batch-1 ServingResult, (task, B) -> the
        #: batched result.  Insertion order doubles as the LRU order.
        self._memo: dict = memo if memo is not None else {}
        self._memo_capacity = memo_capacity
        self.cache_stats = CacheStats()

    def _memo_get(self, key):
        """LRU lookup: a hit is refreshed to most-recently-used."""
        memo = self._memo
        result = memo.get(key)
        if result is not None and next(reversed(memo)) is not key:
            # Refresh recency (dicts iterate in insertion order).
            del memo[key]
            memo[key] = result
        return result

    def _memo_put(self, key, result) -> None:
        memo = self._memo
        if len(memo) >= self._memo_capacity:
            memo.pop(next(iter(memo)))
        memo[key] = result

    @property
    def platform_name(self) -> str:
        return self.platform.name

    def prepare(self, task: RNNTask) -> PreparedModel:
        """Fetch (or compile and cache) the prepared model for a task.

        The cache is keyed by the platform's :meth:`Platform.compile_key
        <repro.serving.platform.Platform.compile_key>`: on
        length-flexible platforms (all four built-ins) every
        sequence-length variant of a task family shares one compiled
        model, so a variable-length stream compiles each family once.
        The returned model may therefore have been prepared for a
        different length of the same family — serve through
        :meth:`result_for` (or :meth:`Platform.serve_request
        <repro.serving.platform.Platform.serve_request>`), which
        re-costs it for the actual task.
        """
        key = self.platform.compile_key(task)
        prepared = self._cache.get(key)
        if prepared is not None:
            self.cache_stats.hits += 1
            return prepared
        self.cache_stats.misses += 1
        prepared = self.platform.prepare(task)
        self._cache[key] = prepared
        return prepared

    def result_for(self, task: RNNTask) -> ServingResult:
        """The batch-1 serving result for a task, via the compile cache.

        With ``memoize`` on (the default), the platform cost model is
        consulted once per distinct shape and the identical frozen
        :class:`~repro.serving.result.ServingResult` is returned for
        every later request of that shape — service times are
        deterministic per (platform, task), so this cannot change any
        stream timeline, only the time spent recomputing it.  A memo hit
        counts as a cache hit in :attr:`cache_stats`, exactly as the
        prepared-model hit it replaces did.

        Example::

            >>> from repro.serving import ServingEngine
            >>> from repro.workloads.deepbench import task
            >>> engine = ServingEngine("gpu")
            >>> t = task("lstm", 512, 25)
            >>> short = engine.result_for(t.with_timesteps(5))   # compiles
            >>> long = engine.result_for(t.with_timesteps(500))  # cache hit
            >>> (short.latency_s < long.latency_s, engine.cache_stats.misses)
            (True, 1)
            >>> engine.result_for(t.with_timesteps(5)) is short  # memoized
            True
        """
        if self.memoize:
            result = self._memo_get(task)
            if result is not None:
                self.cache_stats.hits += 1
                return result
            result = self.platform.serve_request(self.prepare(task), task)
            self._memo_put(task, result)
            return result
        return self.platform.serve_request(self.prepare(task), task)

    def clear_cache(self) -> None:
        self._cache.clear()
        self._memo.clear()
        self.cache_stats = CacheStats()

    def _as_request(self, request: ServeRequest | RNNTask) -> ServeRequest:
        if isinstance(request, RNNTask):
            return ServeRequest(task=request)
        return request

    def serve(self, request: ServeRequest | RNNTask) -> ServeResponse:
        """Serve one request, with no queueing ahead of it."""
        req = self._as_request(request)
        result = self.result_for(req.task)
        return ServeResponse(
            request=req,
            result=result,
            queue_delay_s=0.0,
            start_s=req.arrival_s,
            finish_s=req.arrival_s + result.latency_s,
        )

    def serve_batch(
        self, requests: Iterable[ServeRequest | RNNTask]
    ) -> tuple[ServeResponse, ...]:
        """Serve a group of independent requests (each unqueued).

        Results are identical to calling :meth:`serve` per request; the
        batch path exists so callers can hand over a workload in one call
        and still hit the prepared-model cache across duplicates.  For a
        *coalesced* execution of same-task requests, see
        :meth:`serve_batched`.
        """
        return tuple(self.serve(r) for r in requests)

    def serve_batched(self, task: RNNTask, batch_size: int) -> ServingResult:
        """Serve ``batch_size`` same-task requests as one batched execution.

        Uses the platform's batched cost model (setup once, steady-state
        per item — see :meth:`Platform.batch_latency_s
        <repro.serving.platform.Platform.batch_latency_s>`) against the
        cached prepared model.

        Example::

            >>> from repro.serving import ServingEngine
            >>> from repro.workloads.deepbench import task
            >>> engine = ServingEngine("gpu")
            >>> t1 = engine.serve(task("lstm", 512, 25)).result.latency_s
            >>> res = engine.serve_batched(task("lstm", 512, 25), 8)
            >>> (res.batch_size, res.latency_s < 8 * t1)
            (8, True)
        """
        if self.memoize:
            key = (task, batch_size)
            result = self._memo_get(key)
            if result is not None:
                self.cache_stats.hits += 1
                return result
            result = self.platform.serve_batched(
                self.prepare(task), batch_size, task=task
            )
            self._memo_put(key, result)
            return result
        return self.platform.serve_batched(self.prepare(task), batch_size, task=task)

    def batch_latency_s(self, task: RNNTask, batch_size: int) -> float:
        """Latency of a batched execution, from the cached prepared model.

        Memoized through the same per-shape result memo as
        :meth:`serve_batched` (``batch_latency_s(prepared, B)`` and
        ``serve_batched(..., B).latency_s`` are the same number by the
        platform contract).
        """
        if self.memoize:
            return self.serve_batched(task, batch_size).latency_s
        return self.platform.batch_latency_s(
            self.prepare(task), batch_size, task=task
        )

    def serve_stream(
        self,
        arrivals: Iterable[ServeRequest | RNNTask],
        *,
        slo_ms: float | None = None,
        scheduler: str | Scheduler | Callable[[], Scheduler] = "fifo",
        batcher: str | Batcher | Callable[[], Batcher] = "none",
        max_batch: int | None = None,
        mode: str = "full",
        presorted: bool = False,
        faults: str | FaultPolicy | Callable[[], FaultPolicy] = "none",
        fault_seed: int = 0,
        timeout_ms: float | None = None,
        retries: int = 0,
        hedge_ms: float | None = None,
    ) -> "StreamReport | StreamSummary":
        """Run a timestamped stream through a single-server queue.

        The ``scheduler`` picks the queue discipline (``"fifo"``
        reproduces the classic arrival-order simulation exactly) and the
        ``batcher`` the dynamic batching policy — the default ``"none"``
        serves one request at a time (batch 1, as the paper's serving
        scenario demands) and is bit-identical to the historical
        behaviour; ``"size-cap"``, ``"time-window"``, and ``"adaptive"``
        coalesce queued same-task requests into batched executions (see
        :mod:`repro.serving.batching`).  ``max_batch`` forwards to the
        named batching policy's cap.

        ``mode`` picks the report representation.  The default
        ``"full"`` materializes every response into a
        :class:`StreamReport` — bit-identical to the historical
        behaviour, with memory linear in the stream.  ``"summary"``
        folds responses into a
        :class:`~repro.serving.stats.StreamSummary` as they complete:
        identical counts/sums (n, SLO attainment, batch sizes, padding
        waste), estimated percentiles, and memory *independent of the
        stream length* — the mode for million-request streams.

        Arrivals may be given in any order — they are sorted internally,
        so pre-sorting the input buys nothing *unless* you say so:
        ``presorted=True`` promises the stream is already time-ordered
        with strictly increasing request ids (true of every built-in
        generator, of :func:`repro.serving.traffic.mix`, and of recorded
        traces), letting the loop consume a lazy generator without ever
        materializing it.  Merged multi-stream inputs must carry
        globally unique request ids either way (use ``mix``).

        ``faults`` injects unreliable hardware (see
        :mod:`repro.serving.faults`): a registered policy name
        (``"crash"``, ``"straggler"``, ``"preempt"``, ``"chaos"``), a
        policy instance, or a factory.  ``fault_seed`` makes the whole
        fault timeline reproducible.  ``timeout_ms``/``retries`` bound
        each attempt's queue-to-finish time and re-dispatch on expiry;
        ``hedge_ms`` launches a duplicate copy of any request still
        unfinished after that long (first completion wins).  With the
        default ``"none"`` policy and no timeout/hedge the simulation
        is bit-identical to the fault-free path.
        """
        sched = make_scheduler(scheduler)
        options = {} if max_batch is None else {"max_batch": max_batch}
        batch_policy = make_batcher(batcher, **options)
        if mode not in ("full", "summary"):
            raise ServingError(
                f"unknown stream mode {mode!r}; expected 'full' or 'summary'"
            )
        policy = make_fault_policy(faults)
        faultless = (
            policy.name == "none"
            and timeout_ms is None
            and hedge_ms is None
            and retries == 0  # so a timeout-less retries still validates
        )
        fault_kwargs = (
            {}
            if faultless
            else {
                "faults": policy,
                "fault_seed": fault_seed,
                "timeout_ms": timeout_ms,
                "retries": retries,
                "hedge_ms": hedge_ms,
            }
        )
        if mode == "summary":
            summary = StreamSummary(
                self.platform_name,
                slo_ms=slo_ms,
                scheduler=sched.name,
                batcher=batch_policy.name,
                faults=policy.name,
            )
            outcome = run_stream(
                arrivals,
                engines=(self,),
                schedulers=(sched,),
                dispatch=single_replica_dispatch,
                slo_ms=slo_ms,
                batchers=(batch_policy,),
                presorted=presorted,
                summary=summary,
                **fault_kwargs,
            )
            return summary.finalize(fault_stats=outcome.fault_stats)
        outcome = run_stream(
            arrivals,
            engines=(self,),
            schedulers=(sched,),
            dispatch=single_replica_dispatch,
            slo_ms=slo_ms,
            batchers=(batch_policy,),
            presorted=presorted,
            **fault_kwargs,
        )
        return StreamReport(
            platform=self.platform_name,
            responses=tuple(outcome.responses),
            slo_ms=slo_ms,
            scheduler=sched.name,
            batcher=batch_policy.name,
            faults=policy.name,
            fault_stats=outcome.fault_stats,
        )
