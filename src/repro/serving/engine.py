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

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from repro.errors import ServingError
from repro.serving.autoscaler import ScaleEvent
from repro.serving.batching import Batcher, make_batcher
from repro.serving.events import run_stream, single_replica_dispatch
from repro.serving.faults import FaultPolicy, make_fault_policy
from repro.serving.platform import PLATFORMS, Platform, PreparedModel
from repro.serving.request import ServeRequest, ServeResponse, _check_budget_ms
from repro.serving.result import FaultStats, ServingResult
from repro.serving.scheduler import Scheduler, make_scheduler
# ``percentile`` is shared with the O(1) summary so both
# representations interpolate identically.
from repro.serving.stats import StreamSummary, _StreamFigures, percentile as _percentile
from repro.serving.traffic import poisson_arrivals, uniform_arrivals
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

    One hit per request served from an already-prepared model, one miss
    per compile.  The fault-free stream loops look a task up only when
    it changes on a replica and credit each replica the remaining
    requests as hits in bulk when the stream ends (even when a summary
    sink aborts it), so a 9-request, one-task stream counts 8 hits and
    1 miss on every loop.  Cost-aware fleet dispatch (mixed
    least-loaded, affinity) adds one pricing lookup per replica per
    task change.

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


#: How :class:`StreamReport` reads each grouping field off a response.
_RESPONSE_FIELDS = {
    "tenant": attrgetter("request.tenant"),
    "priority": attrgetter("request.priority"),
    "outcome": attrgetter("outcome"),
    "timesteps": attrgetter("request.task.timesteps"),
    "slo_key": attrgetter("request.slo_ms"),
}


@dataclass(frozen=True)
class StreamReport(_StreamFigures):
    """Aggregate outcome of a request stream against an SLO.

    Responses are ordered by arrival, whatever order the scheduler
    actually served them in; ``per_tenant()`` and ``per_priority()``
    slice the same stream into per-class sub-reports.  ``batcher``
    records the batching policy that ran the stream (``"none"`` = the
    paper's batch-1 serving) and ``scale_events`` any autoscaler actions
    applied during it.  A :class:`~repro.serving.fleet.Fleet` reports in
    the same class; its fields (``policy``, ``assignments``, replica
    counts, the mixed ``platforms`` roster) default to one engine.  The
    derived figures are shared with
    :class:`~repro.serving.stats.StreamSummary`.

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
    #: Fleet dispatch policy (``None`` for a single engine).
    policy: str | None = None
    #: Replica index per response, in arrival order.
    assignments: tuple[int, ...] = field(default=(), repr=False)
    #: Total replicas the stream used (autoscaled replicas included) —
    #: the peak capacity, not derived from the assignments, so idle
    #: replicas still count toward it.
    replicas: int = 1
    #: Replicas still active when the stream drained; below ``replicas``
    #: when the autoscaler scaled down.
    active_replicas: int = 1
    #: Platform key of each provisioned replica, in replica order.
    #: Empty means "homogeneous" (every replica is ``platform``).
    platforms: tuple[str, ...] = field(default=(), repr=False)

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

    def percentile_ms(self, q: float) -> float:
        """Exact (numpy-interpolated) sojourn percentile."""
        return _percentile(self._sojourns_ms, q)

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

    # -- replicas ---------------------------------------------------------

    @property
    def per_replica_counts(self) -> tuple[int, ...]:
        """Requests dispatched to each replica, in replica order.

        Example::

            >>> from repro.serving import Fleet, uniform_arrivals
            >>> from repro.workloads.deepbench import task
            >>> fleet = Fleet("gpu", replicas=2, policy="round-robin")
            >>> report = fleet.serve_stream(uniform_arrivals(
            ...     task("lstm", 512, 25), rate_per_s=100, n_requests=10))
            >>> (report.n_replicas, report.per_replica_counts)
            (2, (5, 5))
        """
        counts = [0] * self.replicas
        for replica in self.assignments:
            counts[replica] += 1
        return tuple(counts)

    def replica_utilization(self) -> tuple[float, ...]:
        """Busy fraction of each replica over the stream's makespan."""
        makespan = self.makespan_s
        busy = [0.0] * self.replicas
        for replica, resp in zip(self.assignments, self.responses):
            busy[replica] += resp.service_s
        return tuple(b / makespan for b in busy)

    # -- primitives of the shared figures ---------------------------------

    def _per_platform_service(self) -> tuple[dict[str, float], dict[str, int]]:
        service: dict[str, float] = {}
        count: dict[str, int] = {}
        for r in self.responses:
            name = r.result.platform
            service[name] = service.get(name, 0.0) + r.service_s
            count[name] = count.get(name, 0) + 1
        return service, count

    @property
    def makespan_s(self) -> float:
        """Wall-clock span of the stream: the last response's finish."""
        return max(r.finish_s for r in self.responses)

    @property
    def _last_arrival_s(self) -> float:
        return max(r.request.arrival_s for r in self.responses)

    @property
    def replica_platforms(self) -> tuple[str, ...]:
        """Platform key of every *provisioned* replica, in replica order."""
        if self.platforms:
            return self.platforms
        return (self.platform,) * self.replicas

    @property
    def slo_miss_rate(self) -> float:
        """Fraction of requests whose sojourn exceeded their SLO.

        Each request is judged against its own ``slo_ms`` when set,
        falling back to the stream-level SLO otherwise.
        """
        misses = 0
        for r in self.responses:
            slo = r.request.effective_slo_ms(self.slo_ms)
            if slo is None:
                raise ServingError("no SLO configured for this stream")
            misses += r.sojourn_ms > slo
        return misses / self.n_requests

    def _members(self, field: str) -> list[tuple[ServeResponse, object]]:
        value = _RESPONSE_FIELDS[field]
        return [(r, value(r)) for r in self.responses]

    def _subset(self, responses: Iterable[ServeResponse]) -> "StreamReport":
        # A single-engine sub-report: fleet assignments do not slice
        # meaningfully, and scale events are stream-wide, not per-class.
        return StreamReport(
            platform=self.platform,
            responses=tuple(responses),
            slo_ms=self.slo_ms,
            scheduler=self.scheduler,
            batcher=self.batcher,
            faults=self.faults,
        )


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
        options = {} if max_batch is None else {"max_batch": max_batch}
        return _serve_stream(
            arrivals,
            platform=self.platform_name,
            engines=(self,),
            schedulers=(make_scheduler(scheduler),),
            batchers=(make_batcher(batcher, **options),),
            dispatch=single_replica_dispatch,
            slo_ms=slo_ms,
            mode=mode,
            presorted=presorted,
            faults=faults,
            fault_seed=fault_seed,
            timeout_ms=timeout_ms,
            retries=retries,
            hedge_ms=hedge_ms,
        )


def _serve_stream(
    arrivals: Iterable[ServeRequest | RNNTask],
    *,
    platform: str,
    schedulers: Sequence[Scheduler],
    batchers: Sequence[Batcher],
    slo_ms: float | None,
    mode: str,
    faults: str | FaultPolicy | Callable[[], FaultPolicy],
    summary: StreamSummary | None = None,
    policy: str | None = None,
    replica_platform: Callable[[int], str] | None = None,
    **loop: object,
) -> "StreamReport | StreamSummary":
    """Engine and fleet ``serve_stream``'s one path to a report.

    Checks ``mode``, the ``summary`` sink and ``slo_ms``, resolves the
    fault policy and hands it with ``loop`` to
    :func:`~repro.serving.events.run_stream` (which keeps ``"none"`` on
    the fault-free loops), then finalizes the summary or builds a
    :class:`StreamReport`.
    ``replica_platform`` names each replica's platform on mixed rosters.
    """
    if mode not in ("full", "summary"):
        raise ServingError(
            f"unknown stream mode {mode!r}; expected 'full' or 'summary'"
        )
    if summary is not None and mode != "summary":
        raise ServingError("a summary sink only makes sense with mode='summary'")
    _check_budget_ms("slo_ms", slo_ms)
    fault_policy = make_fault_policy(faults)
    scheduler, batcher = schedulers[0].name, batchers[0].name
    if mode == "summary" and summary is None:
        summary = StreamSummary(
            platform,
            slo_ms=slo_ms,
            scheduler=scheduler,
            batcher=batcher,
            faults=fault_policy.name,
        )
    outcome = run_stream(
        arrivals,
        schedulers=schedulers,
        batchers=batchers,
        slo_ms=slo_ms,
        summary=summary,
        faults=fault_policy,
        **loop,
    )
    platforms: tuple[str, ...] = ()
    if replica_platform is not None:
        platforms = tuple(map(replica_platform, range(outcome.n_replicas)))
    if summary is not None:
        return summary.finalize(
            scale_events=outcome.scale_events,
            replicas=outcome.n_replicas,
            active_replicas=outcome.active_replicas,
            policy=policy,
            fault_stats=outcome.fault_stats,
            platforms=platforms,
        )
    return StreamReport(
        platform=platform,
        responses=tuple(outcome.responses),
        slo_ms=slo_ms,
        scheduler=scheduler,
        batcher=batcher,
        scale_events=outcome.scale_events,
        faults=fault_policy.name,
        fault_stats=outcome.fault_stats,
        policy=policy,
        assignments=tuple(outcome.assignments),
        replicas=outcome.n_replicas,
        active_replicas=outcome.active_replicas,
        platforms=platforms,
    )
