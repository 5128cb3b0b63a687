"""The discrete-event loop shared by engine and fleet streams.

One simulation drives both :meth:`ServingEngine.serve_stream` (a single
replica) and :meth:`Fleet.serve_stream` (N replicas behind a
dispatcher).  Three event kinds flow through the simulation:

* ``FREE`` — a replica finishes an execution and consults its batcher
  for the next one.
* ``ARRIVAL`` — a request enters the system.  The autoscaler (if any)
  may first resize the active replica set; the dispatcher then picks a
  replica, the replica's engine prepares/serves the model (compile-once
  cache; service times are deterministic per platform+task), and the
  request joins that replica's ready queue under its scheduler.
* ``LAUNCH`` — a batcher held an idle replica open to let a batch
  accumulate (see :mod:`repro.serving.batching`); the hold expires and
  the replica launches whatever is ready.  Sorted after arrivals at
  equal timestamps so a request arriving exactly at the deadline still
  joins the batch.

Four more kinds exist only in the fault-aware loop (entered when a
:class:`~repro.serving.faults.FaultPolicy` other than ``"none"`` — or a
timeout/hedge — is configured): ``CRASH``/``RECOVER`` bracket a
replica's downtime (the in-flight batch aborts and requeues; recovery
rebuilds the engine through the replica factory, re-paying compile
warmup), ``TIMEOUT`` expires a request attempt (bounded retries, then a
``"timeout"`` outcome), and ``HEDGE`` dispatches a duplicate copy whose
first completion wins.  ``faults="none"`` never enters that loop, so
every existing timeline stays bit-identical and pays zero overhead.

The loop is O(n log n) in the number of requests and — this is the
million-request point — **O(1) in memory** along three axes:

* arrivals are consumed *incrementally*: only FREE/LAUNCH events live in
  the heap, and the next arrival is peeked from the (possibly lazy)
  input stream, so a generator or JSONL trace never materializes;
* with ``presorted=True``, :func:`normalize_arrivals` skips the
  materialize+sort+duplicate-set pass entirely and instead validates
  lazily that arrivals are time-ordered with strictly increasing
  ``request_id`` (what :func:`repro.serving.traffic.mix` and every
  built-in generator emit);
* with a :class:`~repro.serving.stats.StreamSummary` sink, responses
  are folded into O(1) online accumulators instead of being collected.

Two specialized loops peel off the hot common cases before the general
heap.  The FIFO/unbatched configuration — the paper's serving scenario,
and every capacity-planner candidate — needs neither an event heap nor
a scheduler queue on any number of replicas: with per-replica FIFO
queues, batch 1 and dispatch on arrival, each request's start is fixed
the moment it is dispatched, reducing it to a handful of float ops.  A
single replica with any other scheduler and a non-holding batcher still
needs no event heap (completions and arrivals merge in order).  Every
path evaluates ``start = max(arrival, replica_free_at)`` with the same
floats in the same order, and folds summaries in the general loop's
launch order, so the FIFO + ``"none"`` timeline stays bit-for-bit
identical to the pre-refactor sequential simulations (pinned by the
golden and forced-heap parity tests).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.errors import ServingError
from repro.serving.autoscaler import Autoscaler, ScaleEvent
from repro.serving.batching import Batcher, NoneBatcher
from repro.serving.faults import FaultPolicy, NoFaults
from repro.serving.request import ServeRequest, ServeResponse, _check_budget_ms
from repro.serving.result import FaultStats
from repro.serving.scheduler import FIFOScheduler, QueuedRequest, Scheduler
from repro.workloads.deepbench import RNNTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.serving.engine import ServingEngine
    from repro.serving.stats import StreamSummary

__all__ = [
    "normalize_arrivals",
    "run_stream",
    "StreamOutcome",
    "StreamDispatcher",
    "single_replica_dispatch",
]

#: Event kinds; FREE sorts before ARRIVAL at equal timestamps so an
#: arrival always sees the replica's settled state, and LAUNCH sorts
#: after ARRIVAL so a same-instant arrival can join the launching batch.
#: RECOVER (fault loop only) sorts with FREE — a replica recovering at
#: an arrival's instant may take it — while CRASH/TIMEOUT/HEDGE sort
#: after ARRIVAL, so a same-instant arrival is admitted before the
#: fault strikes.
_FREE, _RECOVER, _ARRIVAL, _LAUNCH, _CRASH, _TIMEOUT, _HEDGE = range(7)

_INF = float("inf")

#: Legacy dispatcher: (seq, request, projected per-replica completion
#: times of the *active* replicas) -> replica index.
Dispatcher = Callable[[int, ServeRequest, Sequence[float]], int]

#: Factory building the replica at one index slot:
#: (index) -> (engine, scheduler, batcher).  The index lets a mixed
#: fleet grow along its platform pattern and lets a crash recovery
#: rebuild a dead replica on its own platform.
ReplicaFactory = Callable[[int], "tuple[ServingEngine, Scheduler, Batcher]"]


class StreamDispatcher:
    """Incremental dispatcher protocol for fleet-scale streams.

    The legacy dispatcher contract hands every arrival a *snapshot* of
    all active replicas' projected completion times — an O(replicas)
    copy per request that turns least-loaded dispatch quadratic on big
    fleets.  A :class:`StreamDispatcher` instead receives *deltas*: the
    loop calls :meth:`assign` whenever one replica's projection changes
    and :meth:`resize` whenever the autoscaler changes the active set,
    so a policy can maintain its own O(log n) structure (see
    ``Fleet``'s least-loaded heap).  Plain callables keep working
    unchanged.

    Example::

        >>> from repro.serving.events import StreamDispatcher
        >>> class First(StreamDispatcher):
        ...     def choose(self, seq, request): return 0
        >>> First().choose(0, None)
        0
    """

    def choose(self, seq: int, request: ServeRequest) -> int:
        """Pick the replica for one arrival."""
        raise NotImplementedError  # pragma: no cover

    def assign(self, replica: int, work_until_s: float) -> None:
        """One replica's projected completion time advanced."""

    def resize(self, active: int, work_until: Sequence[float]) -> None:
        """The active replica set changed (autoscaler or stream start)."""

    def bind(self, engines: "Sequence[ServingEngine]") -> None:
        """The live replica list, before the stream starts.

        The loop mutates the bound list in place (autoscale growth
        appends, crash recovery replaces), so cost-aware dispatchers —
        which price each arrival under each replica's own platform —
        stay current without further calls.  Default: ignore it.
        """


def single_replica_dispatch(
    seq: int, request: ServeRequest, work_until: Sequence[float]
) -> int:
    """The engine's trivial one-replica dispatcher (always replica 0).

    Passing this exact function lets :func:`run_stream` skip per-arrival
    dispatch bookkeeping entirely on the single-replica fast paths.
    """
    return 0


@dataclass(frozen=True)
class StreamOutcome:
    """Everything one stream simulation produced.

    Attributes:
        responses: One response per request, in arrival order — empty
            when the stream ran against a summary sink (``mode="summary"``),
            which folds responses online instead of collecting them.
        assignments: Replica index per request, in arrival order (empty
            in summary mode; the summary tracks per-replica counts).
        scale_events: Autoscaler actions applied during the run.
        n_replicas: Total replicas that existed by the end (grown
            replicas included) — the peak capacity the run used.
        active_replicas: Replicas still active when the stream drained
            (equal to ``n_replicas`` unless the autoscaler scaled down).
        fault_stats: Injected-fault counters (all zero outside the
            fault-aware loop).

    Example::

        >>> from repro.serving import ServingEngine, uniform_arrivals
        >>> from repro.serving.events import run_stream
        >>> from repro.serving.scheduler import make_scheduler
        >>> from repro.workloads.deepbench import task
        >>> engine = ServingEngine("gpu")
        >>> arrivals = uniform_arrivals(task("lstm", 512, 25),
        ...                             rate_per_s=100, n_requests=3)
        >>> out = run_stream(arrivals, engines=(engine,),
        ...                  schedulers=(make_scheduler("fifo"),),
        ...                  dispatch=lambda seq, req, work: 0)
        >>> (len(out.responses), out.assignments, out.n_replicas)
        (3, [0, 0, 0], 1)
    """

    responses: "list[ServeResponse]"
    assignments: list[int]
    scale_events: tuple[ScaleEvent, ...] = ()
    n_replicas: int = 1
    active_replicas: int = 1
    fault_stats: FaultStats = FaultStats()


def _presorted_stream(
    arrivals: Iterable[ServeRequest | RNNTask],
) -> Iterator[ServeRequest]:
    """Lazily validate a pre-sorted stream: non-decreasing arrival times
    and strictly increasing request ids (which rules out duplicates with
    O(1) state — no id set is ever built)."""
    prev_arrival = -_INF
    prev_id: int | None = None
    position = 0
    for item in arrivals:
        if isinstance(item, RNNTask):
            item = ServeRequest(task=item, request_id=position)
        arrival = item.arrival_s
        if arrival < prev_arrival:
            raise ServingError(
                f"presorted stream is out of order: request "
                f"{item.request_id} arrives at {arrival} after "
                f"{prev_arrival}; pass presorted=False to sort"
            )
        rid = item.request_id
        if prev_id is not None and rid <= prev_id:
            raise ServingError(
                f"presorted stream needs strictly increasing request ids "
                f"(saw {rid} after {prev_id}); merge streams with "
                f"repro.serving.traffic.mix() — it renumbers globally — "
                f"or pass presorted=False"
            )
        prev_arrival = arrival
        prev_id = rid
        position += 1
        yield item


def normalize_arrivals(
    arrivals: Iterable[ServeRequest | RNNTask],
    *,
    presorted: bool = False,
) -> "list[ServeRequest] | Iterator[ServeRequest]":
    """Sort a stream into arrival order and validate request ids.

    Bare :class:`RNNTask` items are wrapped as arrival-time-zero requests
    with ids taken from their position.  Duplicate ``request_id``s are
    rejected outright: a stream merged by hand from several generators
    almost always collides on ids (every generator numbers from 0), which
    silently breaks FIFO tie-breaking and per-request accounting — use
    :func:`repro.serving.traffic.mix`, which re-numbers globally.

    With ``presorted=True`` the materialize+sort+duplicate-set pass is
    skipped: a *lazy* validator is returned instead, which checks — in
    O(1) memory, while the event loop consumes it — that arrivals are
    time-ordered with strictly increasing ids (every built-in generator,
    :func:`~repro.serving.traffic.mix`, and recorded traces satisfy
    this; monotone ids double as the duplicate check).  This is what
    lets ``serve_stream`` run a multi-million-request generator without
    holding it.

    Example::

        >>> from repro.serving.events import normalize_arrivals
        >>> from repro.serving import ServeRequest
        >>> from repro.workloads.deepbench import task
        >>> t = task("lstm", 512, 25)
        >>> reqs = [ServeRequest(task=t, arrival_s=0.2, request_id=1),
        ...         ServeRequest(task=t, arrival_s=0.1, request_id=0)]
        >>> [r.request_id for r in normalize_arrivals(reqs)]
        [0, 1]
        >>> lazy = normalize_arrivals(sorted(reqs, key=lambda r: r.arrival_s),
        ...                           presorted=True)
        >>> [r.request_id for r in lazy]       # validated as it streams
        [0, 1]
    """
    if presorted:
        return _presorted_stream(arrivals)
    requests: list[ServeRequest] = []
    for position, item in enumerate(arrivals):
        if isinstance(item, RNNTask):
            item = ServeRequest(task=item, request_id=position)
        requests.append(item)
    if not requests:
        raise ServingError("serve_stream needs at least one request")
    ordered = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    seen: set[int] = set()
    duplicates: set[int] = set()
    for req in ordered:
        if req.request_id in seen:
            duplicates.add(req.request_id)
        seen.add(req.request_id)
    if duplicates:
        shown = ", ".join(str(d) for d in sorted(duplicates)[:5])
        raise ServingError(
            f"duplicate request_id(s) in stream ({shown}); merge streams "
            f"with repro.serving.traffic.mix() to get globally unique ids"
        )
    return ordered


def run_stream(
    arrivals: Iterable[ServeRequest | RNNTask],
    *,
    engines: Sequence["ServingEngine"],
    schedulers: Sequence[Scheduler],
    dispatch: "Dispatcher | StreamDispatcher",
    slo_ms: float | None = None,
    batchers: Sequence[Batcher] | None = None,
    autoscaler: Autoscaler | None = None,
    replica_factory: ReplicaFactory | None = None,
    presorted: bool = False,
    summary: "StreamSummary | None" = None,
    faults: FaultPolicy | None = None,
    fault_seed: int = 0,
    timeout_ms: float | None = None,
    retries: int = 0,
    hedge_ms: float | None = None,
) -> StreamOutcome:
    """Simulate a timestamped stream over one or more replicas.

    Args:
        arrivals: The request stream — any iterable, including a lazy
            generator or trace reader (sorted internally unless
            ``presorted=True``).
        engines: One :class:`ServingEngine` per starting replica.
        schedulers: One scheduler per replica (same length as engines).
        dispatch: Assigns each arrival to a replica — either a legacy
            callable receiving the projected completion times of all
            *active* replicas (the classic join-the-shortest-queue
            signal), or an incremental :class:`StreamDispatcher`.
        slo_ms: Stream-level SLO; per-request ``slo_ms`` overrides it
            when computing deadlines for deadline-aware schedulers and
            SLO-aware batching.
        batchers: One batching policy per replica; defaults to the
            ``"none"`` policy everywhere (classic batch-1 serving).
        autoscaler: Optional policy resizing the active replica set as
            the stream runs; evaluated on every arrival and completion.
        replica_factory: Grows the fleet on scale-up; required when
            ``autoscaler`` may target more replicas than ``engines``.
        presorted: Trust (and lazily validate) that ``arrivals`` is
            already time-ordered with strictly increasing ids, skipping
            the materialize+sort pass — see :func:`normalize_arrivals`.
        summary: Optional :class:`~repro.serving.stats.StreamSummary`
            sink.  When given, completed requests are folded into its
            O(1) accumulators instead of being collected, and the
            returned outcome carries empty ``responses``/``assignments``.
        faults: Optional :class:`~repro.serving.faults.FaultPolicy`
            instance; anything other than ``"none"`` routes the stream
            through the fault-aware loop.  The loop calls
            ``faults.reset(fault_seed)``, so a given seed reproduces the
            same crash/straggler timeline on every run.
        fault_seed: Seed for the fault policy's deterministic draws.
        timeout_ms: Per-attempt latency budget; an attempt not finished
            within it is cancelled and (with ``retries``) re-dispatched,
            else answered with outcome ``"timeout"``.
        retries: Re-dispatches allowed after timeouts (needs
            ``timeout_ms``).
        hedge_ms: Dispatch a duplicate copy if the request has not
            finished this long after arrival; first completion wins and
            the loser is cancelled.

    Returns:
        A :class:`StreamOutcome`; its responses and assignments are
        indexed by arrival order — response ``i`` answers the ``i``-th
        request in arrival order no matter when (or in which batch) the
        scheduler actually served it.

    Example::

        >>> from repro.serving import ServingEngine, uniform_arrivals
        >>> from repro.serving.events import run_stream
        >>> from repro.serving.scheduler import make_scheduler
        >>> from repro.workloads.deepbench import task
        >>> out = run_stream(
        ...     uniform_arrivals(task("lstm", 512, 25),
        ...                      rate_per_s=200, n_requests=4),
        ...     engines=(ServingEngine("gpu"),),
        ...     schedulers=(make_scheduler("fifo"),),
        ...     dispatch=lambda seq, req, work: 0)
        >>> [r.request.request_id for r in out.responses]
        [0, 1, 2, 3]
    """
    engine_list = list(engines)
    scheduler_list = list(schedulers)
    batcher_list = (
        [NoneBatcher() for _ in engine_list] if batchers is None else list(batchers)
    )
    if not (len(engine_list) == len(scheduler_list) == len(batcher_list)):
        raise ServingError("need exactly one scheduler and batcher per replica")

    def bind_cost(replica: int) -> None:
        engine = engine_list[replica]
        batcher_list[replica].bind_cost(
            lambda task, size, _e=engine: _e.batch_latency_s(task, size)
        )

    for replica in range(len(engine_list)):
        bind_cost(replica)

    _check_budget_ms("timeout_ms", timeout_ms)
    _check_budget_ms("hedge_ms", hedge_ms)
    if retries < 0:
        raise ServingError("retries must be >= 0")
    if retries > 0 and timeout_ms is None:
        raise ServingError("retries need timeout_ms to be set")

    stream = normalize_arrivals(arrivals, presorted=presorted)

    # Any real fault policy — or a timeout/hedge, which are loop
    # features independent of the policy — routes through the separate
    # fault-aware loop.  ``faults="none"`` alone does not: the perfect-
    # machine paths below run untouched, bit-identical and overhead-free.
    if (
        (faults is not None and faults.name != "none")
        or timeout_ms is not None
        or hedge_ms is not None
    ):
        policy = faults if faults is not None else NoFaults()
        policy.reset(fault_seed)
        return _run_faulty(
            stream,
            engine_list,
            scheduler_list,
            batcher_list,
            bind_cost,
            dispatch,
            slo_ms,
            autoscaler,
            replica_factory,
            summary,
            policy,
            timeout_ms,
            retries,
            hedge_ms,
        )

    # Without an autoscaler, replicas that all queue FIFO and serve
    # batch 1 fix each request's start at dispatch, on any number of
    # replicas and under any dispatcher: no event heap, no scheduler.
    # Exact types, so a subclass (e.g. one overriding ``hold_until``)
    # keeps the general loop.  This covers the paper's serving scenario
    # and every capacity-planner candidate.
    if autoscaler is None:
        if all(type(s) is FIFOScheduler for s in scheduler_list) and all(
            type(b) is NoneBatcher for b in batcher_list
        ):
            return _run_fifo_unbatched(stream, engine_list, dispatch, summary)
        # A single replica whose batcher never holds (the base
        # ``hold_until`` is un-overridden) needs no event heap either:
        # completions and arrivals merge in time order directly.
        if (
            len(engine_list) == 1
            and type(batcher_list[0]).hold_until is Batcher.hold_until
        ):
            return _run_single_replica(
                stream,
                engine_list[0],
                scheduler_list[0],
                batcher_list[0],
                dispatch,
                slo_ms,
                summary,
            )

    return _run_heap(
        stream,
        engine_list,
        scheduler_list,
        batcher_list,
        bind_cost,
        dispatch,
        slo_ms,
        autoscaler,
        replica_factory,
        summary,
    )


def _choose_single(
    dispatch: "Dispatcher | StreamDispatcher",
    seq: int,
    req: ServeRequest,
    work: list[float],
) -> None:
    """Run a custom dispatcher against the one-replica view (parity with
    the general loop's contract, including its error)."""
    if isinstance(dispatch, StreamDispatcher):
        replica = dispatch.choose(seq, req)
    else:
        replica = dispatch(seq, req, work)
    if replica != 0:
        raise ServingError(f"dispatcher chose invalid replica {replica}")


def _run_fifo_unbatched(
    stream: Iterable[ServeRequest],
    engines: "list[ServingEngine]",
    dispatch: "Dispatcher | StreamDispatcher",
    summary: "StreamSummary | None",
) -> StreamOutcome:
    """The hottest path: k replicas, each FIFO and batch 1, no autoscaler.

    Each replica serves its requests in dispatch order, so a request's
    start is fixed the moment it is dispatched — ``start =
    max(arrival, work_until[r])``, the general loop's own dispatch
    projection — and no heap, scheduler queue or per-request
    :class:`QueuedRequest` is needed.  The floats are those of
    :func:`_run_heap`, computed in the same order, and each replica
    looks a task up only when its task changes.

    A summary sink folds requests in the general loop's launch order,
    because its float sums and an early :class:`PruneAbort
    <repro.dse.runner.PruneAbort>` depend on it:

    * by start time;
    * at equal times, FREE-launched requests (started when their
      replica's previous request finished) before arrival-launched ones
      (started on arrival at an idle replica);
    * FREE-launched ties by replica index, arrival-launched ties in
      arrival order.

    An arrival at an idle replica folds at once; one that queues waits
    in its replica's FIFO buffer, and the buffers merge through a heap
    of at most k ``(start, replica)`` heads, flushed up to each arrival.
    Per-replica request counts and the bulk cache-hit credit (see
    :class:`~repro.serving.engine.CacheStats`) are settled when the
    loop exits, normally or by an abort, so a pruned stream reports the
    counts the general loop noted arrival by arrival.

    One replica under :func:`single_replica_dispatch` (what
    :meth:`ServingEngine.serve_stream
    <repro.serving.engine.ServingEngine.serve_stream>` passes) keeps a
    separate tight body, so the paper's scenario pays per request for
    no dispatcher call, buffer or per-replica list: one float recursion
    and the fold.  It folds on arrival, which is launch order for one
    FIFO replica.
    """
    collect = summary is None
    responses: list[ServeResponse] = []
    append = responses.append
    observe = None if collect else summary.observe_served
    if len(engines) == 1 and dispatch is single_replica_dispatch:
        engine = engines[0]
        result_for = engine.result_for
        free_at = 0.0
        n = 0
        lookups = 0
        last_task: RNNTask | None = None
        last_result = None
        try:
            for req in stream:
                task = req.task
                if task is not last_task:
                    last_result = result_for(task)
                    last_task = task
                    lookups += 1
                result = last_result
                arrival = req.arrival_s
                start = arrival if arrival > free_at else free_at
                finish = start + result.latency_s
                free_at = finish
                n += 1
                if collect:
                    append(
                        ServeResponse(
                            request=req,
                            result=result,
                            queue_delay_s=start - arrival,
                            start_s=start,
                            finish_s=finish,
                        )
                    )
                else:
                    observe(req, result, start, finish, 1)
        finally:
            engine.cache_stats.hits += n - lookups
            if not collect:
                summary.note_assignment(0, n)
        if n == 0:
            raise ServingError("serve_stream needs at least one request")
        return StreamOutcome(
            responses=responses,
            assignments=[0] * n if collect else [],
        )

    k = len(engines)
    rich = isinstance(dispatch, StreamDispatcher)
    assignments: list[int] = []
    work = [0.0] * k
    if rich:
        dispatch.bind(engines)
        dispatch.resize(k, work)
        choose = dispatch.choose
        assign = dispatch.assign
    dispatched = [0] * k
    lookups_by = [0] * k
    last_tasks: list[RNNTask | None] = [None] * k
    last_results: list = [None] * k
    #: Summary mode: per-replica (request, result, start, finish) not yet
    #: launched, and a heap of each non-empty buffer's (start, replica).
    pending = [deque() for _ in range(k)]
    heads: list[tuple[float, int]] = []
    next_launch = _INF  # heads[0][0], or inf while no buffer is pending
    seq = 0

    def flush(until: float) -> float:
        # FREE events at ``until`` precede an arrival at ``until``; equal
        # starts leave the heap in replica order.
        while heads and heads[0][0] <= until:
            replica = heads[0][1]
            buf = pending[replica]
            req, result, start, finish = buf.popleft()
            if buf:
                heapq.heapreplace(heads, (buf[0][2], replica))
            else:
                heapq.heappop(heads)
            observe(req, result, start, finish, 1)
        return heads[0][0] if heads else _INF

    try:
        for req in stream:
            arrival = req.arrival_s
            if arrival >= next_launch:
                next_launch = flush(arrival)
            if rich:
                replica = choose(seq, req)
            else:
                replica = dispatch(seq, req, work)
            if not 0 <= replica < k:
                raise ServingError(f"dispatcher chose invalid replica {replica}")
            task = req.task
            if task is last_tasks[replica]:
                result = last_results[replica]
            else:
                result = engines[replica].result_for(task)
                last_tasks[replica] = task
                last_results[replica] = result
                lookups_by[replica] += 1
            free_at = work[replica]
            start = arrival if arrival > free_at else free_at
            finish = start + result.latency_s
            work[replica] = finish
            if rich:
                assign(replica, finish)
            dispatched[replica] += 1
            seq += 1
            if collect:
                append(
                    ServeResponse(
                        request=req,
                        result=result,
                        queue_delay_s=start - arrival,
                        start_s=start,
                        finish_s=finish,
                    )
                )
                assignments.append(replica)
            elif free_at <= arrival:
                # Idle replica: the request launches on arrival.
                observe(req, result, start, finish, 1)
            else:
                buf = pending[replica]
                if not buf:
                    heapq.heappush(heads, (start, replica))
                    if start < next_launch:
                        next_launch = start
                buf.append((req, result, start, finish))
        if heads:
            flush(_INF)
    finally:
        for replica, count in enumerate(dispatched):
            engines[replica].cache_stats.hits += count - lookups_by[replica]
            if count and not collect:
                summary.note_assignment(replica, count)
    if seq == 0:
        raise ServingError("serve_stream needs at least one request")
    return StreamOutcome(
        responses=responses,
        assignments=assignments,
        n_replicas=k,
        active_replicas=k,
    )


def _run_single_replica(
    stream: Iterable[ServeRequest],
    engine: "ServingEngine",
    scheduler: Scheduler,
    batcher: Batcher,
    dispatch: "Dispatcher | StreamDispatcher",
    slo_ms: float | None,
    summary: "StreamSummary | None",
) -> StreamOutcome:
    """One replica, any scheduler, any non-holding batcher: merge
    completions and arrivals in time order without an event heap.

    Invariant: whenever the replica is idle its ready queue is empty
    (an arrival launches immediately when idle), so only completions
    that precede the next arrival need replaying before it queues.
    """
    trivial = dispatch is single_replica_dispatch
    collect = summary is None
    responses: list[ServeResponse | None] = []
    observe = None if collect else summary.observe_served
    result_for = engine.result_for
    none_batcher = type(batcher) is NoneBatcher
    push = scheduler.push
    pop = scheduler.pop
    qlen = scheduler.__len__
    work = [0.0]
    if isinstance(dispatch, StreamDispatcher):
        dispatch.bind([engine])
        dispatch.resize(1, work)
    free_at = 0.0
    busy = False
    seq = 0
    lookups = 0
    last_task: RNNTask | None = None
    last_result = None
    stream_slo = slo_ms

    def launch(now: float) -> None:
        nonlocal free_at, busy
        if none_batcher:
            entries = [pop()]
        else:
            entries = batcher.take(scheduler, now)
            if not entries:
                raise ServingError(
                    f"batcher {batcher.name!r} returned an empty batch"
                )
        head = entries[0]
        arrival = head.request.arrival_s
        start = arrival if arrival > now else now
        if len(entries) == 1:
            # The exact pre-batching arithmetic: parity for batcher="none".
            finish = start + head.service_s
            if collect:
                responses[head.seq] = ServeResponse(
                    request=head.request,
                    result=head.result,
                    queue_delay_s=start - arrival,
                    start_s=start,
                    finish_s=finish,
                )
            else:
                observe(head.request, head.result, start, finish, 1)
        else:
            exec_task = _batch_exec_task(entries, batcher)
            result = engine.serve_batched(exec_task, len(entries))
            finish = start + result.latency_s
            size = len(entries)
            for index, entry in enumerate(entries):
                if collect:
                    responses[entry.seq] = ServeResponse(
                        request=entry.request,
                        result=result,
                        queue_delay_s=start - entry.request.arrival_s,
                        start_s=start,
                        finish_s=finish,
                        batch_size=size,
                        batch_index=index,
                    )
                else:
                    observe(entry.request, result, start, finish, size)
        busy = True
        free_at = finish

    try:
        for req in stream:
            t = req.arrival_s
            # Completions that fire no later than this arrival (FREE
            # sorts before ARRIVAL at equal stamps) launch first.
            while busy and free_at <= t:
                busy = False
                if qlen():
                    launch(free_at)
            if not trivial:
                _choose_single(dispatch, seq, req, work)
            task = req.task
            if task is not last_task:
                last_result = result_for(task)
                last_task = task
                lookups += 1
            result = last_result
            if not trivial:
                work[0] = (t if t > work[0] else work[0]) + result.latency_s
            slo = req.slo_ms
            if slo is None:
                slo = stream_slo
            push(
                QueuedRequest(
                    seq=seq,
                    request=req,
                    result=result,
                    service_s=result.latency_s,
                    deadline_s=_INF if slo is None else t + slo / 1e3,
                )
            )
            if collect:
                responses.append(None)
            seq += 1
            if not busy:
                launch(t)
        # Drain: replay the remaining FREE chain.
        while busy:
            busy = False
            if qlen():
                launch(free_at)
    finally:
        # Settled even when a summary sink aborts the stream (a pruned
        # planner candidate): ``seq`` counts exactly the arrivals the
        # general loop would have noted by then.
        engine.cache_stats.hits += seq - lookups
        if not collect:
            summary.note_assignment(0, seq)
    if seq == 0:
        raise ServingError("serve_stream needs at least one request")
    return StreamOutcome(
        responses=responses,  # type: ignore[arg-type]
        assignments=[0] * seq if collect else [],
    )


def _batch_exec_task(entries: "list[QueuedRequest]", batcher: Batcher) -> RNNTask:
    """The task a coalesced batch executes at: the head's task padded to
    the longest member (the pad/bucket policies).  Same-length batches
    reduce to the head's task exactly.  Mixing task *families* is a
    batcher bug."""
    head = entries[0]
    exec_task = head.request.task
    for e in entries[1:]:
        t = e.request.task
        if t == exec_task:
            continue
        if t.family_key != exec_task.family_key:
            raise ServingError(
                f"batcher {batcher.name!r} coalesced requests from "
                f"different task families into one batch"
            )
        exec_task = exec_task.padded_to(t.timesteps)
    return exec_task


def _run_heap(
    stream: Iterable[ServeRequest],
    engine_list: "list[ServingEngine]",
    scheduler_list: "list[Scheduler]",
    batcher_list: "list[Batcher]",
    bind_cost: Callable[[int], None],
    dispatch: "Dispatcher | StreamDispatcher",
    slo_ms: float | None,
    autoscaler: Autoscaler | None,
    replica_factory: ReplicaFactory | None,
    summary: "StreamSummary | None",
) -> StreamOutcome:
    """The general loop: N replicas, holds, autoscaling.

    Only FREE and LAUNCH events live in the heap; arrivals are peeked
    one at a time from the (possibly lazy) sorted stream, so the heap
    size is bounded by the replica count, not the stream length.
    """
    collect = summary is None
    rich = isinstance(dispatch, StreamDispatcher)
    responses: list[ServeResponse | None] = []
    assignments: list[int] = []
    observe = None if collect else summary.observe_served
    assign_note = None if collect else summary.note_assignment
    #: Projected completion of all work assigned to each replica; the
    #: dispatch signal (identical to the pre-refactor ``free_at``).  The
    #: projection assumes unbatched service, so with batching it is an
    #: upper bound — still the right join-the-shortest-queue signal.
    work_until = [0.0] * len(engine_list)
    busy = [False] * len(engine_list)
    #: Pending LAUNCH deadline per replica (None = not holding); a
    #: LAUNCH event is stale unless its time matches exactly.
    hold_at: list[float | None] = [None] * len(engine_list)
    active = len(engine_list)
    scale_events: list[ScaleEvent] = []
    if autoscaler is not None:
        autoscaler.reset()
    if rich:
        dispatch.bind(engine_list)
        dispatch.resize(active, work_until)

    events: list[tuple[float, int, int]] = []

    def add_replica() -> None:
        if replica_factory is None:
            raise ServingError("autoscaler needs a replica_factory to scale up")
        engine, scheduler, batcher = replica_factory(len(engine_list))
        engine_list.append(engine)
        scheduler_list.append(scheduler)
        batcher_list.append(batcher)
        work_until.append(0.0)
        busy.append(False)
        hold_at.append(None)
        bind_cost(len(engine_list) - 1)

    def autoscale(now: float) -> None:
        nonlocal active
        depth = sum(len(scheduler_list[j]) for j in range(active))
        wait = min(max(work_until[j] - now, 0.0) for j in range(active))
        decision = autoscaler.decide(
            now=now,
            active=active,
            queue_depth=depth,
            projected_wait_s=wait,
            slo_ms=slo_ms,
        )
        if decision is None or decision.target == active:
            return
        while len(engine_list) < decision.target:
            add_replica()
        active = decision.target
        # Cooldown is charged only here, once the resize actually took
        # effect — decide() itself is side-effect free.
        autoscaler.note_applied(now)
        scale_events.append(
            ScaleEvent(
                time_s=now,
                action=decision.action,
                replicas=active,
                queue_depth=depth,
                reason=decision.reason,
            )
        )
        if rich:
            dispatch.resize(active, work_until)

    def launch(replica: int, now: float) -> None:
        queue = scheduler_list[replica]
        batcher = batcher_list[replica]
        ready_at = batcher.hold_until(queue, now)
        if ready_at > now:
            if hold_at[replica] != ready_at:
                # A LAUNCH for this exact deadline is not yet scheduled
                # (re-entered holds with an unchanged deadline reuse the
                # event already in the heap).
                hold_at[replica] = ready_at
                heapq.heappush(events, (ready_at, _LAUNCH, replica))
            return
        hold_at[replica] = None
        entries = batcher.take(queue, now)
        if not entries:
            raise ServingError(f"batcher {batcher.name!r} returned an empty batch")
        head = entries[0]
        start = max(head.request.arrival_s, now)
        if len(entries) == 1:
            # The exact pre-batching arithmetic: parity for batcher="none".
            finish = start + head.service_s
            if collect:
                responses[head.seq] = ServeResponse(
                    request=head.request,
                    result=head.result,
                    queue_delay_s=start - head.request.arrival_s,
                    start_s=start,
                    finish_s=finish,
                )
            else:
                observe(head.request, head.result, start, finish, 1)
        else:
            exec_task = _batch_exec_task(entries, batcher)
            engine = engine_list[replica]
            result = engine.serve_batched(exec_task, len(entries))
            finish = start + result.latency_s
            size = len(entries)
            for index, entry in enumerate(entries):
                if collect:
                    responses[entry.seq] = ServeResponse(
                        request=entry.request,
                        result=result,
                        queue_delay_s=start - entry.request.arrival_s,
                        start_s=start,
                        finish_s=finish,
                        batch_size=size,
                        batch_index=index,
                    )
                else:
                    observe(entry.request, result, start, finish, size)
        busy[replica] = True
        heapq.heappush(events, (finish, _FREE, replica))

    arrival_iter = iter(stream)
    next_req = next(arrival_iter, None)
    seq = 0
    while events or next_req is not None:
        # Does the next arrival precede every heap event?  FREE sorts
        # before ARRIVAL at equal stamps, LAUNCH after — the same total
        # order the materialized heap produced.
        if next_req is not None:
            if events:
                top = events[0]
                arrival_s = next_req.arrival_s
                take_arrival = arrival_s < top[0] or (
                    arrival_s == top[0] and top[1] == _LAUNCH
                )
            else:
                take_arrival = True
        else:
            take_arrival = False
        if take_arrival:
            req = next_req
            now = req.arrival_s
            if autoscaler is not None:
                autoscale(now)
            if rich:
                replica = dispatch.choose(seq, req)
            else:
                view = (
                    work_until
                    if active == len(work_until)
                    else work_until[:active]
                )
                replica = dispatch(seq, req, view)
            if not 0 <= replica < active:
                raise ServingError(f"dispatcher chose invalid replica {replica}")
            engine = engine_list[replica]
            result = engine.result_for(req.task)
            entry = QueuedRequest(
                seq=seq,
                request=req,
                result=result,
                service_s=result.latency_s,
                deadline_s=req.deadline_s(slo_ms),
            )
            work_until[replica] = (
                max(req.arrival_s, work_until[replica]) + result.latency_s
            )
            if rich:
                dispatch.assign(replica, work_until[replica])
            if collect:
                responses.append(None)
                assignments.append(replica)
            else:
                assign_note(replica)
            scheduler_list[replica].push(entry)
            if not busy[replica]:
                launch(replica, now)
            seq += 1
            next_req = next(arrival_iter, None)
            continue
        now, kind, index = heapq.heappop(events)
        if kind == _FREE:
            busy[index] = False
            if autoscaler is not None:
                autoscale(now)
            if len(scheduler_list[index]):
                launch(index, now)
        else:  # _LAUNCH: stale unless this exact hold is still pending
            if busy[index] or hold_at[index] != now:
                continue
            if len(scheduler_list[index]):
                launch(index, now)
            else:
                hold_at[index] = None

    if seq == 0:
        raise ServingError("serve_stream needs at least one request")
    return StreamOutcome(
        responses=responses,  # type: ignore[arg-type]
        assignments=assignments,
        scale_events=tuple(scale_events),
        n_replicas=len(engine_list),
        active_replicas=active,
    )


class _Flight:
    """One request's life inside the fault-aware loop.

    A request may have several live *copies* (retries, hedges, requeues
    after a crash or preemption) in queues and in flight at once; the
    flight is the single source of truth for whether it already
    resolved, which attempt is current, and the straggler factor drawn
    for it.  Deleted from the pending map on resolution, so the loop's
    memory stays O(in-system), not O(stream).
    """

    __slots__ = (
        "index",
        "request",
        "result",
        "factor",
        "deadline_s",
        "attempts",
        "hedged",
        "done",
    )

    def __init__(
        self, index: int, request: ServeRequest, factor: float, deadline_s: float
    ) -> None:
        self.index = index
        self.request = request
        self.result = None  # batch-1 result, filled at first dispatch
        self.factor = factor
        self.deadline_s = deadline_s
        self.attempts = 1
        self.hedged = False
        self.done = False


def _run_faulty(
    stream: Iterable[ServeRequest],
    engine_list: "list[ServingEngine]",
    scheduler_list: "list[Scheduler]",
    batcher_list: "list[Batcher]",
    bind_cost: Callable[[int], None],
    dispatch: "Dispatcher | StreamDispatcher",
    slo_ms: float | None,
    autoscaler: Autoscaler | None,
    replica_factory: ReplicaFactory | None,
    summary: "StreamSummary | None",
    policy: FaultPolicy,
    timeout_ms: float | None,
    retries: int,
    hedge_ms: float | None,
) -> StreamOutcome:
    """The unreliable-hardware loop: crashes, stragglers, timeouts,
    hedges, and preemption on top of the general heap simulation.

    Never entered for ``faults="none"`` without a timeout/hedge, so it
    adds zero cost to the perfect-machine paths.  Structure mirrors
    :func:`_run_heap` with three extensions:

    * every scheduler entry is a *copy* of a :class:`_Flight`; stale
      copies (superseded attempts, already-resolved requests) are
      filtered out when a batch launches or completes, which is how
      cancellation works without reaching into scheduler internals;
    * replicas carry a ``dead`` flag and a generation counter — bumping
      the generation invalidates the scheduled FREE of an aborted
      (crashed or preempted) execution, whose live members requeue;
    * responses are recorded at completion (not launch), because only
      then is it known which copy won.

    Determinism: every policy draw hashes ``(seed, replica)`` or
    ``(seed, request_id)``; the loop itself is a deterministic function
    of the stream, so a seed reproduces the identical timeline across
    runs and shard layouts.
    """
    collect = summary is None
    rich = isinstance(dispatch, StreamDispatcher)
    responses: list[ServeResponse | None] = []
    assignments: list[int] = []
    observe = None if collect else summary.observe_served
    assign_note = None if collect else summary.note_assignment
    n_start = len(engine_list)
    work_until = [0.0] * n_start
    busy = [False] * n_start
    dead = [False] * n_start
    generation = [0] * n_start
    hold_at: list[float | None] = [None] * n_start
    #: Per-replica in-flight execution: (live entries, start, finish,
    #: result, batch size); None when idle/aborted.
    inflight: list[tuple | None] = [None] * n_start
    active = n_start
    scale_events: list[ScaleEvent] = []
    if autoscaler is not None:
        autoscaler.reset()
    if rich:
        dispatch.bind(engine_list)
        dispatch.resize(active, work_until)

    timeout_s = None if timeout_ms is None else timeout_ms / 1e3
    hedge_s = None if hedge_ms is None else hedge_ms / 1e3

    #: request_id -> _Flight for every unresolved request.
    pending: dict[int, _Flight] = {}
    #: entry.seq -> (flight, attempt, is_hedge) for every live copy.
    copy_info: dict[int, tuple[_Flight, int, bool]] = {}

    n_crashes = 0
    downtime_total = 0.0
    n_preemptions = 0
    n_retries = 0
    n_timeouts = 0
    n_hedges = 0
    n_hedge_wins = 0
    n_stragglers = 0

    events: list[tuple[float, int, int, float]] = []
    qseq = 0  # unique per scheduler push (copies included)
    dseq = 0  # unique per dispatch decision (retries/hedges included)

    def schedule_crash(replica: int, after_s: float) -> None:
        nxt = policy.next_crash(replica, after_s)
        if nxt is None:
            return
        crash_s, down_s = nxt
        heapq.heappush(events, (max(crash_s, after_s), _CRASH, replica, down_s))

    def add_replica(now: float) -> None:
        if replica_factory is None:
            raise ServingError("autoscaler needs a replica_factory to scale up")
        engine, scheduler, batcher = replica_factory(len(engine_list))
        engine_list.append(engine)
        scheduler_list.append(scheduler)
        batcher_list.append(batcher)
        work_until.append(0.0)
        busy.append(False)
        dead.append(False)
        generation.append(0)
        hold_at.append(None)
        inflight.append(None)
        replica = len(engine_list) - 1
        bind_cost(replica)
        schedule_crash(replica, now)

    def autoscale(now: float) -> None:
        nonlocal active
        depth = sum(len(scheduler_list[j]) for j in range(active))
        wait = min(max(work_until[j] - now, 0.0) for j in range(active))
        decision = autoscaler.decide(
            now=now,
            active=active,
            queue_depth=depth,
            projected_wait_s=wait,
            slo_ms=slo_ms,
        )
        if decision is None or decision.target == active:
            return
        while len(engine_list) < decision.target:
            add_replica(now)
        active = decision.target
        autoscaler.note_applied(now)
        scale_events.append(
            ScaleEvent(
                time_s=now,
                action=decision.action,
                replicas=active,
                queue_depth=depth,
                reason=decision.reason,
            )
        )
        if rich:
            dispatch.resize(active, work_until)

    def record(
        flight: _Flight,
        result,
        start: float,
        finish: float,
        size: int,
        index: int,
        outcome: str,
    ) -> None:
        req = flight.request
        if collect:
            responses[flight.index] = ServeResponse(
                request=req,
                result=result,
                queue_delay_s=start - req.arrival_s,
                start_s=start,
                finish_s=finish,
                batch_size=size,
                batch_index=index,
                outcome=outcome,
                attempts=flight.attempts,
            )
        else:
            observe(req, result, start, finish, size, outcome=outcome)

    def push_copy(
        flight: _Flight, now: float, is_hedge: bool
    ) -> tuple[int, QueuedRequest]:
        """Dispatch one copy of a flight to a replica's ready queue."""
        nonlocal qseq, dseq
        req = flight.request
        if rich:
            replica = dispatch.choose(dseq, req)
        else:
            view = work_until if active == len(work_until) else work_until[:active]
            replica = dispatch(dseq, req, view)
        dseq += 1
        if not 0 <= replica < active:
            raise ServingError(f"dispatcher chose invalid replica {replica}")
        result = engine_list[replica].result_for(req.task)
        if flight.result is None:
            flight.result = result
        entry = QueuedRequest(
            seq=qseq,
            request=req,
            result=result,
            service_s=result.latency_s * flight.factor,
            deadline_s=flight.deadline_s,
        )
        copy_info[qseq] = (flight, flight.attempts, is_hedge)
        qseq += 1
        work_until[replica] = max(now, work_until[replica]) + entry.service_s
        if rich:
            dispatch.assign(replica, work_until[replica])
        scheduler_list[replica].push(entry)
        return replica, entry

    def abort_execution(replica: int, now: float) -> None:
        """Abort the in-flight batch; live members requeue on the same
        replica (stale copies are dropped for good)."""
        nonlocal qseq
        batch = inflight[replica]
        inflight[replica] = None
        generation[replica] += 1  # the scheduled FREE goes stale
        busy[replica] = False
        entries = batch[0]
        queue = scheduler_list[replica]
        for entry in entries:
            flight, attempt, is_hedge = copy_info.pop(entry.seq)
            if flight.done or flight.attempts != attempt:
                continue
            requeued = QueuedRequest(
                seq=qseq,
                request=entry.request,
                result=entry.result,
                service_s=entry.service_s,
                deadline_s=entry.deadline_s,
            )
            copy_info[qseq] = (flight, attempt, is_hedge)
            qseq += 1
            queue.push(requeued)

    def launch(replica: int, now: float) -> None:
        if busy[replica] or dead[replica]:
            return
        queue = scheduler_list[replica]
        batcher = batcher_list[replica]
        live: list[QueuedRequest] = []
        while not live:
            if not len(queue):
                hold_at[replica] = None
                return
            ready_at = batcher.hold_until(queue, now)
            if ready_at > now:
                if hold_at[replica] != ready_at:
                    hold_at[replica] = ready_at
                    heapq.heappush(events, (ready_at, _LAUNCH, replica, 0.0))
                return
            hold_at[replica] = None
            entries = batcher.take(queue, now)
            if not entries:
                raise ServingError(
                    f"batcher {batcher.name!r} returned an empty batch"
                )
            for entry in entries:
                flight, attempt, _ = copy_info[entry.seq]
                if flight.done or flight.attempts != attempt:
                    del copy_info[entry.seq]  # cancelled while queued
                    continue
                live.append(entry)
        head = live[0]
        start = max(head.request.arrival_s, now)
        if len(live) == 1:
            result = head.result
            finish = start + head.service_s  # straggler-inflated
        else:
            exec_task = _batch_exec_task(live, batcher)
            result = engine_list[replica].serve_batched(exec_task, len(live))
            # The batch straggles with its slowest member.
            max_factor = max(copy_info[e.seq][0].factor for e in live)
            finish = start + result.latency_s * max_factor
        busy[replica] = True
        inflight[replica] = (live, start, finish, result, len(live))
        heapq.heappush(events, (finish, _FREE, replica, float(generation[replica])))

    for replica in range(n_start):
        schedule_crash(replica, 0.0)

    arrival_iter = iter(stream)
    next_req = next(arrival_iter, None)
    seq = 0
    while next_req is not None or pending:
        if next_req is not None:
            if events:
                top = events[0]
                arrival_s = next_req.arrival_s
                take_arrival = arrival_s < top[0] or (
                    arrival_s == top[0] and top[1] > _ARRIVAL
                )
            else:
                take_arrival = True
        else:
            take_arrival = False

        if take_arrival:
            req = next_req
            now = req.arrival_s
            if autoscaler is not None:
                autoscale(now)
            factor = policy.straggler_factor(req)
            if factor < 1.0:
                raise ServingError(
                    f"fault policy {policy.name!r} returned straggler factor "
                    f"{factor} < 1"
                )
            if factor > 1.0:
                n_stragglers += 1
            flight = _Flight(
                index=seq,
                request=req,
                factor=factor,
                deadline_s=req.deadline_s(slo_ms),
            )
            pending[req.request_id] = flight
            replica, entry = push_copy(flight, now, is_hedge=False)
            if collect:
                responses.append(None)
                assignments.append(replica)
            else:
                assign_note(replica)
            if timeout_s is not None:
                heapq.heappush(
                    events, (now + timeout_s, _TIMEOUT, req.request_id, 1.0)
                )
            if hedge_s is not None:
                heapq.heappush(
                    events, (now + hedge_s, _HEDGE, req.request_id, 0.0)
                )
            if (
                policy.preemptive
                and busy[replica]
                and not dead[replica]
                and inflight[replica] is not None
            ):
                rank = scheduler_list[replica].preemption_rank
                running = [
                    rank(e)
                    for e in inflight[replica][0]
                    if e.seq in copy_info
                    and not copy_info[e.seq][0].done
                ]
                running_rank = max(running) if running else -_INF
                if policy.preempts(rank(entry), running_rank):
                    abort_execution(replica, now)
                    n_preemptions += 1
            if not busy[replica]:
                launch(replica, now)
            seq += 1
            next_req = next(arrival_iter, None)
            continue

        now, kind, index, payload = heapq.heappop(events)

        if kind == _FREE:
            replica = index
            if payload != generation[replica]:
                continue  # execution was aborted (crash/preemption)
            busy[replica] = False
            batch = inflight[replica]
            inflight[replica] = None
            entries, start, finish, result, size = batch
            for position, entry in enumerate(entries):
                flight, attempt, is_hedge = copy_info.pop(entry.seq)
                if flight.done or flight.attempts != attempt:
                    continue  # a sibling copy already won, or superseded
                flight.done = True
                del pending[entry.request.request_id]
                if is_hedge:
                    n_hedge_wins += 1
                    outcome = "hedged"
                elif flight.attempts > 1:
                    outcome = "retried"
                else:
                    outcome = "ok"
                record(flight, result, start, finish, size, position, outcome)
            if autoscaler is not None:
                autoscale(now)
            launch(replica, now)

        elif kind == _RECOVER:
            replica = index
            dead[replica] = False
            if replica_factory is not None:
                # The replacement engine comes through the fleet's
                # factory: it shares the fleet's compile cache, so
                # recovery warmup costs exactly what a scale-up does.
                engine, _scheduler, _batcher = replica_factory(replica)
                engine_list[replica] = engine
                bind_cost(replica)
            schedule_crash(replica, now)
            work_until[replica] = max(work_until[replica], now)
            if rich:
                dispatch.assign(replica, work_until[replica])
            launch(replica, now)

        elif kind == _LAUNCH:
            replica = index
            # Stale unless this exact hold is still pending on a live,
            # idle replica (crashes clear holds; launches reschedule).
            if busy[replica] or dead[replica] or hold_at[replica] != now:
                continue
            launch(replica, now)

        elif kind == _CRASH:
            replica = index
            n_crashes += 1
            downtime_total += payload
            hold_at[replica] = None
            dead[replica] = True
            if busy[replica]:
                abort_execution(replica, now)
            recover_at = now + payload
            work_until[replica] = max(work_until[replica], recover_at)
            if rich:
                dispatch.assign(replica, work_until[replica])
            heapq.heappush(events, (recover_at, _RECOVER, replica, payload))

        elif kind == _TIMEOUT:
            flight = pending.get(index)
            if flight is None or flight.done or flight.attempts != payload:
                continue  # resolved, or a newer attempt reset the budget
            if flight.attempts <= retries:
                # Older copies (queued or in flight) go stale via the
                # attempt tag; the timeout budget restarts now.
                flight.attempts += 1
                n_retries += 1
                replica, _entry = push_copy(flight, now, is_hedge=False)
                heapq.heappush(
                    events,
                    (now + timeout_s, _TIMEOUT, index, float(flight.attempts)),
                )
                launch(replica, now)
            else:
                n_timeouts += 1
                flight.done = True
                del pending[index]
                record(flight, flight.result, now, now, 1, 0, "timeout")

        else:  # _HEDGE
            flight = pending.get(index)
            if flight is None or flight.done or flight.hedged:
                continue
            flight.hedged = True
            n_hedges += 1
            replica, _entry = push_copy(flight, now, is_hedge=True)
            launch(replica, now)

    if seq == 0:
        raise ServingError("serve_stream needs at least one request")
    return StreamOutcome(
        responses=responses,  # type: ignore[arg-type]
        assignments=assignments,
        scale_events=tuple(scale_events),
        n_replicas=len(engine_list),
        active_replicas=active,
        fault_stats=FaultStats(
            crashes=n_crashes,
            downtime_s=downtime_total,
            preemptions=n_preemptions,
            retries=n_retries,
            timeouts=n_timeouts,
            hedges=n_hedges,
            hedge_wins=n_hedge_wins,
            stragglers=n_stragglers,
        ),
    )
