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
* every loop hands each completed request to one sink: a
  :class:`~repro.serving.stats.StreamSummary` folds it into O(1) online
  accumulators, and only a full report's response log keeps it.

Three specialized loops peel off the hot common cases before the
general heap.  The FIFO/unbatched configuration needs neither an event
heap nor a scheduler queue on any number of replicas: with per-replica
FIFO queues, batch 1 and dispatch on arrival, each request's start is
fixed the moment it is dispatched, reducing it to a handful of float
ops.  One such replica without a dispatcher (``dispatch=None``, the
paper's serving scenario) has a loop of its own, which folds a long run
of one class into a plain summary at once (:meth:`StreamSummary.observe_run
<repro.serving.stats.StreamSummary.observe_run>`), not one call each;
behind a dispatcher (a fleet, every capacity-planner candidate) k such
replicas fold in launch order.  A single replica with any other
scheduler and a non-holding batcher still needs no event heap
(completions and arrivals merge in order).  Every path evaluates
``start = max(arrival, replica_free_at)`` with the same floats in the
same order, and feeds its sink in the general loop's launch order, so
the FIFO + ``"none"`` timeline stays bit-for-bit identical to the
pre-refactor sequential simulations (pinned by the golden and
forced-heap parity tests, and by one full report per loop).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import chain, islice
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ServingError
from repro.serving.autoscaler import Autoscaler, ScaleEvent
from repro.serving.batching import Batcher, NoneBatcher
from repro.serving.faults import FaultPolicy, NoFaults
from repro.serving.request import ServeRequest, ServeResponse, _check_budget_ms
from repro.serving.result import FaultStats
from repro.serving.scheduler import FIFOScheduler, QueuedRequest, Scheduler
from repro.serving.stats import StreamSummary
from repro.workloads.deepbench import RNNTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.serving.engine import ServingEngine

__all__ = [
    "normalize_arrivals",
    "run_stream",
    "StreamOutcome",
    "StreamDispatcher",
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

#: Requests the single-replica FIFO loop buffers before it folds them
#: into a summary as one run (:meth:`StreamSummary.observe_run`).
_RUN_BUFFER = 1024

#: Requests the single-replica FIFO loop folds one call each between
#: its checks for a run: a run is buffered once a whole such chunk and
#: the request before it fell in one class that has spilled its exact
#: reservoir.  One :meth:`StreamSummary.observe_run` costs about what
#: 40 single folds do.
_RUN_CHUNK = 32

#: Factory building the replica at one index slot:
#: (index) -> (engine, scheduler, batcher).  The index lets a mixed
#: fleet grow along its platform pattern and lets a crash recovery
#: rebuild a dead replica on its own platform.
ReplicaFactory = Callable[[int], "tuple[ServingEngine, Scheduler, Batcher]"]


class StreamDispatcher:
    """The dispatch protocol of :func:`run_stream`.

    The loop hands a dispatcher *deltas*, never a snapshot of every
    replica: it calls :meth:`bind` and :meth:`resize` before the first
    arrival, :meth:`choose` once per dispatch, :meth:`assign` whenever
    one replica's projected completion time changes, and :meth:`resize`
    whenever the autoscaler changes the active set.  So a policy can
    keep its own O(log n) structure (see ``Fleet``'s least-loaded heap)
    instead of scanning every replica per arrival.

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


class _OnlyReplica(StreamDispatcher):
    """``dispatch=None`` on the heap loops: replica 0 takes everything."""

    def choose(self, seq: int, request: ServeRequest) -> int:
        return 0


class _ResponseLog:
    """A full report's sink: one :class:`ServeResponse` per completed
    request and one replica index per noted arrival.

    The loops call it as they call a
    :class:`~repro.serving.stats.StreamSummary`, in launch or completion
    order; :func:`run_stream` sorts the responses into arrival order
    once the stream drains.  Not a summary subclass, so nothing that
    wraps the summary's methods sees it.
    """

    __slots__ = ("responses", "assignments")

    def __init__(self) -> None:
        self.responses: list[ServeResponse] = []
        self.assignments: list[int] = []

    def observe_served(
        self,
        request: ServeRequest,
        result,
        start_s: float,
        finish_s: float,
        batch_size: int,
        outcome: str = "ok",
        *,
        batch_index: int = 0,
        attempts: int = 1,
    ) -> None:
        self.responses.append(
            ServeResponse(
                request=request,
                result=result,
                queue_delay_s=start_s - request.arrival_s,
                start_s=start_s,
                finish_s=finish_s,
                batch_size=batch_size,
                batch_index=batch_index,
                outcome=outcome,
                attempts=attempts,
            )
        )

    def note_assignment(self, replica: int, count: int = 1) -> None:
        self.assignments.extend([replica] * count)


#: Arrival order, whether the stream was sorted or presorted: arrival
#: times never decrease and ids are unique (see :func:`normalize_arrivals`).
_ARRIVAL_ORDER = attrgetter("request.arrival_s", "request.request_id")


@dataclass(frozen=True)
class StreamOutcome:
    """Everything one stream simulation produced.

    Attributes:
        responses: One response per request, in arrival order, from the
            response log :func:`run_stream` feeds when it is given no
            summary; empty when a summary sink (``mode="summary"``)
            folded the responses instead.
        assignments: Replica index per request, in arrival order, from
            the same log (empty in summary mode; the summary counts
            requests per replica).
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
        ...                  schedulers=(make_scheduler("fifo"),))
        >>> (len(out.responses), out.assignments, out.n_replicas)
        (3, [0, 0, 0], 1)
    """

    responses: "list[ServeResponse]" = field(default_factory=list)
    assignments: list[int] = field(default_factory=list)
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
    dispatch: StreamDispatcher | None = None,
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
        dispatch: The :class:`StreamDispatcher` that assigns each
            arrival to a replica.  ``None`` means one replica without an
            autoscaler, which needs no dispatcher.
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
            sink.  Every loop hands each completed request to one sink's
            ``observe_served`` and each dispatch to its
            ``note_assignment``.  When a summary is given, its O(1)
            accumulators fold them and the returned outcome carries
            empty ``responses``/``assignments``; without one, a private
            response log collects them.
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
        ...     schedulers=(make_scheduler("fifo"),))
        >>> [r.request.request_id for r in out.responses]
        [0, 1, 2, 3]
    """
    engine_list = list(engines)
    if not engine_list:
        raise ServingError("run_stream needs at least one replica")
    if dispatch is None:
        if len(engine_list) > 1 or autoscaler is not None:
            raise ServingError(
                "more than one replica or an autoscaler needs a StreamDispatcher"
            )
    elif not isinstance(dispatch, StreamDispatcher):
        raise ServingError(
            f"dispatch must be a StreamDispatcher or None, got {dispatch!r}"
        )
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
    # The heap loops call their dispatcher unconditionally.
    heap_dispatch = _OnlyReplica() if dispatch is None else dispatch
    sink = _ResponseLog() if summary is None else summary

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
        outcome = _run_faulty(
            stream,
            engine_list,
            scheduler_list,
            batcher_list,
            bind_cost,
            heap_dispatch,
            slo_ms,
            autoscaler,
            replica_factory,
            sink,
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
    # (one replica, no dispatcher) and every capacity-planner candidate.
    elif (
        autoscaler is None
        and all(type(s) is FIFOScheduler for s in scheduler_list)
        and all(type(b) is NoneBatcher for b in batcher_list)
    ):
        if dispatch is None:
            outcome = _run_fifo_runs(stream, engine_list[0], sink)
        else:
            outcome = _run_fifo_unbatched(stream, engine_list, dispatch, sink)
    # A single replica whose batcher never holds (the base
    # ``hold_until`` is un-overridden) needs no event heap either:
    # completions and arrivals merge in time order directly.
    elif (
        autoscaler is None
        and len(engine_list) == 1
        and type(batcher_list[0]).hold_until is Batcher.hold_until
    ):
        outcome = _run_single_replica(
            stream,
            engine_list[0],
            scheduler_list[0],
            batcher_list[0],
            dispatch,
            slo_ms,
            sink,
        )
    else:
        outcome = _run_heap(
            stream,
            engine_list,
            scheduler_list,
            batcher_list,
            bind_cost,
            heap_dispatch,
            slo_ms,
            autoscaler,
            replica_factory,
            sink,
        )
    if sink is summary:
        return outcome
    sink.responses.sort(key=_ARRIVAL_ORDER)
    return replace(
        outcome, responses=sink.responses, assignments=sink.assignments
    )


def _run_fifo_unbatched(
    stream: Iterable[ServeRequest],
    engines: "list[ServingEngine]",
    dispatch: StreamDispatcher,
    sink: "StreamSummary | _ResponseLog",
) -> StreamOutcome:
    """k replicas behind a dispatcher, each FIFO and batch 1, no autoscaler.

    Each replica serves its requests in dispatch order, so a request's
    start is fixed the moment it is dispatched — ``start =
    max(arrival, work_until[r])``, the general loop's own dispatch
    projection — and no heap, scheduler queue or per-request
    :class:`QueuedRequest` is needed.  The floats are those of
    :func:`_run_heap`, computed in the same order, and each replica
    looks a task up only when its task changes.  Every fleet stream and
    capacity-planner candidate on this configuration runs here; one
    replica without a dispatcher runs :func:`_run_fifo_runs`.

    The sink observes requests in the general loop's launch order,
    because a summary's float sums and an early :class:`PruneAbort
    <repro.dse.runner.PruneAbort>` depend on it:

    * by start time;
    * at equal times, FREE-launched requests (started when their
      replica's previous request finished) before arrival-launched ones
      (started on arrival at an idle replica);
    * FREE-launched ties by replica index, arrival-launched ties in
      arrival order.

    An arrival at an idle replica is observed at once; one that queues
    waits in its replica's FIFO buffer, and the buffers merge through a
    heap of at most k ``(start, replica)`` heads, flushed up to each
    arrival.  Each arrival's replica is noted once it is chosen and
    before an idle replica observes it, where the general loop notes
    it, so a pruned stream reports the same per-replica counts.  The
    bulk cache-hit credit (see :class:`~repro.serving.engine.CacheStats`)
    is settled when the loop exits, normally or by an abort.
    """
    observe = sink.observe_served
    note = sink.note_assignment
    k = len(engines)
    work = [0.0] * k
    dispatch.bind(engines)
    dispatch.resize(k, work)
    choose = dispatch.choose
    assign = dispatch.assign
    dispatched = [0] * k
    lookups_by = [0] * k
    last_tasks: list[RNNTask | None] = [None] * k
    last_results: list = [None] * k
    #: Per-replica (request, result, start, finish) not yet launched,
    #: and a heap of each non-empty buffer's (start, replica).
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
            replica = choose(seq, req)
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
            assign(replica, finish)
            note(replica)
            dispatched[replica] += 1
            seq += 1
            if free_at <= arrival:
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
    if seq == 0:
        raise ServingError("serve_stream needs at least one request")
    return StreamOutcome(n_replicas=k, active_replicas=k)


def _run_fifo_runs(
    stream: Iterable[ServeRequest],
    engine: "ServingEngine",
    sink: "StreamSummary | _ResponseLog",
) -> StreamOutcome:
    """One FIFO batch-1 replica without a dispatcher: the paper's scenario.

    Each request costs one float recursion, ``start = max(arrival,
    previous finish)``, and one call to the sink's ``observe_served``,
    in arrival order, which is launch order for one FIFO replica.  A
    sink with a method of its own (the response log, a pruning summary)
    gets exactly these calls, so a pruning summary aborts at the general
    loop's request.

    Into :class:`StreamSummary`'s own ``observe_served`` (a class-level
    wrap of it, as a tracer installs, counts as its own), the loop folds
    a long run at once.  A run is consecutive requests of one class
    (equal tasks, tenants, priorities and SLO tags), so of one executed
    result.  The per-request body runs on chunks of :data:`_RUN_CHUNK`
    requests and adds no work per request there: after each chunk the
    loop asks the summary's back-to-back class cache whether the whole
    chunk, and the request before it, landed in one class accumulator
    that has spilled its exact reservoir on this result's platform
    (:meth:`~repro.serving.stats._ClassAcc.takes_runs`).  So a stream of
    short runs (mixed classes, sampled lengths) costs what the
    per-request body does.

    Once a chunk says so, the rest of the run computes each finish the
    same way and writes arrivals and finishes into two fixed-size float
    arrays, reused run after run (no float object outlives its request);
    starts need no buffer, since each is ``max(arrival, previous
    finish)``.  Each request's class fields are checked against the
    run's; a task equal to the run's (a trace builds a new one per line)
    continues the run and needs no lookup, which :class:`CacheStats
    <repro.serving.engine.CacheStats>` counts as a hit, as it counts a
    repeated task object.  The buffer goes to
    :meth:`StreamSummary.observe_run
    <repro.serving.stats.StreamSummary.observe_run>` when a request of
    another class arrives (which then starts the next chunk), when it
    holds :data:`_RUN_BUFFER` requests, and when the loop exits, normally
    or by an exception (a presorted stream found out of order), so the
    summary always ends as the per-request fold leaves it.
    """
    observe = sink.observe_served
    runs = type(sink).observe_served is StreamSummary.observe_served
    result_for = engine.result_for
    size = _RUN_BUFFER
    per_chunk = _RUN_CHUNK
    arrivals = np.empty(size)
    finishes = np.empty(size)
    fill = 0
    served = 0  # requests observed or folded so far
    lookups = 0
    free_at = 0.0
    task: RNNTask | None = None
    result = None
    latency = 0.0
    # The buffered part of the run: its first request and the replica's
    # free time before it.
    head: ServeRequest | None = None
    head_free = 0.0
    requests = iter(stream)
    # Without a run fold the whole stream is one chunk.
    chunk = islice(requests, per_chunk) if runs else requests
    try:
        while True:
            last = sink._last_acc if runs else None
            last_n = -1 if last is None else last.n
            before = served
            for req in chunk:
                t = req.task
                if t is not task:
                    result = result_for(t)
                    task = t
                    latency = result.latency_s
                    lookups += 1
                arrival = req.arrival_s
                start = arrival if arrival > free_at else free_at
                free_at = start + latency
                served += 1
                observe(req, result, start, free_at, 1)
            if not runs or served - before < per_chunk:
                break  # the stream ended
            acc = sink._last_acc
            if (
                acc is not last
                or acc.n - last_n != per_chunk
                or not acc.takes_runs(result.platform)
            ):
                chunk = islice(requests, per_chunk)
                continue
            steps = task.timesteps
            tenant = acc.tenant
            priority = acc.priority
            slo = acc.slo_key
            for req in requests:
                t = req.task
                if not (
                    (t is task or (t.timesteps == steps and t == task))
                    and req.tenant == tenant
                    and req.priority == priority
                    and req.slo_ms == slo
                ):
                    break
                arrival = req.arrival_s
                if not fill:
                    head = req
                    head_free = free_at
                free_at = (arrival if arrival > free_at else free_at) + latency
                arrivals[fill] = arrival
                finishes[fill] = free_at
                fill += 1
                if fill == size:
                    served += size
                    fill = 0
                    sink.observe_run(head, result, head_free, arrivals, finishes)
            else:
                break  # the stream ended
            if fill:
                served += fill
                count, fill = fill, 0
                sink.observe_run(
                    head, result, head_free, arrivals[:count], finishes[:count]
                )
            chunk = chain((req,), islice(requests, per_chunk - 1))
    finally:
        served += fill
        engine.cache_stats.hits += served - lookups
        sink.note_assignment(0, served)
        if fill:
            sink.observe_run(
                head, result, head_free, arrivals[:fill], finishes[:fill]
            )
    if served == 0:
        raise ServingError("serve_stream needs at least one request")
    return StreamOutcome()


def _run_single_replica(
    stream: Iterable[ServeRequest],
    engine: "ServingEngine",
    scheduler: Scheduler,
    batcher: Batcher,
    dispatch: StreamDispatcher | None,
    slo_ms: float | None,
    sink: "StreamSummary | _ResponseLog",
) -> StreamOutcome:
    """One replica, any scheduler, any non-holding batcher: merge
    completions and arrivals in time order without an event heap.

    Invariant: whenever the replica is idle its ready queue is empty
    (an arrival launches immediately when idle), so only completions
    that precede the next arrival need replaying before it queues.
    """
    trivial = dispatch is None
    observe = sink.observe_served
    result_for = engine.result_for
    none_batcher = type(batcher) is NoneBatcher
    push = scheduler.push
    pop = scheduler.pop
    qlen = scheduler.__len__
    work = [0.0]
    if not trivial:
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
        free_at = _start_batch(entries, now, engine, batcher, observe)
        busy = True

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
                replica = dispatch.choose(seq, req)
                if replica != 0:
                    raise ServingError(f"dispatcher chose invalid replica {replica}")
            task = req.task
            if task is not last_task:
                last_result = result_for(task)
                last_task = task
                lookups += 1
            result = last_result
            if not trivial:
                work[0] = (t if t > work[0] else work[0]) + result.latency_s
                dispatch.assign(0, work[0])
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
        sink.note_assignment(0, seq)
    if seq == 0:
        raise ServingError("serve_stream needs at least one request")
    return StreamOutcome()


def _start_batch(
    entries: "list[QueuedRequest]",
    now: float,
    engine: "ServingEngine",
    batcher: Batcher,
    observe: "Callable[..., None]",
) -> float:
    """Start a batch taken at ``now`` on ``engine`` and pass each member
    to the sink's ``observe``.  Returns the batch's finish time."""
    head = entries[0]
    arrival = head.request.arrival_s
    start = now if now > arrival else arrival  # max(arrival, now) exactly
    if len(entries) == 1:
        # The exact pre-batching arithmetic: parity for batcher="none".
        finish = start + head.service_s
        observe(head.request, head.result, start, finish, 1)
        return finish
    size = len(entries)
    result = engine.serve_batched(_batch_exec_task(entries, batcher), size)
    finish = start + result.latency_s
    for index, entry in enumerate(entries):
        observe(entry.request, result, start, finish, size, batch_index=index)
    return finish


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


def _add_replica(
    replica_factory: ReplicaFactory | None,
    engine_list: "list[ServingEngine]",
    scheduler_list: "list[Scheduler]",
    batcher_list: "list[Batcher]",
    bind_cost: Callable[[int], None],
    work_until: list[float],
    busy: list[bool],
    hold_at: "list[float | None]",
) -> int:
    """Build the replica at the next index through the factory, idle and
    with its batcher's cost model bound; returns its index."""
    if replica_factory is None:
        raise ServingError("autoscaler needs a replica_factory to scale up")
    replica = len(engine_list)
    engine, scheduler, batcher = replica_factory(replica)
    engine_list.append(engine)
    scheduler_list.append(scheduler)
    batcher_list.append(batcher)
    work_until.append(0.0)
    busy.append(False)
    hold_at.append(None)
    bind_cost(replica)
    return replica


def _autoscale(
    autoscaler: Autoscaler,
    now: float,
    active: int,
    slo_ms: float | None,
    scheduler_list: "list[Scheduler]",
    work_until: list[float],
    add_replica: Callable[[float], int],
    dispatch: StreamDispatcher,
    scale_events: list[ScaleEvent],
) -> int:
    """One autoscaler evaluation at ``now`` over the ``active`` replicas;
    returns the active count after it.

    Growth past the replicas built so far goes through
    ``add_replica(now)``.  An applied resize is logged to
    ``scale_events`` and passed to the dispatcher.
    """
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
        return active
    while len(scheduler_list) < decision.target:
        add_replica(now)
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
    dispatch.resize(active, work_until)
    return active


def _run_heap(
    stream: Iterable[ServeRequest],
    engine_list: "list[ServingEngine]",
    scheduler_list: "list[Scheduler]",
    batcher_list: "list[Batcher]",
    bind_cost: Callable[[int], None],
    dispatch: StreamDispatcher,
    slo_ms: float | None,
    autoscaler: Autoscaler | None,
    replica_factory: ReplicaFactory | None,
    sink: "StreamSummary | _ResponseLog",
) -> StreamOutcome:
    """The general loop: N replicas, holds, autoscaling.

    Only FREE and LAUNCH events live in the heap; arrivals are peeked
    one at a time from the (possibly lazy) sorted stream, so the heap
    size is bounded by the replica count, not the stream length.
    """
    observe = sink.observe_served
    note = sink.note_assignment
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
    dispatch.bind(engine_list)
    dispatch.resize(active, work_until)

    events: list[tuple[float, int, int]] = []

    def add_replica(now: float) -> int:
        return _add_replica(
            replica_factory, engine_list, scheduler_list, batcher_list,
            bind_cost, work_until, busy, hold_at,
        )

    def autoscale(now: float) -> int:
        return _autoscale(
            autoscaler, now, active, slo_ms, scheduler_list, work_until,
            add_replica, dispatch, scale_events,
        )

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
        finish = _start_batch(entries, now, engine_list[replica], batcher, observe)
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
                active = autoscale(now)
            replica = dispatch.choose(seq, req)
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
            dispatch.assign(replica, work_until[replica])
            note(replica)
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
                active = autoscale(now)
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
        "request",
        "result",
        "factor",
        "deadline_s",
        "attempts",
        "hedged",
        "done",
    )

    def __init__(
        self, request: ServeRequest, factor: float, deadline_s: float
    ) -> None:
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
    dispatch: StreamDispatcher,
    slo_ms: float | None,
    autoscaler: Autoscaler | None,
    replica_factory: ReplicaFactory | None,
    sink: "StreamSummary | _ResponseLog",
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
    * requests reach the sink at completion (not launch), because only
      then is it known which copy won; each carries its position in the
      batch and its attempt count.

    Determinism: every policy draw hashes ``(seed, replica)`` or
    ``(seed, request_id)``; the loop itself is a deterministic function
    of the stream, so a seed reproduces the identical timeline across
    runs and shard layouts.
    """
    observe = sink.observe_served
    note = sink.note_assignment
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

    def add_replica(now: float) -> int:
        replica = _add_replica(
            replica_factory, engine_list, scheduler_list, batcher_list,
            bind_cost, work_until, busy, hold_at,
        )
        dead.append(False)
        generation.append(0)
        inflight.append(None)
        schedule_crash(replica, now)
        return replica

    def autoscale(now: float) -> int:
        return _autoscale(
            autoscaler, now, active, slo_ms, scheduler_list, work_until,
            add_replica, dispatch, scale_events,
        )

    def push_copy(
        flight: _Flight, now: float, is_hedge: bool
    ) -> tuple[int, QueuedRequest]:
        """Dispatch one copy of a flight to a replica's ready queue."""
        nonlocal qseq, dseq
        req = flight.request
        replica = dispatch.choose(dseq, req)
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
                active = autoscale(now)
            factor = policy.straggler_factor(req)
            if factor < 1.0:
                raise ServingError(
                    f"fault policy {policy.name!r} returned straggler factor "
                    f"{factor} < 1"
                )
            if factor > 1.0:
                n_stragglers += 1
            flight = _Flight(
                request=req,
                factor=factor,
                deadline_s=req.deadline_s(slo_ms),
            )
            pending[req.request_id] = flight
            replica, entry = push_copy(flight, now, is_hedge=False)
            note(replica)
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
                observe(
                    flight.request, result, start, finish, size,
                    outcome=outcome, batch_index=position,
                    attempts=flight.attempts,
                )
            if autoscaler is not None:
                active = autoscale(now)
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
                observe(
                    flight.request, flight.result, now, now, 1,
                    outcome="timeout", attempts=flight.attempts,
                )

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
