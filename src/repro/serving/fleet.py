"""Scale-out serving: schedule one stream across N engine replicas.

The ROADMAP's north star is fleet-scale traffic; a single batch-1
accelerator saturates at ``1 / service_time`` requests per second.  A
:class:`Fleet` models the obvious scale-out: N replicas behind a
dispatcher — identical replicas of one platform, or a heterogeneous
*mix* (``"plasticine:2,brainwave:1,gpu:1"``) pairing a spatial tier
with throughput or edge tiers the way the paper's Table 6 compares
them.  Three dispatch policies are built in:

* ``"round-robin"`` — request *i* goes to replica ``i % N``; oblivious
  to load, cheap, and the right baseline.
* ``"least-loaded"`` — each request goes to the replica that will
  *complete* it first.  On a homogeneous fleet every replica costs the
  same, so this is join-the-shortest-queue; on a mixed fleet the
  projected completion is evaluated under each replica's own cost
  model (a 1760-unit LSTM is cheap on Plasticine, expensive on a CPU
  tier), which is what makes heterogeneous fleets worth provisioning.
* ``"affinity"`` — sticky routing: the first request of a key (task
  family, tenant, or sequence-length band — see ``affinity_by``) picks
  the platform whose replica would finish it soonest, and later
  requests with the same key stay on that platform tier while it has
  active replicas.  Keeps each tier's compile caches hot and gives
  every class a stable latency profile.

Dispatch decides *which replica* gets a request on arrival; each replica
then orders its own ready queue with a pluggable scheduler
(:mod:`repro.serving.scheduler`) and coalesces it with a pluggable
batching policy (:mod:`repro.serving.batching`), one instance of each
per replica.  The simulation itself runs on the event loops shared
with the engine (:mod:`repro.serving.events`): a fault-free fleet
without an autoscaler whose replicas all queue FIFO and serve batch 1 —
every capacity-planner candidate — takes the heap-free FIFO loop, any
other configuration the heap-based general loop.

Replicas of the same platform share one prepared-model cache, so a
fleet compiles each (platform, task) pair exactly once no matter how
many replicas serve it — including replicas added mid-stream by an
:class:`~repro.serving.autoscaler.Autoscaler`, which grows and shrinks
the active set against queue depth and SLO pressure and logs its
actions on the report.  Mixed fleets keep one cache *per platform*:
prepared models never cross platforms
(:meth:`~repro.serving.platform.Platform._check_prepared`).
"""

from __future__ import annotations

import heapq
from itertools import groupby
from typing import Callable, Iterable, Sequence

from repro.errors import ServingError
from repro.serving.autoscaler import Autoscaler
from repro.serving.batching import Batcher, make_batcher
from repro.serving.engine import (
    EvalMemo,
    ServeRequest,
    ServingEngine,
    StreamReport,
    _serve_stream,
)
from repro.serving.events import StreamDispatcher
from repro.serving.faults import FaultPolicy
from repro.serving.platform import Platform, PreparedModel
from repro.serving.scheduler import Scheduler, make_scheduler
from repro.serving.stats import StreamSummary
from repro.serving.traffic import length_band
from repro.workloads.deepbench import RNNTask

__all__ = [
    "Fleet",
    "SCHEDULING_POLICIES",
    "AFFINITY_KEYS",
    "parse_fleet_mix",
]

SCHEDULING_POLICIES = ("round-robin", "least-loaded", "affinity")

#: Request attributes the ``affinity`` policy can pin a platform tier by.
AFFINITY_KEYS = ("task", "tenant", "length-band")


def parse_fleet_mix(spec: str) -> tuple[str, ...]:
    """Expand a fleet-mix spec into one platform name per replica.

    The spec is a comma-separated list of ``platform[:count]`` entries
    (count defaults to 1), mirroring the CLI's ``--mix`` idiom:

        >>> parse_fleet_mix("plasticine:2,brainwave:1,gpu")
        ('plasticine', 'plasticine', 'brainwave', 'gpu')

    Platform names are validated by the registry when the engines are
    built, not here; malformed counts raise
    :class:`~repro.errors.ServingError` immediately.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ServingError(f"empty fleet mix spec {spec!r}")
    names: list[str] = []
    for entry in spec.split(","):
        entry = entry.strip()
        name, _, count_str = entry.partition(":")
        name = name.strip()
        if not name:
            raise ServingError(f"empty platform entry in fleet mix {spec!r}")
        if count_str:
            try:
                count = int(count_str)
            except ValueError:
                raise ServingError(
                    f"bad replica count {count_str.strip()!r} in fleet "
                    f"mix {spec!r}"
                ) from None
            if count < 1:
                raise ServingError(
                    f"replica count must be >= 1 in fleet mix {spec!r}"
                )
        else:
            count = 1
        names.extend([name] * count)
    return tuple(names)


def _mix_label(names: Sequence[str]) -> str:
    """Canonical ``name:count`` label for a replica roster."""
    return ",".join(
        f"{name}:{len(list(run))}" for name, run in groupby(names)
    )


def _no_active_replicas() -> ServingError:
    return ServingError(
        "cannot dispatch: the fleet has no active replicas (the active "
        "set was resized to 0 mid-stream)"
    )


class _RoundRobinDispatcher(StreamDispatcher):
    """Request *i* to active replica ``i % N`` — oblivious and O(1)."""

    def __init__(self) -> None:
        self._active = 0

    def resize(self, active: int, work_until: Sequence[float]) -> None:
        self._active = active

    def choose(self, seq: int, request: ServeRequest) -> int:
        if self._active < 1:
            # A resize drove the active set to zero; ``seq % 0`` would
            # surface as a bare ZeroDivisionError deep in the event loop.
            raise _no_active_replicas()
        return seq % self._active


class _LeastLoadedDispatcher(StreamDispatcher):
    """Join-the-shortest-queue in O(log replicas) per arrival.

    The naive policy re-scans every active replica's projected
    completion time on each arrival — an O(replicas) pass that turns
    large-fleet streams quadratic.  This version keeps a lazy-deletion
    heap of ``(projected_completion, replica)``: :meth:`assign` pushes a
    fresh entry whenever the event loop advances one replica's
    projection (projections only ever grow, so older entries for the
    same replica are strictly smaller and recognized as stale), and
    :meth:`choose` pops stale or deactivated entries until the top is
    live.  The ``(value, index)`` heap order reproduces the naive scan's
    tie-break (earliest completion, lowest index) exactly.
    """

    def __init__(self) -> None:
        self._active = 0
        self._values: list[float] = []
        self._heap: list[tuple[float, int]] = []

    def resize(self, active: int, work_until: Sequence[float]) -> None:
        values = self._values
        for j in range(len(values), len(work_until)):
            values.append(work_until[j])
        if active > self._active:
            # Newly (re)activated replicas re-enter the heap at their
            # current projection; deactivated ones are pruned lazily.
            for j in range(self._active, active):
                heapq.heappush(self._heap, (values[j], j))
        self._active = active

    def choose(self, seq: int, request: ServeRequest) -> int:
        active = self._active
        if active < 1:
            raise _no_active_replicas()
        heap = self._heap
        values = self._values
        while True:
            while heap:
                value, j = heap[0]
                if j < active and values[j] == value:
                    return j
                heapq.heappop(heap)
            # Every entry went stale at once (reachable when crashes or
            # a resize-down → resize-up cycle invalidate the whole
            # heap); re-seed the live projections instead of indexing
            # into an empty heap.
            for j in range(active):
                heapq.heappush(heap, (values[j], j))

    def assign(self, replica: int, work_until_s: float) -> None:
        self._values[replica] = work_until_s
        heapq.heappush(self._heap, (work_until_s, replica))


class _CostAwareDispatcher(StreamDispatcher):
    """Shared machinery for dispatchers that rank replicas by projected
    completion under each replica's *own* cost model.

    On a heterogeneous fleet "least loaded" is ill-defined without the
    cost model: the replica that frees up first may still finish the
    request last if its platform serves the task slowly.  Subclasses
    call :meth:`_best_in` over candidate replica indices; the projected
    completion is ``max(arrival, free_at) + latency(replica, task)``.

    Each replica's latency for the last task it priced is cached, keyed
    on the identity of the task and of the replica's engine: a stream
    repeats one task object per length, so pricing calls
    ``result_for`` once per replica per task change rather than once
    per replica per arrival.  The engine key notices crash recovery
    replacing ``engines[j]``; autoscaled growth reaches :meth:`resize`
    before any arrival is priced on the new replica.
    """

    def __init__(self) -> None:
        self._active = 0
        self._values: list[float] = []
        self._engines: Sequence[ServingEngine] = ()
        #: Per replica: (task, engine, latency) of its last pricing.
        self._priced: list[tuple] = []

    def bind(self, engines: Sequence[ServingEngine]) -> None:
        self._engines = engines

    def resize(self, active: int, work_until: Sequence[float]) -> None:
        values = self._values
        for j in range(len(values), len(work_until)):
            values.append(work_until[j])
            self._priced.append((None, None, 0.0))
        self._active = active

    def assign(self, replica: int, work_until_s: float) -> None:
        self._values[replica] = work_until_s

    def _best_in(self, candidates: Iterable[int], request: ServeRequest) -> int:
        task = request.task
        arrival = request.arrival_s
        values = self._values
        engines = self._engines
        priced = self._priced
        best_j = -1
        best = 0.0
        for j in candidates:
            engine = engines[j]
            last_task, last_engine, latency = priced[j]
            if last_task is not task or last_engine is not engine:
                latency = engine.result_for(task).latency_s
                priced[j] = (task, engine, latency)
            free_at = values[j]
            completion = (arrival if arrival > free_at else free_at) + latency
            if best_j < 0 or completion < best:
                best_j, best = j, completion
        return best_j


class _HeterogeneousLeastLoadedDispatcher(_CostAwareDispatcher):
    """Least-loaded for mixed fleets: earliest projected *completion*.

    O(active) per arrival — mixed fleets are small (a handful of
    tiers), and each replica's latency is cached per task, so the scan
    stays cheap; homogeneous fleets keep the O(log N) heap dispatcher
    and its bit-identical tie-breaks.
    """

    def choose(self, seq: int, request: ServeRequest) -> int:
        if self._active < 1:
            raise _no_active_replicas()
        return self._best_in(range(self._active), request)


class _AffinityDispatcher(_CostAwareDispatcher):
    """Sticky platform-tier routing keyed by task/tenant/length band.

    The first request of a key is placed like heterogeneous
    least-loaded (earliest projected completion fleet-wide) and *pins*
    the key to the chosen replica's platform; subsequent requests with
    the same key are balanced by projected completion across that
    platform's active replicas only.  A key whose pinned platform loses
    all active replicas (autoscale shrink) is re-pinned by a fresh
    fleet-wide scan.
    """

    def __init__(self, key_of: Callable[[ServeRequest], object]) -> None:
        super().__init__()
        self._key_of = key_of
        self._pins: dict[object, str] = {}

    def choose(self, seq: int, request: ServeRequest) -> int:
        active = self._active
        if active < 1:
            raise _no_active_replicas()
        engines = self._engines
        key = self._key_of(request)
        pinned = self._pins.get(key)
        if pinned is not None:
            j = self._best_in(
                (j for j in range(active) if engines[j].platform_name == pinned),
                request,
            )
            if j >= 0:
                return j
        j = self._best_in(range(active), request)
        self._pins[key] = engines[j].platform_name
        return j


def _affinity_key_fn(affinity_by: str) -> Callable[[ServeRequest], object]:
    if affinity_by == "task":
        # One key per task *family*: length variants share the compiled
        # state, so they share the pin too.
        # Derived once per task change, like the dispatchers' pricing.
        last: list = [None, None]

        def family(request: ServeRequest) -> object:
            task = request.task
            if task is not last[0]:
                last[0], last[1] = task, task.with_timesteps(1)
            return last[1]

        return family
    if affinity_by == "tenant":
        return lambda request: request.tenant
    if affinity_by == "length-band":
        return lambda request: length_band(request.task.timesteps, 2.0)
    raise ServingError(
        f"unknown affinity key {affinity_by!r}; "
        f"known: {', '.join(AFFINITY_KEYS)}"
    )


class Fleet:
    """N engine replicas — of one platform or a mix — behind a dispatcher.

    ``platform`` accepts a single platform (name or instance), a
    sequence of per-replica platforms, or a fleet-mix spec string
    (``"name[:count],..."`` — see :func:`parse_fleet_mix`).  With a
    single platform, ``replicas`` keeps its historical default of 2; a
    roster fixes the replica count itself.

    Example::

        >>> from repro.serving import Fleet
        >>> fleet = Fleet("gpu", replicas=3, policy="least-loaded")
        >>> (fleet.n_replicas, fleet.platform_name)
        (3, 'gpu')
        >>> mixed = Fleet("plasticine:2,brainwave:1,gpu")
        >>> (mixed.n_replicas, mixed.platform_name, mixed.is_heterogeneous)
        (4, 'plasticine:2,brainwave:1,gpu:1', True)
    """

    def __init__(
        self,
        platform: "str | Platform | Sequence[str | Platform]",
        *,
        replicas: int | None = None,
        policy: str = "round-robin",
        affinity_by: str = "task",
        **platform_options: object,
    ) -> None:
        if policy not in SCHEDULING_POLICIES:
            raise ServingError(
                f"unknown scheduling policy {policy!r}; "
                f"known: {', '.join(SCHEDULING_POLICIES)}"
            )
        if affinity_by not in AFFINITY_KEYS:
            raise ServingError(
                f"unknown affinity key {affinity_by!r}; "
                f"known: {', '.join(AFFINITY_KEYS)}"
            )
        if isinstance(platform, str) and (":" in platform or "," in platform):
            platform = parse_fleet_mix(platform)
        if isinstance(platform, (str, Platform)):
            if replicas is None:
                replicas = 2
            pattern: tuple[str | Platform, ...] = (platform,)
        else:
            pattern = tuple(platform)
            if not pattern:
                raise ServingError("a fleet needs at least one replica")
            if replicas is None:
                replicas = len(pattern)
            elif replicas != len(pattern):
                raise ServingError(
                    f"replicas={replicas} contradicts the {len(pattern)}"
                    f"-replica platform roster; drop one of the two"
                )
        if replicas < 1:
            raise ServingError("a fleet needs at least one replica")
        named = {spec for spec in pattern if isinstance(spec, str)}
        if platform_options and (len(named) != len(pattern) or len(named) > 1):
            raise ServingError(
                "platform options only apply when every replica is the "
                "same platform given by name"
            )
        self.policy = policy
        self._affinity_by = affinity_by
        #: Replica index ``i`` runs ``pattern[i % len(pattern)]`` — the
        #: roster repeats, so autoscaled growth extends the mix in the
        #: same proportions instead of cloning one arbitrary tier.
        self._pattern = pattern
        self._platform_options = platform_options
        # One compile cache and one result memo *per platform*: each
        # (platform, shape) pair prepares once no matter how many
        # replicas serve it — even replicas the autoscaler adds
        # mid-stream — while prepared models never cross platforms
        # (Platform._check_prepared forbids the handoff).
        self._caches: dict[object, dict[RNNTask, PreparedModel]] = {}
        self._memos: dict[object, EvalMemo] = {}
        self.engines = tuple(self._new_engine(i) for i in range(replicas))

    def _spec_for(self, index: int) -> "str | Platform":
        return self._pattern[index % len(self._pattern)]

    def _platform_name_for(self, index: int) -> str:
        spec = self._spec_for(index)
        return spec if isinstance(spec, str) else spec.name

    def _new_engine(self, index: int) -> ServingEngine:
        spec = self._spec_for(index)
        # Same-name string specs share caches; distinct Platform
        # instances keep their own (their options may differ).
        key: object = spec if isinstance(spec, str) else id(spec)
        return ServingEngine(
            spec,
            cache=self._caches.setdefault(key, {}),
            memo=self._memos.setdefault(key, EvalMemo()),
            **self._platform_options,
        )

    @property
    def n_replicas(self) -> int:
        return len(self.engines)

    @property
    def replica_platforms(self) -> tuple[str, ...]:
        """Platform key of each replica, in replica order."""
        return tuple(e.platform_name for e in self.engines)

    @property
    def is_heterogeneous(self) -> bool:
        return len(set(self.replica_platforms)) > 1

    @property
    def platform_name(self) -> str:
        """One platform name, or the canonical mix label for mixed fleets."""
        roster = self.replica_platforms
        if len(set(roster)) == 1:
            return roster[0]
        return _mix_label(roster)

    def _dispatcher(self) -> StreamDispatcher:
        # A fresh (stateful) incremental dispatcher per stream run; the
        # event loop feeds it per-replica projection deltas instead of
        # handing every arrival an O(replicas) snapshot.
        if self.policy == "round-robin":
            return _RoundRobinDispatcher()
        if self.policy == "affinity":
            return _AffinityDispatcher(_affinity_key_fn(self._affinity_by))
        if self.is_heterogeneous:
            # Mixed fleets need the cost-aware ranking; homogeneous
            # fleets keep the O(log N) heap and its exact tie-breaks.
            return _HeterogeneousLeastLoadedDispatcher()
        return _LeastLoadedDispatcher()

    def serve_stream(
        self,
        arrivals: Iterable[ServeRequest | RNNTask],
        *,
        slo_ms: float | None = None,
        scheduler: str | Callable[[], Scheduler] = "fifo",
        batcher: str | Callable[[], Batcher] = "none",
        max_batch: int | None = None,
        autoscaler: Autoscaler | None = None,
        mode: str = "full",
        presorted: bool = False,
        faults: str | FaultPolicy | Callable[[], FaultPolicy] = "none",
        fault_seed: int = 0,
        timeout_ms: float | None = None,
        retries: int = 0,
        hedge_ms: float | None = None,
        summary: StreamSummary | None = None,
    ) -> "StreamReport | StreamSummary":
        """Dispatch a timestamped stream across the replicas.

        The dispatcher assigns every request to a replica on arrival (no
        work stealing afterwards); each replica orders its own ready
        queue with a fresh instance of ``scheduler`` and coalesces it
        with a fresh instance of ``batcher`` — pass registry keys or
        zero-argument factories, not shared instances.  With an
        ``autoscaler``, the stream starts on the autoscaler's
        ``min_replicas`` and the active set grows and shrinks as the
        policy dictates; every replica (initial or grown) shares the
        fleet's compile cache, and the applied
        :class:`~repro.serving.autoscaler.ScaleEvent` log lands on the
        report.

        ``mode`` and ``presorted`` behave exactly as on
        :meth:`ServingEngine.serve_stream
        <repro.serving.engine.ServingEngine.serve_stream>`:
        ``mode="summary"`` folds responses into a
        :class:`~repro.serving.stats.StreamSummary` (O(1) memory, with
        online per-replica counts instead of per-request assignments)
        and ``presorted=True`` streams a lazy time-ordered input without
        materializing it.

        ``faults``/``fault_seed``/``timeout_ms``/``retries``/
        ``hedge_ms`` inject unreliable hardware exactly as on
        :meth:`ServingEngine.serve_stream`; replicas that crash recover
        through the fleet's replica factory, so a recovery re-binds the
        engine against the shared compile cache rather than silently
        reusing the dead instance.

        ``summary`` (``mode="summary"`` only) supplies the sink the
        event loop folds completions into instead of a fresh
        :class:`~repro.serving.stats.StreamSummary` — the hook the DSE
        runner's early-abort :class:`~repro.dse.runner.PruningSummary`
        plugs into.  The caller owns its labels and its finalization.
        """
        if isinstance(scheduler, Scheduler):
            raise ServingError(
                "a fleet needs one scheduler per replica; pass a registry "
                "key or a factory, not a Scheduler instance"
            )
        if isinstance(batcher, Batcher):
            raise ServingError(
                "a fleet needs one batcher per replica; pass a registry "
                "key or a factory, not a Batcher instance"
            )
        options = {} if max_batch is None else {"max_batch": max_batch}

        def new_scheduler() -> Scheduler:
            return make_scheduler(scheduler)

        def new_batcher() -> Batcher:
            return make_batcher(batcher, **options)

        engines = list(self.engines)
        if autoscaler is not None:
            # Start at the policy floor; growth happens via the factory.
            while len(engines) < autoscaler.min_replicas:
                engines.append(self._new_engine(len(engines)))
            del engines[max(autoscaler.min_replicas, 1):]
        schedulers = [new_scheduler() for _ in engines]
        batchers = [new_batcher() for _ in engines]

        def replica_factory(index: int) -> tuple[ServingEngine, Scheduler, Batcher]:
            # ``index`` is the replica slot being (re)built: autoscaled
            # growth extends the fleet's platform pattern, and a crash
            # recovery rebuilds the dead replica on its *own* platform
            # rather than whatever tier happens to come first.
            return self._new_engine(index), new_scheduler(), new_batcher()

        return _serve_stream(
            arrivals,
            platform=self.platform_name,
            engines=engines,
            schedulers=schedulers,
            batchers=batchers,
            dispatch=self._dispatcher(),
            slo_ms=slo_ms,
            autoscaler=autoscaler,
            replica_factory=replica_factory,
            mode=mode,
            presorted=presorted,
            faults=faults,
            fault_seed=fault_seed,
            timeout_ms=timeout_ms,
            retries=retries,
            hedge_ms=hedge_ms,
            summary=summary,
            policy=self.policy,
            replica_platform=(
                self._platform_name_for if self.is_heterogeneous else None
            ),
        )


def _serve_stream_on(
    arrivals: Iterable[ServeRequest | RNNTask],
    *,
    platform: str,
    replicas: int,
    mix: str | None,
    policy: str,
    affinity_by: str,
    autoscaler: Autoscaler | None,
    platform_options: "dict[str, object] | None" = None,
    **stream_options: object,
) -> "StreamReport | StreamSummary":
    """Serve ``arrivals`` on the engine or fleet these arguments describe.

    A ``mix`` spec is the whole roster (``platform`` and ``replicas``
    are then ignored); otherwise more than one replica, or an
    autoscaler, makes a homogeneous :class:`Fleet`, and anything else
    one :class:`~repro.serving.engine.ServingEngine`.
    ``stream_options`` go to ``serve_stream`` unchanged.  The CLI's
    stream table and every :func:`~repro.serving.parallel.serve_parallel`
    shard build their server here.
    """
    options = platform_options or {}
    if mix is not None:
        # The parsed roster, so a one-entry spec is one replica, not
        # Fleet("gpu")'s default of two.
        fleet = Fleet(
            parse_fleet_mix(mix), policy=policy, affinity_by=affinity_by, **options
        )
    elif replicas > 1 or autoscaler is not None:
        fleet = Fleet(
            platform,
            replicas=replicas,
            policy=policy,
            affinity_by=affinity_by,
            **options,
        )
    else:
        engine = ServingEngine(platform, **options)
        return engine.serve_stream(arrivals, **stream_options)
    return fleet.serve_stream(arrivals, autoscaler=autoscaler, **stream_options)
