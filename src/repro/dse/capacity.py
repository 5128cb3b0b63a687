"""Serving-level DSE: the cheapest fleet that holds the SLO.

The loop-knob search (:mod:`repro.dse.search`) answers the paper's
Table 7 question — which (hu, ru) maps one RNN onto one Plasticine chip
fastest.  This module asks the Table 6 question at fleet scale: given a
diurnal multi-user workload and a P99 SLO, **which fleet — size ×
platform mix × scheduler × batcher × dispatch policy — meets the SLO
for the least money?**

The idiom mirrors the chip-level DSE deliberately:

* :class:`FleetSpace` enumerates candidates the way
  :class:`~repro.dse.space.ParameterSpace` enumerates (hu, ru) points —
  every platform multiset up to ``max_replicas``, crossed with the
  policy/scheduler/batcher axes.
* :func:`plan_capacity` evaluates each candidate the way
  :func:`~repro.dse.search.search` maps-and-simulates each point: one
  O(1)-memory summary-mode stream simulation per fleet (Plasticine
  replicas compile through the Table 7 tuner exactly as in live
  serving), scoring P99 against the SLO and cost per million requests
  from the Table 4/5 TDP + price data (:mod:`repro.platforms`).
* :class:`CapacityPlan` is the :class:`~repro.dse.search.DSEResult`
  analogue: the cheapest SLO-meeting fleet plus the full evaluated
  frontier, JSON-serializable for the perf-smoke artifact
  (``benchmarks/bench_capacity_planner.py``).

Since the shared DSE runner (:mod:`repro.dse.runner`) landed, the sweep
runs at pool speed: the seeded diurnal stream is materialized **once**
per plan and shared across candidates (inherited copy-on-write under
the fork start method — workers on spawn platforms regenerate it from
the seed, bit-identically), candidates fan out over ``workers``
processes in candidate order, and — by default — each candidate's
replay aborts as soon as enough completions have overshot the SLO that
the full replay could only conclude ``meets_slo=False``
(:func:`~repro.dse.runner.prune_threshold`).  Pruned points carry
``pruned=True`` and partial metrics; feasible candidates are never
pruned, so ``plan.best`` and the feasible frontier match the
``prune=False`` full replay exactly.

Example::

    >>> from repro.dse.capacity import FleetSpace, plan_capacity
    >>> from repro.workloads.deepbench import task
    >>> plan = plan_capacity(
    ...     task("lstm", 256, 25),
    ...     slo_ms=5.0,
    ...     peak_rate_per_s=2000,
    ...     n_requests=300,
    ...     space=FleetSpace(platforms=("cpu", "gpu"), max_replicas=2),
    ... )
    >>> plan.best.meets_slo
    True
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from itertools import combinations_with_replacement
from typing import Iterator

from repro.errors import DSEError
from repro.dse.runner import (
    DSEStats,
    PruneAbort,
    PruningSummary,
    _check_budget,
    prune_threshold,
    run_jobs,
)
from repro.serving.batching import available_batchers
from repro.serving.fleet import SCHEDULING_POLICIES, Fleet, _mix_label
from repro.serving.scheduler import available_schedulers
from repro.serving.stats import StreamSummary
from repro.serving.traffic import diurnal_arrivals
from repro.workloads.deepbench import RNNTask

__all__ = ["FleetSpace", "CapacityPoint", "CapacityPlan", "plan_capacity"]


@dataclass(frozen=True)
class FleetSpace:
    """The fleet-configuration grid the capacity planner searches.

    The serving-layer analogue of
    :class:`~repro.dse.space.ParameterSpace`: ``candidates()``
    enumerates every multiset of ``platforms`` from one replica up to
    ``max_replicas`` (order within a fleet does not matter — the roster
    is canonicalized), crossed with the policy, scheduler, and batcher
    axes.

    Example::

        >>> space = FleetSpace(platforms=("gpu", "brainwave"), max_replicas=2)
        >>> [m for m in space.mixes()]
        [('brainwave',), ('gpu',), ('brainwave', 'brainwave'), ('brainwave', 'gpu'), ('gpu', 'gpu')]
    """

    platforms: tuple[str, ...] = ("plasticine", "brainwave", "gpu")
    max_replicas: int = 3
    policies: tuple[str, ...] = ("least-loaded",)
    schedulers: tuple[str, ...] = ("fifo",)
    batchers: tuple[str, ...] = ("none",)
    max_batch: int | None = None

    def __post_init__(self) -> None:
        if not self.platforms or self.max_replicas < 1:
            raise DSEError("empty fleet space")
        for policy in self.policies:
            if policy not in SCHEDULING_POLICIES:
                raise DSEError(
                    f"unknown policy {policy!r}; known: "
                    f"{', '.join(SCHEDULING_POLICIES)}"
                )
        for scheduler in self.schedulers:
            if scheduler not in available_schedulers():
                raise DSEError(f"unknown scheduler {scheduler!r}")
        for batcher in self.batchers:
            if batcher not in available_batchers():
                raise DSEError(f"unknown batcher {batcher!r}")

    def mixes(self) -> "Iterator[tuple[str, ...]]":
        """Every platform multiset, smallest fleets first."""
        names = tuple(sorted(set(self.platforms)))
        for size in range(1, self.max_replicas + 1):
            yield from combinations_with_replacement(names, size)

    def candidates(self) -> "Iterator[tuple[tuple[str, ...], str, str, str]]":
        """(roster, policy, scheduler, batcher) for every grid point."""
        for roster in self.mixes():
            for policy in self.policies:
                for scheduler in self.schedulers:
                    for batcher in self.batchers:
                        yield roster, policy, scheduler, batcher

    def n_candidates(self) -> int:
        return (
            sum(1 for _ in self.mixes())
            * len(self.policies)
            * len(self.schedulers)
            * len(self.batchers)
        )


@dataclass(frozen=True)
class CapacityPoint:
    """One evaluated fleet configuration — a serving-layer SearchPoint."""

    mix: str
    platforms: tuple[str, ...]
    replicas: int
    policy: str
    scheduler: str
    batcher: str
    p99_ms: float
    slo_attainment: float
    meets_slo: bool
    throughput_rps: float
    joules_per_request: float
    fleet_watt_hours: float
    cost_usd_per_1m: float
    #: True when the replay aborted early on a blown SLO miss budget
    #: (the metric fields then cover only the simulated prefix).
    pruned: bool = False
    #: Requests actually simulated for this candidate (= the plan's
    #: ``n_requests`` unless pruned).
    simulated_requests: int = 0

    @property
    def is_mixed(self) -> bool:
        return len(set(self.platforms)) > 1

    def to_row(self) -> dict:
        """Flat JSON-serializable record for the frontier artifact: every
        field but ``platforms`` (``mix`` names them)."""
        row = asdict(self)
        del row["platforms"]
        return row


@dataclass(frozen=True)
class CapacityPlan:
    """Search outcome: cheapest SLO-meeting fleet plus the frontier."""

    task: RNNTask
    slo_ms: float
    n_requests: int
    points: tuple[CapacityPoint, ...] = field(repr=False)

    def feasible_points(self) -> tuple[CapacityPoint, ...]:
        return tuple(p for p in self.points if p.meets_slo)

    @property
    def best(self) -> CapacityPoint:
        """Cheapest fleet with P99 under the SLO.

        Ties break toward fewer replicas, then the lexicographically
        first mix — deterministic like the chip DSE's tie-breaks.
        """
        feasible = self.feasible_points()
        if not feasible:
            raise DSEError(
                f"no fleet in the space holds P99 < {self.slo_ms} ms "
                f"for {self.task.name}; widen the space or the SLO"
            )
        return min(
            feasible, key=lambda p: (p.cost_usd_per_1m, p.replicas, p.mix)
        )

    @property
    def n_pruned(self) -> int:
        """Candidates the SLO-miss budget aborted early."""
        return sum(1 for p in self.points if p.pruned)

    @property
    def simulated_requests(self) -> int:
        """Requests simulated across every candidate — without pruning
        this is ``n_candidates * n_requests``; the gap is the saving."""
        return sum(p.simulated_requests for p in self.points)

    def frontier(self) -> tuple[CapacityPoint, ...]:
        """The cost/latency Pareto frontier over all evaluated fleets.

        Sorted by rising cost; each kept point has strictly lower P99
        than every cheaper point (dominated fleets are dropped).
        """
        best_p99 = float("inf")
        kept = []
        for point in sorted(
            self.points, key=lambda p: (p.cost_usd_per_1m, p.p99_ms)
        ):
            if point.p99_ms < best_p99:
                kept.append(point)
                best_p99 = point.p99_ms
        return tuple(kept)

    def to_json(self) -> dict:
        """The frontier artifact, shaped like the perf-smoke JSONs."""
        feasible = self.feasible_points()
        return {
            "task": self.task.name,
            "slo_ms": self.slo_ms,
            "n_requests": self.n_requests,
            "n_candidates": len(self.points),
            "n_feasible": len(feasible),
            "n_pruned": self.n_pruned,
            "simulated_requests": self.simulated_requests,
            "best": self.best.to_row() if feasible else None,
            "frontier": [p.to_row() for p in self.frontier()],
            "points": [p.to_row() for p in self.points],
        }

    def dumps(self, **kwargs) -> str:
        return json.dumps(self.to_json(), **kwargs)


@dataclass(frozen=True)
class _StreamSpec:
    """The seeded diurnal workload, in picklable form.

    One spec → one request stream, deterministically: workers that do
    not inherit the parent's materialized copy (spawn start method)
    regenerate an identical stream from the spec.
    """

    task: RNNTask
    base_rate_per_s: float
    peak_rate_per_s: float
    period_s: float
    n_requests: int
    seed: int

    def materialize(self) -> tuple:
        return tuple(
            diurnal_arrivals(
                self.task,
                base_rate_per_s=self.base_rate_per_s,
                peak_rate_per_s=self.peak_rate_per_s,
                period_s=self.period_s,
                n_requests=self.n_requests,
                seed=self.seed,
                materialize=False,
            )
        )


#: The per-process shared stream: materialized once in the parent
#: before the pool forks (workers inherit it copy-on-write, nothing is
#: pickled per job) and lazily on first use under spawn.
_SHARED_STREAM: "tuple[_StreamSpec, tuple] | None" = None


def _shared_stream(spec: _StreamSpec) -> tuple:
    global _SHARED_STREAM
    if _SHARED_STREAM is None or _SHARED_STREAM[0] != spec:
        _SHARED_STREAM = (spec, spec.materialize())
    return _SHARED_STREAM[1]


@dataclass(frozen=True)
class _PlanJob:
    """One candidate evaluation, picklable for the worker pool."""

    roster: tuple[str, ...]
    policy: str
    scheduler: str
    batcher: str
    max_batch: int | None
    slo_ms: float
    stream: _StreamSpec
    prune: bool


def _evaluate(job: _PlanJob) -> CapacityPoint:
    """Simulate one candidate fleet on the shared diurnal workload.

    Module-level and pure in its job, so :func:`~repro.dse.runner.run_jobs`
    can fan candidates across processes with bit-identical results.
    """
    spec = job.stream
    arrivals = _shared_stream(spec)
    fleet = Fleet(job.roster, policy=job.policy)
    n = spec.n_requests
    sink: StreamSummary | None = None
    if job.prune:
        sink = PruningSummary(
            fleet.platform_name,
            slo_ms=job.slo_ms,
            scheduler=job.scheduler,
            batcher=job.batcher,
            prune_slo_ms=job.slo_ms,
            threshold=prune_threshold(n),
        )
    pruned = False
    try:
        summary: StreamSummary = fleet.serve_stream(
            iter(arrivals),
            slo_ms=job.slo_ms,
            scheduler=job.scheduler,
            batcher=job.batcher,
            max_batch=job.max_batch,
            mode="summary",
            presorted=True,
            summary=sink,
        )
    except PruneAbort as abort:
        # The miss budget is provably blown: score the simulated prefix
        # and move on.  finalize() attaches the same fleet metadata
        # serve_stream would have (no autoscaler in the planner, so the
        # provisioned and active sets are the full roster).
        pruned = True
        summary = abort.summary.finalize(
            replicas=len(job.roster),
            active_replicas=len(job.roster),
            policy=job.policy,
            platforms=job.roster if len(set(job.roster)) > 1 else (),
        )
    p99 = summary.p99_ms
    return CapacityPoint(
        mix=_mix_label(job.roster),
        platforms=job.roster,
        replicas=len(job.roster),
        policy=job.policy,
        scheduler=job.scheduler,
        batcher=job.batcher,
        p99_ms=p99,
        slo_attainment=summary.slo_attainment,
        meets_slo=False if pruned else p99 < job.slo_ms,
        throughput_rps=summary.throughput_rps,
        joules_per_request=summary.joules_per_request,
        fleet_watt_hours=summary.fleet_watt_hours,
        cost_usd_per_1m=summary.cost_usd_per_1m_requests,
        pruned=pruned,
        simulated_requests=summary.n_requests,
    )


def plan_capacity(
    task: RNNTask,
    *,
    slo_ms: float = 5.0,
    peak_rate_per_s: float = 2000.0,
    base_rate_per_s: float | None = None,
    period_s: float | None = None,
    n_requests: int = 2000,
    seed: int = 0,
    space: FleetSpace | None = None,
    workers: int | None = None,
    prune: bool = True,
    stats: DSEStats | None = None,
) -> CapacityPlan:
    """Search fleet size × platform mix × scheduler × batcher for the
    cheapest fleet holding ``P99 < slo_ms`` on a diurnal workload.

    Every candidate is replayed over the *same* seeded
    :func:`~repro.serving.traffic.diurnal_arrivals` stream (base-to-peak
    sinusoidal ramp, defaults: base = peak/4, one full period over the
    stream), simulated in O(1)-memory summary mode, and scored on the
    energy/TCO accounting the summary carries.  The stream is
    materialized once and shared across candidates — bit-identical to
    regenerating it per candidate, since the generator is a pure
    function of the seed.  ``n_requests`` scales the workload down from
    the headline "1M users over a day" to something a test or
    perf-smoke run can afford — the arrival *pattern* and the
    per-request costs are what decide the frontier, not the absolute
    count (the benchmark pins this).

    Args:
        workers: Fan candidate evaluations onto this many processes
            (:func:`~repro.dse.runner.run_jobs`; default sequential).
            Results are folded in candidate order whatever the pool
            size, so the returned plan is bit-identical at any worker
            count — purely a wall-clock knob.
        prune: Abort a candidate's replay once its SLO miss budget
            (:func:`~repro.dse.runner.prune_threshold`) is provably
            blown.  Pruned points keep partial metrics and are flagged
            ``pruned=True`` with ``meets_slo=False`` — a verdict the
            full replay is guaranteed to share, so the feasible set and
            ``plan.best`` are unchanged.  ``prune=False`` restores the
            full per-candidate replay bit-identically.
        stats: Optional :class:`~repro.dse.runner.DSEStats` the sweep
            fills in (candidates, pruned count, simulated requests,
            workers).

    Returns a :class:`CapacityPlan`; ``plan.best`` raises
    :class:`~repro.errors.DSEError` when nothing in the space holds the
    SLO, exactly like the chip DSE's no-feasible-design error.
    """
    _check_budget("slo_ms", slo_ms)
    if n_requests < 1:
        raise DSEError("n_requests must be >= 1")
    _check_budget("peak_rate_per_s", peak_rate_per_s)
    if base_rate_per_s is None:
        base_rate_per_s = peak_rate_per_s / 4.0
    if period_s is None:
        # One full diurnal period over the stream at the mean rate.
        mean_rate = (base_rate_per_s + peak_rate_per_s) / 2.0
        period_s = n_requests / mean_rate
    space = space or FleetSpace()
    stats = stats if stats is not None else DSEStats()
    stats.workers = workers or 1
    spec = _StreamSpec(
        task=task,
        base_rate_per_s=base_rate_per_s,
        peak_rate_per_s=peak_rate_per_s,
        period_s=period_s,
        n_requests=n_requests,
        seed=seed,
    )
    jobs = [
        _PlanJob(
            roster=roster,
            policy=policy,
            scheduler=scheduler,
            batcher=batcher,
            max_batch=space.max_batch,
            slo_ms=slo_ms,
            stream=spec,
            prune=prune,
        )
        for roster, policy, scheduler, batcher in space.candidates()
    ]
    if not jobs:
        raise DSEError(f"no candidate fleets for {task.name}")
    # Materialize the shared stream in the parent *before* the pool
    # forks, so every worker inherits one copy-on-write instance.
    _shared_stream(spec)
    points = tuple(run_jobs(_evaluate, jobs, workers=workers))
    stats.candidates = len(points)
    stats.evaluated = len(points)
    stats.pruned = sum(1 for p in points if p.pruned)
    stats.simulated_requests = sum(p.simulated_requests for p in points)
    return CapacityPlan(
        task=task, slo_ms=slo_ms, n_requests=n_requests, points=points
    )
