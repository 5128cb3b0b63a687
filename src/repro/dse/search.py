"""Map-and-simulate search over a parameter space, with exact pruning.

Every point, in a sweep or alone (:func:`evaluate`), takes one path,
:func:`_evaluate_params`: memo lookup, program build, map-and-simulate,
memo store.  Through the shared DSE runner (:mod:`repro.dse.runner`)
that path is memoized, hoisted, pruned and parallel:

* the task *program* is built once per :class:`LoopParams` and reused
  across the pass-config axis (pass configs only affect mapping, not
  the program);
* every point lands in a per-process LRU
  (:class:`~repro.serving.engine.EvalMemo`) keyed by ``(task family,
  params, bits, chip, pass_config)`` — the result scales exactly with
  ``timesteps`` (``total = T * cycles_per_step``), so length variants
  of one family share entries;
* :func:`search` is an exact branch-and-bound (``prune=True``): it
  evaluates the parameter points with the most dot-product units first
  until one is feasible, takes that point's best per-step cycles as a
  fixed incumbent, and stops every later point whose proven per-step
  lower bound (:func:`~repro.mapping.bound.cycle_lower_bound`, read
  after ``plan_gates``) is strictly above it, before placement, routing
  and simulation;
* :func:`search` fans parameter points onto a worker pool
  (``workers=``) in candidate order, bit-identical to the sequential
  loop.

Nothing is persisted across processes, so every answer follows the
current mapper and cost models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import DSEError
from repro.dse.runner import DSEStats, run_jobs
from repro.dse.space import ParameterSpace
from repro.mapping.bound import CycleLimitExceeded
from repro.mapping.mapper import MappedDesign, map_rnn_program
from repro.mapping.passes import PassConfig
from repro.plasticine.chip import PlasticineConfig
from repro.plasticine.simulator import simulate_pipeline
from repro.rnn.gru_loop import declare_gru_program
from repro.rnn.lstm_loop import LoopParams, declare_lstm_program
from repro.serving.engine import EvalMemo
from repro.workloads.deepbench import RNNTask

__all__ = ["SearchPoint", "DSEResult", "search", "build_task_program"]


def build_task_program(task: RNNTask, params: LoopParams):
    """Declare the task's loop-based program, binding no data: mapping and
    timing read only SRAM shapes and the loop nest, and a run sees zeros.
    ``build_lstm_program``/``build_gru_program`` bind real weights."""
    declare = declare_lstm_program if task.kind == "lstm" else declare_gru_program
    return declare(task.shape, task.timesteps, params)


@dataclass(frozen=True)
class SearchPoint:
    """One design point: evaluated in full, or pruned by its cycle bound.

    A pruned point (``pruned=True``) stopped after ``plan_gates``: its
    ``cycles_per_step`` and ``total_cycles`` are the proven lower bound,
    not a simulation, it is never ``fits``, and it reports no units.
    """

    params: LoopParams
    cycles_per_step: int
    total_cycles: int
    fits: bool
    pcus_used: int
    pmus_used: int
    #: Which optimization passes produced this point (compiler axis).
    pass_config: PassConfig = PassConfig()
    #: The search's cycle bound ruled this point out before placement.
    pruned: bool = False


@dataclass(frozen=True)
class DSEResult:
    """Search outcome: best feasible point plus the full frontier."""

    task: RNNTask
    best: SearchPoint
    points: tuple[SearchPoint, ...] = field(repr=False)
    #: Execution counters (memo hits, program builds, workers).
    #: Excluded from equality: two runs at different worker counts or
    #: memo temperatures return *equal* results.
    stats: "DSEStats | None" = field(default=None, compare=False, repr=False)

    @property
    def best_params(self) -> LoopParams:
        return self.best.params

    def feasible_points(self) -> tuple[SearchPoint, ...]:
        return tuple(p for p in self.points if p.fits)


#: Per-process memo over pure map-and-simulate results and cycle bounds.
#: Keyed by ``(family_key, params, bits, chip, pass_config)`` — everything
#: the mapped design depends on; ``timesteps`` is deliberately absent (the
#: record stores per-step cycles and the total is ``T * cycles_per_step``,
#: the simulator's own identity), so length variants share entries.
_MEMO = EvalMemo(maxsize=4096)

#: What the memo stores per key: ``(cycles_per_step, fits, pcus, pmus,
#: bound)`` for a point mapped and simulated, ``(bound,)`` for a point
#: stopped at its per-step cycle bound.
_MemoRecord = tuple


def _memo_key(
    task: RNNTask,
    params: LoopParams,
    chip: PlasticineConfig,
    bits: int,
    pass_config: PassConfig,
) -> tuple:
    return (task.family_key, params, bits, chip, pass_config)


def _answers(record: _MemoRecord | None, cycle_limit: int | None) -> bool:
    """Whether a memo record can answer a point under ``cycle_limit``: a
    full record always can; a bound alone only when it prunes."""
    if record is None:
        return False
    return len(record) > 1 or (cycle_limit is not None and record[0] > cycle_limit)


def _point_from_record(
    task: RNNTask,
    params: LoopParams,
    pass_config: PassConfig,
    record: _MemoRecord,
    cycle_limit: int | None,
) -> SearchPoint:
    pruned = cycle_limit is not None and record[-1] > cycle_limit
    # A pruned point reports its bound as its cycles, no fit and no units.
    cycles_per_step, fits, pcus, pmus = (record[-1], False, 0, 0) if pruned else record[:4]
    return SearchPoint(
        params=params,
        cycles_per_step=cycles_per_step,
        total_cycles=task.timesteps * cycles_per_step,
        fits=fits,
        pcus_used=pcus,
        pmus_used=pmus,
        pass_config=pass_config,
        pruned=pruned,
    )


def _evaluate_program(
    prog,
    chip: PlasticineConfig,
    bits: int,
    pass_config: PassConfig,
    cycle_limit: int | None = None,
) -> _MemoRecord:
    """Map and simulate one built program, or stop at its cycle bound
    when that is above ``cycle_limit``: the uncached inner kernel."""
    try:
        design: MappedDesign = map_rnn_program(
            prog, chip, bits=bits, pass_config=pass_config, cycle_limit=cycle_limit
        )
    except CycleLimitExceeded as exc:
        return (exc.bound,)
    sim = simulate_pipeline(design.graph)
    res = design.resources
    return (
        sim.cycles_per_step + sim.step_overhead,
        # Not fits_capacity: the paper evaluates its largest tasks even
        # though their weights exceed the 31.5 MB scratchpad.
        res.fits_compute and res.fits_bandwidth,
        res.pcus_used,
        res.pmus_used,
        design.cycle_bound,
    )


@dataclass(frozen=True)
class _SearchJob:
    """One parameter point across the whole pass-config axis."""

    task: RNNTask
    params: LoopParams
    chip: PlasticineConfig
    bits: int
    pass_configs: tuple[PassConfig, ...]
    #: Prune a config whose per-step cycle bound is above this.
    cycle_limit: int | None = None


def _evaluate_params(
    job: _SearchJob, memo: EvalMemo | None = _MEMO
) -> tuple[list[SearchPoint], int, int]:
    """Evaluate every pass config of one parameter point.

    The one evaluation path: :func:`search`'s worker entry and
    :func:`evaluate`'s body.  Looks each config up in ``memo`` (``None``
    skips the memo), builds the task program at most once (lazily — an
    all-hit point builds nothing), maps and simulates the misses, or
    stops them at their bound under ``job.cycle_limit``, and stores
    them.  Returns ``(points, program_builds, memo_hits)`` in the job's
    pass-config order.
    """
    program = None
    points: list[SearchPoint] = []
    builds = hits = 0
    for pass_config in job.pass_configs:
        key = _memo_key(job.task, job.params, job.chip, job.bits, pass_config)
        record = memo.get(key) if memo is not None else None
        if _answers(record, job.cycle_limit):
            hits += 1
        else:
            if program is None:
                program = build_task_program(job.task, job.params)
                builds += 1
            record = _evaluate_program(
                program, job.chip, job.bits, pass_config, job.cycle_limit
            )
            if memo is not None:
                memo.put(key, record)
        points.append(
            _point_from_record(
                job.task, job.params, pass_config, record, job.cycle_limit
            )
        )
    return points, builds, hits


def evaluate(
    task: RNNTask,
    params: LoopParams,
    chip: PlasticineConfig,
    *,
    bits: int = 8,
    pass_config: PassConfig | None = None,
    memoize: bool = True,
) -> SearchPoint:
    """Map and simulate one candidate point: :func:`search`'s own path
    for a single configuration, never pruned.

    ``memoize`` consults the per-process
    :class:`~repro.serving.engine.EvalMemo` first — a hit reconstructs the
    point bit-identically (per-step cycles and resources are
    length-independent; the total is ``timesteps * cycles_per_step``,
    the simulator's own identity).  A record a pruning search left with
    only the point's bound is a miss.
    """
    job = _SearchJob(
        task=task,
        params=params,
        chip=chip,
        bits=bits,
        pass_configs=(pass_config or PassConfig(),),
    )
    (point,), _, _ = _evaluate_params(job, _MEMO if memoize else None)
    return point


def search(
    task: RNNTask,
    chip: PlasticineConfig | None = None,
    space: ParameterSpace | None = None,
    *,
    bits: int = 8,
    workers: int | None = None,
    prune: bool = True,
) -> DSEResult:
    """Search the space, returning the latency-optimal feasible point.

    Ties break toward fewer PCUs (cheaper design, same speed).

    Args:
        workers: Fan parameter points onto this many processes
            (:func:`~repro.dse.runner.run_jobs`; default sequential).
            The point list, best point, and every field are
            bit-identical at any worker count — purely wall clock.
        prune: Exact branch-and-bound.  Parameter points are visited by
            descending ``hu * ru``, then descending ``hu``, and the
            first ones are evaluated in full (every pass config) until
            one is feasible: its best per-step cycles are the incumbent.
            Every other point whose proven per-step lower bound is
            strictly above the incumbent stops after ``plan_gates`` and
            is reported ``pruned=True`` and infeasible, with the bound as
            its cycles; it could not have won, so ``best`` is the same
            as with ``prune=False``, the exhaustive sweep.  The
            incumbent is fixed before any worker starts, so the pruned
            set is the same at any worker count.
    """
    chip = chip or PlasticineConfig.rnn_serving()
    space = space or ParameterSpace()
    stats = DSEStats(workers=workers or 1)
    jobs = [
        _SearchJob(
            task=task,
            params=params,
            chip=chip,
            bits=bits,
            pass_configs=space.pass_configs,
        )
        for params in space.candidates(task, chip, bits)
    ]
    hu_ru = [job.params.hu * job.params.ru for job in jobs]
    results: list = [None] * len(jobs)
    limit = None
    rest = list(range(len(jobs)))
    if prune:
        # The head runs here: whole parameter points, most dot-product
        # units first, until one is feasible.  Its best per-step cycles
        # become every later point's limit.
        for i in sorted(rest, key=lambda i: (-hu_ru[i], -jobs[i].params.hu, i)):
            rest.remove(i)
            results[i] = _evaluate_params(jobs[i])
            feasible = [p.cycles_per_step for p in results[i][0] if p.fits]
            if feasible:
                limit = min(feasible)
                break
    rest_jobs = [replace(jobs[i], cycle_limit=limit) for i in rest]
    for i, result in zip(rest, run_jobs(_evaluate_params, rest_jobs, workers=workers)):
        results[i] = result
    points: list[SearchPoint] = []
    for job_points, builds, hits in results:
        points.extend(job_points)
        stats.program_builds += builds
        stats.memo_hits += hits
    stats.candidates = len(points)
    stats.evaluated = len(points) - stats.memo_hits
    stats.pruned = sum(1 for p in points if p.pruned)
    if not points:
        raise DSEError(f"no candidate points for {task.name}")
    feasible = [p for p in points if p.fits]
    if not feasible:
        raise DSEError(f"no feasible design for {task.name} on {chip.name}")
    best = min(feasible, key=lambda p: (p.total_cycles, p.pcus_used))
    return DSEResult(task=task, best=best, points=tuple(points), stats=stats)
