"""Exhaustive map-and-simulate search over a parameter space.

Every point, in a sweep or alone (:func:`evaluate`), takes one path,
:func:`_evaluate_params`: memo lookup, program build, map-and-simulate,
memo store.  Through the shared DSE runner (:mod:`repro.dse.runner`)
that path is memoized, hoisted, and parallel:

* the task *program* is built once per :class:`LoopParams` and reused
  across the pass-config axis (pass configs only affect mapping, not
  the program);
* every mapped-and-simulated point lands in a per-process LRU
  (:class:`~repro.dse.runner.EvalMemo`) keyed by ``(task family,
  params, bits, chip, pass_config)`` — the result scales exactly with
  ``timesteps`` (``total = T * cycles_per_step``), so length variants
  of one family share entries;
* :func:`search` fans parameter points onto a worker pool
  (``workers=``) in candidate order, bit-identical to the sequential
  loop.

Nothing is persisted across processes, so every answer follows the
current mapper and cost models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DSEError
from repro.dse.runner import DSEStats, EvalMemo, run_jobs
from repro.dse.space import ParameterSpace
from repro.mapping.mapper import MappedDesign, map_rnn_program
from repro.mapping.passes import PassConfig
from repro.plasticine.chip import PlasticineConfig
from repro.plasticine.simulator import simulate_pipeline
from repro.rnn.gru_loop import declare_gru_program
from repro.rnn.lstm_loop import LoopParams, declare_lstm_program
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
    """One evaluated design point."""

    params: LoopParams
    cycles_per_step: int
    total_cycles: int
    fits: bool
    pcus_used: int
    pmus_used: int
    #: Which optimization passes produced this point (compiler axis).
    pass_config: PassConfig = PassConfig()

    @property
    def latency_s(self) -> float:
        return self.total_cycles / 1e9  # points are compared at 1 GHz


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


#: Per-process memo over pure map-and-simulate results.  Keyed by
#: ``(family_key, params, bits, chip, pass_config)`` — everything the
#: mapped design depends on; ``timesteps`` is deliberately absent (the
#: record stores per-step cycles and the total is ``T * cycles_per_step``,
#: the simulator's own identity), so length variants share entries.
_MEMO = EvalMemo(maxsize=4096)

#: What the memo stores per key; ``fits`` is recomputed from the stored
#: bits so one entry serves both ``require_capacity`` policies.
_MemoRecord = tuple  # (cycles_per_step, fits_cb, fits_capacity, pcus, pmus)


def _memo_key(
    task: RNNTask,
    params: LoopParams,
    chip: PlasticineConfig,
    bits: int,
    pass_config: PassConfig,
) -> tuple:
    return (task.family_key, params, bits, chip, pass_config)


def _point_from_record(
    task: RNNTask,
    params: LoopParams,
    pass_config: PassConfig,
    record: _MemoRecord,
    *,
    require_capacity: bool,
) -> SearchPoint:
    cycles_per_step, fits_cb, fits_capacity, pcus, pmus = record
    fits = fits_cb and (fits_capacity if require_capacity else True)
    return SearchPoint(
        params=params,
        cycles_per_step=cycles_per_step,
        total_cycles=task.timesteps * cycles_per_step,
        fits=fits,
        pcus_used=pcus,
        pmus_used=pmus,
        pass_config=pass_config,
    )


def _evaluate_program(
    prog, chip: PlasticineConfig, bits: int, pass_config: PassConfig
) -> _MemoRecord:
    """Map and simulate one built program: the uncached inner kernel."""
    design: MappedDesign = map_rnn_program(
        prog, chip, bits=bits, pass_config=pass_config
    )
    sim = simulate_pipeline(design.graph)
    res = design.resources
    return (
        sim.cycles_per_step + sim.step_overhead,
        res.fits_compute and res.fits_bandwidth,
        res.fits_capacity,
        res.pcus_used,
        res.pmus_used,
    )


@dataclass(frozen=True)
class _SearchJob:
    """One parameter point across the whole pass-config axis."""

    task: RNNTask
    params: LoopParams
    chip: PlasticineConfig
    bits: int
    require_capacity: bool
    pass_configs: tuple[PassConfig, ...]


def _evaluate_params(
    job: _SearchJob, memo: EvalMemo | None = _MEMO
) -> tuple[list[SearchPoint], int, int]:
    """Evaluate every pass config of one parameter point.

    The one evaluation path: :func:`search`'s worker entry and
    :func:`evaluate`'s body.  Looks each config up in ``memo`` (``None``
    skips the memo), builds the task program at most once (lazily — an
    all-hit point builds nothing), maps and simulates the misses and
    stores them.  Returns ``(points, program_builds, memo_hits)`` in the
    job's pass-config order.
    """
    program = None
    points: list[SearchPoint] = []
    builds = hits = 0
    for pass_config in job.pass_configs:
        key = _memo_key(job.task, job.params, job.chip, job.bits, pass_config)
        record = memo.get(key) if memo is not None else None
        if record is None:
            if program is None:
                program = build_task_program(job.task, job.params)
                builds += 1
            record = _evaluate_program(
                program, job.chip, job.bits, pass_config
            )
            if memo is not None:
                memo.put(key, record)
        else:
            hits += 1
        points.append(
            _point_from_record(
                job.task,
                job.params,
                pass_config,
                record,
                require_capacity=job.require_capacity,
            )
        )
    return points, builds, hits


def evaluate(
    task: RNNTask,
    params: LoopParams,
    chip: PlasticineConfig,
    *,
    bits: int = 8,
    require_capacity: bool = False,
    pass_config: PassConfig | None = None,
    memoize: bool = True,
) -> SearchPoint:
    """Map and simulate one candidate point: :func:`search`'s own path
    for a single configuration.

    ``memoize`` consults the per-process
    :class:`~repro.dse.runner.EvalMemo` first — a hit reconstructs the
    point bit-identically (per-step cycles and resources are
    length-independent; the total is ``timesteps * cycles_per_step``,
    the simulator's own identity).
    """
    job = _SearchJob(
        task=task,
        params=params,
        chip=chip,
        bits=bits,
        require_capacity=require_capacity,
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
    require_capacity: bool = False,
    workers: int | None = None,
) -> DSEResult:
    """Search the space, returning the latency-optimal feasible point.

    Ties break toward fewer PCUs (cheaper design, same speed).

    Args:
        require_capacity: Also require the weights to fit on-chip; off by
            default because the paper's largest tasks exceed the 31.5 MB
            scratchpad yet are still evaluated (see EXPERIMENTS.md).
        workers: Fan parameter points onto this many processes
            (:func:`~repro.dse.runner.run_jobs`; default sequential).
            The point list, best point, and every field are
            bit-identical at any worker count — purely wall clock.
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
            require_capacity=require_capacity,
            pass_configs=space.pass_configs,
        )
        for params in space.candidates(task, chip, bits)
    ]
    points: list[SearchPoint] = []
    for job_points, builds, hits in run_jobs(
        _evaluate_params, jobs, workers=workers
    ):
        points.extend(job_points)
        stats.program_builds += builds
        stats.memo_hits += hits
    stats.candidates = len(points)
    stats.evaluated = len(points) - stats.memo_hits
    if not points:
        raise DSEError(f"no candidate points for {task.name}")
    feasible = [p for p in points if p.fits]
    if not feasible:
        raise DSEError(f"no feasible design for {task.name} on {chip.name}")
    best = min(feasible, key=lambda p: (p.total_cycles, p.pcus_used))
    return DSEResult(task=task, best=best, points=tuple(points), stats=stats)
