"""Shared DSE execution engine: pools and pruning.

Both search loops — the chip-level Table 7 tuner
(:mod:`repro.dse.search`) and the fleet-level capacity planner
(:mod:`repro.dse.capacity`) — are embarrassingly parallel sweeps of a
pure per-candidate evaluation.  This module is the machinery they
share, so every future DSE axis (sparsity platforms, new compiler
passes, bigger fleet spaces) gets both speedups for free:

* :func:`run_jobs` — ordered fan-out onto a fork-preferred
  ``multiprocessing`` pool (:func:`~repro.serving.parallel.pool_map`,
  the same idiom as ``serve_parallel``).  Results return in candidate
  order whatever the pool size, so a search that folds them in order
  is **bit-identical** to its sequential loop at any worker count.
* :class:`PruningSummary` — an early-abort
  :class:`~repro.serving.stats.StreamSummary` for the capacity
  planner: candidate evaluation stops as soon as enough completed
  requests have overshot the SLO that the full replay could only
  conclude ``meets_slo=False`` (see :func:`prune_threshold` for the
  exactness argument).  Feasible candidates are never aborted, so the
  planner's ``best`` and feasible frontier are unchanged by pruning.

The chip tuner prunes on its own terms, an exact branch-and-bound on a
per-step cycle lower bound (:func:`repro.dse.search.search`); both
loops count their pruned candidates in :attr:`DSEStats.pruned`.

Nothing is persisted across processes: every search answers from the
current mapper and cost models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import DSEError
from repro.serving.parallel import pool_map
from repro.serving.request import _budget_error
from repro.serving.stats import _HIST_RATIO, StreamSummary

__all__ = [
    "DSEStats",
    "PruneAbort",
    "PruningSummary",
    "prune_threshold",
    "run_jobs",
]


def _check_budget(name: str, value: float) -> None:
    """Raise :class:`DSEError` unless ``value`` is a legal budget: a
    positive real number that a float holds (see
    :func:`repro.serving.request._budget_error`)."""
    error = _budget_error(name, value)
    if error is not None:
        raise DSEError(error)


@dataclass
class DSEStats:
    """Execution counters for one search run (never part of the result's
    value equality — two runs with different worker counts or memo
    temperatures produce equal results but different stats)."""

    #: Candidate points the search covered (evaluated + memo hits).
    candidates: int = 0
    #: Points computed fresh: mapped and simulated, or stopped at the
    #: tuner's cycle bound; stream-replayed, in full or pruned.
    evaluated: int = 0
    #: Points answered by the in-process
    #: :class:`~repro.serving.engine.EvalMemo`.
    memo_hits: int = 0
    #: Task programs built (hoisted per ``LoopParams``, so typically
    #: one per parameter point rather than one per grid point).
    program_builds: int = 0
    #: Candidates reported pruned: aborted early by
    #: :class:`PruningSummary` (planner), or stopped after
    #: ``plan_gates`` because their cycle lower bound is above the
    #: incumbent's (tuner; memo answers included).
    pruned: int = 0
    #: Requests actually simulated across all candidates (the planner's
    #: pruning savings show up here).
    simulated_requests: int = 0
    #: Always False: no search answers from a persisted result.  Kept
    #: only because the repo benchmark (``perfbench/``) still reads it.
    from_cache: bool = False
    #: Worker processes the sweep ran on.
    workers: int = 1


def run_jobs(fn: Callable, jobs: "Sequence[object]", *, workers: int | None = None) -> list:
    """Evaluate ``fn`` over ``jobs`` in order, optionally on a pool.

    ``workers=None`` (and ``workers=1``) is the plain sequential loop —
    the default everywhere, so parallelism is strictly opt-in.  More
    workers fan the jobs onto :func:`~repro.serving.parallel.pool_map`
    (fork-preferred, results in job order), which is what makes the
    parallel searches bit-identical to sequential: ``fn`` must be a
    pure module-level function of its (picklable) job.
    """
    if workers is None:
        workers = 1
    if workers < 1:
        raise DSEError("workers must be >= 1")
    return pool_map(fn, jobs, workers)


# -- SLO pruning (capacity planner) -----------------------------------------


def prune_threshold(n_requests: int, q: float = 99.0) -> int:
    """Pruning misses threshold: abort once *more than* this many
    completed requests have clearly overshot the SLO.

    The planner scores ``meets_slo = p99_ms < slo_ms`` over the full
    ``n_requests`` replay, with the Pq rank interpolated at
    ``rank = (q/100) * (n - 1)``.  If ``m`` completions exceed the SLO,
    the value at ``floor(rank)`` — a lower bound on the interpolated
    percentile — is itself a miss as soon as
    ``floor(rank) >= n - m``.  The smallest such ``m`` is
    ``(n - 1) - floor(rank) + 1``, so evaluation may abort the moment
    ``m > (n - 1) - floor(rank)`` — this function, computed with the
    *same* float arithmetic as the percentile — and the full run could
    only have concluded ``meets_slo=False``.  For round ``n`` this is
    exactly the intuitive ``floor(0.01 * n)`` (20 for 2000 requests).

    Feasible candidates can never reach the threshold (contrapositive:
    ``m > threshold`` implies ``p99 > slo``), so pruning preserves the
    planner's ``best`` and feasible set exactly.
    """
    if n_requests < 1:
        raise DSEError("n_requests must be >= 1")
    rank = (q / 100.0) * (n_requests - 1)
    return (n_requests - 1) - math.floor(rank)


class PruneAbort(Exception):
    """Control-flow signal: a candidate's replay proved infeasible early.

    Carries the :class:`PruningSummary` so the caller can score the
    partial metrics observed up to the abort point.
    """

    def __init__(self, summary: "PruningSummary") -> None:
        super().__init__("candidate pruned: SLO miss budget exhausted")
        self.summary = summary


class PruningSummary(StreamSummary):
    """A stream summary that raises :class:`PruneAbort` once the SLO
    miss budget is provably blown.

    Counts *clear* misses — sojourns at or above ``slo_ms`` times one
    log-histogram bucket ratio (~1.8%) — rather than bare ``> slo_ms``
    overshoots.  The margin makes the abort sound in the
    histogram-estimated percentile regime too (streams past the
    64-sample exact reservoir): a clear miss lands in a bucket whose
    lower edge is already at or above the SLO, so once clear misses
    occupy the P99 rank the bucket-interpolated estimate cannot dip
    back under the SLO, exactly as the order statistic cannot in the
    exact regime.  Saturated candidates — the ones worth pruning —
    overshoot by orders of magnitude, so the margin costs essentially
    no pruning opportunity.
    """

    def __init__(self, *args, prune_slo_ms: float, threshold: int, **kwargs):
        super().__init__(*args, **kwargs)
        _check_budget("prune_slo_ms", prune_slo_ms)
        if threshold < 0:
            raise DSEError("prune threshold must be >= 0")
        self.prune_slo_ms = prune_slo_ms
        self.threshold = threshold
        #: Completed requests folded in before (any) abort.
        self.simulated = 0
        #: Clear SLO misses counted toward the threshold.
        self.clear_misses = 0
        self._clear_cut_ms = prune_slo_ms * _HIST_RATIO

    def observe_served(
        self,
        request,
        result,
        start_s: float,
        finish_s: float,
        batch_size: int,
        outcome: str = "ok",
        *,
        batch_index: int = 0,
        attempts: int = 1,
    ) -> None:
        super().observe_served(
            request, result, start_s, finish_s, batch_size, outcome
        )
        self.simulated += 1
        sojourn_ms = (finish_s - request.arrival_s) * 1e3
        if sojourn_ms >= self._clear_cut_ms:
            self.clear_misses += 1
            if self.clear_misses > self.threshold:
                raise PruneAbort(self)
