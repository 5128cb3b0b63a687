"""A proven per-step cycle lower bound, read off the stage skeleton.

:func:`cycle_lower_bound` turns the mapping IR right after
``plan_gates`` into a lower bound on the ``cycles_per_step +
step_overhead`` that :func:`~repro.plasticine.simulator.simulate_pipeline`
reports for the finished design, before any unit is placed or routed:

    lat(load_x)
    + max over gates [(n_iterations - 1) * ii(dot) + lat(dot)
                      + lat(accum) + LUT_ACCESS_CYCLES]
    + lat(ew) + tail

Why it holds for the default pipeline and any
:class:`~repro.mapping.passes.PassConfig`:

* the simulator enforces ``entry[i] >= entry[i-1] + ii`` on every stage
  and ``entry >= producer exit + route`` on every edge, and routes are
  non-negative, so a dot stage's last iteration leaves no earlier than
  ``lat(load_x) + (n - 1) * ii(dot) + lat(dot)`` and the chain behind it
  adds at least each stage's latency;
* ``place_units`` changes no latency; ``route_edges`` and ``fold_luts``
  only add to the accumulate and writeback stages (``fold_luts`` adds
  exactly ``LUT_ACCESS_CYCLES``); ``fuse_gates`` gives a fused stage the
  largest latency of the stages it merges; ``double_buffer`` touches
  only PMUs and the step overhead;
* ``tail`` is ``lat(writeback) + step_overhead`` for the plain pipeline.
  ``double_buffer`` leaves an overhead of ``max(0, step_overhead -
  lat(writeback))``, so step plus overhead is still at least
  ``exit(ew) + max(lat(writeback), step_overhead)``.

The chip tuner (:func:`repro.dse.search.search`) prunes with it through
:func:`~repro.mapping.mapper.map_rnn_program`'s ``cycle_limit``.
"""

from __future__ import annotations

from repro.errors import MappingError
from repro.mapping.passes.core import MappingState, PassConfig
from repro.mapping.passes.luts import LUT_ACCESS_CYCLES

__all__ = ["CycleLimitExceeded", "cycle_lower_bound"]


class CycleLimitExceeded(Exception):
    """Control-flow signal: a design's per-step cycle lower bound is above
    the caller's ``cycle_limit``, so mapping stopped after ``plan_gates``.

    Carries the bound, which is what the caller records for the point.
    """

    def __init__(self, bound: int, limit: int) -> None:
        super().__init__(f"cycle lower bound {bound} is above the limit {limit}")
        self.bound = bound
        self.limit = limit


def cycle_lower_bound(state: MappingState, pass_config: PassConfig | None = None) -> int:
    """A lower bound on the per-step cycles (step plus overhead) of the
    design the default pipeline with ``pass_config`` makes from ``state``,
    which must have completed ``plan_gates`` and nothing after it."""
    if state.completed != ["recognize_rnn", "plan_gates"]:
        raise MappingError(
            f"cycle_lower_bound reads the state right after plan_gates, "
            f"not after {', '.join(state.completed) or 'no pass'}"
        )
    stage = state.stage
    gate_paths = max(
        (state.n_iterations - 1) * stage(plan.dot_name).ii
        + stage(plan.dot_name).latency
        + stage(plan.accum_name).latency
        + LUT_ACCESS_CYCLES
        for plan in state.gate_plans
    )
    writeback = stage("writeback").latency
    if pass_config is not None and pass_config.double_buffer:
        tail = max(writeback, state.step_overhead)
    else:
        tail = writeback + state.step_overhead
    return stage("load_x").latency + gate_paths + stage("ew").latency + tail
