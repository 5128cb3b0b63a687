"""Lowering traced DSL programs onto the Plasticine chip.

* :mod:`repro.mapping.pipeline` — the :class:`PipelineGraph` intermediate
  form: placed stages with initiation intervals, latencies and routed
  edges; what the cycle simulator executes.
* :mod:`repro.mapping.resources` — resource accounting (PCUs, PMUs,
  scratchpad bytes) and fit checking.
* :mod:`repro.mapping.mapper` — the lowering vocabulary (GateGroup,
  MappedDesign, the greedy placer, structure recognition) and
  :func:`map_rnn_program`, which runs the default pass pipeline.
* :mod:`repro.mapping.passes` — the compiler pass pipeline that
  implements the Section 4 lowering: a ``MappingPass`` registry and a
  ``PassManager`` threading a ``MappingState`` through
  recognize → plan → place → route → fold → report, with optional
  ``fuse_gates`` / ``double_buffer`` optimization passes behind
  :class:`PassConfig`.
* :mod:`repro.mapping.bound` — the per-step cycle lower bound proven
  right after ``plan_gates``, which the chip tuner prunes with.
"""

from repro.mapping.pipeline import PipelineGraph, Stage
from repro.mapping.resources import ResourceReport, resource_report
from repro.mapping.mapper import MappedDesign, map_rnn_program
from repro.mapping.bound import CycleLimitExceeded, cycle_lower_bound
from repro.mapping.passes import (
    MappingPass,
    MappingState,
    PassConfig,
    PassManager,
    available_passes,
    design_fingerprint,
    diff_designs,
    register_pass,
)

__all__ = [
    "CycleLimitExceeded",
    "cycle_lower_bound",
    "PipelineGraph",
    "Stage",
    "ResourceReport",
    "resource_report",
    "MappedDesign",
    "map_rnn_program",
    "MappingPass",
    "MappingState",
    "PassConfig",
    "PassManager",
    "available_passes",
    "design_fingerprint",
    "diff_designs",
    "register_pass",
]
