"""The mapper's compiler pass pipeline (see :mod:`.core` for the tour).

Importing this package registers the built-in passes:
``recognize_rnn``, ``plan_gates``, ``place_units``, ``route_edges``,
``fold_luts``, ``fuse_gates``, ``double_buffer``, ``report_resources``.
"""

from repro.mapping.passes.core import (
    DEFAULT_PIPELINE,
    EdgeDraft,
    GatePlan,
    MappingPass,
    MappingState,
    PassConfig,
    PassManager,
    PassTiming,
    StageDraft,
    available_passes,
    get_pass,
    register_pass,
    unregister_pass,
)
from repro.mapping.passes.diff import design_fingerprint, diff_designs
from repro.mapping.passes.luts import LUT_ACCESS_CYCLES
from repro.mapping.passes.verify import verify_state

# Importing the pass modules registers them.
from repro.mapping.passes import (  # noqa: E402  isort: skip
    structure as _structure,
    plan as _plan,
    place as _place,
    route as _route,
    luts as _luts,
    optimize as _optimize,
    report as _report,
)

__all__ = [
    "DEFAULT_PIPELINE",
    "LUT_ACCESS_CYCLES",
    "EdgeDraft",
    "GatePlan",
    "MappingPass",
    "MappingState",
    "PassConfig",
    "PassManager",
    "PassTiming",
    "StageDraft",
    "available_passes",
    "design_fingerprint",
    "diff_designs",
    "get_pass",
    "register_pass",
    "unregister_pass",
    "verify_state",
]
