"""``fold_luts``: fold gate non-linearities into accumulate-stage LUTs.

Each gate's non-linearity (sigmoid/tanh) is served by the PMU lookup
table already reserved next to its accumulate PCUs (``plan_gates`` sized
it; ``place_units`` placed it).  This pass accounts the access cost: a
PMU read is address + data, two cycles, appended to each accumulate
stage's latency.  Kept separate from planning so the property suite can
run it in any legal position after ``plan_gates``.
"""

from __future__ import annotations

from repro.mapping.passes.core import MappingPass, MappingState, register_pass

__all__ = ["FoldLuts", "LUT_ACCESS_CYCLES"]

#: PMU lookup-table read: address cycle + data cycle.
LUT_ACCESS_CYCLES = 2


@register_pass("fold_luts")
class FoldLuts(MappingPass):
    """Charge each accumulate stage the LUT access for its non-linearity."""

    requires = ("plan_gates",)

    def run(self, state: MappingState) -> None:
        for plan in state.gate_plans:
            state.stage(plan.accum_name).latency += LUT_ACCESS_CYCLES
