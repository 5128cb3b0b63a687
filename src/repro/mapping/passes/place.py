"""``place_units``: allocate physical grid units for every stage.

Replays the monolith's greedy nearest-available allocation order
exactly — the :class:`~repro.mapping.mapper._Placer` is stateful, so the
*order* of takes determines every coordinate: per gate, dot PCUs near
the load anchor, then weight PMUs and ``[x, h]`` PMUs near the first dot
PCU, then accumulate PCUs near the dot centroid and LUT PMUs beside
them; finally the element-wise PCUs near the accumulate centroid.  Any
deviation here is caught by the differential parity suite.

Each stage draft records its own units (``units_pcu`` / ``units_pmu``,
in take order); nothing else in the IR keeps a copy.
"""

from __future__ import annotations

from repro.mapping.mapper import _centroid, _Placer
from repro.mapping.passes.core import (
    MappingPass,
    MappingState,
    StageDraft,
    register_pass,
)
from repro.plasticine.network import Coord

__all__ = ["PlaceUnits"]


def _place(state: MappingState, draft: StageDraft, near: Coord) -> None:
    """Take the draft's PCUs (all replicas) nearest ``near``, then its
    PMUs nearest its first PCU, and add both to the unit ledger.

    One take of a dot stage's ``2 * n`` PMUs per replica hands out what
    the monolith's two takes of ``n`` do (weight slices, then ``[x, h]``
    copies): the placer's pool stays sorted by distance from the same
    point between them.
    """
    placer = state.placer
    draft.units_pcu = tuple(placer.take_pcus(draft.n_pcus * state.hu, near))
    draft.units_pmu = tuple(
        placer.take_pmus(draft.n_pmus * state.hu, draft.units_pcu[0])
    )
    state.pcus_allocated += len(draft.units_pcu)
    state.pmus_allocated += len(draft.units_pmu)


@register_pass("place_units")
class PlaceUnits(MappingPass):
    """Greedy locality-aware placement of all stage drafts on the grid."""

    requires = ("plan_gates",)

    def run(self, state: MappingState) -> None:
        chip = state.chip
        state.placer = _Placer(chip)
        anchor: Coord = (chip.layout.rows // 2, 0)
        state.stage("load_x").coord = anchor

        accums = []
        for plan in state.gate_plans:
            dot = state.stage(plan.dot_name)
            _place(state, dot, anchor)
            dot.coord = _centroid(dot.units_pcu)
            accum = state.stage(plan.accum_name)
            _place(state, accum, dot.coord)
            accum.coord = accum.units_pcu[0]
            accums.append(accum.coord)

        ew = state.stage("ew")
        _place(state, ew, _centroid(accums))
        ew.coord = ew.units_pcu[0]
        state.stage("writeback").coord = ew.coord
