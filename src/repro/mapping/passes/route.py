"""``route_edges``: derive edge costs and placement-dependent latency.

Every dataflow edge gets its routed cost from real Manhattan distances
on the placed units (worst case over the replicas it feeds), and the two
latency terms that only exist once placement is known land on their
stages: the cross-PCU reduction tree on each accumulate stage and the
state-broadcast on the writeback stage.
"""

from __future__ import annotations

from repro.mapping.mapper import _tree_latency
from repro.mapping.passes.core import MappingPass, MappingState, register_pass, xh_pmus

__all__ = ["RouteEdges"]


@register_pass("route_edges")
class RouteEdges(MappingPass):
    """Route all edges and add tree/broadcast latencies from placement."""

    requires = ("place_units",)

    def run(self, state: MappingState) -> None:
        chip = state.chip
        layout = chip.layout
        hop = chip.hop_latency
        anchor = state.stage("load_x").coord
        ew = state.stage("ew")

        xh_copies = []
        for plan in state.gate_plans:
            dot = state.stage(plan.dot_name)
            accum = state.stage(plan.accum_name)
            replica0 = dot.units_pcu[: dot.n_pcus]
            state.edge("load_x", dot.name).route = max(
                layout.route_cycles(anchor, p, hop) for p in dot.units_pcu
            )
            state.edge(dot.name, accum.name).route = max(
                layout.route_cycles(p, accum.coord, hop) for p in replica0
            )
            # Cross-PCU reduction tree over the ru partial sums.
            accum.latency += _tree_latency(replica0, chip) if plan.gate.ru > 1 else 0
            state.edge(accum.name, "ew").route = layout.route_cycles(
                accum.coord, ew.coord, hop
            )
            xh_copies.extend(xh_pmus(dot, state.hu))

        # State writeback: broadcast the h element to every [x, h] copy.
        writeback = state.stage("writeback")
        broadcast = max(layout.route_cycles(ew.coord, pmu, hop) for pmu in xh_copies)
        writeback.latency += broadcast
        state.edge("ew", "writeback").route = 0
