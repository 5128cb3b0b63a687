"""Optimization passes the monolith could not express.

``fuse_gates``
    The per-gate accumulate stages are short chains (``ru - 1`` tree
    adds, a bias add, a LUT) that each round up to a whole PCU per
    replica.  Compatible accumulate stages (same initiation interval)
    are merged into one fused stage whose chains pack together into
    ``ceil(sum(chain_ops) / pcu.stages)`` PCUs, re-placed next to the
    element-wise stage — strictly fewer PCUs, shorter accum→ew routes.

``double_buffer``
    The Sequential step boundary exposes ``SEQ_SYNC_CYCLES`` of control
    handshake because the next step's gate reads must wait for the state
    writeback to land in every ``[x, h]`` copy.  Double-buffering those
    copies (a second PMU per dot PCU) lets the writeback overlap the
    next step's load: the exposed overhead drops by the writeback
    latency — strictly fewer cycles for strictly more PMUs and state
    bytes.

Both are gated behind :class:`~repro.mapping.passes.core.PassConfig`
and searched by :mod:`repro.dse` as the ``pass_config`` axis.
"""

from __future__ import annotations

import math

from repro.mapping.mapper import _centroid
from repro.mapping.passes.core import (
    MappingPass,
    MappingState,
    StageDraft,
    register_pass,
    xh_pmus,
)

__all__ = ["FuseGates", "DoubleBuffer"]


@register_pass("fuse_gates")
class FuseGates(MappingPass):
    """Merge compatible per-gate accumulate stages into fused chains."""

    requires = ("route_edges", "fold_luts")

    def run(self, state: MappingState) -> None:
        chip = state.chip
        hu = state.hu
        ew = state.stage("ew")

        # Compatible = same initiation interval (all accums are ii=1
        # today, but a future pass could change that per gate).
        groups: dict[int, list] = {}
        for plan in state.gate_plans:
            groups.setdefault(state.stage(plan.accum_name).ii, []).append(plan)
        fusable = [plans for plans in groups.values() if len(plans) >= 2]

        hop = chip.hop_latency
        layout = chip.layout
        for gi, plans in enumerate(fusable):
            old_names = tuple(p.accum_name for p in plans)
            old = [state.stage(n) for n in old_names]
            total_chain = sum(p.accum_chain_ops for p in plans)
            fused_pcus = max(1, math.ceil(total_chain / chip.pcu.stages))
            fused_name = "accum_fused" if len(fusable) == 1 else f"accum_fused{gi}"

            # Tentatively give the old accum PCUs back and re-take the
            # (smaller) fused allocation at the centroid of where they
            # were — the dot partials already route toward that region.
            # Snapshot the placer so an unprofitable fusion can back out.
            pool_snapshot = list(state.placer.free_pcus)
            overflow_snapshot = state.placer.overflow_pcus
            released = [u for s in old for u in s.units_pcu]
            state.placer.release_pcus(released)
            fused_units = state.placer.take_pcus(fused_pcus * hu, _centroid(released))
            fused_coord = fused_units[0]
            fused_latency = max(s.latency for s in old)

            # Profitability: fusing must not lengthen the worst
            # load -> dot -> accum -> ew path (the cycle-count contract
            # of this pass is "fewer PCUs, never slower").  Every other
            # segment of the critical path is untouched by the rewrite,
            # so comparing the per-gate contributions is exact.
            fused_to_ew = layout.route_cycles(fused_coord, ew.coord, hop)

            def path(plan, accum_latency, route_in, route_out):
                return (
                    state.edge("load_x", plan.dot_name).route
                    + state.stage(plan.dot_name).latency
                    + route_in
                    + accum_latency
                    + route_out
                )

            old_worst = max(
                path(
                    p,
                    state.stage(p.accum_name).latency,
                    state.edge(p.dot_name, p.accum_name).route,
                    state.edge(p.accum_name, "ew").route,
                )
                for p in plans
            )
            new_routes = {}
            for p in plans:
                dot = state.stage(p.dot_name)
                new_routes[p.accum_name] = max(
                    layout.route_cycles(u, fused_coord, hop)
                    for u in dot.units_pcu[: dot.n_pcus]
                )
            new_worst = max(
                path(p, fused_latency, new_routes[p.accum_name], fused_to_ew)
                for p in plans
            )
            if new_worst > old_worst:
                state.placer.free_pcus = pool_snapshot
                state.placer.overflow_pcus = overflow_snapshot
                continue
            state.pcus_allocated += len(fused_units) - len(released)

            fused = StageDraft(
                fused_name,
                ii=old[0].ii,
                latency=fused_latency,
                n_pcus=fused_pcus,
                n_pmus=sum(s.n_pmus for s in old),  # the per-gate LUT tables
                coord=fused_coord,
                units_pcu=tuple(fused_units),
                units_pmu=tuple(u for s in old for u in s.units_pmu),
            )

            # Rebuild the stage dict in order: the first fused-away accum
            # becomes the fused stage, the rest disappear.
            rebuilt: dict[str, StageDraft] = {}
            for name, draft in state.stages.items():
                if name == old_names[0]:
                    rebuilt[fused.name] = fused
                elif name not in old_names:
                    rebuilt[name] = draft
            state.stages = rebuilt

            # Retarget dot->accum edges onto the fused stage and collapse
            # the per-gate accum->ew edges into one.
            rebuilt_edges = []
            ew_edge_done = False
            for edge in state.edges:
                if edge.dst in old_names:
                    edge.route = new_routes[edge.dst]
                    edge.dst = fused.name
                    rebuilt_edges.append(edge)
                elif edge.src in old_names:
                    if not ew_edge_done:
                        edge.src = fused.name
                        edge.route = fused_to_ew
                        rebuilt_edges.append(edge)
                        ew_edge_done = True
                    # subsequent accum->ew edges collapse away
                else:
                    rebuilt_edges.append(edge)
            state.edges = rebuilt_edges

            state.fused_groups.append((fused.name, old_names))


@register_pass("double_buffer")
class DoubleBuffer(MappingPass):
    """Double-buffer the [x, h] copies to hide the step writeback."""

    requires = ("route_edges",)

    def run(self, state: MappingState) -> None:
        hu = state.hu
        writeback = state.stage("writeback")

        for plan in state.gate_plans:
            dot = state.stage(plan.dot_name)
            extra = state.placer.take_pmus(dot.n_pcus * hu, xh_pmus(dot, hu)[0])
            state.pmus_allocated += len(extra)
            dot.n_pmus += dot.n_pcus
            dot.units_pmu += tuple(extra)

        # With a back buffer to write into, the next step's loads no
        # longer wait for the broadcast: only the control handshake that
        # exceeds the (now overlapped) writeback stays exposed.
        state.step_overhead = max(0, state.step_overhead - writeback.latency)
