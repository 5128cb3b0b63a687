"""``report_resources``: freeze the IR into the final MappedDesign.

Converts the stage drafts (in insertion order) into a
:class:`~repro.mapping.pipeline.PipelineGraph`, tallies the memory
footprint and unit usage into a
:class:`~repro.mapping.resources.ResourceReport`, and assembles the
:class:`~repro.mapping.mapper.MappedDesign` — including which passes ran
and how long each took (``passes_applied`` / ``pass_timings``; the
timing of this pass itself is still being measured and is not included).
"""

from __future__ import annotations

from repro.errors import MappingError
from repro.mapping.mapper import (
    SEQ_SYNC_CYCLES,
    MappedDesign,
    _memory_footprint,
    _overflow_note,
)
from repro.mapping.passes.core import MappingPass, MappingState, register_pass, xh_pmus
from repro.mapping.pipeline import PipelineGraph, Stage
from repro.mapping.resources import resource_report

__all__ = ["ReportResources"]


@register_pass("report_resources")
class ReportResources(MappingPass):
    """Tally resources and freeze the placed pipeline graph."""

    requires = (
        "recognize_rnn",
        "plan_gates",
        "place_units",
        "route_edges",
        "fold_luts",
    )

    def run(self, state: MappingState) -> None:
        for edge in state.edges:
            if edge.route is None:
                raise MappingError(
                    f"cannot report resources: edge {edge.src!r}->{edge.dst!r} "
                    f"is unrouted"
                )

        graph = PipelineGraph(
            name=state.prog.name,
            n_iterations=state.n_iterations,
            steps=state.steps,
            replicas=state.hu,
            step_overhead=state.step_overhead,
        )
        for draft in state.stages.values():
            graph.add_stage(
                Stage(
                    draft.name,
                    ii=draft.ii,
                    latency=draft.latency,
                    n_pcus=draft.n_pcus,
                    n_pmus=draft.n_pmus,
                    coord=draft.coord,
                    units_pcu=draft.units_pcu,
                    units_pmu=draft.units_pmu,
                )
            )
        for edge in state.edges:
            graph.connect(edge.src, edge.dst, edge.route)

        weight_bytes, state_bytes, lut_bytes = _memory_footprint(state.prog)
        # The [x,h] vector is replicated per dot PCU for bandwidth (and
        # doubled again by double_buffer's back buffers).
        xh_copies = graph.replicas * sum(
            len(xh_pmus(state.stage(plan.dot_name), state.hu))
            for plan in state.gate_plans
        )
        notes = []
        if xh_copies:
            state_bytes = state_bytes * (1 + xh_copies)
            notes.append(f"[x,h] replicated {xh_copies}x for dot-PCU bandwidth")
        for fused_name, old_names in state.fused_groups:
            notes.append(
                f"fuse_gates: {len(old_names)} accum stages merged into {fused_name}"
            )
        if "double_buffer" in state.completed:
            notes.append(
                f"double_buffer: step overhead {SEQ_SYNC_CYCLES} -> "
                f"{graph.step_overhead} cycles"
            )
        overflow = _overflow_note(state.placer)
        if overflow:
            notes.append(overflow)

        state.graph = graph
        state.resources = resource_report(
            graph,
            state.chip,
            weight_bytes=weight_bytes,
            state_bytes=state_bytes,
            lut_bytes=lut_bytes,
            notes=tuple(notes),
        )
        state.design = MappedDesign(
            program_name=state.prog.name,
            chip=state.chip,
            graph=graph,
            resources=state.resources,
            gates=state.gates,
            hu=state.hu,
            n_iterations=state.n_iterations,
            steps=state.steps,
            bits=state.bits,
            passes_applied=tuple(state.completed) + (self.name,),
            pass_timings=tuple(state.timings),
        )
