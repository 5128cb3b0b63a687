"""``plan_gates``: lower the recognized structure to a stage skeleton.

Creates every stage draft and dataflow edge with the placement-
*independent* decisions made: initiation intervals, per-replica PCU/PMU
needs, and the latency terms that do not depend on where units land
(map-reduce depth, element-wise chain length).  Placement-dependent
latency (reduction trees, the writeback broadcast) is added by
``route_edges``; the LUT access cost by ``fold_luts``.
"""

from __future__ import annotations

import math

from repro.mapping.passes.core import (
    GatePlan,
    MappingPass,
    MappingState,
    StageDraft,
    register_pass,
)
from repro.spatial.ir import OpKind

__all__ = ["PlanGates"]


@register_pass("plan_gates")
class PlanGates(MappingPass):
    """Build the dot/accum/ew/writeback stage skeleton from the gates."""

    requires = ("recognize_rnn",)

    def run(self, state: MappingState) -> None:
        chip = state.chip
        cell = state.cell
        pcu_rv = chip.dot_lanes_per_pcu(state.bits)
        timing = chip.pcu.map_reduce_timing(state.bits)

        state.add_stage(StageDraft("load_x", ii=1, latency=chip.hop_latency + 1))

        for gate in state.gates:
            # One MapReduce unit may span several PCUs if the program's
            # rv exceeds what one PCU consumes per cycle.
            pcus_per_unit = max(1, math.ceil(gate.rv / pcu_rv))
            n_dot_pcus = gate.ru * pcus_per_unit
            dot = state.add_stage(
                StageDraft(
                    f"dot_{gate.name}",
                    ii=gate.issue_blocks,
                    latency=gate.issue_blocks + timing.depth_cycles,
                    n_pcus=n_dot_pcus,
                    n_pmus=2 * n_dot_pcus,  # weight slice + [x, h] copy per PCU
                )
            )
            accum_chain_ops = max(gate.ru - 1, 1)
            accum = state.add_stage(
                StageDraft(
                    f"accum_{gate.name}",
                    ii=1,
                    latency=1,  # bias add; tree/LUT terms come from later passes
                    n_pcus=max(1, math.ceil(accum_chain_ops / chip.pcu.stages)),
                    n_pmus=1,  # per-replica LUT table
                )
            )
            state.add_edge("load_x", dot.name)
            state.add_edge(dot.name, accum.name)
            state.gate_plans.append(
                GatePlan(
                    gate=gate,
                    dot_name=dot.name,
                    accum_name=accum.name,
                    accum_chain_ops=accum_chain_ops,
                )
            )

        # Element-wise fusion stage: ops at cell level, minus what the
        # accumulate stages already did (per gate: one bias/part-join add
        # chain and one LUT).
        cell_ops = {kind: cell.op_count(kind) for kind in OpKind}
        gate_adds = sum(len(g.reduces) for g in state.gates)
        ew_ops = max(
            1,
            sum(
                cell_ops.get(k, 0)
                for k in (OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.NEG)
            )
            - gate_adds
            + (cell_ops.get(OpKind.LUT, 0) - len(state.gates)),
        )
        ew_pcus = max(1, math.ceil(ew_ops / chip.pcu.stages))
        extra_luts = max(0, cell_ops.get(OpKind.LUT, 0) - len(state.gates))
        state.add_stage(
            StageDraft(
                "ew",
                ii=1,
                latency=ew_ops + (ew_pcus - 1) * 2 * chip.hop_latency,
                n_pcus=ew_pcus,
                # State memory (c for LSTM / h for GRU) + any extra LUT table.
                n_pmus=1 + (1 if extra_luts else 0),
            )
        )
        for plan in state.gate_plans:
            state.add_edge(plan.accum_name, "ew")

        # State writeback: broadcast latency is placement-dependent and
        # added by route_edges; the +1 write cycle is structural.
        state.add_stage(StageDraft("writeback", ii=1, latency=1))
        state.add_edge("ew", "writeback")
