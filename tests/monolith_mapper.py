"""The original single-function Plasticine lowering, kept as a reference.

Before the compiler pass pipeline (:mod:`repro.mapping.passes`), the
Section 4 lowering was this one function.  The default pipeline must
reproduce its :class:`~repro.mapping.mapper.MappedDesign` bit for bit:
``tests/test_pass_pipeline_parity.py`` diffs the two, and
``tests/test_mapping_edge_paths.py``, ``tests/test_placement_map.py``
and ``benchmarks/bench_pass_pipeline.py`` map through it too.  It shares
structure recognition, the greedy placer and the latency and footprint
helpers with the passes, which import them from
:mod:`repro.mapping.mapper`, so a change to a helper moves both sides of
the diff alike.  No entry point of the package calls it.
"""

from __future__ import annotations

import math

from repro.mapping.mapper import (
    SEQ_SYNC_CYCLES,
    MappedDesign,
    _centroid,
    _find_structure,
    _memory_footprint,
    _overflow_note,
    _Placer,
    _tree_latency,
)
from repro.mapping.pipeline import PipelineGraph, Stage
from repro.mapping.resources import resource_report
from repro.plasticine.chip import PlasticineConfig
from repro.plasticine.network import Coord
from repro.spatial.builder import Program
from repro.spatial.ir import OpKind


def _map_rnn_monolith(
    prog: Program,
    chip: PlasticineConfig | None = None,
    *,
    bits: int = 8,
) -> MappedDesign:
    """The original single-function lowering (pre-pass-pipeline).

    Kept temporarily as the golden reference for the differential parity
    suite and the CI parity smoke; new behavior goes into the passes.
    """
    chip = chip or PlasticineConfig.rnn_serving()
    root = prog.trace()
    steps, cell, gates = _find_structure(root)

    hu = cell.par
    n_iter = cell.issue_count
    pcu_rv = chip.dot_lanes_per_pcu(bits)
    timing = chip.pcu.map_reduce_timing(bits)

    graph = PipelineGraph(
        name=prog.name,
        n_iterations=n_iter,
        steps=steps,
        replicas=hu,
        step_overhead=SEQ_SYNC_CYCLES,
    )
    placer = _Placer(chip)
    anchor: Coord = (chip.layout.rows // 2, 0)

    # All replicas are physically placed so route latencies reflect the
    # full design footprint; stage resource counts stay per-replica (the
    # graph multiplies by `replicas`), and edge routes take the worst
    # case over the placed units.
    state_pmu_coords: list[Coord] = []
    accum_coords: list[Coord] = []
    graph.add_stage(
        Stage("load_x", ii=1, latency=chip.hop_latency + 1, coord=anchor)
    )

    for gate in gates:
        # One MapReduce unit may span several PCUs if the program's rv
        # exceeds what one PCU consumes per cycle.
        pcus_per_unit = max(1, math.ceil(gate.rv / pcu_rv))
        n_dot_pcus = gate.ru * pcus_per_unit
        dot_pcus = placer.take_pcus(n_dot_pcus * hu, anchor)
        # Two PMUs per dot PCU: the weight slice and the [x, h] copy.
        placer.take_pmus(n_dot_pcus * hu, dot_pcus[0])  # weight slices
        xh_pmus = placer.take_pmus(n_dot_pcus * hu, dot_pcus[0])
        state_pmu_coords.extend(xh_pmus)

        dot_coord = _centroid(dot_pcus)
        dot = graph.add_stage(
            Stage(
                f"dot_{gate.name}",
                ii=gate.issue_blocks,
                latency=gate.issue_blocks + timing.depth_cycles,
                n_pcus=n_dot_pcus,
                n_pmus=2 * n_dot_pcus,
                coord=dot_coord,
            )
        )
        load_route = max(
            chip.layout.route_cycles(anchor, p, chip.hop_latency) for p in dot_pcus
        )
        graph.connect("load_x", dot.name, load_route)

        # Cross-PCU tree + bias + LUT.
        accum_pcus_needed = max(1, math.ceil(max(gate.ru - 1, 1) / chip.pcu.stages))
        accum_pcu = placer.take_pcus(accum_pcus_needed * hu, dot_coord)
        placer.take_pmus(hu, accum_pcu[0])  # per-replica LUT tables
        replica0 = dot_pcus[:n_dot_pcus]
        tree = _tree_latency(replica0, chip) if gate.ru > 1 else 0
        lut_access = 2  # PMU read: address + data
        accum = graph.add_stage(
            Stage(
                f"accum_{gate.name}",
                ii=1,
                latency=tree + 1 + lut_access,  # tree + bias add + LUT
                n_pcus=accum_pcus_needed,
                n_pmus=1,
                coord=accum_pcu[0],
            )
        )
        accum_coords.append(accum_pcu[0])
        dot_to_accum = max(
            chip.layout.route_cycles(p, accum_pcu[0], chip.hop_latency)
            for p in replica0
        )
        graph.connect(dot.name, accum.name, dot_to_accum)

    # ---- element-wise fusion stage ----
    # Ops at cell level, minus what the accumulate stages already did
    # (per gate: one bias/part-join add chain and one LUT).  Counter
    # address arithmetic is approximated into the chain (one extra op).
    cell_ops = {kind: cell.op_count(kind) for kind in OpKind}
    gate_adds = sum(len(g.reduces) for g in gates)  # part joins + bias adds
    ew_ops = max(
        1,
        sum(cell_ops.get(k, 0) for k in (OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.NEG))
        - gate_adds
        + (cell_ops.get(OpKind.LUT, 0) - len(gates)),  # extra LUTs (tanh(c))
    )
    ew_pcus_needed = max(1, math.ceil(ew_ops / chip.pcu.stages))
    ew_anchor = _centroid(accum_coords)
    ew_pcus = placer.take_pcus(ew_pcus_needed * hu, ew_anchor)
    extra_luts = max(0, cell_ops.get(OpKind.LUT, 0) - len(gates))
    # State memory (c for LSTM / h for GRU) + any extra LUT tables.
    ew_n_pmus = 1 + (1 if extra_luts else 0)
    placer.take_pmus(ew_n_pmus * hu, ew_pcus[0])
    ew = graph.add_stage(
        Stage(
            "ew",
            ii=1,
            latency=ew_ops + (ew_pcus_needed - 1) * 2 * chip.hop_latency,
            n_pcus=ew_pcus_needed,
            n_pmus=ew_n_pmus,
            coord=ew_pcus[0],
        )
    )
    for gate, coord in zip(gates, accum_coords):
        graph.connect(
            f"accum_{gate.name}",
            "ew",
            chip.layout.route_cycles(coord, ew_pcus[0], chip.hop_latency),
        )

    # ---- state writeback: broadcast h element to every [x,h] copy ----
    broadcast = max(
        chip.layout.route_cycles(ew_pcus[0], pmu, chip.hop_latency)
        for pmu in state_pmu_coords
    )
    graph.add_stage(Stage("writeback", ii=1, latency=broadcast + 1, coord=ew_pcus[0]))
    graph.connect("ew", "writeback", 0)

    weight_bytes, state_bytes, lut_bytes = _memory_footprint(prog)
    # The [x,h] vector is replicated per dot PCU for bandwidth.
    xh_copies = graph.replicas * len(state_pmu_coords)
    notes = []
    if xh_copies:
        state_bytes = state_bytes * (1 + xh_copies)
        notes.append(f"[x,h] replicated {xh_copies}x for dot-PCU bandwidth")
    overflow = _overflow_note(placer)
    if overflow:
        notes.append(overflow)
    resources = resource_report(
        graph,
        chip,
        weight_bytes=weight_bytes,
        state_bytes=state_bytes,
        lut_bytes=lut_bytes,
        notes=tuple(notes),
    )
    return MappedDesign(
        program_name=prog.name,
        chip=chip,
        graph=graph,
        resources=resources,
        gates=gates,
        hu=hu,
        n_iterations=n_iter,
        steps=steps,
        bits=bits,
    )
