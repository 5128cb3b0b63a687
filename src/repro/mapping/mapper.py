"""Lowering RNN loop nests onto Plasticine (paper Section 4).

The lowering runs in :mod:`repro.mapping.passes` as a pass pipeline
over a mapping IR; :func:`map_rnn_program` here is a thin wrapper that
runs the default pipeline.  This module keeps the lowering vocabulary
the passes share — the :class:`GateGroup` / :class:`MappedDesign` data
model, the greedy :class:`_Placer`, structure recognition and the
latency and footprint helpers.

The mapper recognizes the RNN serving idiom in a traced program:

.. code-block:: text

    Sequential.Foreach(T)            # time steps, h_t feedback
      Foreach(D, par=rv)             # x streaming (overlapped)
      Foreach(H, par=hu)             # the cell loop: one output element
        Reduce(R by rv par ru) x G   # fused gate dot products
        ... element-wise ops + LUTs  # gate non-linearities, cell update

and lowers it into a placed :class:`~repro.mapping.pipeline.PipelineGraph`:

* each gate's Reduce group becomes a **dot stage**: ``ru`` map-reduce PCUs,
  each fed by two PMUs (its weight slice + its copy of ``[x, h]``) — the
  bandwidth pairing behind the chip's 2:1 PMU:PCU ratio;
* each gate gets an **accumulate stage**: the cross-PCU reduction tree
  over the ``ru`` partial sums, the bias add and the non-linearity LUT;
* the remaining element-wise operations chain through PCUs in a single
  **ew stage** (the fusion that keeps all intermediates in registers);
* a **writeback stage** broadcasts each produced ``h`` element to every
  ``[x, h]`` PMU copy for the next time step.

Placement is deterministic and locality-aware (nearest-available units on
the actual grid), so edge route latencies come from real Manhattan
distances rather than constants.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import MappingError
from repro.mapping.pipeline import PipelineGraph
from repro.mapping.resources import ResourceReport
from repro.plasticine.chip import PlasticineConfig
from repro.plasticine.network import Coord
from repro.spatial.builder import Program
from repro.spatial.ir import LoopKind, LoopRecord

__all__ = ["MappedDesign", "map_rnn_program", "SEQ_SYNC_CYCLES"]

#: Control overhead of one Sequential time-step boundary: the outer
#: controller's done/enable token exchange through the fabric.  This is
#: the model's single calibrated timing constant; every other latency
#: derives from structure and placement.
SEQ_SYNC_CYCLES = 16


@dataclass(frozen=True)
class GateGroup:
    """One gate's reduce loops (one for LSTM, x-part + h-part for GRU)."""

    name: str
    reduces: tuple[LoopRecord, ...]

    @property
    def issue_blocks(self) -> int:
        """Sequential block issues per cell iteration = the gate's II."""
        return sum(r.issue_count for r in self.reduces)

    @property
    def ru(self) -> int:
        return max(r.par for r in self.reduces)

    @property
    def rv(self) -> int:
        return max(r.step for r in self.reduces)


@dataclass
class MappedDesign:
    """A lowered design: the placed pipeline plus its resource report."""

    program_name: str
    chip: PlasticineConfig
    graph: PipelineGraph
    resources: ResourceReport
    gates: tuple[GateGroup, ...]
    hu: int
    n_iterations: int
    steps: int
    bits: int
    #: Names of the compiler passes that produced this design, in run
    #: order; empty for a design built outside
    #: :class:`~repro.mapping.passes.PassManager`.
    passes_applied: tuple[str, ...] = field(default=(), compare=False)
    #: Per-pass wall-clock timings (observability; see PassManager).
    pass_timings: tuple = field(default=(), repr=False, compare=False)
    #: The per-step cycle lower bound proven after ``plan_gates``
    #: (:func:`repro.mapping.bound.cycle_lower_bound`); set by
    #: :func:`map_rnn_program`, ``None`` for designs built otherwise.
    cycle_bound: int | None = field(default=None, repr=False, compare=False)

    @property
    def ru(self) -> int:
        return max(g.ru for g in self.gates)

    @property
    def rv(self) -> int:
        return max(g.rv for g in self.gates)


class _Pool:
    """Free grid units in pool order, as parallel row and column arrays."""

    def __init__(self, coords: Iterable[Coord]):
        flat = np.fromiter(itertools.chain.from_iterable(coords), np.int64)
        self.rows = flat[0::2]
        self.cols = flat[1::2]

    def coords(self) -> list[Coord]:
        return list(zip(self.rows.tolist(), self.cols.tolist()))

    def take(self, k: int, near: Coord) -> list[Coord]:
        """Hand out the ``k`` units nearest ``near`` (fewer if the pool
        runs dry).

        Reorders the whole pool by Manhattan distance from ``near`` with
        a stable sort, the permutation ``list.sort`` with that key gives:
        ties keep their pool order, and later takes depend on it.
        """
        dist = np.abs(self.rows - near[0]) + np.abs(self.cols - near[1])
        order = np.argsort(dist, kind="stable")
        rows, cols = self.rows[order], self.cols[order]
        self.rows, self.cols = rows[k:], cols[k:]
        return list(zip(rows[:k].tolist(), cols[:k].tolist()))


class _Placer:
    """Greedy nearest-available allocation of grid units.

    Tracks how many requests could not be satisfied by physical units
    (``overflow_pcus`` / ``overflow_pmus``); overflowed requests are
    synthesized at the grid-edge coordinate so timing stays defined, and
    the resource report carries an explicit overflow note.
    """

    def __init__(self, chip: PlasticineConfig):
        self.chip = chip
        self._pcus = _Pool(chip.layout.pcus)
        self._pmus = _Pool(chip.layout.pmus)
        self.overflow_pcus = 0
        self.overflow_pmus = 0
        #: Where overflowed requests are synthesized.
        self.edge_coord: Coord = (chip.layout.rows - 1, chip.layout.cols - 1)

    @property
    def free_pcus(self) -> list[Coord]:
        """The free PCUs in pool order (assignable, to restore a snapshot)."""
        return self._pcus.coords()

    @free_pcus.setter
    def free_pcus(self, coords: Iterable[Coord]) -> None:
        self._pcus = _Pool(coords)

    @property
    def free_pmus(self) -> list[Coord]:
        """The free PMUs in pool order."""
        return self._pmus.coords()

    def _take(self, pool: _Pool, k: int, near: Coord) -> tuple[list[Coord], int]:
        taken = pool.take(k, near)
        # Out of physical units: synthesize the rest at the grid edge so
        # timing stays defined; the resource report flags the overflow.
        overflow = k - len(taken)
        taken.extend([self.edge_coord] * overflow)
        return taken, overflow

    def take_pcus(self, k: int, near: Coord) -> list[Coord]:
        taken, overflow = self._take(self._pcus, k, near)
        self.overflow_pcus += overflow
        return taken

    def take_pmus(self, k: int, near: Coord) -> list[Coord]:
        taken, overflow = self._take(self._pmus, k, near)
        self.overflow_pmus += overflow
        return taken

    def release_pcus(self, coords: list[Coord]) -> None:
        """Return previously taken PCUs to the free pool (pass rewrites)."""
        self.free_pcus += [c for c in coords if c != self.edge_coord]


def _overflow_note(placer: _Placer) -> str | None:
    """The resource-report note flagging placement overflow, if any."""
    if not (placer.overflow_pcus or placer.overflow_pmus):
        return None
    return (
        f"placement overflow: {placer.overflow_pcus} PCU + "
        f"{placer.overflow_pmus} PMU requests beyond the grid "
        f"(synthesized at the edge)"
    )


def _centroid(coords: list[Coord]) -> Coord:
    r = round(sum(c[0] for c in coords) / len(coords))
    c = round(sum(c[1] for c in coords) / len(coords))
    return (int(r), int(c))


def _find_structure(root: LoopRecord):
    """Locate the time-step loop, cell loop, and gate reduce groups;
    returns ``(steps, cell, gates)``."""
    seq_loops = [c for c in root.children if c.kind is LoopKind.SEQUENTIAL]
    if len(seq_loops) != 1:
        raise MappingError(
            f"expected exactly one Sequential time-step loop, found {len(seq_loops)}"
        )

    cell_candidates = [
        c
        for c in seq_loops[0].children
        if c.kind is LoopKind.FOREACH
        and any(g.kind is LoopKind.REDUCE for g in c.children)
    ]
    if len(cell_candidates) != 1:
        raise MappingError(
            f"expected exactly one cell Foreach containing Reduce loops, "
            f"found {len(cell_candidates)}"
        )
    cell = cell_candidates[0]

    dots = [c for c in cell.children if c.kind is LoopKind.REDUCE]
    if not dots:
        raise MappingError("cell loop has no Reduce children")

    groups: dict[str, list[LoopRecord]] = {}
    for idx, dot in enumerate(dots):
        label = dot.label
        if label.startswith("dot_") and len(label) > 4:
            key = f"gate_{label[4]}"  # dot_zx / dot_zh -> gate_z
        else:
            key = f"gate{idx}"
        groups.setdefault(key, []).append(dot)
    gates = tuple(GateGroup(name, tuple(rs)) for name, rs in groups.items())
    return seq_loops[0].extent, cell, gates


def _tree_latency(pcu_coords: list[Coord], chip: PlasticineConfig) -> int:
    """Latency of the cross-PCU reduction tree over one gate's partials.

    Pairs adjacent PCUs level by level; each level costs the routed hop
    between the paired units plus one add cycle.
    """
    coords = list(pcu_coords)
    latency = 0
    while len(coords) > 1:
        half = len(coords) // 2
        hop = max(
            chip.layout.route_cycles(coords[i], coords[i + half], chip.hop_latency)
            for i in range(half)
        )
        latency += hop + 1
        coords = coords[:half] + coords[2 * half :]
    return latency


def _memory_footprint(prog: Program) -> tuple[int, int, int]:
    """(weight_bytes, state_bytes, lut_bytes) from declared memories."""
    weight = state = lut = 0
    for sram in prog.memories.srams.values():
        nbytes = sram.storage_bytes(sram.dtype.total_bytes if sram.dtype else 1)
        if sram.name.startswith(("w", "b")):
            weight += nbytes
        elif sram.name in ("x_seq", "y_seq"):
            continue  # streamed from/to the host, not resident
        else:
            state += nbytes
    for table in prog.memories.luts.values():
        lut += table.storage_bytes()
    return weight, state, lut


def map_rnn_program(
    prog: Program,
    chip: PlasticineConfig | None = None,
    *,
    bits: int = 8,
    pass_config=None,
    cycle_limit: int | None = None,
) -> MappedDesign:
    """Lower a loop-based RNN program onto a Plasticine configuration.

    Runs the compiler pass pipeline (:mod:`repro.mapping.passes`); the
    default pipeline is held bit-identical to the original
    single-function lowering, a reference that lives beside the
    differential parity suite in ``tests/monolith_mapper.py``.  After
    ``plan_gates`` it proves a per-step cycle lower bound
    (:func:`~repro.mapping.bound.cycle_lower_bound`), which the design
    carries as ``cycle_bound``.

    Args:
        prog: A program built by :func:`repro.rnn.build_lstm_program` or
            :func:`repro.rnn.build_gru_program` (or any program matching
            the RNN idiom documented in this module).
        chip: Target chip (default: the Table 3 RNN-serving variant).
        bits: Weight/multiply precision (8, 16, or 32) — determines the
            per-PCU dot width via packing.
        pass_config: A :class:`~repro.mapping.passes.PassConfig` enabling
            optimization passes (``fuse_gates``, ``double_buffer``); the
            default runs the plain pipeline.  A custom pass list, a
            ``trace_hook`` or ``verify=False`` goes through
            :class:`~repro.mapping.passes.PassManager` directly.
        cycle_limit: Stop after ``plan_gates`` and raise
            :class:`~repro.mapping.bound.CycleLimitExceeded`, carrying the
            bound, when the bound is above this many cycles per step:
            the finished design could not be any faster.

    Returns:
        A :class:`MappedDesign` with the placed pipeline graph.
    """
    from repro.mapping.bound import CycleLimitExceeded, cycle_lower_bound
    from repro.mapping.passes import PassManager

    head, tail = PassManager.default(pass_config).split_after("plan_gates")
    state = head.run_program(prog, chip, bits=bits)
    bound = cycle_lower_bound(state, pass_config)
    if cycle_limit is not None and bound > cycle_limit:
        raise CycleLimitExceeded(bound, cycle_limit)
    design = tail.run(state).design
    design.cycle_bound = bound
    return design
