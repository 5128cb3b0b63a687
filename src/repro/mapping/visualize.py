"""ASCII visualization of a mapped design's placement.

Renders the chip grid with each unit's role in the mapped pipeline —
the textual analogue of the paper's Figure 7 annotated with an actual
design.  Legend:

* ``D`` — dot-product (map-reduce) PCU, ``A`` — accumulate/LUT PCU,
  ``E`` — element-wise chain PCU, ``.`` — idle PCU;
* ``w`` — weight PMU, ``x`` — ``[x,h]``-copy PMU (double-buffered
  copies included), ``l`` — LUT/state PMU, ``,`` — idle PMU.
"""

from __future__ import annotations

from repro.errors import MappingError
from repro.mapping.mapper import MappedDesign

__all__ = ["placement_map"]

#: Stage-name prefix -> (PCU mark, PMU mark).  A dot stage's first PMU
#: per PCU is its weight slice (``w``); the rest are ``[x, h]`` copies.
_MARKS = {"dot": ("D", "x"), "accum": ("A", "l"), "ew": ("E", "l")}


def placement_map(design: MappedDesign, max_rows: int | None = None) -> str:
    """Render the design's placement as an ASCII grid.

    Draws the units each stage recorded when the pass pipeline placed it
    (``Stage.units_pcu`` / ``units_pmu``), after every optimization pass
    that ran.  A cell shows the first unit drawn on it, so requests that
    overflowed the grid (synthesized at its edge cell) add nothing.
    Raises :class:`~repro.errors.MappingError` for a design that records
    no units, such as a :class:`MappedDesign` built by hand.
    """
    chip = design.chip
    layout = chip.layout
    stages = design.graph.stages.values()
    if not any(stage.units_pcu for stage in stages):
        raise MappingError(
            f"{design.program_name}: the design records no placed units; "
            f"only the pass pipeline's designs can be drawn"
        )
    grid = dict.fromkeys(layout.pcus, ".")
    grid.update(dict.fromkeys(layout.pmus, ","))
    for stage in stages:
        marks = _MARKS.get(stage.name.split("_")[0])
        if marks is None:
            continue
        pcu_mark, pmu_mark = marks
        n_weights = stage.n_pcus * design.hu if pcu_mark == "D" else 0
        for unit in stage.units_pcu:
            if grid.get(unit) == ".":
                grid[unit] = pcu_mark
        for i, unit in enumerate(stage.units_pmu):
            if grid.get(unit) == ",":
                grid[unit] = "w" if i < n_weights else pmu_mark

    rows = layout.rows if max_rows is None else min(layout.rows, max_rows)
    lines = [
        f"{design.program_name} on {chip.name} "
        f"(hu={design.hu}, ru={design.ru}, rv={design.rv})",
        "legend: D dot PCU, A accum PCU, E ew PCU, . idle PCU | "
        "w weight PMU, x [x,h] PMU, l LUT/state PMU, , idle PMU",
    ]
    for r in range(rows):
        lines.append(" ".join(grid.get((r, c), " ") for c in range(layout.cols)))
    if rows < layout.rows:
        lines.append(f"... ({layout.rows - rows} more rows)")
    return "\n".join(lines)
