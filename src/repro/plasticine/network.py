"""Chip grid layouts and routing (Figure 7).

The original Plasticine uses a checkerboard with a 1:1 PCU:PMU ratio.
The paper's RNN-serving variant doubles memory relative to compute:
each row repeats the pattern ``PMU PCU PMU`` (Figure 7), giving a 2:1
PMU:PCU ratio — on a 24x24 grid, 192 PCUs and 384 PMUs (Table 3).

Routing is a statically configured switch fabric; we model per-hop
registered switches with Manhattan distance between unit coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import ConfigError

__all__ = ["GridLayout", "Coord"]

Coord = tuple[int, int]


@dataclass(frozen=True)
class GridLayout:
    """A rows x cols placement of PCUs and PMUs.

    Attributes:
        name: ``"checkerboard"`` or ``"rnn_variant"``.
        rows, cols: Grid dimensions (units, not switches).
        pcus: Coordinates of every PCU, row-major.
        pmus: Coordinates of every PMU, row-major.
    """

    name: str
    rows: int
    cols: int
    pcus: tuple[Coord, ...] = field(repr=False)
    pmus: tuple[Coord, ...] = field(repr=False)

    @classmethod
    def checkerboard(cls, rows: int, cols: int) -> "GridLayout":
        """Original Plasticine: alternating PCU/PMU, 1:1 ratio."""
        if rows < 1 or cols < 1:
            raise ConfigError("grid must be at least 1x1")
        pcus, pmus = [], []
        for r in range(rows):
            for c in range(cols):
                (pcus if (r + c) % 2 == 0 else pmus).append((r, c))
        return cls("checkerboard", rows, cols, tuple(pcus), tuple(pmus))

    @classmethod
    def rnn_variant(cls, rows: int, cols: int) -> "GridLayout":
        """Figure 7 variant: each row repeats ``PMU PCU PMU`` (2:1 ratio)."""
        if rows < 1 or cols < 1:
            raise ConfigError("grid must be at least 1x1")
        if cols % 3:
            raise ConfigError(
                f"rnn_variant needs cols divisible by 3 (PMU PCU PMU groups), got {cols}"
            )
        pcus, pmus = [], []
        for r in range(rows):
            for c in range(cols):
                (pcus if c % 3 == 1 else pmus).append((r, c))
        return cls("rnn_variant", rows, cols, tuple(pcus), tuple(pmus))

    # -- ratios ------------------------------------------------------------

    @property
    def n_pcu(self) -> int:
        return len(self.pcus)

    @property
    def n_pmu(self) -> int:
        return len(self.pmus)

    @property
    def pmu_to_pcu_ratio(self) -> float:
        return self.n_pmu / self.n_pcu

    @cached_property
    def _hash(self) -> int:
        # Ints only, so a copy pickled into a worker keeps a valid hash.
        return hash((self.rows, self.cols, self.pcus, self.pmus))

    def __hash__(self) -> int:
        # Taken once: the chip tuner's memo hashes its chip, and so every
        # unit coordinate of this layout, twice per design point.
        return self._hash

    @cached_property
    def pcu_set(self) -> frozenset[Coord]:
        """Every PCU coordinate, for membership tests (built once)."""
        return frozenset(self.pcus)

    @cached_property
    def pmu_set(self) -> frozenset[Coord]:
        """Every PMU coordinate, for membership tests (built once)."""
        return frozenset(self.pmus)

    @property
    def n_switches(self) -> int:
        """Switches sit at grid corners: (rows+1) x (cols+1)."""
        return (self.rows + 1) * (self.cols + 1)

    # -- routing -----------------------------------------------------------

    @staticmethod
    def manhattan(a: Coord, b: Coord) -> int:
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def route_cycles(self, a: Coord, b: Coord, hop_latency: int = 1) -> int:
        """Latency of a statically routed path: one registered switch per
        hop plus one to enter the fabric."""
        if a == b:
            return 0
        return (self.manhattan(a, b) + 1) * hop_latency

    def ascii_diagram(self, max_rows: int = 6, max_cols: int = 12) -> str:
        """Small ASCII rendering of the layout's upper-left corner."""
        lines = []
        for r in range(min(self.rows, max_rows)):
            cells = []
            for c in range(min(self.cols, max_cols)):
                cells.append("PCU" if (r, c) in self.pcu_set else "PMU")
            lines.append(" ".join(cells))
        return "\n".join(lines)
