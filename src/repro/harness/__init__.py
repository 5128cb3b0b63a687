"""Reproduction harness: regenerate every table and figure of the paper.

* :mod:`repro.harness.paper_data` — every number the paper publishes
  (Tables 3-7), used as the comparison baseline.
* :mod:`repro.harness.report` — text-table formatting and the
  geometric mean the tables aggregate with.
* :mod:`repro.harness.tables` — regenerate Tables 3, 4, 5, 6, 7.
* :mod:`repro.harness.figures` — regenerate Figures 1-4, 6, 7 as numeric
  series / diagrams.
"""

from repro.harness.report import format_table, geometric_mean
from repro.harness.tables import (
    table3,
    table4,
    table5,
    table6,
    table7,
)
from repro.harness.figures import (
    figure1_3_footprints,
    figure4_fragmentation,
    figure6_pcu_timing,
    figure7_layouts,
)

__all__ = [
    "format_table",
    "geometric_mean",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "figure1_3_footprints",
    "figure4_fragmentation",
    "figure6_pcu_timing",
    "figure7_layouts",
]
