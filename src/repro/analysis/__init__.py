"""Computation/memory-layout analyses from Section 3 of the paper, and
the abstract's efficiency claims.

* :mod:`repro.analysis.fragmentation` — Figure 4: utilization loss from
  2-D tile fragmentation (MVM designs) vs 1-D fragmentation (loop-based).
* :mod:`repro.analysis.footprint` — Figures 1-3: per-step intermediate
  buffer footprints and traffic of BasicLSTM, cuDNN, Brainwave, and the
  loop-based design.
* :mod:`repro.analysis.efficiency` — the abstract's geometric-mean
  speedup, area and power-efficiency ratios against the GPU and Brainwave.
"""

from repro.analysis.fragmentation import (
    loop_utilization,
    mvm_tile_utilization,
    utilization_sweep,
)
from repro.analysis.footprint import (
    FootprintReport,
    basic_lstm_footprint,
    brainwave_footprint,
    cudnn_lstm_footprint,
    loop_based_footprint,
)

__all__ = [
    "mvm_tile_utilization",
    "loop_utilization",
    "utilization_sweep",
    "FootprintReport",
    "basic_lstm_footprint",
    "cudnn_lstm_footprint",
    "brainwave_footprint",
    "loop_based_footprint",
]
