"""The Plasticine CGRA machine model (paper Sections 2.4 and 4).

* :mod:`repro.plasticine.isa` — FU opcodes, including the four
  low-precision operations added in Figure 6(b) and their fused forms.
* :mod:`repro.plasticine.pcu` — Pattern Compute Unit: SIMD pipeline,
  pipeline registers, original vs folded reduction networks, and the
  map-reduce timing law ``2 + log2(lanes) + 1``.
* :mod:`repro.plasticine.pmu` — Pattern Memory Unit: banked scratchpad
  configuration (capacity, banks, word width) and its read bandwidth.
* :mod:`repro.plasticine.network` — checkerboard and RNN-variant
  (Figure 7) grid layouts with Manhattan routing.
* :mod:`repro.plasticine.chip` — whole-chip configurations (Table 3).
* :mod:`repro.plasticine.area_power` — 28 nm area/power characterization
  and activity-based power integration.
* :mod:`repro.plasticine.simulator` — cycle-level simulation of mapped
  pipeline graphs.
"""

from repro.plasticine.chip import PlasticineConfig
from repro.plasticine.pcu import MapReduceTiming, PCUConfig
from repro.plasticine.pmu import PMUConfig
from repro.plasticine.network import GridLayout
from repro.plasticine.area_power import AreaPowerModel
from repro.plasticine.simulator import SimulationResult, simulate_pipeline

__all__ = [
    "PlasticineConfig",
    "PCUConfig",
    "PMUConfig",
    "MapReduceTiming",
    "GridLayout",
    "AreaPowerModel",
    "SimulationResult",
    "simulate_pipeline",
]
