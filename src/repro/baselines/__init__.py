"""Serving-platform models for the paper's baselines (Section 3, Table 6).

Each model is an analytic/instruction-level simulator calibrated against
the paper's own published measurements; calibration constants are
documented in the module docstrings.

* :mod:`repro.baselines.machine` — memory-hierarchy machine descriptions.
* :mod:`repro.baselines.cpu` — TensorFlow ``LSTMBlockFusedCell`` /
  ``GRUBlockCell`` on Intel Xeon Skylake (fp32, AVX2, single-stream).
* :mod:`repro.baselines.gpu` — TensorFlow + cuDNN on Tesla V100 (fp16).
* :mod:`repro.baselines.brainwave` — Microsoft Brainwave on Stratix 10
  (blocked floating point, tile engines + MFU chains).
"""

from repro.baselines.machine import MemoryLevel, ProcessorMachine, TESLA_V100, XEON_SKYLAKE
from repro.baselines.cpu import CPUServingModel
from repro.baselines.gpu import GPUServingModel
from repro.baselines.brainwave import BrainwaveConfig, BrainwaveServingModel

__all__ = [
    "MemoryLevel",
    "ProcessorMachine",
    "XEON_SKYLAKE",
    "TESLA_V100",
    "CPUServingModel",
    "GPUServingModel",
    "BrainwaveConfig",
    "BrainwaveServingModel",
]
