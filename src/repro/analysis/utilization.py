"""Effective-FLOPS utilization accounting across serving platforms.

Section 5's framing: "our implementation delivers consistently high FLOPS
utilization across tasks of various sizes" — utilization being effective
TFLOPS over the platform's peak at its serving precision.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.machine import XEON_SKYLAKE
from repro.errors import ConfigError
from repro.platforms import PLATFORMS

__all__ = ["flops_utilization", "UtilizationRow", "utilization_table"]


def flops_utilization(effective_tflops: float, peak_tflops: float) -> float:
    """Fraction of peak FLOPS actually delivered."""
    if peak_tflops <= 0:
        raise ConfigError("peak_tflops must be positive")
    if effective_tflops < 0:
        raise ConfigError("effective_tflops must be >= 0")
    return effective_tflops / peak_tflops


@dataclass(frozen=True)
class UtilizationRow:
    """One (task, platform) utilization entry."""

    task_name: str
    platform: str
    effective_tflops: float
    peak_tflops: float

    @property
    def utilization(self) -> float:
        return flops_utilization(self.effective_tflops, self.peak_tflops)


#: Serving-precision peak TFLOPS per platform (Table 4): the CPU
#: model's fp32 peak, fp16 ~ 2x fp32 for V100, 8-bit for the spatial
#: architectures.
PLATFORM_PEAKS = {
    "cpu": XEON_SKYLAKE.peak_tflops,
    "gpu": 2 * PLATFORMS["gpu"].peak_tflops_32bit,
    "brainwave": float(PLATFORMS["brainwave"].peak_tflops_8bit),
    "plasticine": float(PLATFORMS["plasticine"].peak_tflops_8bit),
}


def utilization_table(results) -> list[UtilizationRow]:
    """Build utilization rows from serving results
    (:class:`~repro.serving.result.ServingResult`)."""
    rows = []
    for res in results:
        peak = PLATFORM_PEAKS.get(res.platform)
        if peak is None:
            raise ConfigError(f"unknown platform {res.platform!r}")
        rows.append(
            UtilizationRow(
                task_name=res.task.name,
                platform=res.platform,
                effective_tflops=res.effective_tflops,
                peak_tflops=peak,
            )
        )
    return rows
