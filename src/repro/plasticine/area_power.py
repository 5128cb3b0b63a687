"""Area and power characterization (28 nm, 1 GHz — paper Section 5.1).

Per-unit area constants come from the original Plasticine paper (ISCA'17:
PCU 0.849 mm2, PMU 0.532 mm2); the paper keeps the PCU estimate unchanged
despite dropping two stages ("we conservatively estimate the area and
power of PCU stays the same").  The switch constant is calibrated so the
Table 3 configuration (192 PCU + 384 PMU + 25x25 switches) totals the
published die area of 494.37 mm2 (Table 4).

Power: a static floor plus per-unit dynamic power scaled by *activity* —
the fraction of cycles a unit is busy, produced by the cycle simulator.
Dynamic constants are calibrated so that (a) every-unit-busy equals the
160 W TDP of Table 4 and (b) the simulated DeepBench points land in
Table 6's 28-118 W range.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.plasticine.chip import PlasticineConfig

__all__ = ["AreaPowerModel", "ActivityProfile"]


@dataclass(frozen=True)
class ActivityProfile:
    """Average busy-unit counts over a run (unit-cycles per cycle).

    ``pcu_busy = 12.5`` means that on an average cycle 12.5 PCUs are
    actively computing.
    """

    pcu_busy: float
    pmu_busy: float
    switch_busy: float = 0.0

    def __post_init__(self) -> None:
        if min(self.pcu_busy, self.pmu_busy, self.switch_busy) < 0:
            raise ConfigError("activity counts must be non-negative")


@dataclass(frozen=True)
class AreaPowerModel:
    """28 nm per-unit area/power constants."""

    pcu_area_mm2: float = 0.849
    pmu_area_mm2: float = 0.532
    switch_area_mm2: float = 0.2033
    static_w: float = 10.0
    pcu_dynamic_w: float = 0.52
    pmu_dynamic_w: float = 0.120
    switch_dynamic_w: float = 0.011

    # -- area --------------------------------------------------------------

    def chip_area_mm2(self, config: PlasticineConfig) -> float:
        """Total die area: compute + memory units + switch fabric."""
        layout = config.layout
        return (
            layout.n_pcu * self.pcu_area_mm2
            + layout.n_pmu * self.pmu_area_mm2
            + layout.n_switches * self.switch_area_mm2
        )

    # -- power -------------------------------------------------------------

    def chip_tdp_w(self, config: PlasticineConfig) -> float:
        """Peak power: every unit busy every cycle."""
        layout = config.layout
        return (
            self.static_w
            + layout.n_pcu * self.pcu_dynamic_w
            + layout.n_pmu * self.pmu_dynamic_w
            + layout.n_switches * self.switch_dynamic_w
        )

    def power_w(self, config: PlasticineConfig, activity: ActivityProfile) -> float:
        """Average power for a run with the given activity profile."""
        layout = config.layout
        if activity.pcu_busy > layout.n_pcu + 1e-9:
            raise ConfigError(
                f"pcu_busy {activity.pcu_busy:.1f} exceeds {layout.n_pcu} PCUs"
            )
        if activity.pmu_busy > layout.n_pmu + 1e-9:
            raise ConfigError(
                f"pmu_busy {activity.pmu_busy:.1f} exceeds {layout.n_pmu} PMUs"
            )
        return (
            self.static_w
            + activity.pcu_busy * self.pcu_dynamic_w
            + activity.pmu_busy * self.pmu_dynamic_w
            + activity.switch_busy * self.switch_dynamic_w
        )
