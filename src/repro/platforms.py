"""Hardware and application spec registry (paper Tables 4 and 5).

This module is the single source of truth for per-platform hardware
constants (clocks, peak TFLOPS, TDP, memory capacities).  The baseline
serving models in :mod:`repro.baselines` and the harness tables both read
from :data:`PLATFORMS`; nothing else should hard-code these numbers.

It deliberately lives at the package top level (not under
``repro.harness``) so low-level modules can import it without pulling in
the table/figure harness.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PlatformSpec",
    "PLATFORMS",
    "platform",
    "ELECTRICITY_USD_PER_KWH",
    "AMORTIZATION_YEARS",
    "device_usd_per_hour",
    "tdp_of",
]

#: Industrial electricity price used by the TCO model (US average-ish;
#: a modeling constant, not a paper number).
ELECTRICITY_USD_PER_KWH = 0.12

#: Capital cost of a device is amortized linearly over this horizon.
AMORTIZATION_YEARS = 3.0

_HOURS_PER_YEAR = 365.0 * 24.0


@dataclass(frozen=True)
class PlatformSpec:
    """One column of Tables 4 + 5.

    ``None`` marks entries the paper leaves blank (e.g. CPU TFLOPS).
    """

    key: str
    display_name: str
    max_clock_ghz: float
    achieved_clock_ghz: float
    onchip_memory_mb: float
    onchip_memory_kind: str
    peak_tflops_32bit: float | None
    peak_tflops_8bit: float | None
    technology_nm: int
    die_area_mm2: float
    tdp_w: float
    software_framework: str
    precision: str
    measured_peak_power_w: float | None = None
    #: Street price of one device, used only by the TCO model (a
    #: modeling constant — the paper reports no prices).  ``None`` means
    #: "unknown": amortization contributes zero for such platforms.
    device_cost_usd: float | None = None

    @property
    def power_w(self) -> float:
        """Power draw the energy model charges: measured peak when the
        paper reports one, TDP otherwise."""
        if self.measured_peak_power_w is not None:
            return self.measured_peak_power_w
        return self.tdp_w


PLATFORMS: dict[str, PlatformSpec] = {
    "cpu": PlatformSpec(
        key="cpu",
        display_name="Intel Xeon Skylake (dual core)",
        max_clock_ghz=2.8,
        achieved_clock_ghz=2.0,
        onchip_memory_mb=55,
        onchip_memory_kind="L3 cache",
        peak_tflops_32bit=None,
        peak_tflops_8bit=None,
        technology_nm=14,
        die_area_mm2=64.4,
        tdp_w=15,
        software_framework="TF+AVX2",
        precision="f32",
        device_cost_usd=800.0,
    ),
    "gpu": PlatformSpec(
        key="gpu",
        display_name="Tesla V100 SXM2",
        max_clock_ghz=1.53,
        achieved_clock_ghz=1.38,
        onchip_memory_mb=20,
        onchip_memory_kind="register file",
        peak_tflops_32bit=15.7,
        peak_tflops_8bit=None,
        technology_nm=12,
        die_area_mm2=815,
        tdp_w=300,
        software_framework="TF+cuDNN",
        precision="f16",
        device_cost_usd=9000.0,
    ),
    "brainwave": PlatformSpec(
        key="brainwave",
        display_name="Stratix 10 280 FPGA",
        max_clock_ghz=1.0,
        achieved_clock_ghz=0.25,
        onchip_memory_mb=30.5,
        onchip_memory_kind="on-chip scratchpad",
        peak_tflops_32bit=10,
        peak_tflops_8bit=48,
        technology_nm=14,
        die_area_mm2=1200,
        tdp_w=148,
        software_framework="Brainwave",
        precision="blocked precision",
        measured_peak_power_w=125,
        device_cost_usd=8000.0,
    ),
    "plasticine": PlatformSpec(
        key="plasticine",
        display_name="Plasticine",
        max_clock_ghz=1.0,
        achieved_clock_ghz=1.0,
        onchip_memory_mb=31.5,
        onchip_memory_kind="on-chip scratchpad",
        peak_tflops_32bit=12.5,
        peak_tflops_8bit=49,
        technology_nm=28,
        die_area_mm2=494.37,
        tdp_w=160,
        software_framework="Spatial",
        precision="mix f8+16+32",
        device_cost_usd=6000.0,
    ),
}


def platform(key: str) -> PlatformSpec:
    """Look up a platform spec by key (cpu / gpu / brainwave / plasticine)."""
    try:
        return PLATFORMS[key]
    except KeyError:
        raise KeyError(
            f"unknown platform {key!r}; known: {sorted(PLATFORMS)}"
        ) from None


def tdp_of(key: str, default: float = 0.0) -> float:
    """Power draw (W) charged for platform ``key`` by the energy model.

    Unknown keys (platforms registered by tests or downstream code that
    have no Table 4/5 column) fall back to ``default`` so energy totals
    stay well-defined for any fleet.
    """
    spec = PLATFORMS.get(key)
    return default if spec is None else spec.power_w


def device_usd_per_hour(key: str) -> float:
    """Amortized capital cost of one device-hour of platform ``key``.

    Linear amortization of :attr:`PlatformSpec.device_cost_usd` over
    :data:`AMORTIZATION_YEARS`; unknown platforms (or ones with no
    price) cost nothing, leaving only their energy bill.
    """
    spec = PLATFORMS.get(key)
    if spec is None or spec.device_cost_usd is None:
        return 0.0
    return spec.device_cost_usd / (AMORTIZATION_YEARS * _HOURS_PER_YEAR)
