"""The abstract's headline efficiency claims, quantified.

"We demonstrate that this implementation provides a geometric speedup of
30x in performance, 1.6x in area, and 2x in power efficiency compared to
a Tesla V100 GPU, and a geometric speedup of 2x compared to Microsoft
Brainwave implementation on a Stratix 10 FPGA."

* performance — geometric-mean latency speedup over the Table 6 suite;
* area — die-area ratio (815 mm² V100 vs 494.37 mm² Plasticine at 28 nm);
* power efficiency — design-power ratio (300 W TDP vs 160 W), with the
  sharper per-task energy-per-inference ratio also reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.platforms import platform
from repro.harness.report import format_table, geometric_mean

__all__ = ["ClaimCheck", "EfficiencyReport", "abstract_claims", "energy_per_inference_j"]


def energy_per_inference_j(latency_s: float, power_w: float) -> float:
    """Energy of one served sequence (J) from average power."""
    return latency_s * power_w


@dataclass(frozen=True)
class ClaimCheck:
    """One abstract claim vs our measurement.

    ``direction`` selects the pass criterion: ``"approx"`` claims must
    reproduce the published factor (within a 2x shape band); ``"at_least"``
    claims are lower bounds (exceeding them strengthens the claim).
    """

    claim: str
    paper_value: float
    measured: float
    direction: str = "approx"

    @property
    def holds(self) -> bool:
        ratio = self.measured / self.paper_value
        if self.direction == "at_least":
            return ratio >= 0.5
        return 0.5 <= ratio <= 2.0


@dataclass(frozen=True)
class EfficiencyReport:
    checks: tuple[ClaimCheck, ...]
    text: str = field(default="")


def abstract_claims(table6_result=None) -> EfficiencyReport:
    """Evaluate every quantitative claim in the paper's abstract.

    Args:
        table6_result: A prebuilt :func:`repro.harness.tables.table6`
            result to reuse (built fresh otherwise — a few seconds).
    """
    if table6_result is None:
        from repro.harness.tables import table6

        table6_result = table6()

    geo = table6_result.geomean_speedups
    pl, gpu = platform("plasticine"), platform("gpu")

    # Per-task energy ratio vs the V100 (V100 at TDP, Plasticine at its
    # simulated activity power).
    energy_ratios = []
    for per in table6_result.results.values():
        e_gpu = energy_per_inference_j(per["gpu"].latency_s, gpu.tdp_w)
        e_pl = energy_per_inference_j(
            per["plasticine"].latency_s, per["plasticine"].power_w
        )
        energy_ratios.append(e_gpu / e_pl)

    checks = (
        ClaimCheck("geomean speedup vs V100 (30x)", 30.0, geo["gpu"]),
        ClaimCheck("geomean speedup vs Brainwave (2x)", 2.0, geo["brainwave"]),
        ClaimCheck("geomean speedup vs CPU (2529x)", 2529.3, geo["cpu"]),
        ClaimCheck("area advantage vs V100 (1.6x)", 1.6, gpu.die_area_mm2 / pl.die_area_mm2),
        ClaimCheck("power-efficiency vs V100 (2x, TDP)", 2.0, gpu.tdp_w / pl.tdp_w),
        ClaimCheck(
            "energy per inference vs V100 (geomean)",
            30.0 * 2.0,  # implied lower bound: 30x faster at half the power
            geometric_mean(energy_ratios),
            direction="at_least",
        ),
    )
    rows = [
        [c.claim, c.paper_value, round(c.measured, 2), "yes" if c.holds else "NO"]
        for c in checks
    ]
    text = format_table(
        ["claim", "paper", "measured", "holds"],
        rows,
        title="Abstract claims: paper vs this reproduction",
    )
    return EfficiencyReport(checks=checks, text=text)
