"""Resource accounting for mapped designs.

Answers Section 4.2's sizing questions: how many PCUs/PMUs a design
occupies, whether the weights fit on-chip, and whether memory bandwidth
matches compute (every dot-product PCU needs two PMUs' worth of read
bandwidth — weights plus its copy of the ``[x, h]`` vector — which is the
paper's rationale for the 2:1 PMU:PCU ratio).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mapping.pipeline import PipelineGraph
from repro.plasticine.chip import PlasticineConfig

__all__ = ["ResourceReport", "resource_report"]


@dataclass(frozen=True)
class ResourceReport:
    """Resource usage of one mapped design on one chip."""

    pcus_used: int
    pmus_used: int
    pcus_available: int
    pmus_available: int
    weight_bytes: int
    state_bytes: int
    lut_bytes: int
    onchip_bytes: int
    notes: tuple[str, ...] = field(default=())

    @property
    def bytes_used(self) -> int:
        return self.weight_bytes + self.state_bytes + self.lut_bytes

    @property
    def fits_compute(self) -> bool:
        return self.pcus_used <= self.pcus_available

    @property
    def fits_bandwidth(self) -> bool:
        return self.pmus_used <= self.pmus_available

    @property
    def fits_capacity(self) -> bool:
        return self.bytes_used <= self.onchip_bytes

    def summary(self) -> str:
        flags = []
        if not self.fits_compute:
            flags.append("OVER-PCU")
        if not self.fits_bandwidth:
            flags.append("OVER-PMU")
        if not self.fits_capacity:
            flags.append("OVER-CAPACITY")
        status = " ".join(flags) if flags else "fits"
        return (
            f"PCU {self.pcus_used}/{self.pcus_available} "
            f"PMU {self.pmus_used}/{self.pmus_available} "
            f"mem {self.bytes_used / 2**20:.2f}/{self.onchip_bytes / 2**20:.1f} MB "
            f"[{status}]"
        )


def resource_report(
    graph: PipelineGraph,
    chip: PlasticineConfig,
    *,
    weight_bytes: int,
    state_bytes: int,
    lut_bytes: int,
    notes: tuple[str, ...] = (),
) -> ResourceReport:
    """Tally a pipeline graph's resources against a chip."""
    return ResourceReport(
        pcus_used=graph.total_pcus(),
        pmus_used=graph.total_pmus(),
        pcus_available=chip.usable_pcus,
        pmus_available=chip.n_pmu,
        weight_bytes=weight_bytes,
        state_bytes=state_bytes,
        lut_bytes=lut_bytes,
        onchip_bytes=chip.onchip_bytes,
        notes=notes,
    )
