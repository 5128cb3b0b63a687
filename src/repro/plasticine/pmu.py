"""Pattern Memory Unit: banked, buffered scratchpad.

A PMU holds a configurable scratchpad that Spatial banks (to scale read
bandwidth with access parallelism) and buffers (to sustain pipelined
producers/consumers).  The RNN-serving chip shrinks each PMU to 84 kB
(Table 3) to match Stratix 10's on-chip capacity at the 2:1 PMU:PCU ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["PMUConfig"]


@dataclass(frozen=True)
class PMUConfig:
    """Static configuration of a PMU.

    Attributes:
        capacity_bytes: Scratchpad size (84 kB RNN variant, 256 kB original).
        banks: Independent banks (parallel word accesses per cycle).
        word_bytes: Bank word width; low-precision packing keeps this at 4
            ("banking and DRAM access granularity remains intact").
    """

    capacity_bytes: int = 84 * 1024
    banks: int = 16
    word_bytes: int = 4

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError("PMU capacity must be positive")
        if self.banks < 1 or self.banks & (self.banks - 1):
            raise ConfigError(f"banks must be a power of two >= 1, got {self.banks}")
        if self.word_bytes not in (2, 4, 8):
            raise ConfigError(f"unsupported bank word width: {self.word_bytes}")

    @property
    def bytes_per_cycle(self) -> int:
        """Peak read bandwidth: one word per bank per cycle."""
        return self.banks * self.word_bytes
