"""Candidate parameter points for the loop-based designs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import DSEError
from repro.mapping.passes import PassConfig
from repro.plasticine.chip import PlasticineConfig
from repro.rnn.lstm_loop import LoopParams
from repro.workloads.deepbench import RNNTask

__all__ = ["ParameterSpace"]


@dataclass(frozen=True)
class ParameterSpace:
    """The (hu, ru) grid searched for one task on one chip.

    ``rv`` is pinned to what one PCU consumes per cycle at the chosen
    precision (lanes x packing = 64 at 8-bit): a smaller rv wastes lanes,
    a larger one gangs PCUs per MapReduce unit, which the search covers
    through ``ru`` instead.

    ``pass_configs`` is the compiler axis: which optimization-pass
    configurations (:class:`~repro.mapping.passes.PassConfig`) to try at
    every loop-parameter point.  The default searches loop parameters
    only; pass e.g. ``ParameterSpace.with_pass_axis()`` to also search
    ``fuse_gates`` / ``double_buffer``.
    """

    max_hu: int = 12
    ru_choices: tuple[int, ...] = (1, 2, 4, 8, 16)
    pass_configs: tuple[PassConfig, ...] = (PassConfig(),)

    def __post_init__(self) -> None:
        if self.max_hu < 1 or not self.ru_choices:
            raise DSEError("empty parameter space")
        if any(r < 1 for r in self.ru_choices):
            raise DSEError("ru must be >= 1")
        if not self.pass_configs:
            raise DSEError("empty pass-config axis")

    @classmethod
    def with_pass_axis(cls, **kwargs) -> "ParameterSpace":
        """A space that also searches every optimization-pass combination."""
        return cls(
            pass_configs=(
                PassConfig(),
                PassConfig(fuse_gates=True),
                PassConfig(double_buffer=True),
                PassConfig(fuse_gates=True, double_buffer=True),
            ),
            **kwargs,
        )

    def rv_for(self, chip: PlasticineConfig, bits: int) -> int:
        return chip.dot_lanes_per_pcu(bits)

    def candidates(
        self, task: RNNTask, chip: PlasticineConfig, bits: int = 8
    ) -> Iterator[LoopParams]:
        """Yield plausible points, cheapest-to-build pruning applied:

        * ``hu`` never exceeds H (no point unrolling past the loop extent);
        * ``ru`` never exceeds the number of rv-blocks in the reduction
          (extra units would sit idle);
        * an optimistic PCU lower bound (G * hu * ru map-reduce units)
          must fit the chip.
        """
        rv = self.rv_for(chip, bits)
        shape = task.shape
        blocks = -(-shape.concat_dim // rv)
        for hu in range(1, min(self.max_hu, shape.hidden) + 1):
            for ru in self.ru_choices:
                if ru > blocks:
                    continue
                if shape.gates * hu * ru > chip.usable_pcus:
                    continue
                yield LoopParams(hu=hu, ru=ru, rv=rv)
