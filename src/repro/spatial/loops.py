"""Loop constructs: ``Range``, ``Foreach``, ``Reduce``, ``Sequential``.

These mirror the Spatial constructs in the paper's Figure 5:

.. code-block:: scala

    Sequential.Foreach (nSteps by 1){ step => ... }
    Foreach(H par hu){ ih => ... }
    Reduce(Reg[T])((D+H) by rv par ru){ iu => ... }{ (a,b) => a + b }

In this embedding::

    Sequential.Foreach(Range(n_steps), lambda step: ...)
    Foreach(Range(H, par=hu), lambda ih: ...)
    Reduce(Range(D + H, step=rv, par=ru), lambda iu: ...)

``step`` is the blocking size ("by"), ``par`` the unrolling factor.  The
reduction function is fixed to addition with a hardware reduction tree —
the only reduction the paper's RNN kernels use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import DSLError
from repro.spatial.context import current_engine
from repro.spatial.values import Value

__all__ = ["Range", "Foreach", "Reduce", "Sequential"]


@dataclass(frozen=True)
class Range:
    """An iteration domain ``0 until extent by step par par``."""

    extent: int
    step: int = 1
    par: int = 1

    def __post_init__(self) -> None:
        if self.extent <= 0:
            raise DSLError(f"Range extent must be positive, got {self.extent}")
        if self.step <= 0:
            raise DSLError(f"Range step must be positive, got {self.step}")
        if self.par <= 0:
            raise DSLError(f"Range par must be positive, got {self.par}")


def Foreach(rng: Range, body: Callable[[Value], None], *, label: str = "") -> None:
    """A data-parallel loop; iterations may be pipelined and unrolled."""
    current_engine().foreach(rng, body, sequential=False, label=label)


def Reduce(rng: Range, map_fn: Callable[[Value], Value], *, label: str = "") -> Value:
    """Map-reduce with an add-tree; returns the accumulated scalar."""
    return current_engine().reduce(rng, map_fn, label=label)


class Sequential:
    """Namespace matching Spatial's ``Sequential.Foreach``."""

    @staticmethod
    def Foreach(rng: Range, body: Callable[[Value], None], *, label: str = "") -> None:
        """A loop whose iterations must fully drain before the next starts.

        Used for the RNN time-step loop: the ``h_t`` feedback makes
        cross-timestep pipelining illegal.
        """
        if rng.par != 1:
            raise DSLError("Sequential.Foreach cannot be parallelized (par must be 1)")
        current_engine().foreach(rng, body, sequential=True, label=label)
