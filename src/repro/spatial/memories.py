"""On-chip memory handles: SRAM, Reg, LUT.

Handles are declared on a :class:`~repro.spatial.builder.Program` and are
engine-agnostic — actual storage lives inside the executor.  Each handle
carries the metadata the hardware layers need: logical shape, storage
precision, and banking hints (Spatial banks scratchpads to scale memory
bandwidth with parallelism).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import DSLError
from repro.precision.formats import FloatFormat
from repro.spatial.context import current_engine
from repro.spatial.values import Value, as_value

__all__ = ["SRAM", "Reg", "LUT"]


@dataclass
class SRAM:
    """A banked on-chip scratchpad of arbitrary logical shape.

    Access syntax follows the paper's Figure 5: ``w[ih, iuv]`` reads,
    ``w.write(value, ih, iuv)`` writes.

    Attributes:
        name: Unique name within the program.
        shape: Logical element shape.
        dtype: Storage format; ``None`` stores exact float64 (used for
            full-precision references).
        banks: Number of banks (limits conflict-free parallel access).
    """

    name: str
    shape: tuple[int, ...]
    dtype: FloatFormat | None = None
    banks: int = 16

    def __post_init__(self) -> None:
        if not self.shape or any(int(s) <= 0 for s in self.shape):
            raise DSLError(f"SRAM {self.name!r}: shape must be positive, got {self.shape}")
        if self.banks < 1:
            raise DSLError(f"SRAM {self.name!r}: banks must be >= 1")
        self.shape = tuple(int(s) for s in self.shape)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def storage_bytes(self, element_bytes: int | None = None) -> int:
        """Footprint in bytes given the storage format (or an override)."""
        if element_bytes is None:
            element_bytes = self.dtype.total_bytes if self.dtype else 4
        return self.size * element_bytes

    def __getitem__(self, idxs) -> Value:
        if not isinstance(idxs, tuple):
            idxs = (idxs,)
        if len(idxs) != len(self.shape):
            raise DSLError(
                f"SRAM {self.name!r} is {len(self.shape)}-D but was indexed "
                f"with {len(idxs)} indices"
            )
        return current_engine().read(self, tuple(as_value(i) for i in idxs))

    def write(self, value, *idxs) -> None:
        if len(idxs) != len(self.shape):
            raise DSLError(
                f"SRAM {self.name!r} is {len(self.shape)}-D but was written "
                f"with {len(idxs)} indices"
            )
        current_engine().write(self, as_value(value), tuple(as_value(i) for i in idxs))


@dataclass
class Reg:
    """A scalar register (single value, loop-invariant storage)."""

    name: str
    dtype: FloatFormat | None = None
    init: float = 0.0

    def read(self) -> Value:
        return current_engine().read(self, ())

    def write(self, value) -> None:
        current_engine().write(self, as_value(value), ())


@dataclass
class LUT:
    """A lookup table implementing a non-linear function.

    Figure 5 stores sigmoid/tanh as LUTs fed by the dot-product result.
    The hardware model: ``entries`` samples of ``fn`` over ``[lo, hi]``,
    nearest-entry lookup with clamping, entries stored in ``dtype``.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    lo: float = -8.0
    hi: float = 8.0
    entries: int = 2048
    dtype: FloatFormat | None = None

    def __post_init__(self) -> None:
        if self.entries < 2:
            raise DSLError(f"LUT {self.name!r}: needs at least 2 entries")
        if not self.hi > self.lo:
            raise DSLError(f"LUT {self.name!r}: range [{self.lo}, {self.hi}] is empty")

    def grid(self) -> np.ndarray:
        """Sample points of the table."""
        return np.linspace(self.lo, self.hi, self.entries)

    def table(self) -> np.ndarray:
        """Stored table values (quantized to the LUT's storage format)."""
        vals = np.asarray(self.fn(self.grid()), dtype=np.float64)
        if self.dtype is not None:
            from repro.precision.quantize import quantize

            vals = quantize(vals, self.dtype)
        return vals

    @property
    def step_size(self) -> float:
        return (self.hi - self.lo) / (self.entries - 1)

    def storage_bytes(self) -> int:
        element = self.dtype.total_bytes if self.dtype else 4
        return self.entries * element

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Host-side (numpy) evaluation with the executor's exact lookup
        semantics: nearest entry, clamped to the table range.

        Lets reference implementations share the LUT's numerics so DSL
        runs can be validated for bit-exact equality.
        """
        table = self.table()
        pos = np.clip(
            np.round((np.asarray(x, dtype=np.float64) - self.lo) / self.step_size),
            0,
            self.entries - 1,
        )
        return table[pos.astype(np.int64)]

    def __call__(self, x) -> Value:
        return current_engine().lut_lookup(self, as_value(x))


@dataclass
class _MemorySet:
    """Internal: the memories declared by one program."""

    srams: dict[str, SRAM] = field(default_factory=dict)
    regs: dict[str, Reg] = field(default_factory=dict)
    luts: dict[str, LUT] = field(default_factory=dict)

    def add(self, mem) -> None:
        table = {SRAM: self.srams, Reg: self.regs, LUT: self.luts}[type(mem)]
        if mem.name in self.all_names():
            raise DSLError(f"duplicate memory name {mem.name!r}")
        table[mem.name] = mem

    def all_names(self) -> set[str]:
        return set(self.srams) | set(self.regs) | set(self.luts)
