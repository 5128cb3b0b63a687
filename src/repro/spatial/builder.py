"""The :class:`Program` container: memories + main body + engines.

A program is built once (declaring memories and registering a ``main``
callable) and can then be traced (:meth:`Program.trace`) or executed
(:meth:`Program.run`) any number of times with different data bindings and
precision policies.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import DSLError
from repro.precision.formats import FloatFormat
from repro.spatial.context import pop_engine, push_engine
from repro.spatial.interpreter import Executor, PrecisionPolicy
from repro.spatial.ir import LoopRecord
from repro.spatial.memories import LUT, Reg, SRAM, _MemorySet
from repro.spatial.tracer import Tracer

__all__ = ["Program"]


class Program:
    """A Spatial-like application: explicit memories + a loop-nest body."""

    def __init__(self, name: str):
        self.name = name
        self.memories = _MemorySet()
        self.data: dict[str, np.ndarray] = {}
        self._main: Callable[[], None] | None = None
        self._trace_cache: LoopRecord | None = None

    # -- declaration ------------------------------------------------------

    def sram(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: FloatFormat | None = None,
        banks: int = 16,
    ) -> SRAM:
        """Declare an on-chip scratchpad."""
        mem = SRAM(name=name, shape=tuple(shape), dtype=dtype, banks=banks)
        self.memories.add(mem)
        return mem

    def reg(self, name: str, dtype: FloatFormat | None = None, init: float = 0.0) -> Reg:
        """Declare a scalar register."""
        mem = Reg(name=name, dtype=dtype, init=init)
        self.memories.add(mem)
        return mem

    def lut(
        self,
        name: str,
        fn: Callable[[np.ndarray], np.ndarray],
        lo: float = -8.0,
        hi: float = 8.0,
        entries: int = 2048,
        dtype: FloatFormat | None = None,
    ) -> LUT:
        """Declare a non-linear function lookup table."""
        mem = LUT(name=name, fn=fn, lo=lo, hi=hi, entries=entries, dtype=dtype)
        self.memories.add(mem)
        return mem

    def main(self, fn: Callable[[], None]) -> Callable[[], None]:
        """Decorator registering the program body."""
        if self._main is not None:
            raise DSLError(f"program {self.name!r} already has a main body")
        self._main = fn
        self._trace_cache = None
        return fn

    def set_data(self, name: str, array) -> None:
        """Bind initial contents for a declared memory (an SRAM's must
        match its declared shape)."""
        if name not in self.memories.all_names():
            raise DSLError(f"no memory named {name!r} in program {self.name!r}")
        arr = np.asarray(array, dtype=np.float64)
        sram = self.memories.srams.get(name)
        if sram is not None and arr.shape != sram.shape:
            raise DSLError(f"data for SRAM {name!r} has shape {arr.shape}, declared {sram.shape}")
        self.data[name] = arr

    # -- engines ----------------------------------------------------------

    def trace(self) -> LoopRecord:
        """Symbolically execute once; returns the loop-record tree (cached)."""
        if self._main is None:
            raise DSLError(f"program {self.name!r} has no main body")
        if self._trace_cache is None:
            tracer = Tracer()
            push_engine(tracer)
            try:
                self._main()
            finally:
                pop_engine(tracer)
            self._trace_cache = tracer.root
        return self._trace_cache

    def run(
        self,
        policy: PrecisionPolicy | None = None,
        data: dict[str, np.ndarray] | None = None,
    ) -> Executor:
        """Execute functionally; returns the executor holding final state.

        Args:
            policy: Mixed-precision rounding policy (default: exact).
            data: Per-run overrides/additions to the bound memory contents.
        """
        if self._main is None:
            raise DSLError(f"program {self.name!r} has no main body")
        bound = dict(self.data)
        if data:
            for name, arr in data.items():
                if name not in self.memories.all_names():
                    raise DSLError(f"no memory named {name!r} in program {self.name!r}")
                bound[name] = np.asarray(arr, dtype=np.float64)
        executor = Executor(self.memories, bound, policy)
        push_engine(executor)
        try:
            self._main()
            executor._commit()  # flush writes issued outside any loop
        finally:
            pop_engine(executor)
        return executor
