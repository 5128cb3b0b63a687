"""A Python embedding of the Spatial DSL (paper Section 2.3, Figure 5).

Spatial describes accelerator applications as *un-parallelized
pattern-based loops with explicit memory hierarchies*.  This package
reproduces the subset the paper uses:

* ``Foreach`` / ``Reduce`` / ``Sequential.Foreach`` loop constructs with
  ``step`` (blocking) and ``par`` (unrolling/vectorization) factors —
  the knobs the paper tunes (``hu``, ``ru``, ``hv``, ``rv``).
* ``SRAM`` / ``Reg`` / ``LUT`` on-chip memories with per-memory storage
  precision.
* Two engines over the same program:

  - :class:`~repro.spatial.interpreter.Executor` — functional execution.
    Loop bodies evaluate *vectorized* over numpy index arrays, so an
    H=2048 LSTM step runs in numpy time, with optional mixed-precision
    rounding after every operation (the f8+16+32 datapath).
  - :class:`~repro.spatial.tracer.Tracer` — symbolic execution that
    records the loop-nest IR (extents, par factors, op mix, memory
    accesses) that :mod:`repro.mapping` lowers and
    :func:`~repro.spatial.pretty.format_program` prints.

Programs are plain Python functions using these constructs inside a
:class:`~repro.spatial.builder.Program` context::

    prog = Program("axpy")
    x = prog.sram("x", (n,))
    y = prog.sram("y", (n,))

    @prog.main
    def body():
        Foreach(Range(n, par=4), lambda i: y.write(x[i] * 2.0 + y[i], i))
"""

from repro.spatial.builder import Program
from repro.spatial.ir import LoopKind, LoopRecord, MemAccess, OpKind, OpRecord
from repro.spatial.loops import Foreach, Range, Reduce, Sequential
from repro.spatial.memories import LUT, Reg, SRAM
from repro.spatial.interpreter import PrecisionPolicy
from repro.spatial.pretty import format_program

__all__ = [
    "Program",
    "Range",
    "Foreach",
    "Reduce",
    "Sequential",
    "SRAM",
    "Reg",
    "LUT",
    "PrecisionPolicy",
    "LoopKind",
    "LoopRecord",
    "MemAccess",
    "OpKind",
    "OpRecord",
    "format_program",
]
