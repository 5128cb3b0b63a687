"""Trace IR: the records produced by symbolically executing a program.

The tracer runs every loop body exactly once with symbolic indices and
collects a :class:`LoopRecord` tree.  Each record knows its extent, step,
and par factor, the operations executed per body evaluation, and the
memory accesses with the counters that index them — everything the mapper
and the pretty printer read, without keeping Python closures around.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field


class LoopKind(enum.Enum):
    """How a loop's iterations may overlap in hardware."""

    FOREACH = "foreach"  # pipelineable across iterations
    REDUCE = "reduce"  # pipelineable, produces a scalar via a tree
    SEQUENTIAL = "sequential"  # iteration i+1 starts after i drains


class OpKind(enum.Enum):
    """Scalar operation categories tracked per loop body."""

    MUL = "mul"
    ADD = "add"
    SUB = "sub"
    DIV = "div"
    MAX = "max"
    MIN = "min"
    NEG = "neg"
    LUT = "lut"  # non-linear function lookup
    CMP = "cmp"


_ids = itertools.count()


def fresh_id() -> int:
    """Monotonically increasing id shared by all trace entities."""
    return next(_ids)


@dataclass
class OpRecord:
    """One scalar operation inside a loop body."""

    kind: OpKind
    loop_id: int
    detail: str = ""


@dataclass
class MemAccess:
    """One read or write of a memory inside a loop body.

    Attributes:
        mem_name: Name of the SRAM/Reg/LUT accessed.
        is_write: Write vs read.
        counters: Ids of loop counters appearing in the index expression;
            empty means a loop-invariant (scalar) access.
        loop_id: The innermost loop containing the access.
    """

    mem_name: str
    is_write: bool
    counters: tuple[int, ...]
    loop_id: int


@dataclass
class LoopRecord:
    """One loop construct in the trace tree."""

    loop_id: int
    kind: LoopKind
    extent: int
    step: int
    par: int
    depth: int
    parent: "LoopRecord | None" = None
    children: list["LoopRecord"] = field(default_factory=list)
    ops: list[OpRecord] = field(default_factory=list)
    accesses: list[MemAccess] = field(default_factory=list)
    label: str = ""

    @property
    def iterations(self) -> int:
        """Number of iterator values (``ceil(extent / step)``)."""
        return -(-self.extent // self.step)

    @property
    def issue_count(self) -> int:
        """Iterations issued after unrolling by ``par``."""
        return -(-self.iterations // self.par)

    def walk(self):
        """Yield this record and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def op_count(self, kind: OpKind | None = None) -> int:
        """Ops of ``kind`` (or all) per single evaluation of this body."""
        if kind is None:
            return len(self.ops)
        return sum(1 for op in self.ops if op.kind is kind)

    def find(self, label: str) -> "LoopRecord | None":
        """First descendant (or self) with the given label."""
        for rec in self.walk():
            if rec.label == label:
                return rec
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LoopRecord({self.kind.value}, extent={self.extent}, "
            f"step={self.step}, par={self.par}, depth={self.depth}, "
            f"children={len(self.children)}, ops={len(self.ops)})"
        )
