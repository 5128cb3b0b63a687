"""Symbolic execution: builds the trace IR consumed by the mapper.

The tracer runs each loop body exactly once with a symbolic counter and
records a :class:`~repro.spatial.ir.LoopRecord` tree: loop kinds, extents,
steps, par factors, the operation mix of each body, and which counters
index each memory access.  A traced value carries only its ``axes``; its
payload is ``None``, since nothing reads it.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import DSLError
from repro.spatial.context import Engine
from repro.spatial.ir import (
    LoopKind,
    LoopRecord,
    MemAccess,
    OpKind,
    OpRecord,
    fresh_id,
)
from repro.spatial.loops import Range
from repro.spatial.memories import LUT, Reg
from repro.spatial.values import Value

__all__ = ["Tracer"]

_BINOP_KINDS = {
    "add": OpKind.ADD,
    "sub": OpKind.SUB,
    "mul": OpKind.MUL,
    "div": OpKind.DIV,
    "max": OpKind.MAX,
    "min": OpKind.MIN,
}


class Tracer(Engine):
    """Records the loop-nest structure of a program."""

    def __init__(self) -> None:
        self.root = LoopRecord(
            loop_id=fresh_id(),
            kind=LoopKind.SEQUENTIAL,
            extent=1,
            step=1,
            par=1,
            depth=0,
            label="<root>",
        )
        self._stack: list[LoopRecord] = [self.root]

    # -- helpers ---------------------------------------------------------

    @property
    def _cur(self) -> LoopRecord:
        return self._stack[-1]

    def _union_axes(self, *vals: Value) -> tuple[int, ...]:
        seen: list[int] = []
        for v in vals:
            for a in v.axes:
                if a not in seen:
                    seen.append(a)
        return tuple(seen)

    def _record_op(self, kind: OpKind, detail: str = "") -> None:
        self._cur.ops.append(OpRecord(kind=kind, loop_id=self._cur.loop_id, detail=detail))

    def _enter(self, kind: LoopKind, rng: Range, label: str) -> LoopRecord:
        rec = LoopRecord(
            loop_id=fresh_id(),
            kind=kind,
            extent=rng.extent,
            step=rng.step,
            par=rng.par,
            depth=self._cur.depth + 1,
            parent=self._cur,
            label=label,
        )
        self._cur.children.append(rec)
        self._stack.append(rec)
        return rec

    def _exit(self, rec: LoopRecord) -> None:
        if self._stack[-1] is not rec:
            raise DSLError("tracer loop stack corrupted")
        self._stack.pop()

    # -- Engine interface --------------------------------------------------

    def binop(self, kind: str, a: Value, b: Value) -> Value:
        self._record_op(_BINOP_KINDS[kind])
        axes = self._union_axes(a, b)
        return Value(None, axes)

    def unop(self, kind: str, a: Value) -> Value:
        self._record_op(OpKind.NEG)
        return Value(None, a.axes)

    def read(self, mem, idxs: tuple) -> Value:
        if isinstance(mem, Reg):
            return Value(None, ())
        axes = self._union_axes(*idxs) if idxs else ()
        self._cur.accesses.append(
            MemAccess(
                mem_name=mem.name,
                is_write=False,
                counters=axes,
                loop_id=self._cur.loop_id,
            )
        )
        return Value(None, axes)

    def write(self, mem, value: Value, idxs: tuple) -> None:
        if isinstance(mem, Reg):
            return
        axes = self._union_axes(value, *idxs)
        self._cur.accesses.append(
            MemAccess(
                mem_name=mem.name,
                is_write=True,
                counters=axes,
                loop_id=self._cur.loop_id,
            )
        )

    def lut_lookup(self, lut: LUT, x: Value) -> Value:
        self._record_op(OpKind.LUT, detail=lut.name)
        self._cur.accesses.append(
            MemAccess(
                mem_name=lut.name,
                is_write=False,
                counters=x.axes,
                loop_id=self._cur.loop_id,
            )
        )
        return Value(None, x.axes)

    def foreach(self, rng: Range, body: Callable, *, sequential: bool, label: str) -> None:
        kind = LoopKind.SEQUENTIAL if sequential else LoopKind.FOREACH
        rec = self._enter(kind, rng, label)
        try:
            body(Value(None, (rec.loop_id,)))
        finally:
            self._exit(rec)

    def reduce(self, rng: Range, map_fn: Callable, *, label: str) -> Value:
        rec = self._enter(LoopKind.REDUCE, rng, label)
        try:
            mapped = map_fn(Value(None, (rec.loop_id,)))
        finally:
            self._exit(rec)
        out_axes = tuple(a for a in mapped.axes if a != rec.loop_id)
        return Value(None, out_axes)
