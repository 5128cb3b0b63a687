"""DSL scalar values with operator overloading.

A :class:`Value` wraps an engine payload — a numpy array under the
executor, ``None`` under the tracer, which reads only the axes — together
with ``axes``: the ids of the loop counters the value varies over, outer
to inner.  Arithmetic dispatches to the active engine so the same program
text drives both tracing and execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.spatial.context import current_engine

__all__ = ["Value", "as_value", "vmax", "vmin"]


@dataclass(frozen=True)
class Value:
    """A staged DSL scalar.

    Attributes:
        payload: numpy array (executor), ``None`` (tracer) or python number.
        axes: loop-counter ids this value varies over, in nesting order.
    """

    payload: Any
    axes: tuple[int, ...] = ()

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        return current_engine().binop("add", self, as_value(other))

    def __radd__(self, other):
        return current_engine().binop("add", as_value(other), self)

    def __sub__(self, other):
        return current_engine().binop("sub", self, as_value(other))

    def __rsub__(self, other):
        return current_engine().binop("sub", as_value(other), self)

    def __mul__(self, other):
        return current_engine().binop("mul", self, as_value(other))

    def __rmul__(self, other):
        return current_engine().binop("mul", as_value(other), self)

    def __truediv__(self, other):
        return current_engine().binop("div", self, as_value(other))

    def __rtruediv__(self, other):
        return current_engine().binop("div", as_value(other), self)

    def __neg__(self):
        return current_engine().unop("neg", self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Value({self.payload!r}, axes={self.axes})"


def as_value(x: Any) -> Value:
    """Coerce a python number (or Value) into a Value."""
    if isinstance(x, Value):
        return x
    return Value(payload=float(x), axes=())


def vmax(a, b) -> Value:
    """Elementwise maximum of two DSL values."""
    return current_engine().binop("max", as_value(a), as_value(b))


def vmin(a, b) -> Value:
    """Elementwise minimum of two DSL values."""
    return current_engine().binop("min", as_value(a), as_value(b))
