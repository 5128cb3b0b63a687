"""``recognize_rnn``: locate the RNN serving idiom in the traced program."""

from __future__ import annotations

from repro.mapping.mapper import _find_structure
from repro.mapping.passes.core import MappingPass, MappingState, register_pass

__all__ = ["RecognizeRNN"]


@register_pass("recognize_rnn")
class RecognizeRNN(MappingPass):
    """Trace the program and recognize the time-step loop, the cell loop
    and the gate reduce groups (the front end of the lowering).

    Rejects programs that do not match the idiom with the same
    :class:`~repro.errors.MappingError` messages the monolith raised
    (zero/two Sequential loops, Reduce-less cells).
    """

    requires: tuple[str, ...] = ()

    def run(self, state: MappingState) -> None:
        state.steps, cell, state.gates = _find_structure(state.prog.trace())
        state.cell = cell
        state.hu = cell.par
        state.n_iterations = cell.issue_count
