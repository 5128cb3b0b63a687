"""The paper's loop-based LSTM (Figure 5), in the Spatial-like DSL.

Every element of ``c_t``/``h_t`` is produced by one *LSTM-1* body: four
fused dot-product + bias + LUT evaluations (one per gate), followed by the
element-wise cell update — all intermediates living in registers.  The
design knobs are exactly Figure 5's:

* ``rv`` — vectorization of the tiled dot product's inner loop,
* ``ru`` — number of parallel MapReduce units per gate,
* ``hu`` — unrolling of the outer ``Foreach(H par hu)`` loop.

The time-step loop is ``Sequential`` because of the ``h_t`` feedback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.precision.formats import FloatFormat
from repro.rnn.luts import DEFAULT_LUT_ENTRIES, DEFAULT_LUT_RANGE, sigmoid, tanh
from repro.rnn.params import LSTMWeights, RNNShape
from repro.spatial import Foreach, Program, Range, Reduce, Sequential

__all__ = ["LoopParams", "declare_lstm_program", "build_lstm_program"]


@dataclass(frozen=True)
class LoopParams:
    """The design parameters of Table 7 for the loop-based cells."""

    hu: int = 1  # unrolling of the H loop
    ru: int = 1  # parallel MapReduce units on the R dimension
    rv: int = 16  # dot-product vectorization (lanes x packing)
    hv: int = 1  # native output-tile dimension; loop-based designs use 1

    def __post_init__(self) -> None:
        for name in ("hu", "ru", "rv", "hv"):
            if getattr(self, name) < 1:
                raise ConfigError(f"LoopParams.{name} must be >= 1")
        if self.hv != 1:
            raise ConfigError(
                "the loop-based design computes dot products (hv == 1); "
                "hv > 1 belongs to the tiled-MVM (Brainwave) design"
            )


def declare_lstm_program(
    shape: RNNShape,
    n_steps: int,
    params: LoopParams = LoopParams(),
    *,
    weight_dtype: FloatFormat | None = None,
    state_dtype: FloatFormat | None = None,
    lut_dtype: FloatFormat | None = None,
    lut_entries: int = DEFAULT_LUT_ENTRIES,
) -> Program:
    """Declare the Figure 5 program's memories and loop nest, binding no data.

    Mapping and cycle simulation read only this declaration (the SRAM
    shapes and the loop structure), so design-space costing builds it
    alone; an unbound SRAM runs as zeros.  :func:`build_lstm_program`
    binds weights and inputs to the same declaration.

    Args:
        shape: An ``lstm`` cell shape.
        n_steps: Sequence length ``T``.
        params: ``hu``/``ru``/``rv`` loop knobs.
        weight_dtype: Storage format of the weight SRAMs (e.g. FP8).
        state_dtype: Storage format of the ``xh``/``c`` state SRAMs.
        lut_dtype: Storage format of the non-linear tables.
        lut_entries: Table resolution.

    Returns:
        A :class:`Program` whose ``y_seq`` SRAM holds every step's output
        after :meth:`Program.run`.
    """
    if shape.kind != "lstm":
        raise ConfigError(f"declare_lstm_program requires an lstm shape, got {shape.kind}")
    H, D, R = shape.hidden, shape.input_dim, shape.concat_dim
    # Pad the reduction dimension to a whole number of rv-blocks: the last
    # vector block reads past R (the paper's 1-D fragmentation, Figure 4b);
    # zero padding makes the garbage lanes contribute nothing.
    r_pad = -(-R // params.rv) * params.rv

    prog = Program(f"lstm_h{H}_t{n_steps}")
    lo, hi = DEFAULT_LUT_RANGE
    lut_kw = dict(lo=lo, hi=hi, entries=lut_entries, dtype=lut_dtype)

    c = prog.sram("c", (H,), dtype=state_dtype)
    xh = prog.sram("xh", (r_pad,), dtype=state_dtype)
    x_seq = prog.sram("x_seq", (n_steps, D), dtype=state_dtype)
    y_seq = prog.sram("y_seq", (n_steps, H), dtype=state_dtype)
    w = {g: prog.sram(f"w{g}", (H, r_pad), dtype=weight_dtype) for g in shape.gate_names}
    b = {g: prog.sram(f"b{g}", (H,), dtype=weight_dtype) for g in shape.gate_names}
    luts = {
        g: prog.lut(f"lut{g}", tanh if g == "j" else sigmoid, **lut_kw)
        for g in shape.gate_names
    }
    lut_tanh = prog.lut("tanh", tanh, **lut_kw)

    def step_body(t):
        # Stream x_t into the head of the concatenated [x, h] SRAM.
        Foreach(
            Range(D, par=params.rv),
            lambda i: xh.write(x_seq[t, i], i),
            label="load_x",
        )

        def lstm1(ih):
            def fused_dot_with_nonlinear(wg, lut, bg):
                # Tiled dot product: blocking rv, ru parallel MapReduce units.
                def block(iu):
                    return Reduce(
                        Range(params.rv, par=params.rv),
                        lambda iv: wg[ih, iu + iv] * xh[iu + iv],
                        label="map_reduce",
                    )

                elem = (
                    Reduce(Range(R, step=params.rv, par=params.ru), block, label="dot")
                    + bg[ih]
                )
                return lut(elem)

            i = fused_dot_with_nonlinear(w["i"], luts["i"], b["i"])
            j = fused_dot_with_nonlinear(w["j"], luts["j"], b["j"])
            f = fused_dot_with_nonlinear(w["f"], luts["f"], b["f"])
            o = fused_dot_with_nonlinear(w["o"], luts["o"], b["o"])
            c_new = i * j + c[ih] * f
            c.write(c_new, ih)
            h_new = lut_tanh(c_new) * o
            xh.write(h_new, ih + D)
            y_seq.write(h_new, t, ih)

        Foreach(Range(H, par=params.hu), lstm1, label="lstm1")

    @prog.main
    def main():
        Sequential.Foreach(Range(n_steps), step_body, label="steps")

    return prog


def build_lstm_program(
    weights: LSTMWeights,
    xs: np.ndarray,
    params: LoopParams = LoopParams(),
    *,
    weight_dtype: FloatFormat | None = None,
    state_dtype: FloatFormat | None = None,
    lut_dtype: FloatFormat | None = None,
    lut_entries: int = DEFAULT_LUT_ENTRIES,
) -> Program:
    """Build the Figure 5 program for the input sequence ``xs`` (``(T, D)``):
    :func:`declare_lstm_program` with the zero-padded weights and ``xs`` bound."""
    shape = weights.shape
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != shape.input_dim:
        raise ConfigError(f"xs must be (T, {shape.input_dim}), got {xs.shape}")
    prog = declare_lstm_program(
        shape, len(xs), params, weight_dtype=weight_dtype, state_dtype=state_dtype,
        lut_dtype=lut_dtype, lut_entries=lut_entries,
    )
    for g in shape.gate_names:
        w_padded = np.zeros(prog.memories.srams[f"w{g}"].shape)
        w_padded[:, : shape.concat_dim] = weights.w[g]
        prog.set_data(f"w{g}", w_padded)
        prog.set_data(f"b{g}", weights.b[g])
    prog.set_data("x_seq", xs)
    return prog
