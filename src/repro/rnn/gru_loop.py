"""Loop-based GRU in the Spatial-like DSL.

Section 2 of the paper: "our optimization techniques can be generalized to
any other types of RNN cells", with GRU evaluated in Section 5.  The GRU
analogue of LSTM-1 produces one element of ``h_t`` per iteration:

* update/reset gates ``z``/``r`` are fused dot products + sigmoid LUTs,
* the candidate uses the cuDNN ``linear_before_reset`` form, so the reset
  gate scales the *hidden-part dot product* of the same iteration —
  keeping the whole cell a single fused pass with scalar intermediates.

Unlike the LSTM, the candidate's x-part and h-part cannot be concatenated
(the reset scaling splits them), so each gate computes its x-part and
h-part reductions back-to-back on the same MapReduce units.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.precision.formats import FloatFormat
from repro.rnn.luts import DEFAULT_LUT_ENTRIES, DEFAULT_LUT_RANGE, sigmoid, tanh
from repro.rnn.lstm_loop import LoopParams
from repro.rnn.params import GRUWeights, RNNShape
from repro.spatial import Foreach, Program, Range, Reduce, Sequential

__all__ = ["declare_gru_program", "build_gru_program"]


def declare_gru_program(
    shape: RNNShape,
    n_steps: int,
    params: LoopParams = LoopParams(),
    *,
    weight_dtype: FloatFormat | None = None,
    state_dtype: FloatFormat | None = None,
    lut_dtype: FloatFormat | None = None,
    lut_entries: int = DEFAULT_LUT_ENTRIES,
) -> Program:
    """Declare the loop-based GRU program, binding no data; mirrors
    :func:`repro.rnn.lstm_loop.declare_lstm_program`."""
    if shape.kind != "gru":
        raise ConfigError(f"declare_gru_program requires a gru shape, got {shape.kind}")
    H, D = shape.hidden, shape.input_dim
    d_pad = -(-D // params.rv) * params.rv
    h_pad = -(-H // params.rv) * params.rv

    prog = Program(f"gru_h{H}_t{n_steps}")
    lo, hi = DEFAULT_LUT_RANGE

    x_cur = prog.sram("x_cur", (d_pad,), dtype=state_dtype)
    h_cur = prog.sram("h_cur", (h_pad,), dtype=state_dtype)
    x_seq = prog.sram("x_seq", (n_steps, D), dtype=state_dtype)
    y_seq = prog.sram("y_seq", (n_steps, H), dtype=state_dtype)
    wx = {g: prog.sram(f"w{g}x", (H, d_pad), dtype=weight_dtype) for g in shape.gate_names}
    wh = {g: prog.sram(f"w{g}h", (H, h_pad), dtype=weight_dtype) for g in shape.gate_names}
    b = {g: prog.sram(f"b{g}", (H,), dtype=weight_dtype) for g in shape.gate_names}
    lut_sig = prog.lut("sigmoid", sigmoid, lo=lo, hi=hi, entries=lut_entries, dtype=lut_dtype)
    lut_tanh = prog.lut("tanh", tanh, lo=lo, hi=hi, entries=lut_entries, dtype=lut_dtype)

    def step_body(t):
        Foreach(
            Range(D, par=params.rv),
            lambda i: x_cur.write(x_seq[t, i], i),
            label="load_x",
        )

        def gru1(ih):
            def part_dot(wmat, source, extent, label):
                def block(iu):
                    return Reduce(
                        Range(params.rv, par=params.rv),
                        lambda iv: wmat[ih, iu + iv] * source[iu + iv],
                        label="map_reduce",
                    )

                return Reduce(Range(extent, step=params.rv, par=params.ru), block, label=label)

            def gate_dot(g):
                return (
                    part_dot(wx[g], x_cur, D, f"dot_{g}x"),
                    part_dot(wh[g], h_cur, H, f"dot_{g}h"),
                )

            zx, zh = gate_dot("z")
            rx, rh = gate_dot("r")
            cx, ch = gate_dot("c")
            z = lut_sig(zx + zh + b["z"][ih])
            r = lut_sig(rx + rh + b["r"][ih])
            # linear_before_reset: reset scales the hidden-part dot product.
            cand = lut_tanh(cx + r * ch + b["c"][ih])
            h_new = (1.0 - z) * cand + z * h_cur[ih]
            h_cur.write(h_new, ih)
            y_seq.write(h_new, t, ih)

        Foreach(Range(H, par=params.hu), gru1, label="gru1")

    @prog.main
    def main():
        Sequential.Foreach(Range(n_steps), step_body, label="steps")

    return prog


def build_gru_program(
    weights: GRUWeights,
    xs: np.ndarray,
    params: LoopParams = LoopParams(),
    *,
    weight_dtype: FloatFormat | None = None,
    state_dtype: FloatFormat | None = None,
    lut_dtype: FloatFormat | None = None,
    lut_entries: int = DEFAULT_LUT_ENTRIES,
) -> Program:
    """Build the loop-based GRU program for the input sequence ``xs``:
    :func:`declare_gru_program` with the zero-padded weights and ``xs`` bound."""
    shape = weights.shape
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != shape.input_dim:
        raise ConfigError(f"xs must be (T, {shape.input_dim}), got {xs.shape}")
    prog = declare_gru_program(
        shape, len(xs), params, weight_dtype=weight_dtype, state_dtype=state_dtype,
        lut_dtype=lut_dtype, lut_entries=lut_entries,
    )
    H, D = shape.hidden, shape.input_dim
    for g in shape.gate_names:
        wx_p = np.zeros(prog.memories.srams[f"w{g}x"].shape)
        wx_p[:, :D] = weights.w[g][:, :D]
        wh_p = np.zeros(prog.memories.srams[f"w{g}h"].shape)
        wh_p[:, :H] = weights.w[g][:, D:]
        prog.set_data(f"w{g}x", wx_p)
        prog.set_data(f"w{g}h", wh_p)
        prog.set_data(f"b{g}", weights.b[g])
    prog.set_data("x_seq", xs)
    return prog
