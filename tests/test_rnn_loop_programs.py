"""Integration tests: loop-based DSL LSTM/GRU vs the numpy references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.precision import FP8, FP16
from repro.rnn import (
    GRUWeights,
    LSTMWeights,
    RNNShape,
    build_gru_program,
    build_lstm_program,
    gru_sequence,
    lstm_sequence,
)
from repro.rnn.lstm_loop import LoopParams
from repro.rnn.luts import lut_error_bound
from repro.spatial import PrecisionPolicy, format_program
from repro.spatial.ir import OpKind


def _lstm_setup(h, d, t, seed=0):
    shape = RNNShape("lstm", h, d)
    w = LSTMWeights.random(shape, rng=seed)
    xs = np.random.default_rng(seed + 100).uniform(-1, 1, size=(t, d))
    return shape, w, xs


def _gru_setup(h, d, t, seed=0):
    shape = RNNShape("gru", h, d)
    w = GRUWeights.random(shape, rng=seed)
    xs = np.random.default_rng(seed + 100).uniform(-1, 1, size=(t, d))
    return shape, w, xs


class TestLSTMProgram:
    def test_bitexact_vs_reference_with_shared_luts(self):
        # Same LUT numerics on both sides -> exact equality.
        _, w, xs = _lstm_setup(16, 16, 4)
        prog = build_lstm_program(w, xs, LoopParams(hu=2, ru=2, rv=4))
        ex = prog.run(policy=PrecisionPolicy.exact())
        luts = prog.memories.luts
        sig = luts["luti"].apply
        tnh = luts["tanh"].apply
        ys, _, _ = lstm_sequence(w, xs, sigma=sig, tanh=tnh)
        np.testing.assert_array_equal(ex.state["y_seq"], ys)

    def test_close_to_true_nonlinearities(self):
        _, w, xs = _lstm_setup(16, 16, 8)
        prog = build_lstm_program(w, xs, LoopParams(hu=4, ru=2, rv=8))
        ex = prog.run(policy=PrecisionPolicy.exact())
        ys, _, _ = lstm_sequence(w, xs)
        # LUT error compounds across 8 steps but stays small.
        tol = 20 * lut_error_bound(1.0)
        assert np.max(np.abs(ex.state["y_seq"] - ys)) < tol

    @given(
        h=st.sampled_from([5, 8, 12]),
        d=st.sampled_from([3, 8]),
        rv=st.sampled_from([2, 4, 8]),
        ru=st.sampled_from([1, 2]),
        hu=st.sampled_from([1, 3, 4]),
    )
    @settings(max_examples=12, deadline=None)
    def test_params_never_change_semantics(self, h, d, rv, ru, hu):
        # Any (hu, ru, rv) choice computes the same function — including
        # non-dividing fragmentated sizes.
        _, w, xs = _lstm_setup(h, d, 2, seed=h * 100 + d)
        base = build_lstm_program(w, xs, LoopParams()).run().state["y_seq"]
        tuned = (
            build_lstm_program(w, xs, LoopParams(hu=hu, ru=ru, rv=rv))
            .run()
            .state["y_seq"]
        )
        np.testing.assert_allclose(tuned, base, rtol=1e-10, atol=1e-12)

    def test_quantized_weights_still_functional(self):
        _, w, xs = _lstm_setup(16, 16, 6)
        prog = build_lstm_program(
            w, xs, LoopParams(hu=2, ru=2, rv=8), weight_dtype=FP8, state_dtype=FP16
        )
        ex = prog.run(policy=PrecisionPolicy.plasticine_mixed())
        ys, _, _ = lstm_sequence(w, xs)
        # fp8 weights: coarse but correlated output.
        err = np.max(np.abs(ex.state["y_seq"] - ys))
        assert err < 0.25
        corr = np.corrcoef(ex.state["y_seq"].ravel(), ys.ravel())[0, 1]
        assert corr > 0.97

    def test_fp16_better_than_fp8(self):
        _, w, xs = _lstm_setup(16, 16, 6)
        ys, _, _ = lstm_sequence(w, xs)

        def err(dtype):
            prog = build_lstm_program(
                w, xs, LoopParams(hu=2, ru=2, rv=8), weight_dtype=dtype
            )
            # Exact arithmetic, but weights rounded to their storage format.
            ex = prog.run(policy=PrecisionPolicy(quantize_storage=True))
            return np.max(np.abs(ex.state["y_seq"] - ys))

        assert err(FP16) < err(FP8)

    def test_input_validation(self):
        _, w, _ = _lstm_setup(8, 8, 2)
        with pytest.raises(ConfigError):
            build_lstm_program(w, np.zeros((2, 5)))
        with pytest.raises(ConfigError):
            LoopParams(hu=0)
        with pytest.raises(ConfigError):
            LoopParams(hv=2)

    def test_trace_structure_matches_figure5(self):
        _, w, xs = _lstm_setup(8, 8, 2)
        prog = build_lstm_program(w, xs, LoopParams(hu=2, ru=2, rv=4))
        root = prog.trace()
        steps = root.find("steps")
        assert steps is not None and steps.extent == 2
        lstm1 = root.find("lstm1")
        assert lstm1.par == 2 and lstm1.extent == 8
        dots = [c for c in lstm1.children if c.label == "dot"]
        assert len(dots) == 4  # one fused dot product per gate
        assert all(d.step == 4 and d.par == 2 for d in dots)
        # 5 LUT evaluations per LSTM-1: 4 gates + tanh(c).
        assert lstm1.op_count(OpKind.LUT) == 5

    def test_mac_count_matches_paper_model(self):
        h, d, t = 8, 8, 3
        _, w, xs = _lstm_setup(h, d, t)
        prog = build_lstm_program(w, xs, LoopParams(rv=4))
        muls = 0
        for rec in prog.trace().walk():
            # A body's ops run once per iteration of it and every ancestor.
            trips, loop = 1, rec
            while loop is not None:
                trips, loop = trips * loop.iterations, loop.parent
            muls += trips * rec.op_count(OpKind.MUL)
        # 4 gates x H x R_pad multiplies per step (padding included).
        assert muls >= t * 4 * h * (h + d)

    def test_pretty_print_shows_loop_nest(self):
        _, w, xs = _lstm_setup(8, 8, 2)
        prog = build_lstm_program(w, xs, LoopParams(hu=2, ru=2, rv=4))
        text = format_program(prog)
        assert "Sequential.Foreach(2)" in text
        assert "Foreach(8 par 2)" in text
        assert "Reduce(16 by 4 par 2)" in text


class TestGRUProgram:
    def test_bitexact_vs_reference_with_shared_luts(self):
        _, w, xs = _gru_setup(12, 12, 4)
        prog = build_gru_program(w, xs, LoopParams(hu=2, ru=2, rv=4))
        ex = prog.run(policy=PrecisionPolicy.exact())
        sig = prog.memories.luts["sigmoid"].apply
        tnh = prog.memories.luts["tanh"].apply
        ys, _ = gru_sequence(w, xs, sigma=sig, tanh=tnh)
        np.testing.assert_array_equal(ex.state["y_seq"], ys)

    def test_close_to_true_nonlinearities(self):
        _, w, xs = _gru_setup(16, 16, 8)
        prog = build_gru_program(w, xs, LoopParams(hu=4, ru=2, rv=8))
        ex = prog.run(policy=PrecisionPolicy.exact())
        ys, _ = gru_sequence(w, xs)
        assert np.max(np.abs(ex.state["y_seq"] - ys)) < 20 * lut_error_bound(1.0)

    @given(
        h=st.sampled_from([5, 8, 12]),
        d=st.sampled_from([3, 8]),
        rv=st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=8, deadline=None)
    def test_fragmentation_safe(self, h, d, rv):
        _, w, xs = _gru_setup(h, d, 2, seed=h * 10 + d)
        base = build_gru_program(w, xs, LoopParams()).run().state["y_seq"]
        tuned = build_gru_program(w, xs, LoopParams(rv=rv, ru=2)).run().state["y_seq"]
        np.testing.assert_allclose(tuned, base, rtol=1e-10, atol=1e-12)

    def test_different_input_hidden_dims(self):
        _, w, xs = _gru_setup(10, 6, 3)
        prog = build_gru_program(w, xs, LoopParams(hu=2, ru=1, rv=4))
        ex = prog.run()
        ys, _ = gru_sequence(
            w,
            xs,
            sigma=prog.memories.luts["sigmoid"].apply,
            tanh=prog.memories.luts["tanh"].apply,
        )
        np.testing.assert_array_equal(ex.state["y_seq"], ys)

    def test_trace_has_six_part_dots(self):
        _, w, xs = _gru_setup(8, 8, 2)
        prog = build_gru_program(w, xs, LoopParams(hu=2, ru=2, rv=4))
        gru1 = prog.trace().find("gru1")
        dot_labels = sorted(c.label for c in gru1.children if c.label.startswith("dot"))
        assert dot_labels == [
            "dot_cx", "dot_ch", "dot_rx", "dot_rh", "dot_zx", "dot_zh",
        ] or len(dot_labels) == 6

    def test_quantized_gru_functional(self):
        _, w, xs = _gru_setup(16, 16, 6)
        prog = build_gru_program(
            w, xs, LoopParams(hu=2, ru=2, rv=8), weight_dtype=FP8, state_dtype=FP16
        )
        ex = prog.run(policy=PrecisionPolicy.plasticine_mixed())
        ys, _ = gru_sequence(w, xs)
        corr = np.corrcoef(ex.state["y_seq"].ravel(), ys.ravel())[0, 1]
        assert corr > 0.97
