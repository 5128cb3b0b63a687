"""Unit tests for the Spatial-like DSL: memories, loops, executor."""

import numpy as np
import pytest

from repro.errors import DSLBoundsError, DSLError, InterpreterError
from repro.precision import FP8, FP16
from repro.spatial import (
    Foreach,
    PrecisionPolicy,
    Program,
    Range,
    Reduce,
    Sequential,
)
from repro.spatial.values import vmax, vmin


class TestRange:
    def test_iterations_ceil(self):
        assert Range(10).iterations == 10
        assert Range(10, step=3).iterations == 4
        assert Range(10, step=5).iterations == 2

    def test_issue_count(self):
        assert Range(10, par=4).issue_count == 3
        assert Range(16, par=4).issue_count == 4
        assert Range(10, step=2, par=2).issue_count == 3

    def test_validation(self):
        with pytest.raises(DSLError):
            Range(0)
        with pytest.raises(DSLError):
            Range(4, step=0)
        with pytest.raises(DSLError):
            Range(4, par=0)


class TestProgramDeclaration:
    def test_duplicate_memory_rejected(self):
        prog = Program("p")
        prog.sram("a", (4,))
        with pytest.raises(DSLError):
            prog.sram("a", (4,))

    def test_bad_shape_rejected(self):
        prog = Program("p")
        with pytest.raises(DSLError):
            prog.sram("a", (0,))

    def test_main_required(self):
        prog = Program("p")
        with pytest.raises(DSLError):
            prog.run()

    def test_double_main_rejected(self):
        prog = Program("p")

        @prog.main
        def body():
            pass

        with pytest.raises(DSLError):
            prog.main(lambda: None)

    def test_set_data_unknown_memory(self):
        prog = Program("p")
        with pytest.raises(DSLError):
            prog.set_data("ghost", np.zeros(4))

    def test_set_data_shape_mismatch(self):
        # Misshaped data fails where it is bound, naming both shapes; the
        # executor still checks run(data=...) overrides, which bypass it.
        prog = Program("p")
        prog.sram("m", (4, 4))
        with pytest.raises(DSLError, match=r"shape \(3,\), declared \(4, 4\)"):
            prog.set_data("m", np.zeros(3))
        assert prog.data == {}
        prog.set_data("m", np.ones((4, 4)))

        @prog.main
        def body():
            pass

        with pytest.raises(InterpreterError, match=r"shape \(4,\), declared \(4, 4\)"):
            prog.run(data={"m": np.zeros(4)})

    def test_constructs_require_engine(self):
        with pytest.raises(DSLError, match="no active engine"):
            Foreach(Range(4), lambda i: None)


def _copy_scale_program(n: int, par: int = 1) -> Program:
    prog = Program("copy_scale")
    x = prog.sram("x", (n,))
    y = prog.sram("y", (n,))

    @prog.main
    def body():
        Foreach(Range(n, par=par), lambda i: y.write(x[i] * 2.0 + 1.0, i))

    return prog


class TestExecutorBasics:
    def test_elementwise_foreach(self):
        prog = _copy_scale_program(8)
        data = np.arange(8.0)
        ex = prog.run(data={"x": data})
        np.testing.assert_array_equal(ex.state["y"], data * 2.0 + 1.0)

    def test_par_does_not_change_semantics(self):
        data = np.arange(8.0)
        y1 = _copy_scale_program(8, par=1).run(data={"x": data}).state["y"]
        y4 = _copy_scale_program(8, par=4).run(data={"x": data}).state["y"]
        np.testing.assert_array_equal(y1, y4)

    def test_reduce_sums(self):
        prog = Program("sum")
        x = prog.sram("x", (16,))
        out = prog.sram("out", (1,))

        @prog.main
        def body():
            out.write(Reduce(Range(16), lambda i: x[i]), 0)

        ex = prog.run(data={"x": np.arange(16.0)})
        assert ex.state["out"][0] == 120.0

    def test_nested_reduce_dot_product(self):
        n, rv = 12, 4
        prog = Program("dot")
        w = prog.sram("w", (n,))
        x = prog.sram("x", (n,))
        out = prog.sram("out", (1,))

        @prog.main
        def body():
            def outer(iu):
                return Reduce(Range(rv, par=rv), lambda iv: w[iu + iv] * x[iu + iv])

            out.write(Reduce(Range(n, step=rv, par=2), outer), 0)

        rng = np.random.default_rng(0)
        wv, xv = rng.normal(size=n), rng.normal(size=n)
        ex = prog.run(data={"w": wv, "x": xv})
        assert ex.state["out"][0] == pytest.approx(float(wv @ xv), rel=1e-12)

    def test_matrix_vector_via_foreach_reduce(self):
        h, r = 6, 10
        prog = Program("mvm")
        w = prog.sram("w", (h, r))
        x = prog.sram("x", (r,))
        y = prog.sram("y", (h,))

        @prog.main
        def body():
            def row(ih):
                y.write(Reduce(Range(r), lambda j: w[ih, j] * x[j]), ih)

            Foreach(Range(h, par=2), row)

        rng = np.random.default_rng(1)
        wv, xv = rng.normal(size=(h, r)), rng.normal(size=r)
        ex = prog.run(data={"w": wv, "x": xv})
        np.testing.assert_allclose(ex.state["y"], wv @ xv, rtol=1e-12)

    def test_sequential_foreach_carries_state(self):
        # y[t] depends on y[t-1]: only correct with sequential semantics.
        n = 6
        prog = Program("prefix")
        y = prog.sram("y", (n + 1,))

        @prog.main
        def body():
            Sequential.Foreach(Range(n), lambda t: y.write(y[t] + 1.0, t + 1))

        ex = prog.run()
        np.testing.assert_array_equal(ex.state["y"], np.arange(n + 1.0))

    def test_sequential_par_rejected(self):
        prog = Program("p")

        @prog.main
        def body():
            Sequential.Foreach(Range(4, par=2), lambda t: None)

        with pytest.raises(DSLError):
            prog.run()

    def test_foreach_writes_commit_at_loop_end(self):
        # Double-buffered semantics: reads inside the loop see pre-loop data.
        n = 4
        prog = Program("swap")
        x = prog.sram("x", (n,))

        @prog.main
        def body():
            # Reverse: x[i] <- x[n-1-i]; with commit-at-end this is a clean
            # permutation, not a cascading overwrite.
            Foreach(Range(n), lambda i: x.write(x[(n - 1) - i], i))

        ex = prog.run(data={"x": np.arange(4.0)})
        np.testing.assert_array_equal(ex.state["x"], [3.0, 2.0, 1.0, 0.0])

    def test_out_of_bounds_read_raises(self):
        prog = Program("oob")
        x = prog.sram("x", (4,))
        y = prog.sram("y", (4,))

        @prog.main
        def body():
            Foreach(Range(4), lambda i: y.write(x[i + 1], i))

        with pytest.raises(DSLBoundsError):
            prog.run()

    def test_wrong_index_arity(self):
        prog = Program("arity")
        x = prog.sram("x", (4, 4))

        @prog.main
        def body():
            Foreach(Range(4), lambda i: x.write(x[i, 0], i))

        with pytest.raises(DSLError, match="written with 1 indices"):
            prog.run()

    def test_reg_read_write(self):
        prog = Program("reg")
        r = prog.reg("acc", init=5.0)
        out = prog.sram("out", (1,))

        @prog.main
        def body():
            r.write(r.read() + 2.0)
            out.write(r.read(), 0)

        ex = prog.run()
        assert ex.state["out"][0] == 7.0
        assert ex.reg_state["acc"] == 7.0

    def test_reg_loop_varying_write_rejected(self):
        prog = Program("regbad")
        r = prog.reg("acc")

        @prog.main
        def body():
            Foreach(Range(4), lambda i: r.write(i * 1.0))

        with pytest.raises(DSLError):
            prog.run()

    def test_lut_applies_function(self):
        prog = Program("lutp")
        sig = prog.lut("sigmoid", lambda v: 1.0 / (1.0 + np.exp(-v)), entries=8192)
        x = prog.sram("x", (5,))
        y = prog.sram("y", (5,))

        @prog.main
        def body():
            Foreach(Range(5), lambda i: y.write(sig(x[i]), i))

        xs = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        ex = prog.run(data={"x": xs})
        np.testing.assert_allclose(ex.state["y"], 1 / (1 + np.exp(-xs)), atol=2e-3)

    def test_lut_clamps_out_of_range(self):
        prog = Program("lutc")
        sig = prog.lut("sig", lambda v: 1.0 / (1.0 + np.exp(-v)), lo=-8, hi=8)
        x = prog.sram("x", (2,))
        y = prog.sram("y", (2,))

        @prog.main
        def body():
            Foreach(Range(2), lambda i: y.write(sig(x[i]), i))

        ex = prog.run(data={"x": np.array([-100.0, 100.0])})
        np.testing.assert_allclose(ex.state["y"], [0.0, 1.0], atol=1e-3)

    def test_vmax_vmin(self):
        prog = Program("clamp")
        x = prog.sram("x", (4,))
        y = prog.sram("y", (4,))

        @prog.main
        def body():
            Foreach(Range(4), lambda i: y.write(vmin(vmax(x[i], -1.0), 1.0), i))

        ex = prog.run(data={"x": np.array([-5.0, -0.5, 0.5, 5.0])})
        np.testing.assert_array_equal(ex.state["y"], [-1.0, -0.5, 0.5, 1.0])

    def test_neg_and_div(self):
        prog = Program("negdiv")
        x = prog.sram("x", (3,))
        y = prog.sram("y", (3,))

        @prog.main
        def body():
            Foreach(Range(3), lambda i: y.write(-x[i] / 2.0, i))

        ex = prog.run(data={"x": np.array([2.0, -4.0, 8.0])})
        np.testing.assert_array_equal(ex.state["y"], [-1.0, 2.0, -4.0])

    def test_traffic_accounting(self):
        prog = _copy_scale_program(8)
        ex = prog.run(data={"x": np.zeros(8)})
        assert ex.read_elems["x"] == 8
        assert ex.write_elems["y"] == 8


class TestPrecisionPolicyExecution:
    def test_storage_quantization(self):
        prog = Program("store8")
        x = prog.sram("x", (1,), dtype=FP8)
        y = prog.sram("y", (1,), dtype=FP8)

        @prog.main
        def body():
            y.write(x[0] * 1.0, 0)

        ex = prog.run(policy=PrecisionPolicy(quantize_storage=True), data={"x": [1.06]})
        assert ex.state["x"][0] == 1.0  # quantized on load
        assert ex.state["y"][0] == 1.0

    def test_mul_rounding(self):
        prog = Program("mul8")
        x = prog.sram("x", (1,))
        y = prog.sram("y", (1,))

        @prog.main
        def body():
            y.write(x[0] * 1.125, 0)

        ex = prog.run(policy=PrecisionPolicy(mul=FP8), data={"x": [1.125]})
        # 1.265625 rounds to FP8 grid point 1.25
        assert ex.state["y"][0] == 1.25

    def test_mixed_reduction_precision(self):
        # Sum of many small values loses low bits at fp16 stage1.
        n = 32
        prog = Program("redmix")
        x = prog.sram("x", (n,))
        out = prog.sram("out", (1,))

        @prog.main
        def body():
            out.write(Reduce(Range(n), lambda i: x[i] * 1.0), 0)

        data = np.full(n, 1.0 + 2.0**-12)  # not representable pairwise in fp16
        exact = prog.run(data={"x": data}).state["out"][0]
        mixed = prog.run(
            policy=PrecisionPolicy(reduce_stage1=FP16, accum=FP16), data={"x": data}
        ).state["out"][0]
        assert exact == pytest.approx(n * (1 + 2.0**-12), rel=1e-12)
        assert mixed != exact  # rounding visible
        assert mixed == pytest.approx(exact, rel=1e-2)

    def test_plasticine_policy_exists(self):
        pol = PrecisionPolicy.plasticine_mixed()
        assert pol.accum.name == "fp32"
        assert pol.reduce_stage1.name == "fp16"
