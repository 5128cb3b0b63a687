"""Unit tests for the Spatial-like DSL: memories, loops, executor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DSLBoundsError, DSLError, InterpreterError
from repro.precision import FP8, FP16, FP32, quantize
from repro.spatial import (
    Foreach,
    OpKind,
    PrecisionPolicy,
    Program,
    Range,
    Reduce,
    Sequential,
)
from repro.spatial.values import vmax, vmin


def _one_loop_program(rng: Range) -> Program:
    prog = Program("one_loop")
    y = prog.sram("y", (rng.extent,))

    @prog.main
    def body():
        Foreach(rng, lambda i: y.write(1.0, i), label="loop")

    return prog


class TestRange:
    def test_validation(self):
        with pytest.raises(DSLError):
            Range(0)
        with pytest.raises(DSLError):
            Range(4, step=0)
        with pytest.raises(DSLError):
            Range(4, par=0)

    def test_iterations_ceil(self):
        # ceil(extent / step) iterator values, in the trace and in execution.
        for rng, n in [(Range(10), 10), (Range(10, step=3), 4), (Range(10, step=5), 2)]:
            prog = _one_loop_program(rng)
            assert prog.trace().find("loop").iterations == n
            assert prog.run().write_elems["y"] == n

    def test_issue_count(self):
        # Unrolling by par issues ceil(iterations / par) times.
        for rng, n in [
            (Range(10, par=4), 3),
            (Range(16, par=4), 4),
            (Range(10, step=2, par=2), 3),
        ]:
            assert _one_loop_program(rng).trace().find("loop").issue_count == n


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

    def test_trace_requires_main(self):
        with pytest.raises(DSLError, match="has no main body"):
            Program("p").trace()

    def test_run_data_for_unknown_memory(self):
        prog = Program("p")
        prog.sram("m", (4,))

        @prog.main
        def body():
            pass

        with pytest.raises(DSLError, match="no memory named 'ghost'"):
            prog.run(data={"ghost": np.zeros(4)})

    def test_banks_must_be_positive(self):
        with pytest.raises(DSLError, match="banks must be >= 1"):
            Program("p").sram("a", (4,), banks=0)

    def test_storage_bytes_follow_dtype(self):
        prog = Program("p")
        assert prog.sram("w8", (4, 8), dtype=FP8).storage_bytes() == 32
        assert prog.sram("w16", (4, 8), dtype=FP16).storage_bytes() == 64
        assert prog.sram("w32", (4, 8), dtype=FP32).storage_bytes() == 128
        # Exact float64 storage is costed as 4-byte words unless overridden.
        exact = prog.sram("exact", (4, 8))
        assert exact.storage_bytes() == 128
        assert exact.storage_bytes(1) == 32

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"entries": 1}, "at least 2 entries"), ({"lo": 1.0, "hi": 1.0}, "is empty")],
        ids=["one-entry", "empty-range"],
    )
    def test_lut_validation(self, kwargs, message):
        with pytest.raises(DSLError, match=message):
            Program("p").lut("t", np.tanh, **kwargs)


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

    @pytest.mark.parametrize(
        "dsl, ref, kind",
        [
            (lambda v: v - 1.5, lambda a: a - 1.5, OpKind.SUB),
            (lambda v: 1.5 - v, lambda a: 1.5 - a, OpKind.SUB),
            (lambda v: 2.0 + v, lambda a: 2.0 + a, OpKind.ADD),
            (lambda v: 3.0 * v, lambda a: 3.0 * a, OpKind.MUL),
            (lambda v: 6.0 / v, lambda a: 6.0 / a, OpKind.DIV),
            (lambda v: -v, lambda a: -a, OpKind.NEG),
        ],
        ids=["sub", "rsub", "radd", "rmul", "rdiv", "neg"],
    )
    def test_constant_on_either_side(self, dsl, ref, kind):
        # A python number on either side of an operator keeps its operand
        # order, and the trace records the one operation.
        prog = Program("arith")
        x = prog.sram("x", (4,))
        y = prog.sram("y", (4,))

        @prog.main
        def body():
            Foreach(Range(4), lambda i: y.write(dsl(x[i]), i), label="loop")

        xs = np.array([0.5, -2.0, 3.0, 8.0])
        np.testing.assert_array_equal(prog.run(data={"x": xs}).state["y"], ref(xs))
        loop = prog.trace().find("loop")
        assert loop.op_count(kind) == 1
        assert loop.op_count() == 1

    def test_reduce_of_loop_invariant_body_sums_copies(self):
        prog = Program("invariant")
        x = prog.sram("x", (3,))
        y = prog.sram("y", (3,))
        out = prog.sram("out", (1,))

        @prog.main
        def body():
            Foreach(Range(3), lambda i: y.write(Reduce(Range(4), lambda j: x[i] * 2.0), i))
            out.write(Reduce(Range(5), lambda j: x[0]), 0)

        ex = prog.run(data={"x": np.array([1.0, -2.0, 0.5])})
        np.testing.assert_array_equal(ex.state["y"], [8.0, -16.0, 4.0])
        assert ex.state["out"][0] == 5.0

    def test_non_integer_index_raises(self):
        prog = Program("frac")
        x = prog.sram("x", (4,))
        y = prog.sram("y", (4,))

        @prog.main
        def body():
            Foreach(Range(4), lambda i: y.write(x[i * 0.5], i))

        with pytest.raises(DSLError, match="non-integer index into SRAM 'x'"):
            prog.run()

    def test_lut_entries_stored_in_its_dtype(self):
        prog = Program("lut8")
        t = prog.lut("tanh", np.tanh, entries=16, dtype=FP8)
        x = prog.sram("x", (16,))
        y = prog.sram("y", (16,))

        @prog.main
        def body():
            Foreach(Range(16), lambda i: y.write(t(x[i]), i))

        want = quantize(np.tanh(t.grid()), FP8)
        np.testing.assert_array_equal(t.table(), want)
        ex = prog.run(data={"x": t.grid()})
        np.testing.assert_array_equal(ex.state["y"], want)


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

    @pytest.mark.parametrize(
        "dsl, exact",
        [
            (lambda v: v + 0.05, 1.05),
            (lambda v: v - 0.05, 0.95),
            (lambda v: v / 0.9, 1.0 / 0.9),
        ],
        ids=["add", "sub", "div"],
    )
    def test_elementwise_result_rounds_to_ew(self, dsl, exact):
        # One rounding of the exact result onto the fp8 grid (1/8 apart
        # above 1, 1/16 below): 1.05 -> 1.0, 0.95 -> 0.9375, 1.11 -> 1.125.
        prog = Program("ew8")
        x = prog.sram("x", (1,))
        y = prog.sram("y", (1,))

        @prog.main
        def body():
            y.write(dsl(x[0]), 0)

        ex = prog.run(policy=PrecisionPolicy(ew=FP8), data={"x": [1.0]})
        assert ex.state["y"][0] == quantize(exact, FP8)
        assert ex.state["y"][0] != exact

    def test_only_the_first_tree_level_rounds_at_stage1(self):
        # Pairs (x0+x2, x1+x3) = (1 + 2^-10, 2^-11) are exact in fp16; their
        # sum 1 + 3*2^-11 is not, and ties to 1 + 2^-9 when rounded in fp16.
        prog = Program("tree")
        x = prog.sram("x", (4,))
        out = prog.sram("out", (1,))

        @prog.main
        def body():
            out.write(Reduce(Range(4), lambda i: x[i] * 1.0), 0)

        data = {"x": np.array([1.0, 2.0**-12, 2.0**-10, 2.0**-12])}

        def run(policy):
            return prog.run(policy=policy, data=data).state["out"][0]

        assert run(PrecisionPolicy(reduce_stage1=FP16, accum=FP32)) == 1 + 3 * 2.0**-11
        assert run(PrecisionPolicy(reduce_stage1=FP16, accum=FP16)) == 1 + 2.0**-9


def _mixed_dot_program(n: int) -> Program:
    """``sum_i w[i] * x[i]`` with both operands stored in fp8."""
    prog = Program("dot8")
    w = prog.sram("w", (n,), dtype=FP8)
    x = prog.sram("x", (n,), dtype=FP8)
    out = prog.sram("out", (1,))

    @prog.main
    def body():
        out.write(Reduce(Range(n, par=16), lambda i: w[i] * x[i]), 0)

    return prog


class TestMixedPrecisionDot:
    """The PCU's f8+16+32 dot product: fp8 operands, fp16 products and first
    reduction stage, fp32 for the rest of the tree."""

    def test_exact_for_exact_inputs(self):
        w = np.array([1.0, 2.0, -1.5, 0.5] * 4)
        x = np.array([1.0, 0.5, 2.0, -1.0] * 4)
        ex = _mixed_dot_program(16).run(
            policy=PrecisionPolicy.plasticine_mixed(), data={"w": w, "x": x}
        )
        assert ex.state["out"][0] == float(w @ x)

    @given(n=st.integers(min_value=1, max_value=70), seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_error_bounded(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(-1, 1, size=n)
        x = rng.uniform(-1, 1, size=n)
        ex = _mixed_dot_program(n).run(
            policy=PrecisionPolicy.plasticine_mixed(), data={"w": w, "x": x}
        )
        # fp8 operands carry up to eps/2 = 1/16 relative error each; a
        # value below fp8's smallest subnormal flushes to zero, losing up to
        # min_subnormal/2 scaled by the other factor (|w|, |x| <= 1 here).
        relative = 0.20 * float(np.abs(w * x).sum())
        underflow = 0.5 * FP8.min_subnormal * float((np.abs(w) + np.abs(x)).sum())
        assert abs(ex.state["out"][0] - float(w @ x)) <= relative + underflow + 1e-6
