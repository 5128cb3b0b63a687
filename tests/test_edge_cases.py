"""Edge-case battery across the DSL, precision, and serving layers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DSLError
from repro.precision import FP8, FP16, quantize
from repro.spatial import Foreach, PrecisionPolicy, Program, Range, Reduce, Sequential


class TestQuantizeMonotonicity:
    @given(
        a=st.floats(min_value=-240, max_value=240, allow_nan=False),
        b=st.floats(min_value=-240, max_value=240, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_quantize_is_monotone(self, a, b):
        # Rounding to a grid preserves order (weak monotonicity) — the
        # property that makes quantized comparisons safe.
        if a <= b:
            assert quantize(a, FP8) <= quantize(b, FP8)
        else:
            assert quantize(a, FP8) >= quantize(b, FP8)

    @given(st.floats(min_value=0, max_value=240, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_quantize_bounded_by_neighbors(self, x):
        # The rounded value never strays past the next representable
        # magnitude in either direction.
        q = float(quantize(x, FP8))
        from repro.precision import ulp

        assert abs(q - x) <= float(ulp(max(x, FP8.min_subnormal), FP8))


class TestDSLNesting:
    def test_foreach_inside_sequential_inside_foreach_rejected_semantics(self):
        # A Sequential loop nested inside a vectorized Foreach would need
        # scalarization; the executor surfaces a clear error rather than
        # silently mis-executing.
        prog = Program("nest")
        y = prog.sram("y", (4,))

        @prog.main
        def body():
            def outer(i):
                Sequential.Foreach(Range(2), lambda t: y.write(i * 1.0, i))

            Foreach(Range(4), outer)

        # The sequential body receives a vectorized index: writing y at a
        # vector index from within the scalar loop is still well-defined
        # under commit-at-boundary semantics.
        ex = prog.run()
        np.testing.assert_array_equal(ex.state["y"], [0.0, 1.0, 2.0, 3.0])

    def test_reduce_of_reduce_of_reduce(self):
        prog = Program("deep")
        x = prog.sram("x", (8,))
        out = prog.sram("out", (1,))

        @prog.main
        def body():
            def level2(i):
                def level3(j):
                    return Reduce(Range(2), lambda k: x[i + j + k] * 1.0)

                return Reduce(Range(2), level3)

            out.write(Reduce(Range(4), level2), 0)

        ex = prog.run(data={"x": np.arange(8.0)})
        # sum over i in {0..3}, j in {0,1}, k in {0,1} of x[i+j+k]
        expected = sum(float(a + b + c) for a in range(4) for b in range(2) for c in range(2))
        assert ex.state["out"][0] == expected

    def test_value_escaping_loop_scope_rejected(self):
        prog = Program("escape")
        x = prog.sram("x", (4,))
        leaked = []

        @prog.main
        def body():
            Foreach(Range(4), lambda i: leaked.append(x[i]))
            # Using the leaked loop-varying value outside its loop must
            # fail loudly.
            x.write(leaked[0] * 2.0, 0)

        from repro.errors import InterpreterError

        with pytest.raises(InterpreterError):
            prog.run()

    def test_zero_like_range_rejected_early(self):
        with pytest.raises(DSLError):
            Range(0, 1, 1)

    def test_program_runs_are_independent(self):
        prog = Program("indep")
        x = prog.sram("x", (2,))
        y = prog.sram("y", (2,))

        @prog.main
        def body():
            Foreach(Range(2), lambda i: y.write(x[i] + 1.0, i))

        a = prog.run(data={"x": np.array([1.0, 2.0])})
        b = prog.run(data={"x": np.array([10.0, 20.0])})
        np.testing.assert_array_equal(a.state["y"], [2.0, 3.0])
        np.testing.assert_array_equal(b.state["y"], [11.0, 21.0])

    def test_policy_none_equals_exact(self):
        prog = Program("pol")
        x = prog.sram("x", (3,))
        y = prog.sram("y", (3,))

        @prog.main
        def body():
            Foreach(Range(3), lambda i: y.write(x[i] * 1.0000001, i))

        data = {"x": np.array([1.0, 2.0, 3.0])}
        none_policy = prog.run(data=data).state["y"]
        exact_policy = prog.run(policy=PrecisionPolicy.exact(), data=data).state["y"]
        np.testing.assert_array_equal(none_policy, exact_policy)


class TestLargestTask:
    """GRU 2816: the point where Brainwave overtakes Plasticine."""

    def test_gru2816_serves(self):
        from repro.serving import ServingEngine
        from repro.workloads.deepbench import task

        t = task("gru", 2816)
        plast = ServingEngine("plasticine").serve(t).result
        bw = ServingEngine("brainwave").serve(t).result
        assert plast.latency_ms > bw.latency_ms
        assert 1.3 < plast.latency_s / bw.latency_s < 2.7  # "up to 2x"

    def test_gru2816_overflows_plasticine_capacity(self):
        # 47.6M weights: > 31.5 MB at fp8, so the chip does not truly hold it.
        from repro.serving import ServingEngine
        from repro.workloads.deepbench import task

        res = ServingEngine("plasticine").serve(task("gru", 2816)).result
        assert not res.design.resources.fits_capacity

    def test_gru2816_step_latency_sane(self):
        from repro.serving import ServingEngine
        from repro.workloads.deepbench import task

        res = ServingEngine("plasticine").serve(task("gru", 2816)).result
        per_step_us = res.latency_s / 750 * 1e6
        assert 5.0 < per_step_us < 9.0  # ~7k cycles/step at 1 GHz


class TestPrecisionPolicyLadder:
    def test_reduction_error_shrinks_with_precision_on_average(self):
        # fp16-stage1 + wide accumulate beats fp16-everywhere reduction
        # *on average* (pointwise, rounding can coincidentally cancel).
        n = 64
        prog = Program("dot_ladder")
        ws = prog.sram("w", (n,))
        xs = prog.sram("x", (n,))
        out = prog.sram("out", (1,))

        @prog.main
        def body():
            out.write(Reduce(Range(n), lambda i: ws[i] * xs[i]), 0)

        err_mixed, err_all16 = [], []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            data = {"w": rng.uniform(-1, 1, n), "x": rng.uniform(-1, 1, n)}
            exact = prog.run(data=data).state["out"][0]
            mixed = prog.run(
                policy=PrecisionPolicy(reduce_stage1=FP16, accum=None), data=data
            ).state["out"][0]
            all16 = prog.run(
                policy=PrecisionPolicy(reduce_stage1=FP16, accum=FP16), data=data
            ).state["out"][0]
            err_mixed.append(abs(mixed - exact))
            err_all16.append(abs(all16 - exact))
        assert np.mean(err_mixed) < np.mean(err_all16)
