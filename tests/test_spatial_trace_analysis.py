"""Tests for the tracer, the executor's traffic counts, and the pretty printer."""

import numpy as np
import pytest

from repro.spatial import (
    Foreach,
    LoopKind,
    OpKind,
    Program,
    Range,
    Reduce,
    Sequential,
    format_program,
)


def _mvm_program(h: int, r: int, hu: int = 2, rv: int = 4, ru: int = 2) -> Program:
    prog = Program("mvm")
    w = prog.sram("w", (h, r))
    x = prog.sram("x", (r,))
    y = prog.sram("y", (h,))

    @prog.main
    def body():
        def row(ih):
            def outer(iu):
                return Reduce(
                    Range(rv, par=rv),
                    lambda iv: w[ih, iu + iv] * x[iu + iv],
                    label="inner_dot",
                )

            y.write(Reduce(Range(r, step=rv, par=ru), outer, label="outer_dot"), ih)

        Foreach(Range(h, par=hu), row, label="h_loop")

    return prog


class TestTracer:
    def test_loop_tree_structure(self):
        root = _mvm_program(8, 16).trace()
        assert len(root.children) == 1
        h_loop = root.children[0]
        assert h_loop.kind is LoopKind.FOREACH
        assert h_loop.extent == 8
        assert h_loop.par == 2
        outer = h_loop.children[0]
        assert outer.kind is LoopKind.REDUCE
        assert outer.step == 4
        inner = outer.children[0]
        assert inner.par == 4
        assert [rec.depth for rec in root.walk()] == [0, 1, 2, 3]

    def test_labels_and_find(self):
        root = _mvm_program(8, 16).trace()
        assert root.find("h_loop") is not None
        assert root.find("inner_dot").extent == 4
        assert root.find("missing") is None

    def test_ops_recorded_in_innermost_loop(self):
        root = _mvm_program(8, 16).trace()
        inner = root.find("inner_dot")
        assert inner.op_count(OpKind.MUL) == 1
        # index arithmetic iu + iv also records an ADD
        assert inner.op_count(OpKind.ADD) == 2

    def test_memory_accesses_tagged_with_counters(self):
        root = _mvm_program(8, 16).trace()
        inner = root.find("inner_dot")
        w_reads = [a for a in inner.accesses if a.mem_name == "w"]
        assert len(w_reads) == 1
        # w is indexed by the h counter and both reduce counters.
        assert len(w_reads[0].counters) == 3

    def test_write_recorded_on_enclosing_loop(self):
        root = _mvm_program(8, 16).trace()
        h_loop = root.find("h_loop")
        writes = [a for a in h_loop.accesses if a.is_write]
        assert [a.mem_name for a in writes] == ["y"]

    def test_trace_is_cached(self):
        prog = _mvm_program(8, 16)
        assert prog.trace() is prog.trace()

    def test_sequential_kind(self):
        prog = Program("seq")
        y = prog.sram("y", (4,))

        @prog.main
        def body():
            Sequential.Foreach(Range(3), lambda t: y.write(0.0, t))

        root = prog.trace()
        assert root.children[0].kind is LoopKind.SEQUENTIAL

    def test_reg_accesses_are_not_memory_traffic(self):
        # A Reg is a scalar register, not a scratchpad: the trace records
        # its arithmetic but no memory access for its reads or writes.
        prog = Program("reg")
        acc = prog.reg("acc")
        out = prog.sram("out", (1,))

        @prog.main
        def body():
            acc.write(acc.read() + 1.0)
            out.write(acc.read(), 0)

        root = prog.trace()
        assert [(a.mem_name, a.is_write) for a in root.accesses] == [("out", True)]
        assert root.op_count(OpKind.ADD) == 1

    def test_iterations_and_issue_count(self):
        root = _mvm_program(10, 16, hu=4).trace()
        h_loop = root.find("h_loop")
        assert h_loop.iterations == 10
        assert h_loop.issue_count == 3  # ceil(10/4)


class TestExecutorTraffic:
    def test_nested_reduce_traffic(self):
        # Every (row, column) pair reads one weight and one x element; each
        # row writes y once.
        h, r = 6, 8
        prog = _mvm_program(h, r)
        ex = prog.run(data={"w": np.zeros((h, r)), "x": np.zeros(r)})
        assert ex.read_elems["w"] == h * r
        assert ex.read_elems["x"] == h * r
        assert ex.write_elems["y"] == h


class TestPretty:
    def test_format_contains_structure(self):
        text = format_program(_mvm_program(8, 16))
        assert "Foreach(8 par 2)" in text
        assert "Reduce(16 by 4 par 2)" in text
        assert "SRAM" in text
        assert "h_loop" in text

    def test_format_lists_memories(self):
        prog = Program("mems")
        prog.sram("weights", (4, 4))
        prog.lut("tanh", np.tanh)
        prog.reg("acc")

        @prog.main
        def body():
            pass

        text = format_program(prog)
        assert "weights" in text
        assert "tanh" in text
        assert "acc" in text
