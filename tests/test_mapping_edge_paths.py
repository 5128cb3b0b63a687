"""Edge-path coverage for the mapper: placer overflow, the numpy placer
against its list-sorting reference, structure rejection messages, and
centroid rounding determinism."""

import random

import numpy as np
import pytest
from monolith_mapper import _map_rnn_monolith

from repro.dse.search import build_task_program
from repro.errors import MappingError
from repro.mapping.mapper import (
    _centroid,
    _find_structure,
    _overflow_note,
    _Placer,
    map_rnn_program,
)
from repro.plasticine.chip import PlasticineConfig
from repro.plasticine.network import GridLayout
from repro.plasticine.pcu import PCUConfig
from repro.plasticine.pmu import PMUConfig
from repro.rnn.lstm_loop import LoopParams
from repro.spatial import Foreach, Program, Range, Reduce, Sequential
from repro.workloads.deepbench import RNNTask


def tiny_chip(rows=6, cols=6) -> PlasticineConfig:
    return PlasticineConfig(
        name="plasticine-tiny",
        layout=GridLayout.rnn_variant(rows, cols),
        pcu=PCUConfig(lanes=16, stages=4, fused_low_precision=True,
                      folded_reduction=True),
        pmu=PMUConfig(capacity_bytes=84 * 1024, banks=16),
        reserved_pcus=1,
    )


class TestPlacerOverflow:
    def test_take_beyond_pool_synthesizes_edge_coords(self):
        chip = tiny_chip()
        placer = _Placer(chip)
        n_pcus = len(placer.free_pcus)
        taken = placer.take_pcus(n_pcus + 3, (0, 0))
        assert len(taken) == n_pcus + 3
        assert placer.overflow_pcus == 3
        assert taken[n_pcus:] == [placer.edge_coord] * 3
        assert placer.free_pcus == []

    def test_overflow_accumulates_across_takes(self):
        placer = _Placer(tiny_chip())
        placer.take_pmus(len(placer.free_pmus), (0, 0))
        placer.take_pmus(2, (0, 0))
        placer.take_pmus(1, (0, 0))
        assert placer.overflow_pmus == 3
        assert placer.overflow_pcus == 0

    def test_no_overflow_within_capacity(self):
        placer = _Placer(tiny_chip())
        placer.take_pcus(2, (0, 0))
        placer.take_pmus(2, (0, 0))
        assert (placer.overflow_pcus, placer.overflow_pmus) == (0, 0)
        assert _overflow_note(placer) is None

    def test_release_filters_synthesized_edge_coords(self):
        placer = _Placer(tiny_chip())
        n = len(placer.free_pcus)
        taken = placer.take_pcus(n + 2, (0, 0))
        placer.release_pcus(taken)
        assert len(placer.free_pcus) == n
        assert placer.edge_coord not in placer.free_pcus

    def test_overflow_is_flagged_in_the_resource_report(self):
        # A real design far too big for the tiny chip must still map,
        # with the overflow loudly noted — not silently placed.
        prog = build_task_program(
            RNNTask("lstm", 512, 2), LoopParams(hu=4, ru=4, rv=64)
        )
        design = map_rnn_program(prog, tiny_chip())
        notes = [n for n in design.resources.notes if "placement overflow" in n]
        assert len(notes) == 1
        assert "PCU" in notes[0] and "PMU" in notes[0]
        assert not design.resources.fits_compute
        # Parity: the monolith reports the identical note.
        legacy = _map_rnn_monolith(prog, tiny_chip())
        assert legacy.resources.notes == design.resources.notes

    def test_fit_on_big_chip_has_no_overflow_note(self):
        prog = build_task_program(
            RNNTask("lstm", 512, 2), LoopParams(hu=4, ru=4, rv=64)
        )
        design = map_rnn_program(prog)
        assert not any("placement overflow" in n for n in design.resources.notes)


def _reference_take(pool: list, k: int, near) -> list:
    """The list-sorting take the numpy pools replaced, kept as the
    reference: a stable sort of the whole pool by distance from ``near``."""
    pool[:] = sorted(pool, key=lambda p: GridLayout.manhattan(near, p))
    taken = pool[:k]
    del pool[:k]
    return taken


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "layout",
    [GridLayout.checkerboard(5, 7), GridLayout.rnn_variant(6, 9)],
    ids=["checkerboard-5x7", "rnn_variant-6x9"],
)
def test_placer_matches_the_list_sort(layout, seed):
    """Random takes (k from 0 to past the pool), releases and a
    fuse_gates-style snapshot and restore: after every step the units
    handed out, the remaining pool order and the overflow counts equal
    the list-sorting reference's."""
    rng = random.Random(seed)
    placer = _Placer(
        PlasticineConfig(name="grid", layout=layout, pcu=PCUConfig(),
                         pmu=PMUConfig(), reserved_pcus=0)
    )
    edge = placer.edge_coord
    ref = {"pcu": list(layout.pcus), "pmu": list(layout.pmus)}
    overflow = {"pcu": 0, "pmu": 0}
    held: list = []  # PCUs handed out and not yet released
    snapshot = None
    for _ in range(150):
        op = rng.choice(["take_pcus", "take_pmus", "take_pcus", "take_pmus",
                         "release", "snapshot", "restore"])
        if op.startswith("take"):
            kind = op[5:8]
            k = rng.choice([0, 1, 2, rng.randint(0, len(ref[kind]) + 3)])
            near = (rng.randint(-1, layout.rows), rng.randint(-1, layout.cols))
            taken = getattr(placer, op)(k, near)
            expect = _reference_take(ref[kind], k, near)
            overflow[kind] += k - len(expect)
            expect += [edge] * (k - len(expect))
            assert taken == expect
            assert all(type(x) is int for unit in taken for x in unit)
            if kind == "pcu":
                held += taken
        elif op == "release":
            rng.shuffle(held)
            n = rng.randint(0, len(held))
            released, held = held[:n], held[n:]
            placer.release_pcus(released)
            ref["pcu"] += [u for u in released if u != edge]
        elif op == "snapshot":
            snapshot = (list(placer.free_pcus), placer.overflow_pcus,
                        list(ref["pcu"]), overflow["pcu"], list(held))
        elif snapshot is not None:
            pool, placer.overflow_pcus, ref["pcu"], overflow["pcu"], held = snapshot
            placer.free_pcus = pool
            ref["pcu"], held = list(ref["pcu"]), list(held)
        assert placer.free_pcus == ref["pcu"]
        assert placer.free_pmus == ref["pmu"]
        assert (placer.overflow_pcus, placer.overflow_pmus) == (
            overflow["pcu"], overflow["pmu"]
        )


def _structure_error(prog) -> str:
    with pytest.raises(MappingError) as err:
        _find_structure(prog.trace())
    # The pipeline front end must surface the same message.
    with pytest.raises(MappingError) as err2:
        map_rnn_program(prog)
    assert str(err2.value) == str(err.value)
    return str(err.value)


class TestStructureRejections:
    def test_zero_sequential_loops(self):
        prog = Program("no_seq")
        mem = prog.sram("state", (8,))

        @prog.main
        def main():
            Foreach(Range(8), lambda i: mem.write(0.0, i), label="only")

        msg = _structure_error(prog)
        assert "expected exactly one Sequential time-step loop, found 0" == msg

    def test_two_sequential_loops(self):
        prog = Program("two_seq")
        mem = prog.sram("state", (8,))

        @prog.main
        def main():
            Sequential.Foreach(Range(2), lambda t: mem.write(0.0, t), label="a")
            Sequential.Foreach(Range(2), lambda t: mem.write(0.0, t), label="b")

        msg = _structure_error(prog)
        assert "expected exactly one Sequential time-step loop, found 2" == msg

    def test_reduce_less_cell(self):
        # A Sequential step whose inner Foreach has no Reduce children:
        # nothing qualifies as the cell loop.
        prog = Program("no_reduce")
        mem = prog.sram("state", (8,))

        @prog.main
        def main():
            def step(t):
                Foreach(Range(8, par=2), lambda i: mem.write(0.0, i), label="cell")

            Sequential.Foreach(Range(2), step, label="steps")

        msg = _structure_error(prog)
        assert (
            "expected exactly one cell Foreach containing Reduce loops, found 0"
            == msg
        )

    def test_two_reduce_bearing_foreach_loops(self):
        prog = Program("two_cells")
        mem = prog.sram("state", (8,))

        @prog.main
        def main():
            def cell(label):
                def body(i):
                    mem.write(
                        Reduce(Range(4, par=2), lambda r: mem[r] * 1.0, label="dot"),
                        i,
                    )

                Foreach(Range(8, par=2), body, label=label)

            def step(t):
                cell("cell_a")
                cell("cell_b")

            Sequential.Foreach(Range(2), step, label="steps")

        msg = _structure_error(prog)
        assert (
            "expected exactly one cell Foreach containing Reduce loops, found 2"
            == msg
        )


class TestCentroidRounding:
    def test_banker_rounding_ties(self):
        # Python's round() is banker's rounding: .5 goes to the even
        # neighbour.  The placement must inherit that, deterministically.
        assert _centroid([(0, 0), (1, 1)]) == (0, 0)  # 0.5 -> 0
        assert _centroid([(1, 1), (2, 2)]) == (2, 2)  # 1.5 -> 2
        assert _centroid([(2, 2), (3, 3)]) == (2, 2)  # 2.5 -> 2 (even!)
        assert _centroid([(3, 3), (4, 4)]) == (4, 4)  # 3.5 -> 4

    def test_mixed_axis_ties(self):
        assert _centroid([(0, 2), (1, 3)]) == (0, 2)  # (0.5, 2.5)
        assert _centroid([(1, 0), (2, 5)]) == (2, 2)  # (1.5, 2.5)

    def test_exact_means_no_rounding(self):
        assert _centroid([(2, 4)]) == (2, 4)
        assert _centroid([(0, 0), (2, 2), (4, 4)]) == (2, 2)

    def test_determinism_across_calls_and_order(self):
        coords = [(0, 1), (3, 2), (5, 9), (2, 2)]
        first = _centroid(coords)
        assert all(_centroid(coords) == first for _ in range(50))
        # The centroid is a sum — permutation-invariant by construction.
        assert _centroid(list(reversed(coords))) == first

    def test_returns_plain_ints(self):
        r, c = _centroid([(np.int64(1), np.int64(2))])
        assert isinstance(r, int) and isinstance(c, int)
