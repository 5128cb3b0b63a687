"""Differential golden parity: pass pipeline vs the legacy monolith.

The default pass pipeline must reproduce `_map_rnn_monolith`
bit-identically — same stage coords, IIs, latencies, routed edge costs
and the full ResourceReport — across LSTM/GRU, hidden sizes, precisions
and chip variants (including a deliberately tiny chip that exercises
the placement-overflow path on both sides).

Designs are compared through `design_fingerprint` (never `==`: the
recognized gates hold the traced loop tree whose parent/child links make
naive dataclass equality recurse).
"""

import dataclasses
import hashlib
import itertools
import json

import pytest
from monolith_mapper import _map_rnn_monolith

from repro.dse.search import build_task_program
from repro.dse.tuner import tune
from repro.mapping.mapper import map_rnn_program
from repro.mapping.passes import (
    DEFAULT_PIPELINE,
    PassConfig,
    PassManager,
    design_fingerprint,
    diff_designs,
)
from repro.plasticine.chip import PlasticineConfig
from repro.plasticine.network import GridLayout
from repro.plasticine.pcu import PCUConfig
from repro.plasticine.pmu import PMUConfig
from repro.plasticine.simulator import simulate_pipeline
from repro.rnn.lstm_loop import LoopParams
from repro.workloads.deepbench import RNNTask, task


def mini_chip() -> PlasticineConfig:
    """A 12x12 variant-grid chip small enough that real designs overflow
    it — parity must hold through the overflow path too."""
    return PlasticineConfig(
        name="plasticine-mini",
        layout=GridLayout.rnn_variant(12, 12),
        pcu=PCUConfig(lanes=16, stages=4, fused_low_precision=True,
                      folded_reduction=True),
        pmu=PMUConfig(capacity_bytes=84 * 1024, banks=16),
    )


CHIPS = {"table3": PlasticineConfig.rnn_serving, "mini": mini_chip}

MATRIX = list(
    itertools.product(
        ["lstm", "gru"],
        [128, 512, 1152],
        [8, 16, 32],
        sorted(CHIPS),
    )
)


def _program(kind: str, hidden: int):
    return build_task_program(
        RNNTask(kind, hidden, 4), LoopParams(hu=4, ru=4, rv=64)
    )


@pytest.mark.parametrize(
    "kind,hidden,bits,chip_name",
    MATRIX,
    ids=[f"{k}-{h}-{b}b-{c}" for k, h, b, c in MATRIX],
)
class TestGoldenParity:
    def test_bit_identical(self, kind, hidden, bits, chip_name):
        prog = _program(kind, hidden)
        chip = CHIPS[chip_name]()
        legacy = _map_rnn_monolith(prog, chip, bits=bits)
        piped = map_rnn_program(prog, chip, bits=bits)
        assert diff_designs(legacy, piped) == []

    def test_stage_by_stage(self, kind, hidden, bits, chip_name):
        prog = _program(kind, hidden)
        chip = CHIPS[chip_name]()
        legacy = _map_rnn_monolith(prog, chip, bits=bits)
        piped = map_rnn_program(prog, chip, bits=bits)
        assert list(legacy.graph.stages) == list(piped.graph.stages)
        for name, a in legacy.graph.stages.items():
            b = piped.graph.stages[name]
            assert (a.coord, a.ii, a.latency, a.n_pcus, a.n_pmus) == (
                b.coord,
                b.ii,
                b.latency,
                b.n_pcus,
                b.n_pmus,
            ), name
        assert legacy.graph.edges == piped.graph.edges
        assert legacy.resources == piped.resources


class TestParityDetails:
    def test_simulated_cycles_match(self):
        prog = _program("lstm", 512)
        legacy = _map_rnn_monolith(prog)
        piped = map_rnn_program(prog)
        assert (
            simulate_pipeline(legacy.graph).total_cycles
            == simulate_pipeline(piped.graph).total_cycles
        )

    def test_overflow_note_parity_on_mini_chip(self):
        # hu=4, ru=4 LSTM wants far more than the mini chip's 48 PCUs;
        # both paths must flag the identical overflow note.
        prog = _program("lstm", 1152)
        chip = mini_chip()
        legacy = _map_rnn_monolith(prog, chip)
        piped = map_rnn_program(prog, chip)
        assert any("placement overflow" in n for n in legacy.resources.notes)
        assert legacy.resources.notes == piped.resources.notes

    def test_pipeline_records_pass_metadata(self):
        design = map_rnn_program(_program("lstm", 128))
        assert design.passes_applied == DEFAULT_PIPELINE
        # report_resources is still running when the design is frozen,
        # so its own timing is not recorded.
        assert [t.name for t in design.pass_timings] == list(DEFAULT_PIPELINE[:-1])
        assert all(t.seconds >= 0 for t in design.pass_timings)

    def test_monolith_has_no_pass_metadata(self):
        design = _map_rnn_monolith(_program("lstm", 128))
        assert design.passes_applied == ()

    def test_explicit_pass_list_matches_default(self):
        prog = _program("gru", 512)
        by_default = map_rnn_program(prog)
        by_list = PassManager(list(DEFAULT_PIPELINE)).run_program(prog).design
        assert diff_designs(by_default, by_list) == []

    def test_fingerprint_is_json_compatible(self):
        import json

        fp = design_fingerprint(map_rnn_program(_program("gru", 128)))
        assert json.loads(json.dumps(fp)) == fp

    def test_diff_reports_differences(self):
        a = map_rnn_program(_program("lstm", 128))
        b = map_rnn_program(_program("lstm", 128), pass_config=PassConfig(double_buffer=True))
        diffs = diff_designs(a, b)
        assert diffs
        assert any("step_overhead" in d for d in diffs)


class TestOptimizationDirections:
    """fuse_gates / double_buffer must move the measured metrics the way
    their contracts promise (and still pass the IR verifier, which runs
    after every pass by default)."""

    def test_fuse_gates_saves_pcus_never_cycles(self):
        prog = _program("lstm", 512)
        base = map_rnn_program(prog)
        fused = map_rnn_program(prog, pass_config=PassConfig(fuse_gates=True))
        assert fused.resources.pcus_used < base.resources.pcus_used
        assert (
            simulate_pipeline(fused.graph).total_cycles
            <= simulate_pipeline(base.graph).total_cycles
        )
        assert "fuse_gates" in fused.passes_applied
        assert any("fuse_gates" in n for n in fused.resources.notes)
        assert "accum_fused" in fused.graph.stages

    def test_double_buffer_cuts_cycles_costs_pmus(self):
        prog = _program("lstm", 1152)
        base = map_rnn_program(prog)
        dbl = map_rnn_program(prog, pass_config=PassConfig(double_buffer=True))
        assert (
            simulate_pipeline(dbl.graph).total_cycles
            < simulate_pipeline(base.graph).total_cycles
        )
        assert dbl.resources.pmus_used > base.resources.pmus_used
        assert dbl.graph.step_overhead < base.graph.step_overhead
        assert any("double_buffer" in n for n in dbl.resources.notes)

    @pytest.mark.parametrize("kind,hidden", [("lstm", 512), ("gru", 512)])
    def test_combined_config_stacks_both_effects(self, kind, hidden):
        prog = _program(kind, hidden)
        base = map_rnn_program(prog)
        both = map_rnn_program(
            prog, pass_config=PassConfig(fuse_gates=True, double_buffer=True)
        )
        assert (
            simulate_pipeline(both.graph).total_cycles
            < simulate_pipeline(base.graph).total_cycles
        )
        assert both.resources.pcus_used <= base.resources.pcus_used
        assert both.passes_applied == (
            DEFAULT_PIPELINE[:-1]
            + ("fuse_gates", "double_buffer")
            + DEFAULT_PIPELINE[-1:]
        )


def checkerboard_chip() -> PlasticineConfig:
    """The Table 3 PCU and PMU configs on the ISCA'17 checkerboard grid
    (16x8, 1:1): another tie structure for the placer, and small enough
    that most of the pinned designs overflow it.  The ISCA'17 preset
    itself rejects most of these programs (its 6-stage PCU)."""
    return dataclasses.replace(
        PlasticineConfig.rnn_serving(),
        name="plasticine-checkerboard",
        layout=GridLayout.checkerboard(16, 8),
    )


PIN_CHIPS = (PlasticineConfig.rnn_serving, checkerboard_chip)
PIN_PROGRAMS = list(
    itertools.product(
        ["lstm", "gru"],
        [256, 1024, 2816],
        [(1, 1), (2, 2), (4, 8), (11, 4), (16, 16)],
    )
)
PIN_CONFIGS = (
    PassConfig(),
    PassConfig(fuse_gates=True),
    PassConfig(double_buffer=True),
    PassConfig(fuse_gates=True, double_buffer=True),
)
#: The two small DeepBench tasks whose every tune() point is pinned
#: (the exhaustive sweep, `prune=False`, so every point is simulated).
PIN_TUNE_TASKS = (("lstm", 256), ("gru", 512))

#: SHA-256 over `design_fingerprint` of every pinned design, and over
#: every tune() point, taken before the placer sorted its pools in
#: numpy.  The parity tests above cannot catch a placer change: the
#: monolith and the pipeline share `_Placer`, so both would move
#: together.  Any change to a stage coord, II, latency, routed edge,
#: resource count or note of any design changes the digest.
DESIGN_PIN = "32c7d928eed30ad7a1a9bc357cf737c2bb72785ee894fcf62eacb5e868b92145"
TUNE_PIN = "5c05625cde1f61fa0c55ce8c814634f7c06496d0b14e8f7695bdd6131bbe88e3"


def _fold_design(h, design) -> None:
    h.update(json.dumps(design_fingerprint(design), sort_keys=True).encode())
    h.update(b"\n")


class TestDesignPins:
    def test_design_matrix_digest(self):
        h = hashlib.sha256()
        overflowed = backed_out = 0
        for kind, hidden, (hu, ru) in PIN_PROGRAMS:
            prog = build_task_program(
                RNNTask(kind, hidden, 4), LoopParams(hu=hu, ru=ru, rv=64)
            )
            for make_chip in PIN_CHIPS:
                chip = make_chip()
                designs = [_map_rnn_monolith(prog, chip)] + [
                    map_rnn_program(prog, chip, pass_config=config)
                    for config in PIN_CONFIGS
                ]
                for design in designs:
                    _fold_design(h, design)
                    notes = design.resources.notes
                    overflowed += any("placement overflow" in n for n in notes)
                    # fuse_gates ran but merged nothing: it backed out.
                    backed_out += "fuse_gates" in design.passes_applied and not any(
                        n.startswith("fuse_gates:") for n in notes
                    )
        # The pin must keep covering the overflow and back-out paths.
        assert overflowed >= 1
        assert backed_out >= 1
        assert h.hexdigest() == DESIGN_PIN

    def test_tune_points_digest(self):
        h = hashlib.sha256()
        for kind, hidden in PIN_TUNE_TASKS:
            for p in tune(task(kind, hidden), prune=False).points:
                record = [
                    p.params.hu, p.params.ru, p.params.rv,
                    p.pass_config.fuse_gates, p.pass_config.double_buffer,
                    p.cycles_per_step, p.total_cycles, p.fits,
                    p.pcus_used, p.pmus_used,
                ]
                h.update(json.dumps(record).encode())
                h.update(b"\n")
        assert h.hexdigest() == TUNE_PIN
