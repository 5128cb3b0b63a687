"""Seeded property tests for the mapping IR and its verifier.

Random pass orderings over random well-formed programs: every *legal*
ordering (a topological order of the passes' `requires` DAG) completes
with the IR verifier green after every pass and produces the identical
design; every *illegal* ordering raises MappingError up front and never
corrupts the state — the surviving state still verifies and can be
finished by a legal continuation to the same design.
"""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.search import build_task_program
from repro.errors import MappingError
from repro.mapping.passes import (
    DEFAULT_PIPELINE,
    MappingPass,
    MappingState,
    PassManager,
    available_passes,
    design_fingerprint,
    get_pass,
    register_pass,
    unregister_pass,
    verify_state,
)
from repro.plasticine.chip import PlasticineConfig
from repro.plasticine.network import GridLayout
from repro.rnn.lstm_loop import LoopParams
from repro.workloads.deepbench import RNNTask


def _random_program(rng: random.Random):
    kind = rng.choice(["lstm", "gru"])
    hidden = rng.choice([64, 128, 192, 256, 384])
    timesteps = rng.randint(1, 6)
    params = LoopParams(
        hu=rng.choice([1, 2, 3, 4]),
        ru=rng.choice([1, 2, 4]),
        rv=rng.choice([16, 64]),
    )
    return build_task_program(RNNTask(kind, hidden, timesteps), params)


def _fresh_state(prog) -> MappingState:
    return MappingState(
        prog=prog,
        chip=PlasticineConfig.rnn_serving(),
        bits=8,
    )


def _is_legal(order) -> bool:
    done = set()
    for name in order:
        if any(r not in done for r in get_pass(name)().requires):
            return False
        done.add(name)
    return True


def _all_legal_orders(names=DEFAULT_PIPELINE):
    return [p for p in itertools.permutations(names) if _is_legal(p)]


class TestPassOrderings:
    def test_every_legal_order_yields_the_identical_design(self):
        # The default passes commute wherever the requires DAG allows:
        # fold_luts may run in any position after plan_gates.
        prog = build_task_program(RNNTask("lstm", 128, 2), LoopParams(hu=2, ru=2, rv=64))
        orders = _all_legal_orders()
        assert len(orders) > 1  # fold_luts really is mobile
        fingerprints = [
            design_fingerprint(
                PassManager(list(order)).run(_fresh_state(prog)).design
            )
            for order in orders
        ]
        assert all(fp == fingerprints[0] for fp in fingerprints[1:])

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_order_completes_or_raises_cleanly(self, seed):
        rng = random.Random(seed)
        prog = _random_program(rng)
        order = list(DEFAULT_PIPELINE)
        rng.shuffle(order)
        state = _fresh_state(prog)
        if _is_legal(order):
            PassManager(order).run(state)
            assert state.design is not None
            verify_state(state)
        else:
            with pytest.raises(MappingError):
                PassManager(order).run(state)
            # Never corrupt state: whatever did complete still verifies,
            # and the failed pass left no trace in the completed list.
            verify_state(state)
            assert _is_legal(state.completed)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_illegal_order_state_is_resumable(self, seed):
        rng = random.Random(seed)
        prog = _random_program(rng)
        order = list(DEFAULT_PIPELINE)
        while True:
            rng.shuffle(order)
            if not _is_legal(order):
                break
        state = _fresh_state(prog)
        with pytest.raises(MappingError):
            PassManager(order).run(state)
        # Finish with any legal continuation of the remaining passes:
        remaining = [n for n in DEFAULT_PIPELINE if n not in state.completed]
        PassManager(remaining).run(state)
        reference = PassManager(list(DEFAULT_PIPELINE)).run(_fresh_state(prog))
        assert design_fingerprint(state.design) == design_fingerprint(
            reference.design
        )

    def test_route_before_place_raises(self):
        prog = _random_program(random.Random(0))
        state = _fresh_state(prog)
        with pytest.raises(MappingError, match="requires place_units"):
            PassManager(["recognize_rnn", "plan_gates", "route_edges"]).run(state)
        assert state.completed == ["recognize_rnn", "plan_gates"]

    def test_same_pass_twice_raises(self):
        prog = _random_program(random.Random(1))
        state = _fresh_state(prog)
        with pytest.raises(MappingError, match="already ran"):
            PassManager(["recognize_rnn", "recognize_rnn"]).run(state)


class TestVerifierProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_verifier_green_after_every_pass_on_random_programs(self, seed):
        rng = random.Random(seed)
        prog = _random_program(rng)
        checked = []

        def hook(name, state, seconds):
            verify_state(state)
            checked.append(name)
            assert seconds >= 0

        PassManager(list(DEFAULT_PIPELINE), trace_hook=hook).run(_fresh_state(prog))
        assert checked == list(DEFAULT_PIPELINE)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_optimization_passes_keep_the_verifier_green(self, seed):
        rng = random.Random(seed)
        prog = _random_program(rng)
        order = list(DEFAULT_PIPELINE[:-1]) + ["fuse_gates", "double_buffer"] + [
            DEFAULT_PIPELINE[-1]
        ]
        state = PassManager(order).run(_fresh_state(prog))
        assert state.design.passes_applied == tuple(order)

    def test_verifier_catches_corrupted_latency(self):
        prog = _random_program(random.Random(2))
        state = _fresh_state(prog)
        PassManager(["recognize_rnn", "plan_gates"]).run(state)
        state.stage("ew").latency = -1
        with pytest.raises(MappingError, match="latency must be >= 0"):
            verify_state(state)

    def test_verifier_catches_off_grid_placement(self):
        prog = _random_program(random.Random(3))
        state = _fresh_state(prog)
        PassManager(list(DEFAULT_PIPELINE[:3])).run(state)
        state.stage("ew").coord = (-1, 999)
        with pytest.raises(MappingError, match="off-grid"):
            verify_state(state)

    def test_verifier_catches_broken_ledger(self):
        prog = _random_program(random.Random(4))
        state = _fresh_state(prog)
        PassManager(list(DEFAULT_PIPELINE[:3])).run(state)
        state.pcus_allocated += 1
        with pytest.raises(MappingError, match="ledger"):
            verify_state(state)

    def test_verifier_catches_foreign_unit(self):
        prog = _random_program(random.Random(5))
        state = _fresh_state(prog)
        PassManager(list(DEFAULT_PIPELINE[:3])).run(state)
        ew = state.stage("ew")
        # Swap a PCU unit for a coordinate that is not a PCU.
        pmu_coord = state.chip.layout.pmus[0]
        ew.units_pcu = (pmu_coord,) + ew.units_pcu[1:]
        with pytest.raises(MappingError, match="non-PCU"):
            verify_state(state)

    @pytest.mark.parametrize("units", ["new-tuple", "list-mutated-in-place"])
    def test_foreign_unit_after_a_passing_verify_is_caught(self, units):
        prog = _random_program(random.Random(5))
        state = _fresh_state(prog)
        PassManager(list(DEFAULT_PIPELINE[:3])).run(state)
        ew = state.stage("ew")
        pmu_coord = state.chip.layout.pmus[0]
        if units == "new-tuple":
            verify_state(state)  # passes, and remembers ew's unit tuples
            ew.units_pcu = (pmu_coord,) + ew.units_pcu[1:]
        else:
            ew.units_pcu = list(ew.units_pcu)
            verify_state(state)  # passes; a list can change, so it is not remembered
            ew.units_pcu[0] = pmu_coord
        with pytest.raises(MappingError, match="non-PCU"):
            verify_state(state)

    def test_edge_unit_fails_once_the_pcu_overflow_is_gone(self):
        # 48 PCUs cannot hold an hu=4, ru=4 LSTM-1152: its overflowed
        # PCUs sit at the edge coordinate, which is a PMU on this grid.
        chip = dataclasses.replace(
            PlasticineConfig.rnn_serving(), layout=GridLayout.rnn_variant(12, 12)
        )
        prog = build_task_program(
            RNNTask("lstm", 1152, 4), LoopParams(hu=4, ru=4, rv=64)
        )
        state = MappingState(prog=prog, chip=chip)
        PassManager(list(DEFAULT_PIPELINE[:3])).run(state)
        edge = state.placer.edge_coord
        assert edge not in chip.layout.pcus
        assert any(edge in d.units_pcu for d in state.stages.values())
        verify_state(state)
        state.placer.overflow_pcus = 0
        with pytest.raises(MappingError, match=rf"non-PCU unit \({edge[0]}, {edge[1]}\)"):
            verify_state(state)

    def test_verifier_catches_cycle(self):
        prog = _random_program(random.Random(6))
        state = _fresh_state(prog)
        PassManager(["recognize_rnn", "plan_gates"]).run(state)
        state.add_edge("writeback", "load_x")
        with pytest.raises(MappingError, match="cycle"):
            verify_state(state)

    @pytest.mark.parametrize(
        "n_passes, corrupt, message",
        [
            # After recognize_rnn: the recognized structure.
            (1, lambda s: setattr(s, "cell", None), "structure is incomplete"),
            (1, lambda s: setattr(s, "gates", ()), "no gate groups recognized"),
            (1, lambda s: setattr(s, "hu", 0), "hu must be >= 1, got 0"),
            (1, lambda s: setattr(s, "n_iterations", 0), "n_iterations must be >= 1"),
            (1, lambda s: setattr(s, "steps", 0), "steps must be >= 1, got 0"),
            # After plan_gates: the stage skeleton.
            (2, lambda s: s.stages.clear(), "no stages in the skeleton"),
            (2, lambda s: setattr(s.stage("ew"), "name", "ew2"),
             "stage key 'ew' does not match draft 'ew2'"),
            (2, lambda s: setattr(s.stage("ew"), "ii", 0), "'ew': ii must be >= 1"),
            (2, lambda s: setattr(s.stage("ew"), "n_pmus", -1),
             "'ew': negative resource counts"),
            (2, lambda s: setattr(s.edge("ew", "writeback"), "dst", "ghost"),
             "edge endpoint 'ghost' is not a stage"),
            (2, lambda s: setattr(s.edge("ew", "writeback"), "route", -1),
             "'ew'->'writeback': negative route"),
            # After place_units: placement and the unit ledger.
            (3, lambda s: setattr(s, "placer", None), "no placer after place_units"),
            (3, lambda s: setattr(s.stage("ew"), "coord", None), "'ew' is unplaced"),
            (3, lambda s: setattr(s, "pmus_allocated", s.pmus_allocated + 1),
             "PMU ledger not conserved"),
            (3, lambda s: setattr(
                s.stage("ew"), "units_pmu",
                (s.chip.layout.pcus[0],) + tuple(s.stage("ew").units_pmu[1:]),
            ), "'ew' occupies non-PMU unit"),
            # After route_edges: every edge routed.
            (4, lambda s: setattr(s.edge("ew", "writeback"), "route", None),
             "'ew'->'writeback' is unrouted"),
            # After report_resources: the frozen design agrees with the IR.
            (6, lambda s: setattr(s, "design", None), "left the design incomplete"),
            (6, lambda s: s.graph.stages.pop("ew"),
             "frozen graph stages differ from the IR drafts"),
            (6, lambda s: s.graph.edges.pop(), "frozen graph edge count differs"),
            (6, lambda s: setattr(s, "resources", dataclasses.replace(
                s.resources, pcus_used=s.resources.pcus_used + 1)),
             "resource report PCU tally differs"),
            (6, lambda s: setattr(s, "resources", dataclasses.replace(
                s.resources, pmus_used=s.resources.pmus_used + 1)),
             "resource report PMU tally differs"),
        ],
        ids=[
            "no-cell", "no-gates", "hu-zero", "no-iterations", "no-steps",
            "no-stages", "key-mismatch", "ii-zero", "negative-count",
            "dangling-edge", "negative-route", "no-placer", "unplaced",
            "pmu-ledger", "non-pmu-unit", "unrouted", "no-design",
            "graph-stages", "graph-edges", "pcu-tally", "pmu-tally",
        ],
    )
    def test_verifier_names_each_broken_invariant(self, n_passes, corrupt, message):
        # A healthy IR after the first n passes verifies; one corrupted
        # field then fails, naming the last completed pass and the check.
        prog = build_task_program(RNNTask("lstm", 128, 2), LoopParams(hu=2, ru=2, rv=64))
        state = _fresh_state(prog)
        PassManager(list(DEFAULT_PIPELINE[:n_passes])).run(state)
        verify_state(state)
        corrupt(state)
        last = DEFAULT_PIPELINE[n_passes - 1]
        with pytest.raises(MappingError, match=f"after {last}: .*{message}"):
            verify_state(state)

    def test_cycle_closed_in_place_after_a_passing_verify_is_caught(self):
        # The acyclic check is skipped while the stage names and edge
        # endpoints equal the last passing check's; an edge rewritten in
        # place keeps every object the same and must still be re-checked.
        prog = _random_program(random.Random(6))
        state = _fresh_state(prog)
        PassManager(["recognize_rnn", "plan_gates"]).run(state)
        verify_state(state)
        state.edge("ew", "writeback").dst = "load_x"
        with pytest.raises(MappingError, match="stage graph contains a cycle"):
            verify_state(state)


class TestStateAccessors:
    def _planned_state(self) -> MappingState:
        state = _fresh_state(_random_program(random.Random(8)))
        PassManager(["recognize_rnn", "plan_gates"]).run(state)
        return state

    def test_unknown_stage_raises(self):
        with pytest.raises(MappingError, match="no stage 'ghost' in the mapping IR"):
            self._planned_state().stage("ghost")

    def test_duplicate_stage_rejected(self):
        state = self._planned_state()
        before = dict(state.stages)
        with pytest.raises(MappingError, match="duplicate stage 'ew'"):
            state.add_stage(dataclasses.replace(state.stage("ew")))
        assert state.stages == before

    def test_edge_to_unknown_stage_rejected(self):
        state = self._planned_state()
        n_edges = len(state.edges)
        with pytest.raises(MappingError, match="edge endpoint 'ghost' is not a stage"):
            state.add_edge("ew", "ghost")
        assert len(state.edges) == n_edges

    def test_unknown_edge_raises(self):
        state = self._planned_state()
        assert state.edge("ew", "writeback").dst == "writeback"
        with pytest.raises(MappingError, match="no edge 'writeback' -> 'ew'"):
            state.edge("writeback", "ew")


class TestRegistry:
    def test_all_builtin_passes_registered(self):
        assert set(available_passes()) >= set(DEFAULT_PIPELINE) | {
            "fuse_gates",
            "double_buffer",
        }

    def test_unknown_pass_raises_with_known_names(self):
        with pytest.raises(MappingError, match="unknown mapping pass"):
            get_pass("no_such_pass")

    def test_duplicate_registration_raises(self):
        @register_pass("tmp_prop_pass")
        class Tmp(MappingPass):
            def run(self, state):
                pass

        try:
            with pytest.raises(MappingError, match="already registered"):
                register_pass("tmp_prop_pass")(Tmp)
        finally:
            unregister_pass("tmp_prop_pass")

    def test_non_pass_class_rejected(self):
        with pytest.raises(MappingError, match="MappingPass subclass"):
            register_pass("tmp_bogus")(dict)

    def test_empty_pipeline_rejected(self):
        with pytest.raises(MappingError, match="empty pass pipeline"):
            PassManager([])

    def test_manager_accepts_instances(self):
        passes = [get_pass(n)() for n in DEFAULT_PIPELINE]
        prog = _random_program(random.Random(7))
        state = PassManager(passes).run(_fresh_state(prog))
        assert state.design is not None
