"""The chip tuner's cycle lower bound and the exact branch-and-bound on it.

* **The bound holds** — ``cycle_lower_bound`` after ``plan_gates`` is at
  or below the simulated per-step cycles of the finished design, on a
  seeded sample of every DeepBench task, precision, pass config and chip
  (``benchmarks/bench_table7_dse.py`` checks every point).
* **Pruning is exact** — ``search()`` returns the same best point as
  ``search(prune=False)``; every point it evaluates equals its
  exhaustive counterpart, and it prunes exactly the points after the
  head whose bound is strictly above the head's incumbent.
* **The memo keeps bounds** — a pruning sweep answers from the full
  records an exhaustive sweep left, and ``evaluate()`` treats a record
  holding only a bound as a miss.
"""

import dataclasses
import random

import pytest

from repro.dse import ParameterSpace, search
from repro.dse.search import _MEMO, _memo_key, build_task_program, evaluate
from repro.errors import ConfigError, MappingError
from repro.mapping import CycleLimitExceeded, cycle_lower_bound, map_rnn_program
from repro.mapping.passes import PassManager
from repro.plasticine.chip import PlasticineConfig
from repro.plasticine.network import GridLayout
from repro.plasticine.simulator import simulate_pipeline
from repro.rnn.lstm_loop import LoopParams
from repro.workloads.deepbench import all_tasks, task

PASS_CONFIGS = ParameterSpace.with_pass_axis().pass_configs
PARAMS = LoopParams(hu=4, ru=4, rv=64)


def checkerboard_chip() -> PlasticineConfig:
    return dataclasses.replace(
        PlasticineConfig.rnn_serving(),
        name="plasticine-checkerboard",
        layout=GridLayout.checkerboard(16, 8),
    )


CHIPS = (PlasticineConfig.rnn_serving(), PlasticineConfig.isca2017(), checkerboard_chip())


def _planned(prog, chip, bits):
    return PassManager(["recognize_rnn", "plan_gates"]).run_program(prog, chip, bits=bits)


def _simulated(prog, chip, bits, config):
    design = map_rnn_program(prog, chip, bits=bits, pass_config=config)
    sim = simulate_pipeline(design.graph)
    return design, sim.cycles_per_step + sim.step_overhead


class TestBound:
    def test_bound_below_simulation_on_a_sample_of_every_task_chip_and_config(self):
        rng = random.Random(29)
        checked = {chip.name: 0 for chip in CHIPS}
        for chip in CHIPS:
            for bits in (8, 16, 32):
                for t in all_tasks():
                    candidates = list(ParameterSpace().candidates(t, chip, bits))
                    params = rng.choice(candidates)
                    prog = build_task_program(t, params)
                    try:
                        state = _planned(prog, chip, bits)
                    except ConfigError:
                        continue  # the ISCA'17 PCU cannot run 8/16-bit map-reduce
                    for config in PASS_CONFIGS:
                        bound = cycle_lower_bound(state, config)
                        design, cycles = _simulated(prog, chip, bits, config)
                        assert design.cycle_bound == bound
                        assert 0 < bound <= cycles, (chip.name, bits, t.name, params, config)
                        checked[chip.name] += 1
        assert all(checked.values()), checked

    def test_bound_reads_only_the_state_after_plan_gates(self):
        prog = build_task_program(task("lstm", 256, 4), PARAMS)
        state = PassManager(["recognize_rnn", "plan_gates", "fold_luts"]).run_program(prog)
        with pytest.raises(MappingError, match="right after plan_gates"):
            cycle_lower_bound(state)

    def test_cycle_limit_stops_mapping_with_the_bound(self):
        prog = build_task_program(task("gru", 512, 1), PARAMS)
        design = map_rnn_program(prog)
        assert map_rnn_program(prog, cycle_limit=design.cycle_bound) == design
        with pytest.raises(CycleLimitExceeded) as info:
            map_rnn_program(prog, cycle_limit=design.cycle_bound - 1)
        assert info.value.bound == design.cycle_bound

    @pytest.mark.parametrize("name", ["report_resources", "no_such_pass"])
    def test_split_leaves_no_empty_half(self, name):
        with pytest.raises(MappingError, match="no pass"):
            PassManager.default().split_after(name)


def _head_incumbent(exhaustive):
    """The incumbent the pruned search must take, derived from the
    exhaustive sweep: visit parameter points by descending hu*ru, then
    hu, then candidate order, and stop at the first with a feasible
    config.  Returns ``(head params, U)``."""
    by_params: dict = {}
    for point in exhaustive.points:
        by_params.setdefault(point.params, []).append(point)
    order = sorted(
        enumerate(by_params), key=lambda ip: (-ip[1].hu * ip[1].ru, -ip[1].hu, ip[0])
    )
    head = []
    for _, params in order:
        head.append(params)
        feasible = [p.total_cycles for p in by_params[params] if p.fits]
        if feasible:
            return head, min(feasible)
    raise AssertionError("no feasible point")


class TestPruning:
    @pytest.mark.parametrize("pass_axis", [False, True])
    @pytest.mark.parametrize("name", [("lstm", 256, 150), ("gru", 1024, 1500), ("lstm", 2048, 25)])
    def test_pruned_search_matches_the_exhaustive_one(self, name, pass_axis):
        t = task(*name)
        chip = PlasticineConfig.rnn_serving()
        space = ParameterSpace.with_pass_axis() if pass_axis else ParameterSpace()
        _MEMO.clear()
        full = search(t, chip, space, prune=False)
        _MEMO.clear()
        pruned = search(t, chip, space)
        assert pruned.best == full.best
        assert pruned.stats.memo_hits == 0
        assert pruned.stats.pruned == sum(p.pruned for p in pruned.points) > 0
        assert len(pruned.points) == len(full.points)
        head, incumbent = _head_incumbent(full)
        bounds = {}
        for params in {p.params for p in full.points}:
            state = _planned(build_task_program(t, params), chip, 8)
            for config in space.pass_configs:
                bounds[params, config] = cycle_lower_bound(state, config)
        for got, want in zip(pruned.points, full.points):
            bound = bounds[want.params, want.pass_config]
            must_prune = want.params not in head and t.timesteps * bound > incumbent
            assert got.pruned == must_prune
            if got.pruned:
                assert not got.fits and got.pcus_used == got.pmus_used == 0
                assert got.cycles_per_step == bound
                assert incumbent < got.total_cycles <= want.total_cycles
            else:
                assert got == want

    def test_exhaustive_records_answer_a_pruning_sweep(self):
        # Full records carry their bounds, so a pruning sweep after an
        # exhaustive one reports the same pruned points without mapping.
        t = task("lstm", 1024, 25)
        _MEMO.clear()
        cold = search(t)
        _MEMO.clear()
        search(t, prune=False)
        from_full = search(t)
        stats = from_full.stats
        assert (stats.memo_hits, stats.program_builds) == (len(cold.points), 0)
        assert from_full.points == cold.points

    def test_evaluate_treats_a_bound_only_record_as_a_miss(self):
        t = task("lstm", 1024, 25)
        chip = PlasticineConfig.rnn_serving()
        _MEMO.clear()
        point = next(p for p in search(t).points if p.pruned)
        key = _memo_key(t, point.params, chip, 8, point.pass_config)
        assert len(_MEMO.get(key)) == 1  # the bound alone
        fresh = evaluate(t, point.params, chip, pass_config=point.pass_config)
        assert not fresh.pruned and fresh.pcus_used > 0
        assert fresh == evaluate(
            t, point.params, chip, pass_config=point.pass_config, memoize=False
        )
        assert fresh.total_cycles >= point.total_cycles
        assert len(_MEMO.get(key)) > 1  # now the full record
        assert point in search(t).points  # still pruned under the same incumbent

    def test_plan_gates_failure_still_raises(self):
        # Every point runs plan_gates, so a chip that cannot plan the
        # task fails the search rather than pruning it away.
        with pytest.raises(ConfigError, match="map-reduce needs"):
            search(task("lstm", 512, 25), PlasticineConfig.isca2017(), bits=8)
