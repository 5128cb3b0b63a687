"""Table 7: per-task design parameters via design-space exploration.

Benchmarks the DSE itself (map + cycle-simulate the candidate points
its cycle bound cannot rule out) and checks the qualitative tuning rule
of Section 5.2: small problems spend leftover compute on ``hu``; large
problems shift it to ``ru``/the dot product, and the DSE never loses to
the reconstructed paper choice.  The tuner's pruning is exact only if
its cycle lower bound holds, so this suite checks the bound on every
point of every DeepBench task, precision, pass config and chip.
"""

import dataclasses

import pytest

from repro.dse import ParameterSpace, paper_params, tune
from repro.dse.search import _MEMO, build_task_program, evaluate
from repro.errors import ConfigError
from repro.harness.report import format_table
from repro.harness.tables import table7
from repro.mapping import map_rnn_program
from repro.plasticine import PlasticineConfig
from repro.plasticine.network import GridLayout
from repro.plasticine.simulator import simulate_pipeline
from repro.workloads.deepbench import all_tasks, table6_tasks, task


def test_dse_single_task(benchmark):
    result = benchmark.pedantic(tune, args=(task("lstm", 1024),), rounds=2, iterations=1)
    assert result.best.fits
    # The dot-product budget is maxed for a large model.
    assert result.best_params.hu * result.best_params.ru >= 16


def test_table7_render(benchmark, artifact):
    text = benchmark.pedantic(table7, rounds=1, iterations=1)
    artifact("table7", text)
    assert "6/400/40" in text  # Brainwave's single parameter set


def test_dse_never_loses_to_paper_choice(benchmark, artifact):
    chip = PlasticineConfig.rnn_serving()

    def sweep():
        rows = []
        for t in table6_tasks():
            best = tune(t, chip).best
            paper_point = evaluate(t, paper_params(t), chip)
            rows.append(
                [t.name,
                 f"{best.params.hu}/{best.params.ru}",
                 best.cycles_per_step,
                 f"{paper_params(t).hu}/{paper_params(t).ru}",
                 paper_point.cycles_per_step]
            )
            assert best.total_cycles <= paper_point.total_cycles, t.name
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    artifact(
        "table7_dse_vs_paper",
        format_table(
            ["task", "dse hu/ru", "dse cyc/step", "paper hu/ru", "paper cyc/step"],
            rows,
            title="Table 7: DSE optimum vs reconstructed paper parameters",
        ),
    )


def test_pass_axis_full_sweep_hoist_parity(benchmark, artifact):
    """Satellite of the shared-runner PR: the full Table 7 sweep over the
    pass-config axis builds one program per parameter point (the hoist),
    and every winner is bit-identical to an unhoisted, unmemoized
    re-evaluation.  The artifact reports which pass config wins per task.
    """
    chip = PlasticineConfig.rnn_serving()
    n_passes = len(ParameterSpace.with_pass_axis().pass_configs)

    def sweep():
        _MEMO.clear()
        results = {}
        for t in table6_tasks():
            res = tune(t, chip, pass_axis=True)
            # The hoist: one program per LoopParams, shared across the
            # whole pass-config axis (cold memo, so builds == params).
            assert res.stats.candidates == res.stats.program_builds * n_passes, t.name
            results[t.name] = (t, res)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for name, (t, res) in results.items():
        best = res.best
        fresh = evaluate(
            t, best.params, chip,
            pass_config=best.pass_config, memoize=False,
        )
        assert fresh == best, f"{name}: hoisted/memoized point drifted"
        default = tune(t, chip).best  # warm memo: no rebuilds
        rows.append(
            [name,
             f"{best.params.hu}/{best.params.ru}",
             best.pass_config.key,
             best.cycles_per_step,
             default.cycles_per_step]
        )
        assert best.total_cycles <= default.total_cycles, name
    artifact(
        "table7_pass_axis",
        format_table(
            ["task", "dse hu/ru", "winning passes", "cyc/step",
             "default-pipeline cyc/step"],
            rows,
            title="Table 7 over the optimization-pass axis: winning "
            "pass config per task",
        ),
    )


def test_dse_respects_resource_wall(benchmark):
    # LSTM cannot afford hu=5 at ru=8 (210 PCUs > 190): every DSE choice
    # must fit.
    res = benchmark.pedantic(tune, args=(task("lstm", 2048),), rounds=1, iterations=1)
    assert res.best.pcus_used <= PlasticineConfig.rnn_serving().usable_pcus
    infeasible = [p for p in res.points if not p.fits]
    assert infeasible, "the space should contain over-budget points"
    for point in res.feasible_points():
        assert point.total_cycles >= res.best.total_cycles


def test_cycle_bound_holds_on_every_point(benchmark, artifact):
    """The bound the tuner prunes with is at or below the simulated
    per-step cycles on every candidate of every DeepBench task, at 8, 16
    and 32 bits, under all four pass configs, on the Table 3 chip, the
    ISCA'17 preset (where it can plan the task) and the Table 3 units on
    the 16x8 checkerboard grid."""
    chips = (
        PlasticineConfig.rnn_serving(),
        PlasticineConfig.isca2017(),
        dataclasses.replace(
            PlasticineConfig.rnn_serving(),
            name="plasticine-checkerboard",
            layout=GridLayout.checkerboard(16, 8),
        ),
    )
    space = ParameterSpace.with_pass_axis()

    def sweep():
        rows = []
        for chip in chips:
            checked, tightest = 0, 0.0
            for bits in (8, 16, 32):
                for t in all_tasks():
                    for params in space.candidates(t, chip, bits):
                        prog = build_task_program(t, params)
                        for config in space.pass_configs:
                            try:
                                design = map_rnn_program(
                                    prog, chip, bits=bits, pass_config=config
                                )
                            except ConfigError:
                                continue  # the ISCA'17 PCU at 8/16 bits
                            sim = simulate_pipeline(design.graph)
                            cycles = sim.cycles_per_step + sim.step_overhead
                            assert design.cycle_bound <= cycles, (
                                chip.name, bits, t.name, params, config
                            )
                            checked += 1
                            tightest = max(tightest, design.cycle_bound / cycles)
            rows.append([chip.name, checked, f"{tightest:.5f}"])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert all(checked for _, checked, _ in rows)
    artifact(
        "table7_cycle_bound",
        format_table(
            ["chip", "points checked", "max bound/simulated"],
            rows,
            title="Tuner cycle lower bound vs simulation, every point",
        ),
    )
