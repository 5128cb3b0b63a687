"""Shared DSE runner: pool parity, exact SLO pruning, memoization.

The contracts that make the accelerated search loops trustworthy:

* **Worker parity** — ``plan_capacity(workers=N)`` and
  ``search(workers=N)`` are bit-identical to the sequential loops for
  any N; the pool is a pure throughput knob.
* **Exact pruning** — the capacity planner's early abort never changes
  ``plan.best`` or the feasible set, only how many requests it cost to
  conclude the infeasible candidates are infeasible.
* **Memoization** — a warm chip-DSE sweep builds zero programs and
  returns points equal to the cold sweep.
"""

import pytest

from repro.dse import (
    DSEStats,
    EvalMemo,
    FleetSpace,
    ParameterSpace,
    PruningSummary,
    plan_capacity,
    prune_threshold,
    search,
    tune,
)
from repro.dse.runner import run_jobs
from repro.dse.search import _MEMO, evaluate
from repro.errors import DSEError, ServingError
from repro.serving.parallel import pool_map
from repro.workloads.deepbench import task

SMALL = task("lstm", 256, 25)
#: cpu misses a 5 ms SLO by ~10x at this rate, so pruning triggers.
SMALL_SPACE = FleetSpace(platforms=("cpu", "gpu"), max_replicas=2)
PLAN_KWARGS = dict(
    slo_ms=5.0, peak_rate_per_s=2000, n_requests=200, space=SMALL_SPACE
)

CHIP_TASK = task("lstm", 512, 25)
CHIP_SPACE = ParameterSpace(max_hu=4, ru_choices=(4, 8))


class TestRunnerPrimitives:
    def test_prune_threshold_matches_percentile_rank(self):
        # floor(0.01 * n) for round request counts ...
        assert prune_threshold(2000) == 20
        assert prune_threshold(100) == 1
        assert prune_threshold(200) == 2
        # ... and never negative, even for degenerate streams.
        assert prune_threshold(1) == 0
        assert prune_threshold(2) == 1

    def test_prune_threshold_is_exact_not_approximate(self):
        # The threshold must use the same float arithmetic as
        # percentile_ms: (q/100)*(n-1) rank interpolation.
        import math

        for n in (3, 7, 99, 101, 150, 1000, 12345):
            rank = math.floor((99.0 / 100.0) * (n - 1))
            assert prune_threshold(n) == (n - 1) - rank

    def test_run_jobs_rejects_bad_workers(self):
        with pytest.raises(DSEError, match="workers"):
            run_jobs(len, [[1]], workers=0)

    def test_pool_map_parity_and_validation(self):
        jobs = [[1], [2, 3], [], [4, 5, 6]]
        seq = pool_map(len, jobs, 1)
        assert seq == [1, 2, 0, 3]
        assert pool_map(len, jobs, 2) == seq
        assert pool_map(len, jobs, 16) == seq  # clamped to len(jobs)
        with pytest.raises(ServingError, match="workers"):
            pool_map(len, jobs, 0)

    def test_eval_memo_lru(self):
        memo = EvalMemo(maxsize=2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1
        memo.put("c", 3)  # evicts "b", the least recently used
        assert memo.get("b") is None
        assert memo.get("a") == 1
        assert memo.get("c") == 3
        assert memo.hits == 3 and memo.misses == 1
        memo.clear()
        assert memo.get("a") is None


class TestCapacityParity:
    def test_pruning_never_changes_best_or_feasible_set(self):
        # The batched space sends candidates through batched executions,
        # so the pruning sink also folds batch members.
        batched = FleetSpace(
            platforms=("cpu", "gpu"), max_replicas=2, batchers=("none", "size-cap")
        )
        for space in (SMALL_SPACE, batched):
            kwargs = dict(PLAN_KWARGS, space=space)
            full = plan_capacity(SMALL, prune=False, **kwargs)
            pruned = plan_capacity(SMALL, prune=True, **kwargs)
            assert pruned.best == full.best
            assert pruned.feasible_points() == full.feasible_points()
            assert set(pruned.to_json()) == set(full.to_json())
            assert full.n_pruned == 0
            assert pruned.n_pruned > 0
            assert full.simulated_requests == len(full.points) * 200
        # In the batched space a batched candidate wins, and batched
        # candidates are pruned.
        assert full.best.batcher == "size-cap"
        assert any(p.pruned and p.batcher == "size-cap" for p in pruned.points)

    def test_pruning_actually_saves_work(self):
        stats = DSEStats()
        plan = plan_capacity(SMALL, prune=True, stats=stats, **PLAN_KWARGS)
        assert plan.n_pruned > 0
        assert plan.simulated_requests < len(plan.points) * 200
        assert stats.pruned == plan.n_pruned
        assert stats.simulated_requests == plan.simulated_requests
        for point in plan.points:
            if point.pruned:
                assert not point.meets_slo
                assert point.simulated_requests < 200

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_bit_identical(self, workers):
        sequential = plan_capacity(SMALL, **PLAN_KWARGS)
        parallel = plan_capacity(SMALL, workers=workers, **PLAN_KWARGS)
        assert parallel == sequential
        assert parallel.dumps() == sequential.dumps()

    def test_workers_bit_identical_without_pruning(self):
        sequential = plan_capacity(SMALL, prune=False, **PLAN_KWARGS)
        parallel = plan_capacity(SMALL, prune=False, workers=2, **PLAN_KWARGS)
        assert parallel == sequential


class TestSearchParity:
    def test_memo_cold_then_warm(self):
        _MEMO.clear()
        cold = search(CHIP_TASK, space=CHIP_SPACE)
        assert cold.stats.program_builds > 0
        # One program per LoopParams, however many pass configs ride it.
        assert cold.stats.program_builds <= cold.stats.candidates
        warm = search(CHIP_TASK, space=CHIP_SPACE)
        assert warm.stats.program_builds == 0
        assert warm.stats.memo_hits == warm.stats.candidates
        assert warm.points == cold.points
        assert warm.best == cold.best

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_bit_identical(self, workers):
        sequential = search(CHIP_TASK, space=CHIP_SPACE)
        parallel = search(CHIP_TASK, space=CHIP_SPACE, workers=workers)
        assert parallel.points == sequential.points
        assert parallel.best == sequential.best

    def test_evaluate_memoized_matches_unmemoized(self):
        from repro.plasticine.chip import PlasticineConfig
        from repro.rnn.lstm_loop import LoopParams

        chip = PlasticineConfig.rnn_serving()
        params = LoopParams(hu=4, ru=4, rv=64)
        _MEMO.clear()
        raw = evaluate(CHIP_TASK, params, chip, memoize=False)
        cold = evaluate(CHIP_TASK, params, chip)  # fills the memo
        hit = evaluate(CHIP_TASK, params, chip)  # serves from it
        assert raw == cold == hit

    def test_memo_shares_across_sequence_lengths(self):
        # cycles_per_step is timestep-invariant, so a T=50 sweep should
        # be pure memo hits after the T=25 sweep above seeded the memo.
        _MEMO.clear()
        search(CHIP_TASK, space=CHIP_SPACE)
        longer = search(task("lstm", 512, 50), space=CHIP_SPACE)
        assert longer.stats.program_builds == 0
        assert longer.stats.memo_hits == longer.stats.candidates
        assert longer.best.total_cycles == longer.best.cycles_per_step * 50

    def test_memo_maps_one_sweep_across_planner_candidates(self, monkeypatch):
        # lstm-1760 has no paper parameters, so every candidate fleet
        # with a Plasticine replica (3 of the 5 here) re-runs tune; the
        # memo must map only the first sweep's points.
        import importlib

        search_mod = importlib.import_module("repro.dse.search")
        tuner_mod = importlib.import_module("repro.dse.tuner")
        calls = {"search": 0, "map_and_simulate": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            tuner_mod, "search", counting("search", tuner_mod.search)
        )
        monkeypatch.setattr(
            search_mod,
            "_evaluate_program",
            counting("map_and_simulate", search_mod._evaluate_program),
        )
        _MEMO.clear()
        one_sweep = tune(task("lstm", 1760, 25)).stats.evaluated
        calls.update(search=0, map_and_simulate=0)
        _MEMO.clear()
        plan_capacity(
            task("lstm", 1760, 25),
            slo_ms=5.0,
            peak_rate_per_s=4000,
            n_requests=200,
            space=FleetSpace(("plasticine", "gpu"), max_replicas=2),
        )
        assert calls == {"search": 3, "map_and_simulate": one_sweep}

    def test_pass_axis_reports_winner(self):
        result = tune(CHIP_TASK, pass_axis=True)
        assert result.best.pass_config is not None
        assert result.best.pass_config.key  # a non-empty label
        # The pass axis can only help: its optimum is no slower than
        # the default pipeline's.
        baseline = tune(CHIP_TASK)
        assert result.best.total_cycles <= baseline.best.total_cycles

    def test_pass_axis_rejects_explicit_space(self):
        with pytest.raises(DSEError, match="pass_axis"):
            tune(CHIP_TASK, space=CHIP_SPACE, pass_axis=True)


class TestCLI:
    PLAN_ARGS = [
        "serve", "lstm", "256", "25", "--plan-capacity", "--platform",
        "cpu", "--rate", "1500", "--requests", "200",
    ]

    def test_plan_capacity_with_workers(self, capsys):
        from repro.harness.cli import main

        assert main(self.PLAN_ARGS + ["--dse-workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "Capacity frontier" in out
        assert "pruned" in out  # cpu misses 5 ms badly: the abort fires

    def test_no_prune_same_verdict(self, capsys):
        from repro.harness.cli import main

        assert main(self.PLAN_ARGS) == 0
        pruned_verdict = capsys.readouterr().out.splitlines()[-2]
        assert main(self.PLAN_ARGS + ["--no-dse-prune"]) == 0
        full = capsys.readouterr().out
        assert "pruned" not in full
        assert pruned_verdict in full  # same conclusion, more work

    @pytest.mark.parametrize(
        "flag", [["--dse-workers", "2"], ["--no-dse-prune"]]
    )
    def test_dse_flags_require_plan_capacity(self, flag, capsys):
        from repro.harness.cli import main

        assert main(["serve", "lstm", "256"] + flag) == 1
        assert "add --plan-capacity" in capsys.readouterr().err

    def test_dse_workers_validated(self, capsys):
        from repro.harness.cli import main

        assert main(self.PLAN_ARGS + ["--dse-workers", "0"]) == 1
        assert "--dse-workers must be >= 1" in capsys.readouterr().err

    def test_table7_flags_forwarded(self, monkeypatch, capsys):
        from repro.harness import tables
        from repro.harness.cli import main

        seen = {}
        monkeypatch.setattr(
            tables, "table7",
            lambda **kwargs: seen.update(kwargs) or "stub table",
        )
        assert main(["table7", "--pass-axis", "--dse-workers", "2"]) == 0
        assert seen == {"pass_axis": True, "workers": 2}
        assert "stub table" in capsys.readouterr().out
        assert main(["table7", "--dse-workers", "0"]) == 1
        assert "--dse-workers must be >= 1" in capsys.readouterr().err


class TestTable7PassAxis:
    def test_pass_axis_column(self):
        from repro.harness.tables import table7

        text = table7(tasks=(SMALL,), pass_axis=True, workers=2)
        assert "dse passes" in text
        # The winner column holds a real pass label on every row.
        row = text.splitlines()[-1]
        assert SMALL.name in row
        assert "default" in row or "fuse_gates" in row or "double_buffer" in row

    def test_default_rendering_unchanged(self):
        from repro.harness.tables import table7

        text = table7(tasks=(SMALL,))
        assert "dse passes" not in text
