"""DSE at pool speed: parallel, pruned, memoized search loops.

The shared runner (:mod:`repro.dse.runner`) promises that both search
loops — the capacity planner and the chip tuner — got faster without
changing a single answer.  This benchmark holds it to that:

* **Parity, unconditionally** — ``plan_capacity(workers=N)`` is
  bit-identical to the sequential plan (same JSON, byte for byte), the
  pruned plan picks the same best fleet and feasible set as the full
  replay, ``search(workers=N)`` returns the same points as the
  sequential sweep, and a warm rerun of the chip DSE builds zero
  programs.  These checks run on every machine, 1-core CI included.
* **Speedup floors, gated** — on a runner with >= 4 CPUs, 4 workers
  must finish both loops >= 2x faster than sequential.  A 1-core runner
  records the curve but cannot bind the floor.
* **Pruning saves real work** — on the capacity planner's CI workload
  (``bench_capacity_planner.PLAN_*``), the SLO-miss abort must cut
  simulated requests by >= 30% while choosing the identical best fleet.

Metrics land in ``benchmarks/out/dse_scale.json`` (uploaded by the
perf-smoke CI job).  Run under pytest (CI's benchmarks job) or
standalone::

    python benchmarks/bench_dse_scale.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# Standalone bootstrap (python benchmarks/bench_dse_scale.py without
# PYTHONPATH=src): put the in-repo package on the path first.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from bench_capacity_planner import (
    PLAN_PEAK_RATE,
    PLAN_SLO_MS,
    PLAN_SPACE,
    PLAN_TASK,
)
from repro.dse import ParameterSpace, plan_capacity, search
from repro.dse.search import _MEMO
from repro.harness.report import format_table
from repro.workloads.deepbench import task

OUT_JSON = Path(__file__).parent / "out" / "dse_scale.json"

#: Floors only bind on a real multi-core runner.
CPU_GATE = 4
SPEEDUP_FLOOR = 2.0
#: Minimum fraction of simulated requests pruning must save on the
#: planner's CI workload.
PRUNE_CUT_FLOOR = 0.30

#: Chip-tuner scaling workload: the largest Table 6 LSTM over the full
#: default grid crossed with the optimization-pass axis.
TUNE_TASK = task("lstm", 2048, 25)
TUNE_SPACE = ParameterSpace.with_pass_axis()

WORKER_COUNTS = (1, 2, 4)


def _plan_kwargs(n: int) -> dict:
    return dict(
        slo_ms=PLAN_SLO_MS,
        peak_rate_per_s=PLAN_PEAK_RATE,
        n_requests=n,
        space=PLAN_SPACE,
    )


def _parity(n: int) -> dict:
    """Every acceleration axis, checked for exactness on one workload."""
    kwargs = _plan_kwargs(n)
    sequential = plan_capacity(PLAN_TASK, prune=False, **kwargs)
    pooled = {
        w: plan_capacity(PLAN_TASK, prune=False, workers=w, **kwargs)
        for w in WORKER_COUNTS[1:]
    }
    pruned = plan_capacity(PLAN_TASK, prune=True, **kwargs)
    _MEMO.clear()
    chip_seq = search(TUNE_TASK, space=TUNE_SPACE)
    chip_par = search(TUNE_TASK, space=TUNE_SPACE, workers=2)
    warm = search(TUNE_TASK, space=TUNE_SPACE)
    return {
        "n_requests": n,
        "plan_identical": all(
            p.dumps() == sequential.dumps() for p in pooled.values()
        ),
        "prune_best_identical": pruned.best == sequential.best,
        "prune_feasible_identical": (
            pruned.feasible_points() == sequential.feasible_points()
        ),
        "search_identical": (
            chip_par.points == chip_seq.points
            and chip_par.best == chip_seq.best
        ),
        "warm_program_builds": warm.stats.program_builds,
        "warm_memo_hits": warm.stats.memo_hits,
        "search_candidates": chip_seq.stats.candidates,
        "search_program_builds": chip_seq.stats.program_builds,
    }


def _pruning(n: int) -> dict:
    """The SLO-miss abort on the planner's CI workload."""
    kwargs = _plan_kwargs(n)
    full = plan_capacity(PLAN_TASK, prune=False, **kwargs)
    t0 = time.perf_counter()
    pruned = plan_capacity(PLAN_TASK, prune=True, **kwargs)
    elapsed = time.perf_counter() - t0
    budget = len(full.points) * n
    return {
        "n_requests": n,
        "candidates": len(full.points),
        "request_budget": budget,
        "simulated_requests": pruned.simulated_requests,
        "cut": 1.0 - pruned.simulated_requests / budget,
        "n_pruned": pruned.n_pruned,
        "best_mix_identical": pruned.best.mix == full.best.mix,
        "elapsed_s": elapsed,
    }


def _scaling(n: int) -> dict:
    """Wall-clock for both loops at 1/2/4 workers, pruning off so every
    candidate is the same amount of work."""
    plan_elapsed: dict[str, float] = {}
    kwargs = _plan_kwargs(n)
    for w in WORKER_COUNTS:
        t0 = time.perf_counter()
        plan_capacity(PLAN_TASK, prune=False, workers=w, **kwargs)
        plan_elapsed[str(w)] = time.perf_counter() - t0
    tune_elapsed: dict[str, float] = {}
    for w in WORKER_COUNTS:
        _MEMO.clear()  # cold sweep: workers fork from an empty memo
        t0 = time.perf_counter()
        search(TUNE_TASK, space=TUNE_SPACE, workers=w, prune=False)
        tune_elapsed[str(w)] = time.perf_counter() - t0
    return {
        "n_requests": n,
        "planner": {
            "elapsed_s": plan_elapsed,
            "speedup": {
                str(w): plan_elapsed["1"] / plan_elapsed[str(w)]
                for w in WORKER_COUNTS
            },
        },
        "tuner": {
            "elapsed_s": tune_elapsed,
            "speedup": {
                str(w): tune_elapsed["1"] / tune_elapsed[str(w)]
                for w in WORKER_COUNTS
            },
        },
    }


def run(quick: bool = False) -> dict:
    cpu_count = os.cpu_count() or 1
    return {
        "quick": quick,
        "cpu_count": cpu_count,
        "floors_gated": cpu_count < CPU_GATE,
        "workload": (
            f"{PLAN_TASK.name} diurnal peak {PLAN_PEAK_RATE:.0f}/s slo "
            f"{PLAN_SLO_MS}ms x {PLAN_SPACE.n_candidates()} fleets; "
            f"{TUNE_TASK.name} chip sweep"
        ),
        "parity": _parity(600 if quick else 1_500),
        "pruning": _pruning(2_000 if quick else 4_000),
        "scaling": _scaling(1_000 if quick else 2_500),
        "floors": {
            "speedup_4w": SPEEDUP_FLOOR,
            "prune_cut": PRUNE_CUT_FLOOR,
            "cpu_gate": CPU_GATE,
        },
    }


def check(metrics: dict) -> list[str]:
    """The regressions this benchmark exists to catch."""
    failures = []
    parity = metrics["parity"]
    if not parity["plan_identical"]:
        failures.append(
            "plan_capacity(workers=N) lost bit-parity with the "
            "sequential plan"
        )
    if not (
        parity["prune_best_identical"] and parity["prune_feasible_identical"]
    ):
        failures.append(
            "pruning changed the planner's best fleet or feasible set"
        )
    if not parity["search_identical"]:
        failures.append(
            "search(workers=N) lost parity with the sequential chip sweep"
        )
    if parity["warm_program_builds"] != 0:
        failures.append(
            f"a warm chip sweep rebuilt {parity['warm_program_builds']} "
            "programs; the evaluation memo has regressed"
        )
    if parity["search_program_builds"] >= parity["search_candidates"]:
        failures.append(
            "the pass-config axis no longer shares one program per "
            "parameter point"
        )
    pruning = metrics["pruning"]
    if not pruning["best_mix_identical"]:
        failures.append("pruning changed the chosen fleet on the CI workload")
    if pruning["cut"] < PRUNE_CUT_FLOOR:
        failures.append(
            f"pruning saved only {100 * pruning['cut']:.1f}% of simulated "
            f"requests (floor: {100 * PRUNE_CUT_FLOOR:.0f}%)"
        )
    if metrics["floors_gated"]:
        pass  # 1-core runner: the curve is recorded but no floor can bind.
    else:
        for loop in ("planner", "tuner"):
            got = metrics["scaling"][loop]["speedup"]["4"]
            if got < SPEEDUP_FLOOR:
                failures.append(
                    f"4-worker {loop} speedup {got:.2f}x fell below the "
                    f"{SPEEDUP_FLOOR:.1f}x floor ({metrics['cpu_count']} CPUs)"
                )
    return failures


def _render(metrics: dict) -> str:
    parity = metrics["parity"]
    pruning = metrics["pruning"]
    scaling = metrics["scaling"]
    gate = (
        f"floors gated: {metrics['cpu_count']} CPU(s) < {CPU_GATE}"
        if metrics["floors_gated"]
        else "floors enforced"
    )
    rows = [
        [
            f"{loop}, {w} worker(s)",
            f"{scaling[loop]['elapsed_s'][str(w)]:.2f}",
            "-" if w == 1 else f"{scaling[loop]['speedup'][str(w)]:.2f}x",
        ]
        for loop in ("planner", "tuner")
        for w in WORKER_COUNTS
    ]
    rows.append(
        [
            f"pruning ({pruning['n_pruned']} of {pruning['candidates']} "
            "fleets aborted)",
            f"{pruning['elapsed_s']:.2f}",
            f"{100 * pruning['cut']:.0f}% requests cut",
        ]
    )
    rows.append(
        [
            f"warm chip sweep ({parity['search_candidates']} candidates)",
            "-",
            f"{parity['warm_memo_hits']} memo hits, 0 builds",
        ]
    )
    all_exact = (
        parity["plan_identical"]
        and parity["prune_best_identical"]
        and parity["prune_feasible_identical"]
        and parity["search_identical"]
    )
    return format_table(
        ["configuration", "wall s", "speedup / check"],
        rows,
        title=f"DSE scale: {metrics['workload']} — parity "
        f"{'EXACT' if all_exact else 'BROKEN'}, {gate}",
    )


def _write_json(metrics: dict) -> None:
    OUT_JSON.parent.mkdir(exist_ok=True)
    OUT_JSON.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")


def test_dse_scale(artifact):
    metrics = run(quick=False)
    _write_json(metrics)
    artifact("dse_scale", _render(metrics))
    failures = check(metrics)
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller request counts (the CI perf-smoke configuration)",
    )
    args = parser.parse_args(argv)
    metrics = run(quick=args.quick)
    _write_json(metrics)
    print(_render(metrics))
    print(f"[json: {OUT_JSON}]")
    failures = check(metrics)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
