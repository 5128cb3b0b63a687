"""Self-test of the benchmark at toy sizes (about a minute).

Usage (from the repository root): python3 perfbench/selftest.py

Checks that BENCHMARK.json is well-formed, that every workload prints
every end-to-end metric and, traced, every per-layer metric, with the
units BENCHMARK.json declares; that the output checks fire on
corrupted results; and that drift correction is the identity when the
reference slices run at their calibrated time.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import re
import sys

import run
from drift import CALIBRATED_IMPORT_S, Reference, corrected, corrected_setup
from workloads import SIMULATED

#: The simulated results each workload produces; the rest read 0.
SIMULATED_ON = {
    "serve-fifo": ("serving.stats.sim_p99_ms", "serving.stats.sim_slo_attainment"),
    "serve-mixed": ("serving.stats.sim_p99_ms", "serving.stats.sim_slo_attainment"),
    "plan-capacity": ("serving.stats.sim_p99_ms", "serving.stats.sim_slo_attainment",
                      "dse.capacity.best_usd_per_1m", "dse.capacity.simulated_requests"),
    "tune-table7": ("dse.search.best_cycles_geomean",),
}

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures: list = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_declaration() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json has exactly the contract's keys",
    )
    expect(
        [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
        and all(0 < len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"]),
        "workloads match run.py, each with a one-line why",
    )
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    expect(all(_NAME.match(n) for n in names), "every name is well-formed")
    expect(len(names) == len(set(names)), "every name is used once")
    metrics = spec["end_to_end"] + spec["per_layer"]
    expect(
        all(_UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics),
        "every metric has a unit and a direction",
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expect(
        all(0 < b <= 0.25 for b in bounds.values()) and bounds["setup_s"] == max(bounds.values()),
        "bounds are within (0, 0.25] and none exceeds setup_s's",
    )
    expect(
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
        "end-to-end metrics and units match run.py",
    )
    return spec


def check_outputs(spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in run.WORKLOAD_NAMES:
        result = run.measure(workload, seed=1, seconds=0, trace=False, size="toy")
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(result["correct"], f"{workload}: toy run passes its checks")
        expect(printed == units, f"{workload}: prints every end-to-end metric with its unit")
        expect(all(v["value"] != 0 for v in result["metrics"].values()),
               f"{workload}: no end-to-end metric reads 0")
        traced = run.measure(workload, seed=1, seconds=0, trace=True, size="toy")
        printed = {k: v["unit"] for k, v in traced["metrics"].items()}
        expect(traced["correct"], f"{workload}: traced toy run passes its checks")
        expect(printed == layer_units, f"{workload}: prints every per-layer metric with units")
        simulated = {k for k in SIMULATED if traced["metrics"][k]["value"] != 0}
        expect(simulated == set(SIMULATED_ON[workload]),
               f"{workload}: reports exactly its simulated results")


def check_corruption() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from workloads import WORKLOADS

    fifo = WORKLOADS["serve-fifo"]
    state = fifo.prepare(2, "toy")
    ref = Reference(fill=False)
    summary = fifo.run(state, ref)
    expect(not fifo.check(state, ref, summary).failures, "serve-fifo: a clean result passes")
    ref.items += 1  # one generated request never reached the summary
    outcome = fifo.check(state, ref, summary)
    expect(bool(outcome.failures) and outcome.completed == 0,
           "serve-fifo: a lost request fails the count check")
    ref.items -= 1
    short = fifo.check(dict(state, n=state["n"] + 1), ref, summary)
    expect(bool(short.failures) and short.completed == 0,
           "serve-fifo: a generator yielding fewer requests than asked fails")
    expect(bool(fifo.check_trace({"serving.scheduler.calls": 3, "serving.batching.batches": 0,
                                  "serving.fleet.calls": 0})),
           "serve-fifo: a scheduler call fails the fast-path check")

    import instance
    from repro.errors import DSEError, ServingError

    def raise_serving_error():
        raise ServingError("injected")

    out, error = instance._guarded(raise_serving_error)
    outcome = fifo.crashed(state, error)
    expect(out is None and outcome.completed == 0 and outcome.attempted == state["n"]
           and bool(outcome.failures),
           "serve-fifo: a library exception is a failed run, not a missing result")

    def raise_import_error():
        raise ImportError("injected")

    try:
        instance._guarded(raise_import_error)
        missing_propagates = False
    except ImportError:
        missing_propagates = True
    expect(missing_propagates, "a missing entry point still gives no result")

    tune = WORKLOADS["tune-table7"]
    state = tune.prepare(2, "toy")
    ref = Reference(fill=True)
    results = tune.run(state, ref)
    expect(not tune.check(state, ref, results).failures, "tune-table7: a clean result passes")
    partial = tune.check(state, ref, [DSEError("injected"), *results[1:]])
    expect(partial.completed == partial.attempted - 1
           and "dse.search.best_cycles_geomean" not in partial.metrics,
           "tune-table7: a task that raises fails alone, with no geomean")
    worst = max((p for p in results[0].points if p.fits), key=lambda p: p.total_cycles)
    results[0] = dataclasses.replace(results[0], best=worst)
    expect(bool(tune.check(state, ref, results).failures),
           "tune-table7: a non-minimal best point fails")
    tuner = importlib.import_module("repro.dse.tuner")
    real_tune = tuner.tune

    def raise_dse_error(*args, **kwargs):
        raise DSEError("injected")

    tuner.tune = raise_dse_error
    try:
        raised = tune.run(state, ref)
    finally:
        tuner.tune = real_tune
    expect(all(isinstance(r, DSEError) for r in raised) and tune.check(state, ref, raised).completed == 0,
           "tune-table7: tune raising is caught per task")

    plan = WORKLOADS["plan-capacity"]
    state = plan.prepare(2, "toy")
    ref = Reference(fill=True)
    out = plan.run(state, ref)
    expect(not plan.check(state, ref, out).failures, "plan-capacity: a clean result passes")
    result, stats = out
    points = list(result.points)
    pruned = next(i for i, p in enumerate(points) if p.pruned)
    points[pruned] = dataclasses.replace(points[pruned], meets_slo=True)
    bad = dataclasses.replace(result, points=tuple(points))
    expect(bool(plan.check(state, ref, (bad, stats)).failures),
           "plan-capacity: a pruned point meeting its SLO fails")

    record = {"signature": [1, 2.5], "metrics": {}, "attempted": 1, "completed": 1, "work": 1}
    expect(bool(run.consistency_failures([record, dict(record, signature=[1, 2.6])])),
           "a simulated result that changes between runs fails")


def check_drift() -> None:
    ref = Reference(fill=True)
    ref.ticks = 40
    calibrated = ref.calibrated_s
    expect(corrected(3.0, calibrated, calibrated) == 3.0 - calibrated,
           "drift correction is the identity at the calibrated slice time")
    expect(abs(corrected(2 * 3.0, 2 * calibrated, calibrated) - (3.0 - calibrated)) < 1e-12,
           "drift correction divides out a uniformly slower machine")
    setups = [0.5, 0.4, 0.6]
    expect(corrected_setup(setups, [CALIBRATED_IMPORT_S] * 3) == 0.5,
           "set-up correction is the identity at the calibrated import time")
    slower = [1.0, 2.0, 1.5]
    expect(abs(corrected_setup([s * k for s, k in zip(setups, slower)],
                               [CALIBRATED_IMPORT_S * k for k in slower]) - 0.5) < 1e-12,
           "set-up correction divides out each sample's slower machine")


def main() -> int:
    spec = check_declaration()
    check_drift()
    check_corruption()
    check_outputs(spec)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
