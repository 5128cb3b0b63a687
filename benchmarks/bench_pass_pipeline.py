"""Pass-pipeline compiler: parity with the monolith, overhead, payoff.

The Section 4 lowering now runs as a pass pipeline over a mapping IR
(``repro.mapping.passes``); the original single-function mapper is kept
as ``_map_rnn_monolith`` in ``tests/monolith_mapper.py``, the golden
reference.  This benchmark guards
the three contracts of that refactor:

* **Golden parity** — the default pipeline's ``MappedDesign`` must be
  bit-identical to the monolith's (stage coords, IIs, latencies, routed
  edges, the full resource report) on the Table 3 chip across the
  LSTM/GRU smoke matrix.  Checked unconditionally: it is the
  correctness contract, not a performance number.
* **Overhead ceiling** — mapping through the pipeline (IR verifier on,
  per-pass timing on) must cost at most 1.5x the monolith's wall-clock
  mapping time.  Passes are bookkeeping, not recomputation.
* **Optimization payoff** — ``double_buffer`` must show a measured
  steps-loop cycle reduction on the LSTM-1152 design (writeback
  overlapped with the next step's load), and ``fuse_gates`` must save
  PCUs without costing cycles.

Run under pytest (CI's benchmarks job) or standalone::

    python benchmarks/bench_pass_pipeline.py [--quick] [--parity]

``--parity`` runs only the golden-parity matrix (the CI pipeline-parity
smoke step).  Either way the metrics land in
``benchmarks/out/pass_pipeline.json`` (perf-smoke uploads it).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# Standalone bootstrap (python benchmarks/bench_pass_pipeline.py
# without PYTHONPATH=src): put the in-repo package on the path first.
# The monolith reference lives in tests/, beside the parity suite.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
_TESTS = _SRC.parent / "tests"
if str(_TESTS) not in sys.path:
    sys.path.append(str(_TESTS))

from monolith_mapper import _map_rnn_monolith
from repro.dse.search import build_task_program
from repro.harness.report import format_table
from repro.mapping.mapper import map_rnn_program
from repro.mapping.passes import PassConfig, PassManager, diff_designs
from repro.plasticine.chip import PlasticineConfig
from repro.plasticine.simulator import simulate_pipeline
from repro.rnn.lstm_loop import LoopParams
from repro.workloads.deepbench import RNNTask

OUT_JSON = Path(__file__).parent / "out" / "pass_pipeline.json"

#: The parity smoke matrix: kind, hidden, bits, (hu, ru).
PARITY_MATRIX = (
    ("lstm", 256, 8, (2, 2)),
    ("lstm", 1024, 8, (4, 8)),
    ("lstm", 1152, 16, (4, 8)),
    ("gru", 512, 8, (4, 4)),
    ("gru", 1536, 32, (2, 4)),
)

#: Pipeline mapping time / monolith mapping time must stay below this.
OVERHEAD_CEILING = 1.5

#: The Table 6 LSTM-1152 point used for the optimization payoff.
PAYOFF_TASK = RNNTask("lstm", 1152, 25)
PAYOFF_PARAMS = LoopParams(hu=4, ru=8, rv=64)


def _program(kind: str, hidden: int, hu: int, ru: int, timesteps: int = 4):
    return build_task_program(
        RNNTask(kind, hidden, timesteps), LoopParams(hu=hu, ru=ru, rv=64)
    )


def _parity() -> dict:
    """Diff the default pipeline against the monolith on the Table 3 chip."""
    chip = PlasticineConfig.rnn_serving()
    cases = []
    for kind, hidden, bits, (hu, ru) in PARITY_MATRIX:
        prog = _program(kind, hidden, hu, ru)
        legacy = _map_rnn_monolith(prog, chip, bits=bits)
        piped = map_rnn_program(prog, chip, bits=bits)
        diffs = diff_designs(legacy, piped)
        cases.append(
            {
                "case": f"{kind}-{hidden} {bits}b hu={hu} ru={ru}",
                "identical": not diffs,
                "diffs": diffs[:10],
                "cycles": simulate_pipeline(piped.graph).total_cycles,
            }
        )
    return {"chip": chip.name, "cases": cases,
            "identical": all(c["identical"] for c in cases)}


def _overhead(reps: int) -> dict:
    """Wall-clock mapping time: monolith vs the default pipeline.

    Each round maps once with every variant, starting one variant later
    than the round before, so a drift in machine speed moves all three
    means alike instead of whichever variant held the clock during it.
    """
    prog = build_task_program(PAYOFF_TASK, PAYOFF_PARAMS)
    prog.trace()  # warm the shared trace cache out of the timed region
    variants = [
        ("monolith", lambda: _map_rnn_monolith(prog)),
        ("pipeline", lambda: map_rnn_program(prog)),
        ("pipeline_no_verify", lambda: PassManager.default(verify=False).run_program(prog)),
    ]
    for _, fn in variants:
        fn()  # warm-up
    timed = {name: 0.0 for name, _ in variants}
    for rep in range(reps):
        for name, fn in variants[rep % 3:] + variants[:rep % 3]:
            t0 = time.perf_counter()
            fn()
            timed[name] += time.perf_counter() - t0
    timed = {name: total / reps for name, total in timed.items()}
    design = map_rnn_program(prog)
    return {
        "reps": reps,
        "mapping_ms": {k: v * 1e3 for k, v in timed.items()},
        "ratio": timed["pipeline"] / timed["monolith"],
        "ratio_no_verify": timed["pipeline_no_verify"] / timed["monolith"],
        "pass_timings_ms": {
            t.name: t.seconds * 1e3 for t in design.pass_timings
        },
    }


def _payoff() -> dict:
    """What the new optimization passes buy on LSTM-1152."""
    prog = build_task_program(PAYOFF_TASK, PAYOFF_PARAMS)
    points = {}
    for key, config in (
        ("default", PassConfig()),
        ("fuse_gates", PassConfig(fuse_gates=True)),
        ("double_buffer", PassConfig(double_buffer=True)),
        ("both", PassConfig(fuse_gates=True, double_buffer=True)),
    ):
        design = map_rnn_program(prog, pass_config=config)
        sim = simulate_pipeline(design.graph)
        points[key] = {
            "total_cycles": sim.total_cycles,
            "cycles_per_step": sim.cycles_per_step,
            "step_overhead": design.graph.step_overhead,
            "pcus_used": design.resources.pcus_used,
            "pmus_used": design.resources.pmus_used,
        }
    base = points["default"]
    return {
        "task": PAYOFF_TASK.name,
        "params": {"hu": PAYOFF_PARAMS.hu, "ru": PAYOFF_PARAMS.ru,
                   "rv": PAYOFF_PARAMS.rv},
        "points": points,
        "double_buffer_cycle_cut": (
            base["total_cycles"] - points["double_buffer"]["total_cycles"]
        ),
        "fuse_gates_pcu_cut": (
            base["pcus_used"] - points["fuse_gates"]["pcus_used"]
        ),
    }


def run(quick: bool = False) -> dict:
    return {
        "quick": quick,
        "parity": _parity(),
        "overhead": _overhead(40 if quick else 100),
        "payoff": _payoff(),
        "ceilings": {"overhead": OVERHEAD_CEILING},
    }


def check(metrics: dict) -> list[str]:
    """The regressions this benchmark exists to catch."""
    failures = []
    for case in metrics["parity"]["cases"]:
        if not case["identical"]:
            failures.append(
                f"pipeline diverged from the monolith on {case['case']}: "
                + "; ".join(case["diffs"][:3])
            )
    ratio = metrics["overhead"]["ratio"]
    if ratio > OVERHEAD_CEILING:
        failures.append(
            f"pipeline mapping costs {ratio:.2f}x the monolith "
            f"(ceiling {OVERHEAD_CEILING:.1f}x): passes are recomputing, "
            f"not bookkeeping"
        )
    payoff = metrics["payoff"]
    if payoff["double_buffer_cycle_cut"] <= 0:
        failures.append(
            "double_buffer shows no steps-loop cycle reduction on "
            f"{payoff['task']}"
        )
    points = payoff["points"]
    if points["double_buffer"]["pmus_used"] <= points["default"]["pmus_used"]:
        failures.append("double_buffer claims no extra PMUs — it did nothing")
    if payoff["fuse_gates_pcu_cut"] <= 0:
        failures.append(f"fuse_gates saved no PCUs on {payoff['task']}")
    if points["fuse_gates"]["total_cycles"] > points["default"]["total_cycles"]:
        failures.append("fuse_gates made the design slower")
    if points["both"]["total_cycles"] > min(
        points["fuse_gates"]["total_cycles"],
        points["double_buffer"]["total_cycles"],
    ):
        failures.append("combined pass config is slower than its parts")
    return failures


def _render(metrics: dict) -> str:
    payoff = metrics["payoff"]
    rows = [
        [
            key,
            f"{p['total_cycles']:,}",
            p["step_overhead"],
            p["pcus_used"],
            p["pmus_used"],
        ]
        for key, p in payoff["points"].items()
    ]
    overhead = metrics["overhead"]
    parity = "EXACT" if metrics["parity"]["identical"] else "BROKEN"
    title = (
        f"Pass pipeline: parity {parity} on {len(metrics['parity']['cases'])} "
        f"cases, overhead {overhead['ratio']:.2f}x monolith "
        f"(ceiling {OVERHEAD_CEILING:.1f}x) — {payoff['task']} "
        f"hu={payoff['params']['hu']} ru={payoff['params']['ru']}"
    )
    return format_table(
        ["pass config", "total cycles", "step overhead", "PCUs", "PMUs"],
        rows,
        title=title,
    )


def _write_json(metrics: dict) -> None:
    OUT_JSON.parent.mkdir(exist_ok=True)
    OUT_JSON.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")


def test_pass_pipeline(artifact):
    metrics = run(quick=False)
    _write_json(metrics)
    artifact("pass_pipeline", _render(metrics))
    failures = check(metrics)
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer timing reps (the CI perf-smoke configuration)",
    )
    parser.add_argument(
        "--parity",
        action="store_true",
        help="run only the golden-parity matrix (the CI parity smoke)",
    )
    args = parser.parse_args(argv)
    if args.parity:
        parity = _parity()
        for case in parity["cases"]:
            status = "ok" if case["identical"] else "DIVERGED"
            print(f"{case['case']:<32} {status}")
            for diff in case["diffs"]:
                print(f"    {diff}", file=sys.stderr)
        return 0 if parity["identical"] else 1
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
