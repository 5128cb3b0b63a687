"""The repo benchmark: one command, four workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-fifo --seed 0 --seconds 25 --trace 0

Each run repeats the workload, cold, in fresh single-threaded
interpreters (``perfbench/instance.py``) for ``--seconds`` seconds and
reports the median of every host-time metric; simulated results and
counts must repeat exactly across the repeats.  Host time is corrected
for machine-speed drift by reference slices interleaved through the
work (``perfbench/drift.py``).  Every workload reports every end-to-end
metric.

With ``--trace 1`` one more repeat runs with every layer's entry points
wrapped (``perfbench/tracer.py``) and the per-layer metrics are printed
instead: each layer's spans and counts, the simulated results of the
layer that produces them (``workloads.SIMULATED``), and
``trace.overhead_frac``, the traced repeat's corrected time over the
untraced median, minus 1.  A workload that bypasses a layer reads 0 there.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its unit and the environment.  The exit code is 1 when an
output check fails or the library raises during a run, and 2, with no
result printed, when the library or an entry point cannot be imported.

``python3 perfbench/selftest.py`` checks the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from drift import corrected_setup
from workloads import SIMULATED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("serve-fifo", "serve-mixed", "plan-capacity", "tune-table7")
DEFAULT_SEED = 0

#: End-to-end metrics and their units; every workload reports each.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "completed_frac": "frac",
}


def per_layer_unit(name: str) -> str:
    """Per-layer metric units; every workload reports every key."""
    if name in SIMULATED:
        return SIMULATED[name]
    if name.endswith("_s"):
        return "s"
    return "frac" if name.endswith("_frac") else "count"


#: Child processes must finish well inside the 180 s a run may take.
_CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The library could not be run: no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Cache bytecode inside the checkout, so set-up times a warm import
    # whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(mode: str, *args) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "instance.py"), mode, *map(str, args)],
        env=_child_env(),
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=_CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"instance {' '.join([mode, *map(str, args)])} exited with {proc.returncode}")
    if mode == "prime":
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: Set-up-only interpreters started after each timed run, so that set-up
#: is sampled more often than the timed call.
SETUP_SAMPLES_PER_RUN = 2


def run_instances(workload: str, seed: int, seconds: float, size: str) -> tuple:
    """Cold untraced runs for about ``seconds``: another run starts only
    if it is expected to end less than half a run past the budget.  A
    run that fails its checks ends the series.  Every set-up sample, the
    timed runs' own and the set-up-only ones, follows a reference import
    (:func:`drift.corrected_setup`).

    Returns the runs' records, every set-up time sampled, and the
    reference import before each.
    """
    records, setups, references = [], [], []

    def sample(mode: str) -> dict:
        references.append(_child("reference")["reference_s"])
        record = _child(mode, workload, seed, size)
        setups.append(record["setup_s"])
        return record

    start = time.perf_counter()
    while True:
        records.append(sample("run"))
        if records[-1]["failures"]:
            return records, setups, references
        for _ in range(SETUP_SAMPLES_PER_RUN):
            sample("setup")
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(records) > seconds:
            return records, setups, references


def _median(records: list, key: str) -> float:
    return statistics.median(r[key] for r in records)


def end_to_end(records: list, setups: list, references: list) -> dict:
    return {
        "setup_s": corrected_setup(setups, references),
        "wall_s": _median(records, "host_s"),
        "peak_rss_mb": _median(records, "peak_rss_mb"),
        "completed_frac": sum(r["completed"] for r in records)
        / sum(r["attempted"] for r in records),
    }


def consistency_failures(records: list) -> list:
    """Simulated results must repeat exactly across a seed's runs."""
    first = records[0]
    failures = []
    for i, r in enumerate(records[1:], 1):
        for key in ("signature", "metrics", "attempted", "completed", "work"):
            if r[key] != first[key]:
                failures.append(f"run {i} differs from run 0 in {key}")
    return failures


def environment(record: dict) -> dict:
    rev = "unknown"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=10,
        )
        top, head = git.stdout.split()
        if git.returncode == 0 and Path(top).resolve() == ROOT:
            rev = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass  # not a git checkout
    return {
        "git_rev": rev,
        "nproc": len(os.sched_getaffinity(0)),
        "python": record["python"],
        "numpy": record["numpy"],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run the benchmark and return its result object (plus detail)."""
    _child("prime")
    records, setups, references = run_instances(workload, seed, seconds, size)
    failures = consistency_failures(records)
    for r in records:
        failures += r["failures"]
    runs = list(records)
    if trace:
        traced = _child("trace", workload, seed, size)
        failures += traced["failures"]
        failures += [f"traced run: {f}" for f in consistency_failures([records[0], traced])]
        runs.append(traced)
        metrics = dict(traced["layers"])
        metrics.update({name: 0.0 for name in SIMULATED})
        metrics.update(traced["metrics"])
        metrics.update(
            {
                "setup.import_s": _median(records, "import_s"),
                "setup.prepare_s": _median(records, "prepare_s"),
                "host.raw_s": _median(records, "raw_s"),
                "host.ref_s": _median(records, "ref_s"),
                "trace.overhead_frac": traced["host_s"] / _median(records, "host_s") - 1.0,
            }
        )
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(records, setups, references)
        units = dict(END_TO_END)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["attempted"] - r["completed"] for r in runs)
    return {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "failures": failures,
        "runs": len(records),
        "samples": records[0]["work"],
        "setup_raw_s": statistics.median(setups),
        "reference_s": statistics.median(references),
        "environment": environment(records[0]),
    }


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"# workload {args.workload} seed {args.seed}: {result['runs']} cold runs")
    print("# environment " + json.dumps(result["environment"]))
    print(f"# set-up median {result['setup_raw_s']:.6g} s raw, reference import"
          f" median {result['reference_s']:.6g} s")
    n = result["samples"]
    for name, m in result["metrics"].items():
        extra = ""
        if name == "serving.stats.sim_p99_ms" and n:
            extra = f"  (n={n})"
        elif name == "wall_s" and n:
            extra = f"  ({n} simulated requests, {n / m['value']:.6g}/s)"
        print(f"# {name} = {m['value']:.6g} {m['unit']}{extra}")
    for failure in result["failures"]:
        print(f"# FAILED: {failure}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
