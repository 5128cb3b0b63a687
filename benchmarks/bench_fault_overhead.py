"""Fault-injection overhead and SLO degradation under unreliable hardware.

PR 7 added seeded fault injection (``repro.serving.faults``): replica
crashes with recovery, heavy-tail stragglers, priority preemption, and
per-request timeouts/retries/hedges.  The perfect-machine contract is
that ``faults="none"`` is not merely *statistically* identical to a run
that never mentions faults — it is the **same code path**, so the
report is bit-identical and the event-loop throughput unchanged.  This
benchmark guards that contract and records what faults actually cost:

* **No-fault parity** — a full-mode stream served with no fault
  arguments and one served with ``faults="none"`` must produce
  identical response timelines.  Checked unconditionally: it is the
  correctness contract, not a performance number.
* **Overhead floor** — events/s of the ``faults="none"`` summary run
  must stay within noise of the fault-free baseline (floor 0.7x, far
  above any real regression; both sides run the identical loop).  Each
  variant is timed five times, alternating, after a ``gc.collect()``,
  and its median run counts.  The chaos-mode throughput is recorded
  alongside for the curious — the fault loop pays for copy tracking
  and crash timelines, so it is allowed to be slower, not the default
  path.
* **SLO-vs-crash-rate sweep** — a 2-replica fleet at a fixed arrival
  rate, swept across mean-time-between-failure values.  Attainment
  under the harshest crash regime must not beat the perfect machine,
  and every point conserves its requests.

Run under pytest (CI's benchmarks job) or standalone::

    python benchmarks/bench_fault_overhead.py [--quick]

Either way the metrics land in ``benchmarks/out/fault_overhead.json``
(the perf-smoke CI job uploads it as an artifact).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

# Standalone bootstrap (python benchmarks/bench_fault_overhead.py
# without PYTHONPATH=src): put the in-repo package on the path first.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.harness.report import format_table
from repro.serving import Fleet, ServingEngine, get_fault_policy, poisson_arrivals
from repro.workloads.deepbench import task

OUT_JSON = Path(__file__).parent / "out" / "fault_overhead.json"

TASK = task("lstm", 512, 25)
#: Two gpu replicas sustain ~2.7k req/s on this task; 2k/s keeps the
#: perfect machine comfortably inside the SLO so the crash sweep has
#: headroom to visibly degrade it.
RATE = 2_000.0
SLO_MS = 5.0
SEED = 2026

#: ``faults="none"`` is the same loop as no fault arguments at all, so
#: its throughput ratio is ~1.0 modulo timer noise; 0.7 only trips if
#: the perfect-machine path starts paying for the fault machinery.
NONE_OVERHEAD_FLOOR = 0.7

#: Timed runs per overhead variant; the variants alternate and each
#: reports its median run.
OVERHEAD_REPEATS = 5

#: Crash sweep: mean time between failures per replica, seconds.  None
#: is the perfect machine; 0.05 s crashes each replica many times per
#: simulated second.
MTBF_SWEEP = (None, 1.0, 0.25, 0.05)
MTTR_S = 0.05


def _stream(n: int):
    return poisson_arrivals(TASK, rate_per_s=RATE, n_requests=n, seed=SEED)


def _parity(n: int) -> dict:
    """Full-mode timelines with and without the faults argument."""
    arrivals = _stream(n)
    engine = ServingEngine("gpu")
    plain = engine.serve_stream(arrivals, slo_ms=SLO_MS)
    none = engine.serve_stream(arrivals, slo_ms=SLO_MS, faults="none")
    return {
        "n_requests": n,
        "identical": bool(
            plain.responses == none.responses
            and plain.p99_ms == none.p99_ms
            and not none.fault_stats.any
        ),
        "p99_ms": plain.p99_ms,
    }


def _overhead(n: int) -> dict:
    """Events/s of the perfect machine vs faults="none" vs chaos.

    Each timed run starts from a fresh ``gc.collect()``: otherwise a
    generation-2 collection of garbage left by earlier stages (the
    full-mode parity reports) can land inside one tens-of-milliseconds
    window and halve that variant's rate.  The variants alternate over
    :data:`OVERHEAD_REPEATS` rounds and each keeps its median run, so
    drift hits all three alike and one noisy window cannot decide the
    ratio.
    """
    arrivals = _stream(n)
    engine = ServingEngine("gpu")
    variants = (
        ("baseline", {}),
        ("none", {"faults": "none"}),
        ("chaos", {"faults": "chaos", "fault_seed": SEED}),
    )
    runs: dict[str, list[float]] = {name: [] for name, _kwargs in variants}
    for _round in range(OVERHEAD_REPEATS):
        for name, kwargs in variants:
            gc.collect()
            t0 = time.perf_counter()
            report = engine.serve_stream(
                arrivals, slo_ms=SLO_MS, mode="summary", **kwargs
            )
            runs[name].append(time.perf_counter() - t0)
            assert report.n_requests == n
    elapsed = {name: statistics.median(times) for name, times in runs.items()}
    rps = {name: n / s for name, s in elapsed.items()}
    return {
        "n_requests": n,
        "repeats": OVERHEAD_REPEATS,
        "elapsed_s": elapsed,
        "requests_per_s": rps,
        "none_ratio": rps["none"] / rps["baseline"],
        "chaos_ratio": rps["chaos"] / rps["baseline"],
    }


def _slo_sweep(n: int) -> list[dict]:
    """SLO attainment of a 2-replica fleet as crashes get more frequent."""
    arrivals = _stream(n)
    points = []
    for mtbf_s in MTBF_SWEEP:
        faults = (
            "none"
            if mtbf_s is None
            else get_fault_policy("crash", mtbf_s=mtbf_s, mttr_s=MTTR_S)
        )
        report = Fleet("gpu", replicas=2, policy="least-loaded").serve_stream(
            arrivals, slo_ms=SLO_MS, faults=faults, fault_seed=SEED
        )
        points.append(
            {
                "mtbf_s": mtbf_s,
                "crashes": report.fault_stats.crashes,
                "downtime_s": report.fault_stats.downtime_s,
                "slo_attainment": report.slo_attainment,
                "p99_ms": report.p99_ms,
                "conserved": bool(report.n_requests == n),
            }
        )
    return points


def run(quick: bool = False) -> dict:
    return {
        "quick": quick,
        "workload": f"{TASK.name} poisson@{RATE:.0f}/s seed={SEED}",
        "parity": _parity(2_000 if quick else 10_000),
        "overhead": _overhead(10_000 if quick else 60_000),
        "slo_sweep": _slo_sweep(1_500 if quick else 6_000),
        "floors": {"none_overhead": NONE_OVERHEAD_FLOOR},
    }


def check(metrics: dict) -> list[str]:
    """The regressions this benchmark exists to catch."""
    failures = []
    if not metrics["parity"]["identical"]:
        failures.append(
            'faults="none" no longer matches the fault-free timeline '
            "bit for bit"
        )
    ratio = metrics["overhead"]["none_ratio"]
    if ratio < NONE_OVERHEAD_FLOOR:
        failures.append(
            f'faults="none" sustained only {ratio:.2f}x of the fault-free '
            f"throughput (floor {NONE_OVERHEAD_FLOOR:.1f}x): the perfect "
            f"machine is paying for the fault machinery"
        )
    sweep = metrics["slo_sweep"]
    if any(not point["conserved"] for point in sweep):
        failures.append("a crash-sweep point lost requests")
    perfect = sweep[0]["slo_attainment"]
    harshest = sweep[-1]["slo_attainment"]
    if harshest > perfect:
        failures.append(
            f"SLO attainment rose under the harshest crash regime "
            f"({harshest:.3f} > {perfect:.3f}): crashes are not costing "
            f"anything"
        )
    if sweep[-1]["p99_ms"] < sweep[0]["p99_ms"]:
        failures.append(
            f"P99 fell under the harshest crash regime "
            f"({sweep[-1]['p99_ms']:.3f} < {sweep[0]['p99_ms']:.3f} ms)"
        )
    for point in sweep[1:]:
        if point["crashes"] == 0:
            failures.append(
                f"mtbf={point['mtbf_s']}s injected zero crashes — the "
                f"sweep is not exercising the fault path"
            )
    return failures


def _render(metrics: dict) -> str:
    overhead = metrics["overhead"]
    rows = [
        [
            "perfect machine" if p["mtbf_s"] is None else f"mtbf {p['mtbf_s']}s",
            p["crashes"],
            f"{p['downtime_s'] * 1e3:.1f}",
            f"{p['p99_ms']:.3f}",
            f"{100.0 * p['slo_attainment']:.1f}%",
        ]
        for p in metrics["slo_sweep"]
    ]
    parity = "EXACT" if metrics["parity"]["identical"] else "BROKEN"
    title = (
        f"Fault overhead: {metrics['workload']} — no-fault parity {parity}, "
        f'faults="none" at {overhead["none_ratio"]:.2f}x baseline '
        f"(chaos {overhead['chaos_ratio']:.2f}x)"
    )
    return format_table(
        ["crash regime (2 replicas)", "crashes", "downtime ms", "P99 ms",
         "SLO attained"],
        rows,
        title=title,
    )


def _write_json(metrics: dict) -> None:
    OUT_JSON.parent.mkdir(exist_ok=True)
    OUT_JSON.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")


def test_fault_overhead(artifact):
    metrics = run(quick=False)
    _write_json(metrics)
    artifact("fault_overhead", _render(metrics))
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
