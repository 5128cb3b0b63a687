"""Million-request streams through the optimized event loop.

The ROADMAP's north star is "heavy traffic from millions of users"; the
paper's serving scenario is a stream of batch-1 requests under a
millisecond SLO.  This benchmark drives ≥1M-request seeded streams
through the discrete-event simulator and guards the three properties
that make that feasible on one machine:

* **Throughput** — ``mode="summary"`` with a presorted stream and the
  per-shape cost memo must be **≥10×** the events/sec of the pre-PR
  loop (the general heap path recosting every request, materializing a
  full report) on the 100k-request fifo/none configuration, and the
  million-request run must clear an absolute events/sec floor.  The two
  sides of the ratio alternate over five rounds, each timed after a
  ``gc.collect()``, and each side keeps its median run.
* **O(1) memory** — the summary mode's peak traced memory must be
  independent of stream length (a 5× longer stream may not grow the
  peak), while the materialized ``mode="full"`` grows linearly (also
  checked, so the comparison stays honest).
* **Correctness under speed** — the summary's exact counters (request
  count, SLO attainment, mean sojourn) must match the materialized
  report on the comparison stream.
* **The mixed lazy path** — three Zipf- and fixed-length tenants merged
  by ``mix(presorted=True)`` into one EDF/bucket summary stream: its
  exact counters must equal the summary of the eager ``mix()`` of the
  same streams, and its peak traced memory must not grow with stream
  length either.  The memory runs give each tenant its task's own length:
  the summary keeps one histogram per (tenant, length) class once the
  class passes its 64-sample reservoir, so with hundreds of Zipf lengths
  its memory grows until the rarest class has spilled, however the
  stream is merged.  A parity and memory guard only: no timing floor.

Run under pytest (CI's benchmarks job) or standalone::

    python benchmarks/bench_event_loop_scale.py [--quick]

Either way the metrics land in ``benchmarks/out/event_loop_scale.json``
(the perf-smoke CI job uploads it as an artifact and fails the build on
a regression below the pinned floors).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

# Standalone bootstrap (python benchmarks/bench_event_loop_scale.py
# without PYTHONPATH=src): put the in-repo package on the path first.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.harness.report import format_table
from repro.serving import (
    NoneBatcher,
    ServingEngine,
    ZipfLength,
    mix,
    poisson_arrivals,
)
from repro.workloads.deepbench import task

OUT_JSON = Path(__file__).parent / "out" / "event_loop_scale.json"

TASK = task("lstm", 512, 25)
RATE = 1000.0
SLO_MS = 5.0
SEED = 3

#: Absolute events/sec floor for the big fifo/none summary run (2 events
#: per request: one arrival, one completion; lazy generation included).
#: Measured ~700k ev/s on a dev laptop; pinned conservatively so slow CI
#: runners pass while a real event-loop regression still fails.
EVENTS_PER_S_FLOOR = 150_000.0

#: Required speedup of summary+presorted+memo over the pre-PR-equivalent
#: loop on the 100k-request fifo/none comparison.
SPEEDUP_FLOOR = 10.0

#: Alternating rounds of the speedup comparison; each side keeps its
#: median run, so one noisy window cannot decide the ratio.
COMPARISON_REPEATS = 5

#: The mixed stream's tenants, (task, lengths, SLO ms, priority, tenant),
#: each Poisson at MIXED_RATE on one GPU with EDF and bucket batching.
MIXED_TENANTS = (
    (task("lstm", 1024, 25), ZipfLength(10, 300), 50.0, 0, "lstm-1024"),
    (task("gru", 512, 1), ZipfLength(5, 120, alpha=1.5), 20.0, 0, "gru-512"),
    (TASK, None, 5.0, 1, "lstm-512"),
)
MIXED_RATE = 250.0
MIXED_SERVE = dict(scheduler="edf", batcher="bucket", max_batch=16, mode="summary")

#: Peak-memory growth a 5x longer summary stream may show.
MEMORY_GROWTH_CEILING = 1.5


class _HeapPathNoneBatcher(NoneBatcher):
    """Batch-1 policy that *overrides* ``hold_until`` (returning ``now``
    unchanged), which defeats the no-hold fast-path detection and forces
    ``run_stream`` onto the general heap loop — the pre-PR code path.
    Timeline-identical to ``"none"``; only the loop machinery differs,
    which is exactly what the baseline should measure."""

    def hold_until(self, queue, now):
        return now


def _measure(engine: ServingEngine, arrivals, **kwargs):
    kwargs.setdefault("slo_ms", SLO_MS)
    t0 = time.perf_counter()
    report = engine.serve_stream(arrivals, **kwargs)
    return time.perf_counter() - t0, report


def _lazy_stream(n: int, *, seed: int = SEED, lengths=None):
    return poisson_arrivals(
        TASK,
        rate_per_s=RATE,
        n_requests=n,
        seed=seed,
        lengths=lengths,
        materialize=False,
    )


def _comparison(n: int) -> dict:
    """Pre-PR-equivalent loop vs the optimized one, same 100k arrivals.

    The arrivals are materialized once and shared, so the comparison
    measures the loop (event machinery + per-request costing +
    accounting), not traffic generation.  Each timed run starts from a
    fresh ``gc.collect()``, so a collection of the previous run's garbage
    (the baseline's full report) cannot land inside the next one; the
    sides alternate over :data:`COMPARISON_REPEATS` rounds and each keeps
    its median, so machine drift hits both alike.
    """
    arrivals = poisson_arrivals(TASK, rate_per_s=RATE, n_requests=n, seed=SEED)
    baseline_runs: list[float] = []
    optimized_runs: list[float] = []
    for _round in range(COMPARISON_REPEATS):
        gc.collect()
        elapsed, baseline_report = _measure(
            ServingEngine("gpu", memoize=False),
            arrivals,
            batcher=lambda: _HeapPathNoneBatcher(),
        )
        baseline_runs.append(elapsed)
        gc.collect()
        elapsed, summary = _measure(
            ServingEngine("gpu"), arrivals, mode="summary", presorted=True
        )
        optimized_runs.append(elapsed)
    baseline_s = statistics.median(baseline_runs)
    optimized_s = statistics.median(optimized_runs)
    return {
        "n_requests": n,
        "repeats": COMPARISON_REPEATS,
        "baseline_events_per_s": 2 * n / baseline_s,
        "optimized_events_per_s": 2 * n / optimized_s,
        "speedup": baseline_s / optimized_s,
        # Exact-counter cross-check: the summary must agree with the
        # materialized report it replaces.
        "counters_match": bool(
            summary.n_requests == baseline_report.n_requests
            and summary.slo_attainment == baseline_report.slo_attainment
            and abs(summary.mean_ms - baseline_report.mean_ms)
            <= 1e-9 * abs(baseline_report.mean_ms)
        ),
        "p99_ms_full": baseline_report.p99_ms,
        "p99_ms_summary": summary.p99_ms,
    }


def _big_runs(n: int) -> dict:
    """The headline runs: ≥1M lazily generated requests, O(1) memory."""
    fifo_s, fifo = _measure(
        ServingEngine("gpu"), _lazy_stream(n), mode="summary", presorted=True
    )
    bucket_s, bucket = _measure(
        ServingEngine("gpu"),
        _lazy_stream(n, seed=SEED + 1, lengths=ZipfLength(10, 200, alpha=1.6)),
        mode="summary",
        presorted=True,
        scheduler="edf",
        batcher="bucket",
        max_batch=8,
        slo_ms=50.0,
    )
    return {
        "n_requests": n,
        "fifo_none": {
            "elapsed_s": fifo_s,
            "events_per_s": 2 * n / fifo_s,
            "requests_per_s": n / fifo_s,
            "p99_ms": fifo.p99_ms,
            "slo_attainment": fifo.slo_attainment,
        },
        "edf_bucket": {
            "elapsed_s": bucket_s,
            "requests_per_s": n / bucket_s,
            "mean_batch_size": bucket.mean_batch_size,
            "padding_waste_frac": bucket.padding_waste_frac,
            "slo_attainment": bucket.slo_attainment,
        },
    }


def _peak_mb(n: int, mode: str) -> float:
    """Peak traced memory (MB) of one lazily-fed stream run."""
    engine = ServingEngine("gpu")
    stream = _lazy_stream(n)
    tracemalloc.start()
    engine.serve_stream(stream, slo_ms=SLO_MS, mode=mode, presorted=True)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak / 1e6


def _mixed_streams(n: int, *, materialize: bool, zipf: bool = True) -> list:
    return [
        poisson_arrivals(
            base,
            rate_per_s=MIXED_RATE,
            n_requests=n // len(MIXED_TENANTS),
            seed=SEED + i,
            tenant=name,
            priority=priority,
            slo_ms=slo_ms,
            lengths=lengths if zipf else None,
            materialize=materialize,
        )
        for i, (base, lengths, slo_ms, priority, name) in enumerate(MIXED_TENANTS)
    ]


def _mixed_lazy(n: int, *, zipf: bool = True):
    """The lazily merged mixed stream in summary mode."""
    return ServingEngine("gpu").serve_stream(
        mix(*_mixed_streams(n, materialize=False, zipf=zipf), presorted=True),
        presorted=True,
        **MIXED_SERVE,
    )


def _exact_counters(summary) -> tuple:
    return (
        summary.n_requests,
        summary.slo_attainment,
        summary.mean_ms,
        summary.p99_ms,
        summary.mean_batch_size,
        summary.padding_waste_frac,
        tuple((t, s.n_requests, s.mean_ms) for t, s in summary.per_tenant().items()),
    )


def _mixed(n: int, n_small: int, n_large: int) -> dict:
    """Parity of the lazy mix with the eager one, and its peak memory."""
    lazy = _mixed_lazy(n)
    eager = ServingEngine("gpu").serve_stream(
        mix(*_mixed_streams(n, materialize=True)), **MIXED_SERVE
    )
    peaks = []
    for size in (n_small, n_large):
        tracemalloc.start()
        _mixed_lazy(size, zipf=False)
        peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        tracemalloc.stop()
    return {
        "n_requests": lazy.n_requests,
        "counters_match": _exact_counters(lazy) == _exact_counters(eager),
        "mean_batch_size": lazy.mean_batch_size,
        "slo_attainment": lazy.slo_attainment,
        "n_small": n_small,
        "n_large": n_large,
        "peak_mb": {"small": peaks[0], "large": peaks[1]},
        "growth": peaks[1] / peaks[0],
    }


def _memory(n_small: int, n_large: int) -> dict:
    summary_small = _peak_mb(n_small, "summary")
    summary_large = _peak_mb(n_large, "summary")
    full_small = _peak_mb(n_small, "full")
    full_large = _peak_mb(n_large, "full")
    return {
        "n_small": n_small,
        "n_large": n_large,
        "summary_peak_mb": {"small": summary_small, "large": summary_large},
        "full_peak_mb": {"small": full_small, "large": full_large},
        "summary_growth": summary_large / summary_small,
        "full_growth": full_large / full_small,
    }


def run(quick: bool = False) -> dict:
    comparison = _comparison(30_000 if quick else 100_000)
    big = _big_runs(150_000 if quick else 1_000_000)
    sizes = (10_000, 50_000) if quick else (20_000, 100_000)
    memory = _memory(*sizes)
    mixed = _mixed(30_000 if quick else 150_000, *sizes)
    return {
        "quick": quick,
        "workload": f"{TASK.name} poisson@{RATE:.0f}/s seed={SEED}",
        "comparison": comparison,
        "big": big,
        "memory": memory,
        "mixed": mixed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e3,
        "floors": {
            "events_per_s": EVENTS_PER_S_FLOOR,
            "speedup": SPEEDUP_FLOOR,
        },
    }


def check(metrics: dict) -> list[str]:
    """The regressions this benchmark exists to catch."""
    failures = []
    cmp_ = metrics["comparison"]
    if cmp_["speedup"] < SPEEDUP_FLOOR:
        failures.append(
            f"summary loop is only {cmp_['speedup']:.1f}x the pre-PR loop "
            f"on the {cmp_['n_requests']}-request fifo/none config "
            f"(floor: {SPEEDUP_FLOOR:.0f}x)"
        )
    if not cmp_["counters_match"]:
        failures.append(
            "StreamSummary counters diverged from the materialized report"
        )
    big = metrics["big"]["fifo_none"]
    if big["events_per_s"] < EVENTS_PER_S_FLOOR:
        failures.append(
            f"big-run event rate {big['events_per_s']:.0f}/s fell below "
            f"the {EVENTS_PER_S_FLOOR:.0f}/s floor"
        )
    mem = metrics["memory"]
    if mem["summary_growth"] > MEMORY_GROWTH_CEILING:
        failures.append(
            f"summary-mode peak memory grew {mem['summary_growth']:.2f}x "
            f"on a {mem['n_large'] / mem['n_small']:.0f}x longer stream "
            f"(must be independent of stream length)"
        )
    if mem["full_growth"] < 2.0:
        failures.append(
            f"full-mode peak memory grew only {mem['full_growth']:.2f}x on "
            f"a {mem['n_large'] / mem['n_small']:.0f}x longer stream — the "
            f"baseline comparison is no longer meaningful"
        )
    bucket = metrics["big"]["edf_bucket"]
    if not bucket["mean_batch_size"] >= 1.0:
        failures.append("edf/bucket run produced an impossible batch size")
    mixed = metrics["mixed"]
    if not mixed["counters_match"]:
        failures.append(
            "the mix(presorted=True) summary's counters diverged from the "
            "eager mix() summary on the same streams"
        )
    if mixed["growth"] > MEMORY_GROWTH_CEILING:
        failures.append(
            f"mixed summary-mode peak memory grew {mixed['growth']:.2f}x on a "
            f"{mixed['n_large'] / mixed['n_small']:.0f}x longer stream "
            f"(must be independent of stream length)"
        )
    return failures


def _render(metrics: dict) -> str:
    cmp_ = metrics["comparison"]
    big = metrics["big"]
    mem = metrics["memory"]
    mixed = metrics["mixed"]
    rows = [
        [
            f"pre-PR loop (heap, full, no memo) {cmp_['n_requests'] // 1000}k",
            f"{cmp_['baseline_events_per_s']:,.0f}",
            "-",
            f"{mem['full_peak_mb']['large']:.1f} @ {mem['n_large'] // 1000}k",
        ],
        [
            f"summary+presorted+memo {cmp_['n_requests'] // 1000}k",
            f"{cmp_['optimized_events_per_s']:,.0f}",
            f"{cmp_['speedup']:.1f}x",
            f"{mem['summary_peak_mb']['large']:.2f} @ {mem['n_large'] // 1000}k",
        ],
        [
            f"summary fifo/none {big['n_requests'] // 1000}k (lazy gen)",
            f"{big['fifo_none']['events_per_s']:,.0f}",
            "-",
            "O(1)",
        ],
        [
            f"summary edf/bucket {big['n_requests'] // 1000}k (zipf lengths)",
            f"{2 * big['n_requests'] / big['edf_bucket']['elapsed_s']:,.0f}",
            "-",
            "O(1)",
        ],
        [
            f"summary mix(presorted) 3 tenants {mixed['n_requests'] // 1000}k "
            f"({'=' if mixed['counters_match'] else '!='} eager mix)",
            "-",
            "-",
            f"{mixed['peak_mb']['large']:.2f} @ {mixed['n_large'] // 1000}k",
        ],
    ]
    return format_table(
        ["configuration", "events/s", "speedup", "peak MB"],
        rows,
        title=f"Event-loop scale: {metrics['workload']} "
        f"(floors: {SPEEDUP_FLOOR:.0f}x, "
        f"{EVENTS_PER_S_FLOOR:,.0f} ev/s; summary mem growth "
        f"{mem['summary_growth']:.2f}x, mixed {mixed['growth']:.2f}x, vs full "
        f"{mem['full_growth']:.2f}x)",
    )


def _write_json(metrics: dict) -> None:
    OUT_JSON.parent.mkdir(exist_ok=True)
    OUT_JSON.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")


def test_event_loop_scale(artifact):
    metrics = run(quick=False)
    _write_json(metrics)
    artifact("event_loop_scale", _render(metrics))
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
