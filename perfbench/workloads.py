"""The benchmark's four workloads: seeded inputs, the timed call, output checks.

All serving traffic is an open loop in simulated time: seeded arrivals
come at fixed rates whatever the service does, and one host process
replays them with no clients, so generator lateness does not arise.

* ``serve-fifo`` -- the paper's scenario and the serving headline: one
  Plasticine engine serves lstm-512 (T=25) batch-1 from lazy Poisson
  arrivals at 70% of its service rate, 5 ms SLO, FIFO.  Exercises the
  traffic generator, the FIFO fast loop and the summary fold; the
  scheduler, batcher, dispatch and compiler never run.
* ``serve-mixed`` -- three tenants (lstm-1024 Zipf lengths, gru-512 Zipf
  lengths, fixed-length lstm-512 at priority 1) at 250 req/s each on one
  GPU engine with EDF scheduling and length-bucketed batching.  The only
  workload through the scheduler, the batcher and per-request length
  variants.
* ``plan-capacity`` -- the fleet capacity planner for gru-2816 (T=25)
  at a 5 ms SLO: 19 candidate fleets replayed on one diurnal stream with
  SLO pruning.  The only workload through the multi-replica heap loop,
  heterogeneous dispatch, pruning and repeated compiles.
* ``tune-table7`` -- the Table 7 chip DSE over a fixed subset of the
  DeepBench suite that keeps both RNN kinds and the smallest and largest
  hidden sizes.  The only workload with program build, mapping passes
  and cycle simulation in the timed phase.  It has no random inputs: the
  seed is recorded but changes nothing.

Every run starts cold in a fresh interpreter: no worker pools, no
on-disk caches, and the library's per-process memos empty (checked from
the library's own counters).
"""

from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass

from drift import Reference

#: Run sizes: "full" is the benchmark, "toy" the self-test.
SIZES = {
    "serve-fifo": {"full": 1_000_000, "toy": 20_000},
    "serve-mixed": {"full": 150_000, "toy": 3_000},
    "plan-capacity": {"full": 20_000, "toy": 2_000},
    "tune-table7": {
        "full": ("lstm-h256-t150", "gru-h512-t1", "lstm-h1024-t25", "gru-h2816-t750"),
        "toy": ("lstm-h256-t150", "gru-h512-t1"),
    },
}

#: Requests between reference slices on the request-driven workloads.
_TICK_EVERY = {"serve-fifo": 5_000, "serve-mixed": 2_000, "plan-capacity": 2_000}

SLO_MS = 5.0

#: Simulated results and their units, each named for the layer that
#: produces it.  They repeat exactly for a seed, and are reported with the
#: per-layer metrics (0 on a workload that bypasses the layer): an
#: end-to-end metric must describe every workload, and these do not.
#: On plan-capacity the serving results are those of the best fleet.
SIMULATED = {
    "serving.stats.sim_p99_ms": "ms",
    "serving.stats.sim_slo_attainment": "frac",
    "dse.capacity.best_usd_per_1m": "USD",
    "dse.capacity.simulated_requests": "count",
    "dse.search.best_cycles_geomean": "cycles",
}


@dataclass
class Outcome:
    """What one timed call produced, after its output checks."""

    #: Operations attempted (requests, candidates or tasks), and how many
    #: completed and passed their checks.
    attempted: int
    completed: int
    failures: list
    #: Simulated results, keyed by :data:`SIMULATED` names.
    metrics: dict
    #: JSON-able value that must repeat exactly across runs of a seed.
    signature: object
    #: Simulated requests served (serving workloads only).
    work: int = 0


def _summary_checks(summary, generated: int) -> list:
    failures = []
    if summary.n_requests != generated:
        failures.append(
            f"summary counts {summary.n_requests} requests, generated {generated}"
        )
    tenant_total = sum(s.n_requests for s in summary.per_tenant().values())
    if tenant_total != summary.n_requests:
        failures.append(
            f"per-tenant counts sum to {tenant_total}, summary has {summary.n_requests}"
        )
    if not 0.0 <= summary.slo_attainment <= 1.0:
        failures.append(f"SLO attainment {summary.slo_attainment} outside [0, 1]")
    if not summary.p99_ms > 0.0:
        failures.append(f"P99 {summary.p99_ms} ms is not positive")
    return failures


def _serving_outcome(summary, generated: int, asked: int) -> Outcome:
    failures = _summary_checks(summary, generated)
    if generated != asked:
        failures.append(f"the arrivals yielded {generated} requests, {asked} were asked for")
    return Outcome(
        attempted=asked,
        completed=0 if failures else summary.n_requests,
        failures=failures,
        metrics={
            "serving.stats.sim_p99_ms": summary.p99_ms,
            "serving.stats.sim_slo_attainment": summary.slo_attainment,
        },
        signature=[
            summary.n_requests,
            summary.p99_ms,
            summary.slo_attainment,
            summary.mean_ms,
            summary.mean_batch_size,
        ],
        work=summary.n_requests,
    )


class Workload:
    """One workload: ``prepare`` builds its inputs from the seed (set-up),
    ``run`` is the timed call, ``check`` verifies what it returned."""

    name = ""
    #: Reference slices add the numpy fill (the workload fills big arrays).
    fill = False

    def hook(self, state: dict, ref: Reference) -> None:
        """Place reference ticks inside library calls (none by default)."""

    def crashed(self, state: dict | None, exc: Exception) -> Outcome:
        """The outcome of a set-up, timed call or check that raised
        ``exc``; with no ``state`` the set-up failed, one operation."""
        return Outcome(
            attempted=1 if state is None else self.attempted(state),
            completed=0,
            failures=[f"{self.name} raised {type(exc).__name__}: {exc}"],
            metrics={},
            signature=None,
        )

    def check_trace(self, layers: dict) -> list:
        """Failures visible only in the per-layer metrics."""
        return []


class ServeFifo(Workload):
    name = "serve-fifo"

    def prepare(self, seed: int, size: str) -> dict:
        from repro.serving import ServingEngine
        from repro.workloads.deepbench import task

        lstm = task("lstm", 512, 25)
        engine = ServingEngine("plasticine")
        service_s = engine.result_for(lstm).latency_s  # compiles
        return {
            "engine": engine,
            "task": lstm,
            "rate": 0.7 / service_s,
            "n": SIZES[self.name][size],
            "seed": seed,
        }

    def run(self, state: dict, ref: Reference, tracer=None):
        from repro.serving import poisson_arrivals

        arrivals = poisson_arrivals(
            state["task"],
            rate_per_s=state["rate"],
            n_requests=state["n"],
            seed=state["seed"],
            materialize=False,
        )
        if tracer is not None:
            arrivals = tracer.iterate("serving.traffic", "arrivals", arrivals)
        return state["engine"].serve_stream(
            ref.interleave(arrivals, _TICK_EVERY[self.name]),
            mode="summary",
            presorted=True,
            slo_ms=SLO_MS,
        )

    def attempted(self, state: dict) -> int:
        return state["n"]

    def check(self, state: dict, ref: Reference, summary) -> Outcome:
        return _serving_outcome(summary, ref.items, state["n"])

    def check_trace(self, layers: dict) -> list:
        """The FIFO fast path must still have run under the tracer."""
        return [
            f"{key} = {layers[key]} on the FIFO fast path"
            for key in ("serving.scheduler.calls", "serving.batching.batches",
                        "serving.fleet.calls")
            if layers[key] != 0
        ]


class ServeMixed(Workload):
    name = "serve-mixed"
    #: 400 req/s per tenant runs the GPU at a batch-1 load of 1.1, where
    #: P99 swings 15% between seeds.  At 300 it still spreads 4-5.5% (IQR
    #: over median, 8-10 seeds of 150k requests, and no less at 300k); at
    #: 250 it spreads 3%, with a mean batch of 1.26.
    rate_per_tenant = 250.0

    def prepare(self, seed: int, size: str) -> dict:
        from repro.serving import ServingEngine, ZipfLength
        from repro.workloads.deepbench import task

        tenants = (
            # (task, lengths, SLO ms, priority, tenant)
            (task("lstm", 1024, 25), ZipfLength(10, 300), 50.0, 0, "lstm-1024"),
            (task("gru", 512, 1), ZipfLength(5, 120, alpha=1.5), 20.0, 0, "gru-512"),
            (task("lstm", 512, 25), None, 5.0, 1, "lstm-512"),
        )
        engine = ServingEngine("gpu")
        for tenant in tenants:
            engine.prepare(tenant[0])  # compiles each family
        return {
            "engine": engine,
            "tenants": tenants,
            "n_each": SIZES[self.name][size] // len(tenants),
            "seed": seed,
        }

    def run(self, state: dict, ref: Reference, tracer=None):
        from repro.serving import mix, poisson_arrivals

        seed = state["seed"]
        streams = [
            poisson_arrivals(
                base,
                rate_per_s=self.rate_per_tenant,
                n_requests=state["n_each"],
                seed=seed * len(state["tenants"]) + i,
                tenant=name,
                priority=priority,
                slo_ms=slo_ms,
                lengths=lengths,
                materialize=False,
            )
            for i, (base, lengths, slo_ms, priority, name) in enumerate(state["tenants"])
        ]
        arrivals = mix(*streams, presorted=True)
        if tracer is not None:
            arrivals = tracer.iterate("serving.traffic", "arrivals", arrivals)
        return state["engine"].serve_stream(
            ref.interleave(arrivals, _TICK_EVERY[self.name]),
            scheduler="edf",
            batcher="bucket",
            max_batch=16,
            mode="summary",
            presorted=True,
        )

    def attempted(self, state: dict) -> int:
        return state["n_each"] * len(state["tenants"])

    def check(self, state: dict, ref: Reference, summary) -> Outcome:
        outcome = _serving_outcome(summary, ref.items, self.attempted(state))
        expected = {name: state["n_each"] for *_, name in state["tenants"]}
        got = {name: s.n_requests for name, s in summary.per_tenant().items()}
        if got != expected:
            outcome.failures.append(f"per-tenant counts {got}, expected {expected}")
            outcome.completed = 0
        return outcome


class PlanCapacity(Workload):
    name = "plan-capacity"
    fill = True

    def prepare(self, seed: int, size: str) -> dict:
        from repro.dse import FleetSpace
        from repro.workloads.deepbench import task

        return {
            "task": task("gru", 2816).with_timesteps(25),
            "space": FleetSpace(("plasticine", "brainwave", "gpu"), max_replicas=3),
            "n": SIZES[self.name][size],
            "seed": seed,
        }

    def hook(self, state: dict, ref: Reference) -> None:
        """Tick the reference slice through every candidate's replay."""
        from repro.serving.fleet import Fleet

        serve_stream = Fleet.serve_stream
        every = _TICK_EVERY[self.name]

        @functools.wraps(serve_stream)
        def with_reference(fleet, arrivals, **kwargs):
            return serve_stream(fleet, ref.interleave(arrivals, every), **kwargs)

        Fleet.serve_stream = with_reference

    def run(self, state: dict, ref: Reference, tracer=None):
        from repro.dse import DSEStats

        capacity = importlib.import_module("repro.dse.capacity")
        stats = DSEStats()
        plan = capacity.plan_capacity(
            state["task"],
            slo_ms=SLO_MS,
            peak_rate_per_s=12_000,
            space=state["space"],
            n_requests=state["n"],
            seed=state["seed"],
            stats=stats,
        )
        return plan, stats

    def attempted(self, state: dict) -> int:
        return state["space"].n_candidates()

    def check(self, state: dict, ref: Reference, out) -> Outcome:
        plan, stats = out
        failures = []
        if stats.from_cache or stats.workers != 1:
            failures.append("plan was not a cold sequential sweep")
        completed = 0
        for point in plan.points:
            ok = (
                0.0 <= point.slo_attainment <= 1.0
                and point.meets_slo == (not point.pruned and point.p99_ms < SLO_MS)
                and (point.pruned or point.simulated_requests == state["n"])
            )
            completed += ok
            if not ok:
                failures.append(f"candidate {point.mix}/{point.policy} failed its checks")
        feasible = plan.feasible_points()
        best = plan.best if feasible else None
        if best is None or not best.meets_slo or best.p99_ms >= SLO_MS:
            failures.append("the best fleet does not meet its SLO")
        return Outcome(
            attempted=self.attempted(state),
            completed=completed,
            failures=failures,
            metrics={}
            if best is None
            else {
                "serving.stats.sim_p99_ms": best.p99_ms,
                "serving.stats.sim_slo_attainment": best.slo_attainment,
                "dse.capacity.best_usd_per_1m": best.cost_usd_per_1m,
                "dse.capacity.simulated_requests": stats.simulated_requests,
            },
            signature=[point.to_row() for point in plan.points],
        )


class TuneTable7(Workload):
    name = "tune-table7"
    fill = True

    def prepare(self, seed: int, size: str) -> dict:
        from repro.workloads.deepbench import all_tasks

        names = SIZES[self.name][size]
        tasks = [t for t in all_tasks() if t.name in names]
        if len(tasks) != len(names):
            raise SystemExit(f"tune-table7: tasks {names} not all in the suite")
        return {"tasks": tasks}

    def hook(self, state: dict, ref: Reference) -> None:
        """Tick the reference slice before every program build."""
        search = importlib.import_module("repro.dse.search")
        build = search.build_task_program

        @functools.wraps(build)
        def with_reference(*args, **kwargs):
            ref.tick()
            return build(*args, **kwargs)

        search.build_task_program = with_reference

    def attempted(self, state: dict) -> int:
        return len(state["tasks"])

    def run(self, state: dict, ref: Reference, tracer=None):
        """Tune every task; a task that raises leaves its exception in
        place of its result, so the others still count."""
        tuner = importlib.import_module("repro.dse.tuner")
        results = []
        for t in state["tasks"]:
            try:
                results.append(tuner.tune(t))
            except ImportError:
                raise
            except Exception as exc:  # noqa: BLE001
                results.append(exc)
        return results

    def check(self, state: dict, ref: Reference, results) -> Outcome:
        failures = []
        completed = 0
        for task, result in zip(state["tasks"], results):
            if isinstance(result, Exception):
                failures.append(f"{task.name}: raised {type(result).__name__}: {result}")
                continue
            problems = []
            stats = result.stats
            if stats is None or stats.memo_hits != 0 or stats.from_cache:
                problems.append("not cold (memo hits or cache)")
            feasible = [p for p in result.points if p.fits]
            if not result.best.fits:
                problems.append("best point infeasible")
            elif min((p.total_cycles, p.pcus_used) for p in feasible) != (
                result.best.total_cycles,
                result.best.pcus_used,
            ):
                problems.append("best point is not minimal")
            failures += [f"{task.name}: {p}" for p in problems]
            completed += not problems
        tuned = [r for r in results if not isinstance(r, Exception)]
        cycles = [r.best.total_cycles for r in tuned]
        return Outcome(
            attempted=self.attempted(state),
            completed=completed,
            failures=failures,
            # A geomean over fewer tasks would be another metric.
            metrics={}
            if len(tuned) < len(results)
            else {
                "dse.search.best_cycles_geomean": math.exp(
                    sum(math.log(c) for c in cycles) / len(cycles)
                )
            },
            signature=[
                [r.task.name, repr(r.best.params), r.best.total_cycles, r.best.pcus_used,
                 len(r.points)]
                for r in tuned
            ],
        )


WORKLOADS = {w.name: w for w in (ServeFifo(), ServeMixed(), PlanCapacity(), TuneTable7())}
