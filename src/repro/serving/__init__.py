"""Pluggable serving engine: platforms, traffic, schedulers, fleets.

This package is the serving surface of the reproduction, structured the
way real accelerator deployments are:

* :mod:`repro.serving.platform` — the two-method :class:`Platform`
  protocol (``prepare`` once, ``latency_s`` per request; one base
  ``serve`` builds every result row) and the decorator registry that
  makes platforms pluggable by name.
* :mod:`repro.serving.platforms` — the four built-in platforms:
  Plasticine (mapper + cycle simulator) and the CPU / GPU / Brainwave
  analytical models.
* :mod:`repro.serving.traffic` — composable arrival processes (Poisson,
  uniform, MMPP bursty, diurnal ramp, JSONL trace record/replay), the
  :func:`mix` combinator for multi-tenant workloads, and seeded
  sequence-length distributions (fixed / uniform / zipf / empirical)
  that attach per-request ``timesteps`` overrides to arrivals.
* :mod:`repro.serving.scheduler` — the :class:`Scheduler` registry:
  FIFO, strict priority, EDF, SJF, and compile-cache-aware coalescing.
* :mod:`repro.serving.batching` — the :class:`Batcher` registry: the
  batch-1 ``none`` default plus ``size-cap`` / ``time-window`` /
  ``adaptive`` dynamic batching and the length-aware ``pad`` /
  ``bucket`` policies, costed by each platform's pipeline model (setup
  once, steady-state per item).
* :mod:`repro.serving.autoscaler` — queue-depth/SLO-driven elastic
  replica scaling for fleet streams, with a :class:`ScaleEvent` log.
* :mod:`repro.serving.faults` — the :class:`FaultPolicy` registry:
  seeded replica crash/recovery, heavy-tail stragglers, and priority
  preemption injected into any stream simulation, plus per-request
  timeouts, bounded retries, and hedged duplicates; ``"none"`` is
  bit-identical to no injection at all.
* :mod:`repro.serving.events` — the shared discrete-event loop behind
  every stream simulation: arrivals consumed incrementally (lazy
  generators and traces never materialize), no-heap fast paths for
  FIFO/batch-1 fleets of any size and for single replicas, and a
  ``presorted`` lazy validator.
* :mod:`repro.serving.stats` — :class:`StreamSummary`, the
  O(1)-memory online mirror of :class:`StreamReport` behind
  ``serve_stream(..., mode="summary")``: exact streaming counters,
  histogram quantiles, and per-tenant/per-priority/per-length-band
  rollups for million-request streams.  Every derived figure (P99,
  rates, SLO attainment, energy, $/1M, slices) is defined once here
  and shared by both report representations.
* :mod:`repro.serving.engine` — :class:`ServingEngine`, one
  accelerator's compile-once session with ``serve`` / ``serve_batch`` /
  ``serve_stream`` (queueing + SLO/tenant/priority accounting) and a
  per-shape result memo so deterministic cost models run once per
  distinct shape; :class:`StreamReport`, the materialized report of
  one engine or a whole fleet, and the one ``serve_stream`` path both
  take from arguments to report.
* :mod:`repro.serving.fleet` — :class:`Fleet`, N replicas behind a
  round-robin, least-loaded, or affinity dispatcher, each with its own
  scheduler and batcher; a ``"name[:count],..."`` mix spec builds a
  heterogeneous fleet whose dispatch ranks replicas by projected
  completion under each platform's own cost model.  Its streams report
  in the same :class:`StreamReport` / :class:`StreamSummary` as one
  engine's, with per-replica assignments and the replica roster.
* :mod:`repro.serving.parallel` — :func:`serve_parallel`, sharded
  multi-core simulation: one independent event loop per shard
  (replica/tenant/hash/generate sharding) on a ``multiprocessing``
  pool, merged into one :class:`StreamSummary` with exact counter
  parity against the single-process run.
* :mod:`repro.serving.server` — :class:`ServingServer`, the live
  ``asyncio`` frontend: concurrent clients submit in-process or over a
  TCP/UNIX JSONL socket (trace schema), service times come from the
  platform cost models via a pluggable virtual/real clock, and
  shutdown drains gracefully.

Quickstart::

    from repro.serving import ServingEngine, mix, poisson_arrivals
    from repro.workloads import deepbench

    task = deepbench.task("lstm", 1024, 25)
    engine = ServingEngine("plasticine")
    print(engine.serve(task).result.latency_ms)       # compiles + serves
    print(engine.serve(task).result.latency_ms)       # cache hit
    report = engine.serve_stream(
        poisson_arrivals(task, rate_per_s=400, n_requests=2000), slo_ms=5.0
    )
    print(report.p50_ms, report.p99_ms, report.slo_miss_rate)
"""

from repro.serving.autoscaler import Autoscaler, ScaleDecision, ScaleEvent
from repro.serving.batching import (
    AdaptiveBatcher,
    Batcher,
    BucketBatcher,
    NoneBatcher,
    PadBatcher,
    SizeCapBatcher,
    TimeWindowBatcher,
    available_batchers,
    get_batcher,
    make_batcher,
    register_batcher,
)
from repro.serving.engine import (
    CacheStats,
    ServeRequest,
    ServeResponse,
    ServingEngine,
    StreamReport,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.serving.events import (
    StreamDispatcher,
    StreamOutcome,
    normalize_arrivals,
    run_stream,
)
from repro.serving.faults import (
    ChaosFaults,
    CrashFaults,
    FaultPolicy,
    NoFaults,
    PreemptFaults,
    StragglerFaults,
    available_fault_policies,
    get_fault_policy,
    make_fault_policy,
    register_fault_policy,
)
from repro.serving.fleet import (
    AFFINITY_KEYS,
    SCHEDULING_POLICIES,
    Fleet,
    parse_fleet_mix,
)
from repro.serving.platform import (
    Platform,
    PreparedModel,
    available_platforms,
    get_platform,
    register_platform,
)
from repro.serving.platforms import (
    BrainwavePlatform,
    CPUPlatform,
    GPUPlatform,
    PlasticinePlatform,
)
from repro.serving.parallel import (
    SHARD_MODES,
    serve_parallel,
    shard_of,
    shard_seed,
    split_requests,
)
from repro.serving.result import FaultStats, ServingResult
from repro.serving.server import (
    Clock,
    RealClock,
    ServingServer,
    VirtualClock,
    response_to_json,
)
from repro.serving.stats import StreamSummary
from repro.serving.scheduler import (
    CoalescingScheduler,
    EDFScheduler,
    FIFOScheduler,
    PriorityScheduler,
    Scheduler,
    SJFScheduler,
    available_schedulers,
    get_scheduler,
    register_scheduler,
)
from repro.serving.traffic import (
    EmpiricalLength,
    FixedLength,
    LengthSampler,
    UniformLength,
    ZipfLength,
    diurnal_arrivals,
    iter_trace,
    length_band,
    length_sampler,
    lengths_from_trace,
    mix,
    mmpp_arrivals,
    record_trace,
    replay_trace,
    request_from_json,
    request_to_json,
)

__all__ = [
    "ServingResult",
    "Platform",
    "PreparedModel",
    "register_platform",
    "get_platform",
    "available_platforms",
    "PlasticinePlatform",
    "BrainwavePlatform",
    "CPUPlatform",
    "GPUPlatform",
    "ServingEngine",
    "ServeRequest",
    "ServeResponse",
    "StreamReport",
    "StreamSummary",
    "CacheStats",
    "run_stream",
    "normalize_arrivals",
    "StreamDispatcher",
    "poisson_arrivals",
    "uniform_arrivals",
    "mmpp_arrivals",
    "diurnal_arrivals",
    "mix",
    "record_trace",
    "replay_trace",
    "iter_trace",
    "LengthSampler",
    "FixedLength",
    "UniformLength",
    "ZipfLength",
    "EmpiricalLength",
    "length_sampler",
    "length_band",
    "lengths_from_trace",
    "Scheduler",
    "FIFOScheduler",
    "PriorityScheduler",
    "EDFScheduler",
    "SJFScheduler",
    "CoalescingScheduler",
    "register_scheduler",
    "get_scheduler",
    "available_schedulers",
    "Batcher",
    "NoneBatcher",
    "SizeCapBatcher",
    "TimeWindowBatcher",
    "AdaptiveBatcher",
    "PadBatcher",
    "BucketBatcher",
    "register_batcher",
    "get_batcher",
    "available_batchers",
    "make_batcher",
    "Autoscaler",
    "ScaleDecision",
    "ScaleEvent",
    "FaultPolicy",
    "FaultStats",
    "NoFaults",
    "CrashFaults",
    "StragglerFaults",
    "PreemptFaults",
    "ChaosFaults",
    "register_fault_policy",
    "get_fault_policy",
    "available_fault_policies",
    "make_fault_policy",
    "StreamOutcome",
    "Fleet",
    "SCHEDULING_POLICIES",
    "AFFINITY_KEYS",
    "parse_fleet_mix",
    "serve_parallel",
    "shard_seed",
    "shard_of",
    "split_requests",
    "SHARD_MODES",
    "ServingServer",
    "Clock",
    "VirtualClock",
    "RealClock",
    "response_to_json",
    "request_to_json",
    "request_from_json",
]
