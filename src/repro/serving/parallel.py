"""Sharded parallel simulation: one event loop per core, merged reports.

A single discrete-event loop tops out near one core's throughput
(~10⁶ events/s — see ``benchmarks/bench_event_loop_scale.py``), which
caps one process at low-single-digit millions of requests per minute.
The ROADMAP's target is 10M–100M-request traces on one machine, and
:class:`~repro.serving.stats.StreamSummary` was built *mergeable*
precisely so the stream could be cut into independent sub-streams:

1. **Shard** the arrival stream (:data:`SHARD_MODES`):

   * ``"replica"`` — arrival *i* goes to shard ``i % K``.  This is
     exactly what a K-replica round-robin fleet does at dispatch, and
     replicas never interact after dispatch, so serving each shard on
     its own single-replica engine reproduces the fleet's per-replica
     timelines **bit for bit** — the merged summary's exact counters
     (n, SLO misses, batch sizes, padding waste) equal the
     single-process ``Fleet(..., policy="round-robin")`` run's.
   * ``"tenant"`` — all of a tenant's requests stay on one shard
     (stable CRC32 of the tenant name), modelling tenant-affine
     capacity partitioning; per-tenant slices equal independent
     per-tenant runs.
   * ``"hash"`` — requests spread by a SplitMix64 hash of their id;
     load-balanced even when one tenant dominates.
   * ``"generate"`` — no shared stream at all: the factory is called
     once per shard with a deterministically derived per-shard RNG
     seed (:func:`shard_seed`) and generates only that shard's
     traffic.  This is the weak-scaling mode — nothing is generated
     twice, so throughput scales with cores even when generation is a
     large fraction of the per-request cost.

2. **Simulate** each shard in its own worker process — an independent
   event loop over a single-replica engine (or a per-shard fleet, with
   its own scheduler/batcher instances and optionally its own
   autoscaler), summarizing online in O(1) memory.

3. **Merge** the per-shard :class:`StreamSummary` objects
   (:meth:`StreamSummary.merge <repro.serving.stats.StreamSummary.merge>`)
   in shard order.  The merge is associative and the per-shard work is
   deterministic, so the result is independent of pool size and of the
   order in which the OS scheduled the workers.

Streams are *re-generated* inside each worker (lazy factories pickle;
multi-million-request streams do not), so the parent never materializes
anything: memory stays O(classes) per worker, exactly as in
single-process summary mode.
"""

from __future__ import annotations

import multiprocessing
import os
import zlib
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import ServingError
from repro.serving.autoscaler import Autoscaler
from repro.serving.batching import make_batcher
from repro.serving.engine import ServingEngine
from repro.serving.events import normalize_arrivals
from repro.serving.faults import _MASK64, _splitmix64, make_fault_policy
from repro.serving.fleet import Fleet
from repro.serving.request import ServeRequest, _check_budget_ms
from repro.serving.scheduler import make_scheduler
from repro.serving.stats import StreamSummary
from repro.workloads.deepbench import RNNTask

__all__ = [
    "SHARD_MODES",
    "shard_seed",
    "shard_of",
    "split_requests",
    "pool_map",
    "serve_parallel",
]

#: How :func:`serve_parallel` partitions the stream; see the module
#: docstring for what each mode guarantees.
SHARD_MODES = ("replica", "tenant", "hash", "generate")


def shard_seed(seed: int, shard: int) -> int:
    """Deterministically derive shard ``shard``'s RNG seed from a base seed.

    Two SplitMix64 rounds over ``(seed, shard)``: the derived streams are
    decorrelated (adjacent shards do not get adjacent seeds, which for
    some generators would mean overlapping state), reproducible across
    processes and platforms, and distinct per shard.  Used by the
    ``"generate"`` shard mode and available to any caller building
    per-shard traffic by hand.

    Example::

        >>> from repro.serving.parallel import shard_seed
        >>> seeds = [shard_seed(42, s) for s in range(4)]
        >>> (len(set(seeds)) == 4, seeds == [shard_seed(42, s) for s in range(4)])
        (True, True)
    """
    if shard < 0:
        raise ServingError("shard index must be >= 0")
    return _splitmix64(_splitmix64(seed & _MASK64) ^ shard)


def shard_of(
    request: ServeRequest, seq: int, shards: int, shard_by: str = "replica"
) -> int:
    """Which shard one request lands on (the single source of truth).

    ``seq`` is the request's arrival-order position — what ``"replica"``
    mode shards on, mirroring the round-robin fleet dispatcher's
    ``seq % N``.

    Example::

        >>> from repro.serving import ServeRequest
        >>> from repro.serving.parallel import shard_of
        >>> from repro.workloads.deepbench import task
        >>> req = ServeRequest(task=task("lstm", 512, 25), tenant="asr")
        >>> shard_of(req, seq=7, shards=4, shard_by="replica")
        3
        >>> shard_of(req, 7, 4, "tenant") == shard_of(req, 99, 4, "tenant")
        True
    """
    if shard_by == "replica":
        return seq % shards
    if shard_by == "tenant":
        return zlib.crc32(request.tenant.encode()) % shards
    if shard_by == "hash":
        return _splitmix64(request.request_id & _MASK64) % shards
    raise ServingError(
        f"unknown shard mode {shard_by!r}; known: {', '.join(SHARD_MODES)}"
    )


def _filtered(
    stream: Iterable[ServeRequest], shards: int, shard: int, shard_by: str
) -> Iterator[ServeRequest]:
    """Lazily select one shard's requests out of the full stream."""
    if shard_by == "replica":
        # Positional stride: identical to shard_of(..., "replica") but
        # without a Python-level predicate per request.
        return islice(stream, shard, None, shards)
    return (
        req
        for seq, req in enumerate(stream)
        if shard_of(req, seq, shards, shard_by) == shard
    )


def split_requests(
    requests: "Sequence[ServeRequest | RNNTask]",
    shards: int,
    *,
    shard_by: str = "replica",
) -> "list[list[ServeRequest]]":
    """Partition a materialized stream into per-shard sub-streams.

    The stream is normalized (sorted by arrival, ids validated) first,
    so shard assignment sees the same arrival order the event loop
    would.  Every request lands on exactly one shard — conservation by
    construction.

    Example::

        >>> from repro.serving import uniform_arrivals
        >>> from repro.serving.parallel import split_requests
        >>> from repro.workloads.deepbench import task
        >>> reqs = uniform_arrivals(task("lstm", 512, 25),
        ...                         rate_per_s=10, n_requests=5)
        >>> parts = split_requests(reqs, 2)
        >>> [[r.request_id for r in part] for part in parts]
        [[0, 2, 4], [1, 3]]
    """
    if shards < 1:
        raise ServingError("shards must be >= 1")
    if shard_by == "generate":
        raise ServingError(
            "shard_by='generate' builds per-shard streams from a factory; "
            "there is no shared stream to split"
        )
    ordered = normalize_arrivals(requests)
    parts: "list[list[ServeRequest]]" = [[] for _ in range(shards)]
    for seq, req in enumerate(ordered):
        parts[shard_of(req, seq, shards, shard_by)].append(req)
    return parts


#: A picklable source of arrivals: either a zero-argument factory
#: returning a fresh (lazily consumable) stream, or — for the
#: ``"generate"`` mode — a factory called as ``factory(shard, shards,
#: seed)`` producing only that shard's traffic.
StreamFactory = Callable[..., Iterable[ServeRequest]]


@dataclass(frozen=True)
class _ShardJob:
    """Everything one worker needs; must stay picklable (registry keys
    rather than live scheduler/batcher instances)."""

    shard: int
    shards: int
    shard_by: str
    factory: "StreamFactory | None"
    requests: "tuple[ServeRequest, ...] | None"
    platform: str
    platform_options: "tuple[tuple[str, object], ...]"
    replicas: int
    policy: str
    scheduler: str
    batcher: str
    max_batch: int | None
    slo_ms: float | None
    autoscaler: Autoscaler | None
    seed: int
    #: Fleet-mix spec ("name[:count],..."); overrides platform/replicas
    #: with a per-shard heterogeneous fleet when set.
    mix: str | None = None
    #: Affinity key for policy="affinity" fleets (task/tenant/length-band).
    affinity_by: str = "task"
    faults: str = "none"
    fault_seed: int = 0
    timeout_ms: float | None = None
    retries: int = 0
    hedge_ms: float | None = None

    def stream(self) -> Iterable[ServeRequest]:
        if self.requests is not None:
            return iter(self.requests)
        if self.shard_by == "generate":
            return self.factory(
                self.shard, self.shards, shard_seed(self.seed, self.shard)
            )
        return _filtered(self.factory(), self.shards, self.shard, self.shard_by)


def pool_map(fn, jobs: "Sequence[object]", workers: int) -> list:
    """Order-preserving parallel map on a fork-preferred process pool.

    The shared pool idiom behind :func:`serve_parallel` and the DSE
    runner (:mod:`repro.dse.runner`): ``fn`` must be a module-level
    callable and every job picklable; results come back in job order
    regardless of which worker ran what, so callers that fold results
    in order are scheduling-blind and bit-identical at any pool size.
    ``workers`` is clamped to ``len(jobs)``; one worker (or one job)
    short-circuits to a plain sequential loop in the calling process —
    no pool, no pickling.

    The ``fork`` start method is preferred where the platform offers it
    (workers inherit the parent's memory copy-on-write, so large shared
    inputs — a materialized stream, a warm memo — ship for free);
    elsewhere the platform default is used and workers rebuild state
    from the picklable jobs.

    Example::

        >>> from repro.serving.parallel import pool_map
        >>> pool_map(len, [[1], [2, 3], []], workers=1)
        [1, 2, 0]
    """
    jobs = list(jobs)
    if workers < 1:
        raise ServingError("workers must be >= 1")
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    with ctx.Pool(workers) as pool:
        # map() returns results in job order regardless of which worker
        # ran what, so folds over the result list are scheduling-blind.
        return pool.map(fn, jobs)


def _run_shard(job: _ShardJob) -> StreamSummary:
    """Worker entry point: one shard, one independent event loop."""
    options = dict(job.platform_options)
    if job.mix is not None:
        # Every shard runs the same heterogeneous fleet, so the merged
        # summary's platform label and roster are shard-invariant.
        server: "ServingEngine | Fleet" = Fleet(
            job.mix, policy=job.policy, affinity_by=job.affinity_by
        )
    elif job.replicas > 1 or job.autoscaler is not None:
        server = Fleet(
            job.platform, replicas=job.replicas, policy=job.policy, **options
        )
    else:
        server = ServingEngine(job.platform, **options)
    stream = iter(job.stream())
    head = next(stream, None)
    if head is None:
        # This shard drew no traffic (e.g. more shards than tenants):
        # contribute a merge identity instead of tripping the event
        # loop's empty-stream error.
        return StreamSummary(
            server.platform_name,
            slo_ms=job.slo_ms,
            scheduler=make_scheduler(job.scheduler).name,
            batcher=make_batcher(job.batcher).name,
            faults=make_fault_policy(job.faults).name,
        )
    kwargs: dict = {
        "slo_ms": job.slo_ms,
        "scheduler": job.scheduler,
        "batcher": job.batcher,
        "max_batch": job.max_batch,
        "mode": "summary",
        # A pre-split sub-list is already normalized; a factory stream
        # must be time-ordered with monotone ids (what every built-in
        # generator, mix(presorted=True), and recorded trace emit) and
        # is validated lazily by the event loop.
        "presorted": job.requests is None,
        "faults": job.faults,
        # Each shard's fault timeline draws from its own derived seed,
        # so the merged result is pool-size independent but shards do
        # not replay each other's crashes.
        "fault_seed": shard_seed(job.fault_seed, job.shard),
        "timeout_ms": job.timeout_ms,
        "retries": job.retries,
        "hedge_ms": job.hedge_ms,
    }
    if isinstance(server, Fleet):
        kwargs["autoscaler"] = job.autoscaler
    return server.serve_stream(chain((head,), stream), **kwargs)


def serve_parallel(
    arrivals: "StreamFactory | Sequence[ServeRequest | RNNTask]",
    platform: str,
    *,
    shards: int,
    shard_by: str = "replica",
    workers: int | None = None,
    replicas: int = 1,
    policy: str = "round-robin",
    scheduler: str = "fifo",
    batcher: str = "none",
    max_batch: int | None = None,
    slo_ms: float | None = None,
    autoscaler: Autoscaler | None = None,
    seed: int = 0,
    mix: str | None = None,
    affinity_by: str = "task",
    faults: str = "none",
    fault_seed: int = 0,
    timeout_ms: float | None = None,
    retries: int = 0,
    hedge_ms: float | None = None,
    **platform_options: object,
) -> StreamSummary:
    """Simulate one stream as ``shards`` independent event loops and merge.

    Args:
        arrivals: Either a **picklable factory** (workers re-create the
            stream lazily — the way to run 10M+ requests, since nothing
            is ever materialized or shipped between processes) or a
            materialized sequence (split in the parent; each worker
            receives only its sub-list).  Factory streams must be
            time-ordered with strictly increasing ids, which every
            built-in generator, ``mix(presorted=True)``, and recorded
            trace satisfies.  In ``shard_by="generate"`` mode the
            factory is instead called as ``factory(shard, shards,
            seed)`` with a :func:`shard_seed`-derived seed and produces
            only that shard's traffic.
        platform: Platform registry key; each worker builds its own
            engine (compile caches are per-process).
        shards: Number of stream partitions (and event loops).
        shard_by: One of :data:`SHARD_MODES`.
        workers: Worker processes (default: ``min(shards, cpu_count)``).
            Results are merged in shard order whatever the pool size, so
            this is purely a throughput knob — summaries are identical.
        replicas: Replicas *per shard* (each shard runs a fleet when
            > 1).  ``shards=K, replicas=R`` with round-robin dispatch
            partitions requests exactly like a single K·R-replica
            round-robin fleet.
        policy: Per-shard fleet dispatch policy when ``replicas > 1``.
        scheduler: Scheduler registry key (one fresh instance per
            replica per shard).
        batcher: Batcher registry key, with ``max_batch`` forwarded.
        slo_ms: Stream-level SLO, as in ``serve_stream``.
        autoscaler: Optional per-shard autoscaler (each shard scales
            against its own queue depth, like an independent cell).
        seed: Base seed for ``shard_by="generate"`` derivation.
        mix: Fleet-mix spec (``"name[:count],..."``, see
            :func:`~repro.serving.fleet.parse_fleet_mix`): each shard
            runs that heterogeneous fleet instead of ``replicas``
            homogeneous replicas of ``platform``.  Mutually exclusive
            with ``replicas > 1`` and with ``platform_options``.
        affinity_by: Routing key for ``policy="affinity"`` fleets, one
            of :data:`~repro.serving.fleet.AFFINITY_KEYS`.
        faults: Fault-policy registry key (a *string*, since workers
            re-create the policy; instances do not ship).  Each shard
            injects faults over its own :func:`shard_seed`-derived
            ``fault_seed``, so the merged summary is reproducible and
            pool-size independent.
        fault_seed: Base seed for per-shard fault-timeline derivation.
        timeout_ms: Per-attempt timeout, as in ``serve_stream``.
        retries: Re-dispatch budget after a timeout.
        hedge_ms: Hedged-duplicate delay, as in ``serve_stream``.
        **platform_options: Forwarded to the platform constructor.

    Returns:
        The merged :class:`~repro.serving.stats.StreamSummary`.  For
        ``shard_by="replica"`` its exact counters (request count, SLO
        misses, batch sizes, padding waste) are bit-identical to the
        single-process ``Fleet(platform, replicas=shards*replicas,
        policy="round-robin")`` summary — ``shards=1`` degenerates to
        ``serve_stream(mode="summary")`` exactly.

    Example::

        >>> from functools import partial
        >>> from repro.serving import poisson_arrivals
        >>> from repro.serving.parallel import serve_parallel
        >>> from repro.workloads.deepbench import task
        >>> make = partial(poisson_arrivals, task("lstm", 512, 25),
        ...                rate_per_s=500, n_requests=40, seed=7,
        ...                materialize=False)
        >>> summary = serve_parallel(make, "gpu", shards=2, workers=1,
        ...                          slo_ms=5.0)
        >>> (summary.n_requests, summary.n_replicas)
        (40, 2)
    """
    if shards < 1:
        raise ServingError("shards must be >= 1")
    if workers is not None and workers < 1:
        raise ServingError("workers must be >= 1")
    if replicas < 1:
        raise ServingError("replicas must be >= 1")
    _check_budget_ms("slo_ms", slo_ms)
    if shard_by not in SHARD_MODES:
        raise ServingError(
            f"unknown shard mode {shard_by!r}; known: {', '.join(SHARD_MODES)}"
        )
    if not isinstance(faults, str):
        raise ServingError(
            "parallel serving needs a fault-policy registry key, not an "
            "instance; workers re-create the policy per shard"
        )
    if mix is not None and (replicas != 1 or platform_options):
        raise ServingError(
            "mix= sets the per-shard fleet roster itself; do not also "
            "pass replicas or platform options"
        )
    factory: "StreamFactory | None" = None
    parts: "list[tuple[ServeRequest, ...] | None]"
    if callable(arrivals):
        factory = arrivals
        parts = [None] * shards
    else:
        if shard_by == "generate":
            raise ServingError(
                "shard_by='generate' needs a factory(shard, shards, seed), "
                "not a materialized stream"
            )
        parts = [tuple(p) for p in split_requests(arrivals, shards, shard_by=shard_by)]
    jobs = [
        _ShardJob(
            shard=shard,
            shards=shards,
            shard_by=shard_by,
            factory=factory,
            requests=parts[shard],
            platform=platform,
            platform_options=tuple(sorted(platform_options.items())),
            replicas=replicas,
            policy=policy,
            scheduler=scheduler,
            batcher=batcher,
            max_batch=max_batch,
            slo_ms=slo_ms,
            autoscaler=autoscaler,
            seed=seed,
            mix=mix,
            affinity_by=affinity_by,
            faults=faults,
            fault_seed=fault_seed,
            timeout_ms=timeout_ms,
            retries=retries,
            hedge_ms=hedge_ms,
        )
        for shard in range(shards)
    ]
    if workers is None:
        workers = min(shards, os.cpu_count() or 1)
    summaries = pool_map(_run_shard, jobs, workers)
    merged = summaries[0].merge(*summaries[1:])
    if merged.is_empty:
        raise ServingError("serve_stream needs at least one request")
    return merged
