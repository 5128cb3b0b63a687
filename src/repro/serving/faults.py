"""Seeded fault injection for the serving event loop.

The paper's latency tables — and this repo's replications of them — are
measured on a perfect machine.  A :class:`FaultPolicy` lets the same
discrete-event loop replay the same seeded stream on an *unreliable*
fleet: replicas crash and recover mid-stream (recovery re-pays the
compile-cache warmup through the fleet's replica factory), service
times are straggler-inflated from a heavy-tail distribution, and
higher-priority arrivals may preempt in-flight batches.  Per-request
timeouts, bounded retries, and hedged duplicates are loop features that
combine with any policy (including ``"none"``).

Policies register under a string key exactly like schedulers and
batchers do::

    @register_fault_policy("flaky")
    class Flaky(FaultPolicy):
        ...

    engine.serve_stream(arrivals, faults="flaky")

Determinism is the core contract: every decision is a pure function of
``(seed, replica)`` or ``(seed, request_id)``, never of event-processing
order, so a given seed reproduces the same crash/straggler timeline
across runs *and* across ``serve_parallel`` pool sizes.  With
``faults="none"`` (and no timeout/hedge) the fault-aware loop is never
entered and every existing stream stays bit-identical.

Built-in policies:

* ``"none"`` — the perfect machine; the default everywhere.
* ``"crash"`` — per-replica crash/recover cycles with exponential
  inter-crash gaps (``mtbf_s``) and fixed repair time (``mttr_s``).
* ``"straggler"`` — each request independently straggles with
  probability ``prob``; the inflation factor is Pareto-tailed
  (``alpha``), capped at ``max_factor``.
* ``"preempt"`` — a strictly more urgent arrival (per the replica
  scheduler's :meth:`~repro.serving.scheduler.Scheduler.preemption_rank`)
  aborts the in-flight batch, requeueing its members.
* ``"chaos"`` — crashes + stragglers + preemption together.
"""

from __future__ import annotations

import math
import random
from abc import ABC

from repro.errors import ServingError
from repro.registry import Registry
from repro.serving.request import ServeRequest
from repro.serving.result import FaultStats

__all__ = [
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
]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One SplitMix64 round; :mod:`repro.serving.parallel` derives its
    shard seeds and hash shards from it too."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _uniform(seed: int, salt: int, key: int) -> float:
    """Deterministic uniform in [0, 1) from ``(seed, salt, key)``.

    Order-free: the value depends only on the inputs, never on how many
    draws preceded it — the property that keeps straggler decisions
    identical across event orders and shard layouts.
    """
    h = _splitmix64(_splitmix64((seed ^ salt) & _MASK64) ^ (key & _MASK64))
    return h / 2.0**64


class FaultPolicy(ABC):
    """Seeded source of injected failures, consulted by the event loop.

    A policy is constructed un-seeded (so it pickles cleanly into
    ``serve_parallel`` shard jobs) and armed once per stream via
    :meth:`reset`.  The three hooks are all optional — the base class is
    a perfect machine — and each must be deterministic in the documented
    inputs:

    * :meth:`next_crash` — per-replica crash timeline.
    * :meth:`straggler_factor` — per-request service-time inflation.
    * :meth:`preempts` — whether an arriving request's urgency rank may
      abort the batch currently executing (class attribute
      :attr:`preemptive` gates the check entirely).

    Example::

        >>> from repro.serving import get_fault_policy
        >>> policy = get_fault_policy("crash", mtbf_s=1.0, mttr_s=0.25)
        >>> policy.reset(7)
        >>> first = policy.next_crash(0, 0.0)
        >>> policy.reset(7)                      # same seed, same timeline
        >>> policy.next_crash(0, 0.0) == first
        True
    """

    #: Registry key; set by :func:`register_fault_policy`.
    name: str = "?"
    #: Whether :meth:`preempts` can ever return True; lets the loop skip
    #: the per-arrival preemption check for non-preemptive policies.
    preemptive: bool = False

    def __init__(self) -> None:
        self._seed: int | None = None

    @property
    def seed(self) -> int:
        if self._seed is None:
            raise ServingError(
                f"fault policy {self.name!r} used before reset(seed)"
            )
        return self._seed

    def reset(self, seed: int) -> None:
        """Arm the policy for one stream; every draw derives from ``seed``."""
        self._seed = int(seed)

    def next_crash(
        self, replica: int, after_s: float
    ) -> tuple[float, float] | None:
        """Next ``(crash_time_s, downtime_s)`` for ``replica`` after ``after_s``.

        Called once at stream start (``after_s=0``) and once after each
        recovery (``after_s`` = the recovery instant); returning ``None``
        means the replica never crashes again.
        """
        return None

    def straggler_factor(self, request: ServeRequest) -> float:
        """Service-time inflation for ``request``'s execution (>= 1.0).

        Must depend only on ``(seed, request.request_id)`` so the same
        request straggles identically whatever replica, shard, or event
        order serves it.
        """
        return 1.0

    def preempts(self, arriving_rank: float, running_rank: float) -> bool:
        """Whether an arrival ranked ``arriving_rank`` aborts a batch whose
        most urgent member ranks ``running_rank`` (larger = more urgent)."""
        return False


#: Every registered fault policy, keyed by name.
FAULT_POLICIES: Registry[FaultPolicy] = Registry(
    "fault policy", FaultPolicy, ServingError
)
register_fault_policy = FAULT_POLICIES.register
unregister_fault_policy = FAULT_POLICIES.unregister
available_fault_policies = FAULT_POLICIES.names
get_fault_policy = FAULT_POLICIES.create
make_fault_policy = FAULT_POLICIES.make


@register_fault_policy("none")
class NoFaults(FaultPolicy):
    """The perfect machine — injects nothing; the default everywhere.

    Example::

        >>> from repro.serving import get_fault_policy
        >>> policy = get_fault_policy("none")
        >>> policy.reset(0)
        >>> policy.next_crash(0, 0.0) is None
        True
    """


class _CrashTimeline:
    """Shared crash/recover schedule: per-replica seeded exponential gaps."""

    mtbf_s: float
    mttr_s: float

    def _crash_rngs(self) -> dict[int, random.Random]:
        # Lazily (re)built per reset(); one RNG per replica keyed only by
        # (seed, replica), so added replicas and event order cannot shift
        # another replica's timeline.
        rngs = getattr(self, "_rngs", None)
        if rngs is None:
            rngs = self._rngs = {}
        return rngs

    def reset(self, seed: int) -> None:
        FaultPolicy.reset(self, seed)  # type: ignore[arg-type]
        self._rngs = {}

    def next_crash(
        self, replica: int, after_s: float
    ) -> tuple[float, float] | None:
        if self.mtbf_s <= 0 or not math.isfinite(self.mtbf_s):
            return None
        rngs = self._crash_rngs()
        rng = rngs.get(replica)
        if rng is None:
            rng = rngs[replica] = random.Random(
                _splitmix64(self.seed ^ _splitmix64(0xC4A5 + replica))  # type: ignore[attr-defined]
            )
        gap = rng.expovariate(1.0 / self.mtbf_s)
        return (after_s + gap, self.mttr_s)


@register_fault_policy("crash")
class CrashFaults(_CrashTimeline, FaultPolicy):
    """Replicas crash and recover on seeded exponential cycles.

    ``mtbf_s`` is the mean gap between a recovery and the next crash of
    the same replica; ``mttr_s`` is the (fixed) repair time.  A crashed
    replica aborts its in-flight batch (members requeue), stops taking
    work, and — in a fleet — comes back through the replica factory,
    re-paying any cold compile-cache warmup.

    Example::

        >>> from repro.serving import get_fault_policy
        >>> policy = get_fault_policy("crash", mtbf_s=2.0, mttr_s=0.5)
        >>> policy.reset(3)
        >>> crash_s, downtime_s = policy.next_crash(0, 0.0)
        >>> crash_s > 0.0 and downtime_s == 0.5
        True
    """

    def __init__(self, mtbf_s: float = 0.25, mttr_s: float = 0.05) -> None:
        super().__init__()
        if mtbf_s <= 0:
            raise ServingError("mtbf_s must be positive")
        if mttr_s < 0:
            raise ServingError("mttr_s must be >= 0")
        self.mtbf_s = float(mtbf_s)
        self.mttr_s = float(mttr_s)


class _ParetoTail:
    """Shared straggler draw: Pareto-tailed inflation, order-free."""

    prob: float
    alpha: float
    max_factor: float

    def straggler_factor(self, request: ServeRequest) -> float:
        if self.prob <= 0.0:
            return 1.0
        seed = self.seed  # type: ignore[attr-defined]
        if _uniform(seed, 0x57A6, request.request_id) >= self.prob:
            return 1.0
        u = _uniform(seed, 0x7A11, request.request_id)
        # Pareto(x_m=1, alpha): factor = (1-u)^(-1/alpha), capped.
        factor = (1.0 - u) ** (-1.0 / self.alpha)
        return min(factor, self.max_factor)


@register_fault_policy("straggler")
class StragglerFaults(_ParetoTail, FaultPolicy):
    """Heavy-tail service-time inflation, independently per request.

    With probability ``prob`` a request's execution runs
    ``(1-u)^(-1/alpha)`` times slower (Pareto with scale 1, capped at
    ``max_factor``).  The draw hashes ``(seed, request_id)``, so it is
    identical whatever replica or shard serves the request.

    Example::

        >>> from repro.serving import ServeRequest, get_fault_policy
        >>> from repro.workloads.deepbench import task
        >>> policy = get_fault_policy("straggler", prob=1.0, alpha=1.5)
        >>> policy.reset(11)
        >>> req = ServeRequest(task=task("lstm", 512, 25), request_id=4)
        >>> f = policy.straggler_factor(req)
        >>> f >= 1.0 and f == policy.straggler_factor(req)
        True
    """

    def __init__(
        self,
        prob: float = 0.05,
        alpha: float = 1.5,
        max_factor: float = 20.0,
    ) -> None:
        super().__init__()
        if not 0.0 <= prob <= 1.0:
            raise ServingError("straggler prob must be in [0, 1]")
        if alpha <= 0:
            raise ServingError("straggler alpha must be positive")
        if max_factor < 1.0:
            raise ServingError("straggler max_factor must be >= 1")
        self.prob = float(prob)
        self.alpha = float(alpha)
        self.max_factor = float(max_factor)


@register_fault_policy("preempt")
class PreemptFaults(FaultPolicy):
    """Strictly more urgent arrivals abort the in-flight batch.

    Urgency comes from the replica scheduler's ``preemption_rank``
    (priority class by default, deadline under EDF); the aborted batch's
    members requeue and are re-served under the normal discipline.

    Example::

        >>> from repro.serving import get_fault_policy
        >>> policy = get_fault_policy("preempt")
        >>> policy.preempts(2.0, 0.0), policy.preempts(1.0, 1.0)
        (True, False)
    """

    preemptive = True

    def preempts(self, arriving_rank: float, running_rank: float) -> bool:
        return arriving_rank > running_rank


@register_fault_policy("chaos")
class ChaosFaults(_CrashTimeline, _ParetoTail, FaultPolicy):
    """Crashes, stragglers, and preemption together — the chaos drill.

    Example::

        >>> from repro.serving import get_fault_policy
        >>> policy = get_fault_policy("chaos", mtbf_s=1.0)
        >>> policy.reset(5)
        >>> policy.next_crash(1, 0.0) is not None
        True
    """

    preemptive = True

    def __init__(
        self,
        mtbf_s: float = 0.25,
        mttr_s: float = 0.05,
        prob: float = 0.05,
        alpha: float = 1.5,
        max_factor: float = 20.0,
    ) -> None:
        super().__init__()
        if mtbf_s <= 0:
            raise ServingError("mtbf_s must be positive")
        if mttr_s < 0:
            raise ServingError("mttr_s must be >= 0")
        if not 0.0 <= prob <= 1.0:
            raise ServingError("straggler prob must be in [0, 1]")
        if alpha <= 0:
            raise ServingError("straggler alpha must be positive")
        if max_factor < 1.0:
            raise ServingError("straggler max_factor must be >= 1")
        self.mtbf_s = float(mtbf_s)
        self.mttr_s = float(mttr_s)
        self.prob = float(prob)
        self.alpha = float(alpha)
        self.max_factor = float(max_factor)

    def preempts(self, arriving_rank: float, running_rank: float) -> bool:
        return arriving_rank > running_rank
