"""Dynamic batching policies: coalesce queued same-task requests.

The paper argues (Section 1, Table 6) that a spatial accelerator can
meet stringent latency SLOs at **batch 1**, where throughput-oriented
designs like Brainwave batch requests to stay utilized.  To explore that
latency/throughput frontier instead of asserting it, the event loop
supports pluggable *batchers*: when a replica is free, its batcher
decides how long to wait and how many queued same-task requests to
coalesce into one batched execution (costed by the platform's
``batch_latency_s`` pipeline model — setup once, steady-state per item).

Six policies are built in:

* ``"none"`` — serve one request at a time.  This is the default and is
  bit-for-bit identical to the engine's historical stream behaviour
  (pinned by the golden parity tests).
* ``"size-cap"`` — never wait; when the replica frees up, greedily take
  the head plus any queued requests for the same task, up to
  ``max_batch``.
* ``"time-window"`` — additionally hold an idle replica for a short
  window after the head request arrives, letting a batch accumulate
  before launching (the classic server-side batching knob).
* ``"adaptive"`` — SLO-aware: hold only while the head request's
  deadline allows it, and cap the batch so its projected completion
  (via the platform cost model) still meets that deadline.
* ``"pad"`` — length-aware: coalesce mixed-length requests of one task
  *family*, padding everyone to the batch's longest sequence; the
  padding cost is accounted as ``StreamReport.padding_waste_frac``.
* ``"bucket"`` — length-aware with bounded padding: coalesce only
  within a geometric length band, so a stray long request cannot
  multiply a whole batch's cost.

Batchers register under a string key exactly like platforms and
schedulers do::

    @register_batcher("mypolicy")
    class MyBatcher(Batcher):
        ...

    engine.serve_stream(arrivals, batcher="mypolicy")

Look-ahead policies use :meth:`Scheduler.peek
<repro.serving.scheduler.Scheduler.peek>`, so they compose with any
discipline that implements it — pairing ``batcher="size-cap"`` with
``scheduler="coalesce"`` is particularly effective, since that
discipline already orders same-task requests back to back.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ServingError
from repro.registry import Registry
from repro.serving.scheduler import QueuedRequest, Scheduler
from repro.serving.traffic import length_band
from repro.workloads.deepbench import RNNTask

__all__ = [
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
]

#: Estimated batch latency: (task, batch_size) -> seconds.  Bound by the
#: event loop from the replica's platform cost model.
BatchCost = Callable[[RNNTask, int], float]


class Batcher:
    """Decides when a free replica launches and what it coalesces.

    The event loop consults the replica's batcher at two points:

    * :meth:`hold_until` — the replica is free and its queue non-empty;
      the batcher may delay the launch (returning a time later than
      ``now``) to let a batch accumulate.
    * :meth:`take` — the launch happens; the batcher pops the head
      request plus any compatible (same-task) requests to execute
      together.

    Subclasses usually override only those two hooks.  The loop calls
    :meth:`bind_cost` first, giving the batcher the replica platform's
    batched cost model for SLO-aware decisions.

    Example::

        >>> from repro.serving import get_batcher
        >>> b = get_batcher("size-cap", max_batch=4)
        >>> (b.name, b.max_batch)
        ('size-cap', 4)
    """

    #: Registry key; set by :func:`register_batcher`.
    name: str = "?"

    def __init__(self, *, max_batch: int = 8) -> None:
        if not isinstance(max_batch, int) or max_batch < 1:
            raise ServingError(f"max_batch must be a positive int, got {max_batch!r}")
        self.max_batch = max_batch
        self._cost: BatchCost | None = None

    def bind_cost(self, cost: BatchCost) -> None:
        """Attach the replica's batched cost model (set by the event loop)."""
        self._cost = cost

    def hold_until(self, queue: Scheduler, now: float) -> float:
        """Earliest time the replica should launch its next execution.

        Returning ``now`` (the default) launches immediately; returning a
        later time holds the idle replica so more requests can join the
        batch.  Called only when ``queue`` is non-empty.
        """
        return now

    def take(self, queue: Scheduler, now: float) -> list[QueuedRequest]:
        """Pop the batch to execute: the head plus compatible followers.

        The default implementation pops the scheduler's head, then keeps
        popping while the next request to serve is :meth:`compatible`
        with the head and the batch is under ``max_batch``.
        """
        return self._coalesce(queue, self.max_batch)

    def compatible(self, head: QueuedRequest, candidate: QueuedRequest) -> bool:
        """Whether ``candidate`` may join ``head``'s batch.

        The default requires the *same task* (identical sequence length
        included), so a batch shares one
        :class:`~repro.serving.platform.PreparedModel` and needs no
        padding.  The length-aware policies relax this to the task
        *family* (:class:`PadBatcher`) or a length band of it
        (:class:`BucketBatcher`).
        """
        return candidate.request.task == head.request.task

    def _coalesce(self, queue: Scheduler, limit: int) -> list[QueuedRequest]:
        head = queue.pop()
        batch = [head]
        while len(batch) < limit and len(queue):
            if not self.compatible(head, queue.peek()):
                break
            batch.append(queue.pop())
        return batch


#: Every registered batching policy, keyed by name.  Fleets need one
#: batcher *per replica* (each holds per-replica launch state), so they
#: resolve a key or factory per replica.
BATCHERS: Registry[Batcher] = Registry("batcher", Batcher, ServingError)
register_batcher = BATCHERS.register
unregister_batcher = BATCHERS.unregister
available_batchers = BATCHERS.names
get_batcher = BATCHERS.create
make_batcher = BATCHERS.make


@register_batcher("none")
class NoneBatcher(Batcher):
    """Serve strictly one request per execution — the batch-1 default.

    This policy never waits and never coalesces, so the stream timeline
    it produces is bit-for-bit identical to the engine's historical
    unbatched behaviour (the golden parity tests pin it).  ``max_batch``
    is accepted for CLI uniformity and ignored.

    Example::

        >>> from repro.serving import get_batcher
        >>> get_batcher("none", max_batch=64).max_batch   # always batch 1
        1
    """

    def __init__(self, *, max_batch: int = 1) -> None:
        super().__init__(max_batch=1)

    def take(self, queue: Scheduler, now: float) -> list[QueuedRequest]:
        return [queue.pop()]


@register_batcher("size-cap")
class SizeCapBatcher(Batcher):
    """Greedy same-task coalescing up to ``max_batch``; never waits.

    When the replica frees up it takes whatever compatible backlog is
    already queued.  Under light load this degenerates to batch 1 (no
    added latency); under backlog it drains at the batched rate.

    Example::

        >>> from repro.serving import ServingEngine, uniform_arrivals
        >>> from repro.workloads.deepbench import task
        >>> t = task("lstm", 512, 25)
        >>> burst = uniform_arrivals(t, rate_per_s=1e6, n_requests=16)
        >>> report = ServingEngine("gpu").serve_stream(
        ...     burst, batcher="size-cap", max_batch=8)
        >>> report.mean_batch_size > 1.0
        True
    """


@register_batcher("time-window")
class TimeWindowBatcher(Batcher):
    """Hold an idle replica up to ``window_ms`` after the head arrives.

    The head request waits at most ``window_ms`` beyond its arrival (or
    not at all once ``max_batch`` requests are queued); followers that
    arrive inside the window join its batch.  This trades bounded added
    latency for throughput — the standard server-side batching knob.

    Example::

        >>> from repro.serving import get_batcher
        >>> b = get_batcher("time-window", window_ms=2.0)
        >>> (b.name, b.window_ms)
        ('time-window', 2.0)
    """

    def __init__(self, *, max_batch: int = 8, window_ms: float = 0.5) -> None:
        super().__init__(max_batch=max_batch)
        if window_ms < 0:
            raise ServingError("window_ms must be >= 0")
        self.window_ms = window_ms

    def hold_until(self, queue: Scheduler, now: float) -> float:
        if len(queue) >= self.max_batch:
            return now
        head = queue.peek()
        return max(now, head.request.arrival_s + self.window_ms / 1e3)


@register_batcher("pad")
class PadBatcher(Batcher):
    """Greedy family coalescing with padding: batch mixed-length
    same-family requests, executing everyone at the batch's longest
    length.

    This is what batched RNN serving on throughput-oriented hardware
    actually does — and what it costs: the execution is billed at the
    *padded* length, so every shorter request's excess shows up in
    :attr:`StreamReport.padding_waste_frac
    <repro.serving.engine.StreamReport.padding_waste_frac>`.  Like
    ``size-cap``, it never holds an idle replica.

    Example::

        >>> from repro.serving import ServingEngine, ZipfLength, uniform_arrivals
        >>> from repro.workloads.deepbench import task
        >>> burst = uniform_arrivals(task("gru", 512, 25), rate_per_s=1e6,
        ...                          n_requests=16, lengths=ZipfLength(10, 200))
        >>> report = ServingEngine("gpu").serve_stream(
        ...     burst, batcher="pad", max_batch=8)
        >>> (report.mean_batch_size > 1.0, report.padding_waste_frac > 0.0)
        (True, True)
    """

    def compatible(self, head: QueuedRequest, candidate: QueuedRequest) -> bool:
        return (
            candidate.request.task.family_key == head.request.task.family_key
        )


@register_batcher("bucket")
class BucketBatcher(Batcher):
    """Length-bucketed coalescing: batch same-family requests only within
    a geometric length band, so padding is bounded by the band ratio.

    The classic fix for padded batching (cf. bucketed batching in RNN
    serving systems): requests whose lengths fall in the same
    ``[base^k, base^(k+1))`` band coalesce and pad at most ``base``-fold;
    a stray long request can no longer multiply a whole batch's cost.
    On heavy-tailed (zipf) length mixes this beats ``pad`` on both
    wasted FLOPs and throughput.

    Example::

        >>> from repro.serving import get_batcher
        >>> b = get_batcher("bucket", max_batch=8, band_base=2.0)
        >>> (b.name, b.band_base)
        ('bucket', 2.0)
        >>> (b.band(10), b.band(15), b.band(16))
        ((8, 15), (8, 15), (16, 31))
    """

    def __init__(self, *, max_batch: int = 8, band_base: float = 2.0) -> None:
        super().__init__(max_batch=max_batch)
        if band_base <= 1.0:
            raise ServingError("band_base must be > 1")
        self.band_base = band_base

    def band(self, timesteps: int) -> tuple[int, int]:
        """The inclusive geometric length band containing ``timesteps``."""
        return length_band(timesteps, self.band_base)

    def compatible(self, head: QueuedRequest, candidate: QueuedRequest) -> bool:
        h, c = head.request.task, candidate.request.task
        return h.family_key == c.family_key and self.band(
            h.timesteps
        ) == self.band(c.timesteps)


@register_batcher("adaptive")
class AdaptiveBatcher(TimeWindowBatcher):
    """SLO-aware batching: wait and coalesce only as deadlines allow.

    Extends the time-window policy two ways, both driven by the head
    request's absolute deadline (arrival + its own or the stream SLO):

    * the hold is clipped so that a ``max_batch`` execution, costed by
      the platform's batched model, would still finish by the deadline;
    * :meth:`take` stops growing the batch once one more request would
      push the projected completion past the deadline — unless the
      head's deadline is already lost even at batch 1, in which case the
      policy switches to drain mode and batches maximally so the backlog
      (and everyone else's deadline) recovers sooner.

    With no SLO configured (infinite deadlines) it behaves exactly like
    ``"time-window"``.

    Example::

        >>> from repro.serving import get_batcher
        >>> b = get_batcher("adaptive", max_batch=16, window_ms=5.0)
        >>> (b.name, b.max_batch)
        ('adaptive', 16)
    """

    def __init__(self, *, max_batch: int = 8, window_ms: float = 2.0) -> None:
        super().__init__(max_batch=max_batch, window_ms=window_ms)

    def hold_until(self, queue: Scheduler, now: float) -> float:
        launch = super().hold_until(queue, now)
        head = queue.peek()
        if self._cost is not None and head.deadline_s != float("inf"):
            latest = head.deadline_s - self._cost(
                head.request.task, self.max_batch
            )
            launch = min(launch, latest)
        return max(now, launch)

    def take(self, queue: Scheduler, now: float) -> list[QueuedRequest]:
        head = queue.peek()
        limit = self.max_batch
        if self._cost is not None and head.deadline_s != float("inf"):
            task = head.request.task
            if now + self._cost(task, 1) <= head.deadline_s:
                limit = 1
                while (
                    limit < self.max_batch
                    and now + self._cost(task, limit + 1) <= head.deadline_s
                ):
                    limit += 1
            # else: the head's deadline is already lost even at batch 1 —
            # drain mode: batch maximally for throughput so the backlog
            # (and everyone else's deadline) recovers sooner.
        return self._coalesce(queue, limit)
