"""Pluggable queue disciplines for the serving event loop.

Each replica in the discrete-event loop owns one :class:`Scheduler`: the
dispatcher pushes a :class:`QueuedRequest` when a request is assigned to
the replica, and the loop pops the next request to serve whenever the
replica frees up.  The discipline decides the pop order:

* ``"fifo"`` — arrival order; the baseline and the paper's model.
* ``"priority"`` — strict priority (larger ``ServeRequest.priority``
  first), FIFO within a class.
* ``"edf"`` — earliest deadline first, where a request's deadline is its
  arrival plus its own SLO (or the stream SLO); the classic real-time
  discipline for deadline-bound serving.
* ``"sjf"`` — shortest job first over the platform's known service
  times; minimizes mean sojourn at the cost of starving long tasks.
* ``"coalesce"`` — FIFO that keeps serving back-to-back requests for
  the task just served, exploiting the engine's compile cache and any
  on-chip weight residency before switching tasks.

Schedulers register under a string key exactly like platforms do::

    @register_scheduler("myorder")
    class MyScheduler(Scheduler):
        ...

    engine.serve_stream(arrivals, scheduler="myorder")

All disciplines are O(log n) per operation, keeping the event loop at
O(n log n) end to end.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field

from repro.errors import ServingError
from repro.registry import Registry
from repro.serving.request import ServeRequest
from repro.serving.result import ServingResult
from repro.workloads.deepbench import RNNTask

__all__ = [
    "QueuedRequest",
    "Scheduler",
    "FIFOScheduler",
    "PriorityScheduler",
    "EDFScheduler",
    "SJFScheduler",
    "CoalescingScheduler",
    "register_scheduler",
    "get_scheduler",
    "available_schedulers",
    "make_scheduler",
]


@dataclass(eq=False, slots=True)
class QueuedRequest:
    """A dispatched request waiting in one replica's ready queue.

    ``__slots__`` (via ``slots=True``): one of these is allocated per
    request on the event loop's hot path, and slots cut both the
    per-instance footprint and the attribute-access cost.

    Attributes:
        seq: Arrival-order index across the whole stream; every
            discipline breaks ties FIFO on it.
        request: The request itself (tenant, priority, SLO tags).
        result: The platform result, computed at dispatch time — service
            times are deterministic per (platform, task), so the
            scheduler may use them (SJF does).
        service_s: The request's service time on this replica.
        deadline_s: Absolute deadline (arrival + effective SLO), ``inf``
            when neither the request nor the stream has an SLO.
    """

    seq: int
    request: ServeRequest
    result: ServingResult = field(repr=False)
    service_s: float = 0.0
    deadline_s: float = float("inf")


class Scheduler(ABC):
    """Queue discipline for one replica: push on dispatch, pop when free.

    Example::

        >>> from repro.serving import get_scheduler
        >>> sched = get_scheduler("fifo")
        >>> (sched.name, len(sched))
        ('fifo', 0)
    """

    #: Registry key; set by :func:`register_scheduler`.
    name: str = "?"

    @abstractmethod
    def push(self, entry: QueuedRequest) -> None:
        """Admit a dispatched request to the ready queue."""

    @abstractmethod
    def pop(self) -> QueuedRequest:
        """Remove and return the next request to serve."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of requests waiting."""

    def peek(self) -> QueuedRequest:
        """Return (without removing) the request :meth:`pop` would serve next.

        Optional capability: the dynamic batching policies
        (:mod:`repro.serving.batching`) use it to look ahead for
        same-task requests to coalesce.  All built-in disciplines
        implement it; a discipline that does not cannot be combined with
        a look-ahead batcher.
        """
        raise ServingError(
            f"scheduler {self.name!r} does not implement peek(); "
            f"look-ahead batching policies need it"
        )

    def preemption_rank(self, entry: QueuedRequest) -> float:
        """Urgency rank a preemptive fault policy compares (larger = more urgent).

        The fault-aware event loop (:mod:`repro.serving.faults`) asks the
        replica's discipline how urgent a request is when deciding whether
        a new arrival may abort the in-flight batch.  The default ranks by
        the request's strict priority class; disciplines with their own
        notion of urgency (e.g. EDF) may override it.
        """
        return float(entry.request.priority)


class _KeyedScheduler(Scheduler):
    """Heap-ordered discipline over a per-entry key; ties break FIFO."""

    def __init__(self) -> None:
        self._heap: list[tuple] = []

    def key(self, entry: QueuedRequest) -> tuple:
        raise NotImplementedError  # pragma: no cover

    def push(self, entry: QueuedRequest) -> None:
        # seq is unique, so the trailing entry is never compared.
        heapq.heappush(self._heap, (*self.key(entry), entry.seq, entry))

    def pop(self) -> QueuedRequest:
        if not self._heap:
            raise ServingError("pop from an empty ready queue")
        return heapq.heappop(self._heap)[-1]

    def peek(self) -> QueuedRequest:
        if not self._heap:
            raise ServingError("peek into an empty ready queue")
        return self._heap[0][-1]

    def __len__(self) -> int:
        return len(self._heap)


#: Every registered queue discipline, keyed by name.  Fleets need one
#: scheduler *per replica*, so they resolve a key or factory per replica;
#: a shared instance would interleave queues and is rejected there.
SCHEDULERS: Registry[Scheduler] = Registry("scheduler", Scheduler, ServingError)
register_scheduler = SCHEDULERS.register
unregister_scheduler = SCHEDULERS.unregister
available_schedulers = SCHEDULERS.names
get_scheduler = SCHEDULERS.create
make_scheduler = SCHEDULERS.make


def _doc_entry(seq: int, **overrides: object) -> QueuedRequest:
    """Build a throwaway :class:`QueuedRequest` (docstring examples only)."""
    from repro.serving.result import ServingResult
    from repro.workloads.deepbench import task

    t = overrides.pop("task", task("lstm", 512, 25))
    request = ServeRequest(
        task=t,
        request_id=seq,
        priority=overrides.pop("priority", 0),
    )
    return QueuedRequest(
        seq=seq,
        request=request,
        result=ServingResult(platform="doc", task=t, latency_s=1e-3,
                             effective_tflops=0.0),
        **overrides,
    )


@register_scheduler("fifo")
class FIFOScheduler(_KeyedScheduler):
    """Serve in arrival order — the pre-refactor behaviour, bit for bit.

    Example::

        >>> from repro.serving.scheduler import FIFOScheduler, _doc_entry
        >>> sched = FIFOScheduler()
        >>> for seq in (2, 0, 1): sched.push(_doc_entry(seq))
        >>> [sched.pop().seq for _ in range(3)]
        [0, 1, 2]
    """

    def key(self, entry: QueuedRequest) -> tuple:
        return ()


@register_scheduler("priority")
class PriorityScheduler(_KeyedScheduler):
    """Strict priority: larger ``request.priority`` first, FIFO within.

    Example::

        >>> from repro.serving.scheduler import PriorityScheduler, _doc_entry
        >>> sched = PriorityScheduler()
        >>> sched.push(_doc_entry(0, priority=0))
        >>> sched.push(_doc_entry(1, priority=9))
        >>> sched.pop().seq
        1
    """

    def key(self, entry: QueuedRequest) -> tuple:
        return (-entry.request.priority,)


@register_scheduler("edf")
class EDFScheduler(_KeyedScheduler):
    """Earliest deadline first over per-request (or stream) SLOs.

    Example::

        >>> from repro.serving.scheduler import EDFScheduler, _doc_entry
        >>> sched = EDFScheduler()
        >>> sched.push(_doc_entry(0, deadline_s=0.9))
        >>> sched.push(_doc_entry(1, deadline_s=0.2))
        >>> sched.pop().seq
        1
    """

    def key(self, entry: QueuedRequest) -> tuple:
        return (entry.deadline_s,)

    def preemption_rank(self, entry: QueuedRequest) -> float:
        # Earlier deadline = more urgent; negate so larger still wins.
        return -entry.deadline_s


@register_scheduler("sjf")
class SJFScheduler(_KeyedScheduler):
    """Shortest job first over the platform's deterministic service times.

    Example::

        >>> from repro.serving.scheduler import SJFScheduler, _doc_entry
        >>> sched = SJFScheduler()
        >>> sched.push(_doc_entry(0, service_s=5e-3))
        >>> sched.push(_doc_entry(1, service_s=1e-3))
        >>> sched.pop().seq
        1
    """

    def key(self, entry: QueuedRequest) -> tuple:
        return (entry.service_s,)


@register_scheduler("coalesce")
class CoalescingScheduler(Scheduler):
    """FIFO that groups back-to-back requests for the same task.

    After serving a request, any queued request for the *same* task jumps
    the line (oldest first), so runs of one task are served contiguously
    and the compile cache / on-chip weights stay hot; when the run dries
    up, the discipline falls back to plain FIFO for the next task.

    Example::

        >>> from repro.serving.scheduler import CoalescingScheduler, _doc_entry
        >>> from repro.workloads.deepbench import task
        >>> a, b = task("lstm", 512, 25), task("gru", 512, 25)
        >>> sched = CoalescingScheduler()
        >>> for seq, t in ((0, a), (1, b), (2, a)): sched.push(_doc_entry(seq, task=t))
        >>> [sched.pop().seq for _ in range(3)]    # the 'a' run coalesces
        [0, 2, 1]
    """

    def __init__(self) -> None:
        self._buckets: dict[RNNTask, deque[QueuedRequest]] = {}
        #: Lazy FIFO heap of (seq, task); entries served out-of-band via
        #: coalescing are skipped when they surface.
        self._order: list[tuple[int, RNNTask]] = []
        self._last_task: RNNTask | None = None
        self._size = 0

    def push(self, entry: QueuedRequest) -> None:
        self._buckets.setdefault(entry.request.task, deque()).append(entry)
        # seq is unique, so the task in the tuple is never compared.
        heapq.heappush(self._order, (entry.seq, entry.request.task))
        self._size += 1

    def _front(self, verb: str) -> QueuedRequest:
        """The entry :meth:`pop` would serve next (shared with peek).

        Prefers the bucket of the task just served, then falls back to
        FIFO via the marker heap, discarding stale markers for requests
        that already jumped the line.
        """
        if self._size == 0:
            raise ServingError(f"{verb} an empty ready queue")
        bucket = (
            self._buckets.get(self._last_task)
            if self._last_task is not None
            else None
        )
        if bucket:
            return bucket[0]
        while True:
            seq, task = self._order[0]
            candidates = self._buckets.get(task)
            if candidates and candidates[0].seq == seq:
                return candidates[0]
            heapq.heappop(self._order)

    def pop(self) -> QueuedRequest:
        entry = self._front("pop from")
        task = entry.request.task
        bucket = self._buckets[task]
        bucket.popleft()
        if self._order and self._order[0][0] == entry.seq:
            heapq.heappop(self._order)
        # else: served out of FIFO order via coalescing; its marker goes
        # stale and _front discards it when it surfaces.
        if not bucket:
            self._buckets.pop(task, None)
        self._last_task = task
        self._size -= 1
        return entry

    def peek(self) -> QueuedRequest:
        return self._front("peek into")

    def __len__(self) -> int:
        return self._size
