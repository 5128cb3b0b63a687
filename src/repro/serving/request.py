"""Request and response records shared by the whole serving stack.

:class:`ServeRequest` is the unit of traffic: one batch-1 RNN inference
plus everything a data-center scheduler needs to know about it — when it
arrived, which tenant sent it, how urgent it is, and its own latency
budget.  :class:`ServeResponse` pairs a request with the platform result
and the timeline the event loop assigned to it.

These live in their own module (rather than in ``engine``) so the
traffic generators, the schedulers, and the event loop can all import
them without cycles.

The public constructor validates every request.  The traffic generators
and :func:`~repro.serving.traffic.mix` build millions of requests from
arguments they have already checked once per stream, so they use the
private :func:`_trusted_request` instead, which skips the checks but
yields the same frozen, hashable record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ServingError
from repro.serving.result import ServingResult
from repro.workloads.deepbench import RNNTask

__all__ = ["ServeRequest", "ServeResponse"]


@dataclass(frozen=True, slots=True)
class ServeRequest:
    """One serving request: a task plus its arrival time and traffic tags.

    Attributes:
        task: The RNN inference to run.
        arrival_s: When the request enters the system (seconds; finite
            and >= 0).
        request_id: Identifier, unique within one stream.  Streams merged
            by :func:`repro.serving.traffic.mix` get globally unique ids;
            the event loop rejects streams with duplicates.
        tenant: Which workload/customer the request belongs to; reports
            break down latency and SLO attainment per tenant.
        priority: Strict-priority class (larger serves first under the
            ``"priority"`` scheduler; ties break FIFO).
        slo_ms: Per-request latency budget.  Overrides the stream-level
            SLO for deadline scheduling and miss accounting; ``None``
            falls back to the stream's ``slo_ms``.  Must be positive
            (NaN is rejected; ``inf`` means never late).

    Example::

        >>> from repro.serving import ServeRequest
        >>> from repro.workloads.deepbench import task
        >>> req = ServeRequest(task=task("lstm", 512, 25),
        ...                    arrival_s=0.5, slo_ms=10.0)
        >>> req.deadline_s()
        0.51
        >>> req.effective_slo_ms(5.0)   # its own SLO wins
        10.0
    """

    task: RNNTask
    arrival_s: float = 0.0
    request_id: int = 0
    tenant: str = "default"
    priority: int = 0
    slo_ms: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.arrival_s < math.inf:
            raise _arrival_error(self.arrival_s)
        _check_budget_ms("slo_ms", self.slo_ms)

    def effective_slo_ms(self, default_slo_ms: float | None = None) -> float | None:
        """The request's own SLO, falling back to the stream-level one."""
        return self.slo_ms if self.slo_ms is not None else default_slo_ms

    def deadline_s(self, default_slo_ms: float | None = None) -> float:
        """Absolute deadline implied by the request's (or stream's) SLO."""
        slo = self.effective_slo_ms(default_slo_ms)
        if slo is None:
            return float("inf")
        return self.arrival_s + slo / 1e3


def _arrival_error(arrival_s: float) -> ServingError:
    """The error for an arrival time outside ``[0, inf)`` (NaN included)."""
    if arrival_s < 0:
        return ServingError("arrival_s must be >= 0")
    return ServingError(f"arrival_s must be finite, got {arrival_s!r}")


def _check_budget_ms(name: str, value: float | None) -> None:
    """Reject a time budget in ms (an SLO, timeout or hedge delay) that
    is set but not positive.  Written ``not value > 0`` so NaN fails as
    zero and negatives do; an infinite budget stays legal."""
    if value is not None and not value > 0:
        raise ServingError(f"{name} must be positive when set, got {value!r}")


_new_request = object.__new__
_set_task = ServeRequest.task.__set__
_set_arrival_s = ServeRequest.arrival_s.__set__
_set_request_id = ServeRequest.request_id.__set__
_set_tenant = ServeRequest.tenant.__set__
_set_priority = ServeRequest.priority.__set__
_set_slo_ms = ServeRequest.slo_ms.__set__


def _trusted_request(
    task: RNNTask,
    arrival_s: float,
    request_id: int,
    tenant: str,
    priority: int,
    slo_ms: float | None,
) -> ServeRequest:
    """A :class:`ServeRequest` built without ``__init__``'s checks.

    Fills the six slots directly, which costs well under half the public
    constructor.  The record is indistinguishable from a publicly built
    one: equal, hash-equal, picklable, and still frozen.  Only callers
    that validated the fields already may use it: the traffic generators
    (after their once-per-stream argument checks, keeping a per-request
    arrival check) and :func:`~repro.serving.traffic.mix` (which
    renumbers requests that were valid on the way in).
    """
    req = _new_request(ServeRequest)
    _set_task(req, task)
    _set_arrival_s(req, arrival_s)
    _set_request_id(req, request_id)
    _set_tenant(req, tenant)
    _set_priority(req, priority)
    _set_slo_ms(req, slo_ms)
    return req


@dataclass(frozen=True, slots=True)
class ServeResponse:
    """The engine's answer: the result plus the request's timeline.

    When dynamic batching coalesced the request with others
    (:mod:`repro.serving.batching`), ``batch_size`` is the size of that
    execution, ``batch_index`` the request's position in it, and
    ``result`` the shared batched result: every request in a batch
    starts and finishes together.

    Example::

        >>> from repro.serving import ServingEngine
        >>> from repro.workloads.deepbench import task
        >>> resp = ServingEngine("gpu").serve(task("lstm", 512, 25))
        >>> resp.queue_delay_s, resp.batch_size
        (0.0, 1)
        >>> resp.sojourn_s == resp.finish_s - resp.request.arrival_s
        True
    """

    request: ServeRequest
    result: ServingResult
    queue_delay_s: float
    start_s: float
    finish_s: float
    #: Size of the batched execution that served this request (1 = unbatched).
    batch_size: int = 1
    #: This request's position within its batch (0 for the head).
    batch_index: int = 0
    #: How the request left the system: ``"ok"`` (served normally),
    #: ``"retried"`` (served after >=1 timeout retry), ``"hedged"`` (the
    #: hedged duplicate finished first), or ``"timeout"`` (retry budget
    #: exhausted; ``start_s == finish_s`` = the give-up instant).
    outcome: str = "ok"
    #: Dispatch attempts this request consumed (1 = no retries).
    attempts: int = 1

    @property
    def service_s(self) -> float:
        """This request's share of accelerator time.

        For an unbatched request this is the platform's batch-1 serving
        latency; for a batched one it is the batch latency divided by the
        batch size, so utilization and sustainable-rate accounting sum to
        the time the accelerator was actually busy.
        """
        return self.result.latency_s / self.batch_size

    @property
    def sojourn_s(self) -> float:
        """Queueing delay + service: what the user experiences."""
        return self.finish_s - self.request.arrival_s

    @property
    def sojourn_ms(self) -> float:
        return self.sojourn_s * 1e3

    @property
    def padded_timesteps(self) -> int:
        """Sequence steps this request was padded by.

        ``result.task`` is the task the platform actually executed; when
        a length-aware batcher coalesced this request with longer ones,
        the execution ran at the batch maximum and the difference is
        padding.  0 for unbatched or same-length executions.
        """
        return self.result.task.timesteps - self.request.task.timesteps

    @property
    def padding_waste_flops(self) -> int:
        """FLOPs spent computing this request's padding (0 = no padding)."""
        return self.result.task.flops - self.request.task.flops
