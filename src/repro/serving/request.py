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
private :func:`_trusted_request` instead, which skips the checks (it
retypes a plain slotted draft) but yields the same frozen, hashable record.
"""

from __future__ import annotations

import math
import numbers
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
        _check_integer("request_id", self.request_id)
        _check_tenant(self.tenant)
        _check_integer("priority", self.priority)
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


def _check_integer(name: str, value: object) -> None:
    """Reject a count or integer tag that is not an ``int``, or is a
    bool, as :func:`~repro.serving.traffic.request_from_json` would."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServingError(f"{name} must be an integer, got {value!r}")


def _check_tenant(tenant: object) -> None:
    """Reject a tenant tag that is not a string."""
    if not isinstance(tenant, str):
        raise ServingError(f"tenant must be a string, got {tenant!r}")


def _number_error(name: str, value: object) -> str | None:
    """Why ``value`` cannot be the number ``name`` (a real, not a bool,
    that a float holds), or ``None`` if it can."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return f"{name} must be a number, got {type(value).__name__}"
    try:
        float(value)
    except OverflowError:
        return f"{name} must fit in a float, got a larger {type(value).__name__}"
    return None


def _budget_error(name: str, value: object) -> str | None:
    """Why ``value`` cannot be the budget ``name`` (an SLO, timeout,
    hedge delay or rate), or ``None`` if it can: a number by
    :func:`_number_error`'s rule, and positive.  ``not float(value) > 0``
    fails NaN as it fails zero and negatives; ``inf`` stays legal.  Each
    caller raises its own error class."""
    error = _number_error(name, value)
    if error is None and not float(value) > 0:
        error = f"{name} must be positive, got {value!r}"
    return error


def _check_budget_ms(name: str, value: float | None) -> None:
    """Reject a time budget in ms that is set but not a legal budget
    (see :func:`_budget_error`)."""
    if value is not None:
        error = _budget_error(name, value)
        if error is not None:
            raise ServingError(error)


class _Draft:
    """A :class:`ServeRequest` under construction: its slots, unfrozen."""

    __slots__ = ServeRequest.__slots__


def _trusted_request(
    task: RNNTask,
    arrival_s: float,
    request_id: int,
    tenant: str,
    priority: int,
    slo_ms: float | None,
) -> ServeRequest:
    """A :class:`ServeRequest` built without ``__init__``'s checks.

    Fills a :class:`_Draft` with plain stores, then retypes it: CPython
    allows ``__class__`` assignment between classes with identical slots
    and layout.  That costs well under half the public constructor, and
    the record is indistinguishable from a publicly built one: a
    ``ServeRequest``, equal, hash-equal, picklable, and still frozen.
    Only callers that validated the fields already may use it: the
    traffic generators (after their once-per-stream argument checks,
    keeping a per-request arrival check) and ``traffic.mix`` (which
    renumbers requests that were valid on the way in).
    """
    req = _Draft()
    req.task = task
    req.arrival_s = arrival_s
    req.request_id = request_id
    req.tenant = tenant
    req.priority = priority
    req.slo_ms = slo_ms
    req.__class__ = ServeRequest
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
