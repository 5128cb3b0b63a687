"""The uniform per-request serving outcome, shared by every platform.

:class:`ServingResult` is the row every platform produces for Table 6 —
latency, effective TFLOPS, and (where modelled) power — regardless of
whether it came from the cycle-level Plasticine simulator or one of the
analytical baseline models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.workloads.deepbench import RNNTask

if TYPE_CHECKING:  # only for annotations; avoids eager heavy imports
    from repro.mapping.mapper import MappedDesign
    from repro.plasticine.simulator import SimulationResult

__all__ = ["FaultStats", "ServingResult"]


@dataclass(frozen=True)
class ServingResult:
    """Uniform serving outcome across platforms.

    ``batch_size`` is 1 for the classic batch-1 request; a batched
    execution (see :meth:`Platform.serve
    <repro.serving.platform.Platform.serve>`) produces one result for
    the whole batch, with ``latency_s`` the batch completion time and
    ``effective_tflops`` counting every request's work.

    Example::

        >>> from repro.serving import ServingEngine
        >>> from repro.workloads.deepbench import task
        >>> res = ServingEngine("gpu").serve(task("lstm", 512, 25)).result
        >>> res.platform, res.batch_size, res.latency_ms < 50
        ('gpu', 1, True)
    """

    platform: str
    task: RNNTask
    latency_s: float
    effective_tflops: float
    power_w: float | None = None
    cycles_per_step: int | None = None
    design: "MappedDesign | None" = field(default=None, repr=False, compare=False)
    simulation: "SimulationResult | None" = field(default=None, repr=False, compare=False)
    notes: tuple[str, ...] = ()
    #: Number of same-task requests this execution served together.
    batch_size: int = 1

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3

    def speedup_over(self, other: "ServingResult") -> float:
        """How much faster *this* platform is than ``other`` (>1 = faster)."""
        return other.latency_s / self.latency_s


@dataclass(frozen=True)
class FaultStats:
    """Stream-level fault-injection counters.

    Produced by the fault-aware event loop (see
    :mod:`repro.serving.faults`) and attached to every
    ``StreamReport``/``StreamSummary``.  A faultless run carries the
    all-zero record, which is also the identity for :meth:`merge` — the
    reason this lives next to :class:`ServingResult` rather than in the
    stats module is that both reports and summaries (and the parallel
    shard merge) need it without import cycles.

    Example::

        >>> from repro.serving import FaultStats
        >>> a = FaultStats(crashes=1, downtime_s=0.5, retries=2)
        >>> b = FaultStats(retries=1, hedges=3, hedge_wins=1)
        >>> a.merge(b)
        FaultStats(crashes=1, downtime_s=0.5, preemptions=0, retries=3, timeouts=0, hedges=3, hedge_wins=1, stragglers=0)
        >>> FaultStats().any, a.any
        (False, True)
    """

    #: Replica crash events injected into the stream.
    crashes: int = 0
    #: Total replica-seconds spent dead (summed over crashes).
    downtime_s: float = 0.0
    #: In-flight executions aborted by a higher-priority arrival.
    preemptions: int = 0
    #: Re-dispatches after a per-request timeout expired.
    retries: int = 0
    #: Requests that exhausted their retry budget (outcome ``"timeout"``).
    timeouts: int = 0
    #: Hedged duplicate dispatches issued.
    hedges: int = 0
    #: Requests whose hedge copy finished first (outcome ``"hedged"``).
    hedge_wins: int = 0
    #: Executions whose service time was straggler-inflated.
    stragglers: int = 0

    @property
    def any(self) -> bool:
        """Whether any fault was injected (False for the identity record)."""
        return self != FaultStats()

    def merge(self, other: "FaultStats") -> "FaultStats":
        """Field-wise sum — associative, with ``FaultStats()`` as identity."""
        return FaultStats(
            crashes=self.crashes + other.crashes,
            downtime_s=self.downtime_s + other.downtime_s,
            preemptions=self.preemptions + other.preemptions,
            retries=self.retries + other.retries,
            timeouts=self.timeouts + other.timeouts,
            hedges=self.hedges + other.hedges,
            hedge_wins=self.hedge_wins + other.hedge_wins,
            stragglers=self.stragglers + other.stragglers,
        )
