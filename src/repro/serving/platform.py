"""Platform protocol and the decorator-based platform registry.

A serving platform splits its work into the two phases every real
deployment has (Brainwave and Spartus both structure serving this way),
and implements exactly one method per phase:

* :meth:`Platform.prepare` — the one-time compile/initialize phase.  For
  Plasticine this is the expensive part: pick loop parameters, build the
  loop-based program, map it onto the chip, and cycle-simulate one
  request.  The output is a :class:`PreparedModel`, which also carries
  the static fields of every result row (power, cycles per step, notes).
* :meth:`Platform.latency_s` — the steady-state cost: the batch-1
  latency of any sequence-length variant of the prepared task family.

Everything else comes from the base class: :meth:`Platform.serve`
builds every :class:`~repro.serving.result.ServingResult` row, and
:meth:`Platform.batch_latency_s` prices a batch with the paper's
pipeline model.  Platforms self-register under a string key, so a new
accelerator model plugs into the engine, the CLI, and the fleet
scheduler without touching any of them.

Example — a complete plugin, served through the engine::

    >>> from repro.serving import (
    ...     Platform, PreparedModel, ServingEngine, register_platform)
    >>> from repro.serving.platform import unregister_platform
    >>> from repro.workloads.deepbench import task
    >>> @register_platform("myaccel")
    ... class MyAccelPlatform(Platform):
    ...     def prepare(self, task):
    ...         return PreparedModel(self.name, task, state=2e-6, power_w=40.0)
    ...     def latency_s(self, prepared, task):
    ...         return 1e-4 + task.total_steps * prepared.state
    >>> engine = ServingEngine("myaccel")
    >>> t = task("lstm", 512, 25)
    >>> result = engine.serve(t).result
    >>> round(result.latency_ms, 6), result.power_w
    (0.15, 40.0)
    >>> longer = engine.serve(t.with_timesteps(100)).result  # no recompile
    >>> round(longer.latency_ms, 6), engine.cache_stats.misses
    (0.3, 1)
    >>> unregister_platform("myaccel")
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ServingError
from repro.registry import Registry
from repro.serving.result import ServingResult
from repro.workloads.deepbench import RNNTask

if TYPE_CHECKING:  # only for annotations; avoids eager heavy imports
    from repro.mapping.mapper import MappedDesign
    from repro.plasticine.simulator import SimulationResult

__all__ = [
    "PreparedModel",
    "Platform",
    "register_platform",
    "get_platform",
    "available_platforms",
]


@dataclass(frozen=True)
class PreparedModel:
    """The output of a platform's one-time compile/initialize phase.

    One prepared model serves every sequence-length variant of its
    task's family: compiled state depends only on the cell shape.

    Attributes:
        platform: Registry key of the platform that prepared it.
        task: The task it was compiled for.
        state: Opaque platform-specific compiled state.  Only the
            owning platform's :meth:`Platform.latency_s` reads it.
        notes: Human-readable remarks from the compile phase.
        power_w, cycles_per_step, design, simulation: Copied as they
            are into every :class:`~repro.serving.result.ServingResult`
            served from this model (``None`` where not modelled).

    Example::

        >>> from repro.serving import get_platform
        >>> from repro.workloads.deepbench import task
        >>> prepared = get_platform("gpu").prepare(task("lstm", 512, 25))
        >>> prepared.platform, prepared.task.name
        ('gpu', 'lstm-h512-t25')
    """

    platform: str
    task: RNNTask
    state: Any = field(repr=False, compare=False)
    notes: tuple[str, ...] = ()
    power_w: float | None = None
    cycles_per_step: int | None = None
    design: "MappedDesign | None" = field(default=None, repr=False, compare=False)
    simulation: "SimulationResult | None" = field(default=None, repr=False, compare=False)


class Platform(ABC):
    """A registered serving platform: compile once, serve many.

    Subclasses implement :meth:`prepare` (one-time compile) and
    :meth:`latency_s` (batch-1 latency of any length variant of the
    prepared family).  The batched cost model comes for free from the
    paper's pipeline decomposition: a batch-B execution of one task
    costs the one-time setup (pipeline fill, instruction issue, kernel
    launch) once, plus B times the steady-state per-item work.
    Platforms tune it with :attr:`batch_setup_fraction` or override
    :meth:`batch_latency_s` outright (Plasticine derives the split
    exactly from its cycle simulation).

    Example::

        >>> from repro.serving import get_platform
        >>> from repro.workloads.deepbench import task
        >>> gpu = get_platform("gpu")
        >>> prepared = gpu.prepare(task("lstm", 512, 25))
        >>> t1 = gpu.batch_latency_s(prepared, 1)
        >>> t1 == gpu.serve(prepared).latency_s     # B=1 is exact
        True
        >>> gpu.batch_latency_s(prepared, 8) < 8 * t1   # batching amortizes
        True
    """

    #: Registry key; set by :func:`register_platform`.
    name: str = "?"

    #: Fraction of the batch-1 serving latency that is one-time per-batch
    #: setup rather than per-item steady-state work.  ``0.0`` (the
    #: default) means batching buys nothing: a batch of B takes B times
    #: the batch-1 latency.  Platforms with expensive per-batch setup
    #: (weight streaming, kernel launch, pipeline fill) override this or
    #: :meth:`batch_latency_s` itself.
    batch_setup_fraction: float = 0.0

    @abstractmethod
    def prepare(self, task: RNNTask) -> PreparedModel:
        """One-time compile/initialize phase for ``task``'s family."""

    @abstractmethod
    def latency_s(self, prepared: PreparedModel, task: RNNTask) -> float:
        """Batch-1 latency of ``task``, any length variant of the
        prepared task's family, served from ``prepared``."""

    def batch_latency_s(
        self,
        prepared: PreparedModel,
        batch_size: int,
        task: RNNTask | None = None,
    ) -> float:
        """Latency of serving ``batch_size`` same-shape requests together.

        The paper's pipeline model: ``setup + B * steady``, where the
        batch-1 latency splits into ``setup = t1 * batch_setup_fraction``
        and ``steady = t1 - setup``.  ``task`` names the executed task
        when it is a length variant of the prepared family (a padded
        batch executes at the longest member's length); it defaults to
        the prepared task.  ``batch_latency_s(prepared, 1)`` is exactly
        the batch-1 serving latency on every platform, so the ``"none"``
        batching policy cannot drift from unbatched serving.
        """
        self._check_prepared(prepared)
        _check_batch_size(batch_size)
        t1 = self.latency_s(prepared, task if task is not None else prepared.task)
        if batch_size == 1:
            return t1  # setup + (t1 - setup) can round one ulp off t1
        setup = t1 * self.batch_setup_fraction
        return setup + batch_size * (t1 - setup)

    def serve(
        self,
        prepared: PreparedModel,
        task: RNNTask | None = None,
        batch_size: int = 1,
    ) -> ServingResult:
        """Serve ``batch_size`` same-shape requests as one execution.

        ``task`` defaults to the prepared task and may be any length
        variant of its family: the result is costed for that task's
        *actual* step count, so padding never enters batch-1 serving.
        ``latency_s`` is :meth:`latency_s` at batch 1 and
        :meth:`batch_latency_s` otherwise; ``effective_tflops`` counts
        all ``batch_size`` requests' work.

        Example::

            >>> from repro.serving import get_platform
            >>> from repro.workloads.deepbench import task
            >>> gpu = get_platform("gpu")
            >>> t = task("lstm", 512, 25)
            >>> prepared = gpu.prepare(t)
            >>> short = gpu.serve(prepared, t.with_timesteps(5))
            >>> long = gpu.serve(prepared, t.with_timesteps(500))
            >>> short.latency_s < long.latency_s
            True
            >>> gpu.serve(prepared, batch_size=4).batch_size
            4
        """
        self._check_prepared(prepared)
        _check_batch_size(batch_size)
        if task is None:
            task = prepared.task
        elif task.family_key != prepared.task.family_key:
            raise ServingError(
                f"prepared model for {prepared.task.name} cannot serve "
                f"{task.name}: different task families"
            )
        if batch_size == 1:
            latency_s = self.latency_s(prepared, task)
        else:
            latency_s = self.batch_latency_s(prepared, batch_size, task)
        return ServingResult(
            platform=self.name,
            task=task,
            latency_s=latency_s,
            effective_tflops=task.effective_tflops(latency_s) * batch_size,
            power_w=prepared.power_w,
            cycles_per_step=prepared.cycles_per_step,
            design=prepared.design,
            simulation=prepared.simulation,
            notes=prepared.notes,
            batch_size=batch_size,
        )

    def _check_prepared(self, prepared: PreparedModel) -> None:
        """Guard against handing one platform another's compiled state."""
        if prepared.platform != self.name:
            raise ServingError(
                f"prepared model was compiled for platform "
                f"{prepared.platform!r}, not {self.name!r}"
            )


def _check_batch_size(batch_size: int) -> None:
    if not isinstance(batch_size, int) or batch_size < 1:
        raise ServingError(f"batch_size must be a positive int, got {batch_size!r}")


#: Every registered platform, keyed by name.
PLATFORMS: Registry[Platform] = Registry("platform", Platform, ServingError)
register_platform = PLATFORMS.register
unregister_platform = PLATFORMS.unregister
available_platforms = PLATFORMS.names
get_platform = PLATFORMS.create
