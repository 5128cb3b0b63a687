"""Platform protocol and the decorator-based platform registry.

A serving platform splits its work into the two phases every real
deployment has (Brainwave and Spartus both structure serving this way):

* :meth:`Platform.prepare` — the one-time compile/initialize phase.  For
  Plasticine this is the expensive part: pick loop parameters, build the
  loop-based program, map it onto the chip, and cycle-simulate one
  request.  For the analytical baselines it precomputes the per-step
  model evaluation.  The output is a :class:`PreparedModel`.
* :meth:`Platform.serve` — the steady-state per-request phase: turn a
  prepared model into a :class:`~repro.serving.result.ServingResult`
  without redoing any compile work.

Platforms self-register under a string key::

    @register_platform("myaccel")
    class MyAccelPlatform(Platform):
        ...

    engine = ServingEngine("myaccel")

so new accelerator models plug into the engine, the CLI, and the fleet
scheduler without touching any of them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import ServingError
from repro.registry import Registry
from repro.serving.result import ServingResult
from repro.workloads.deepbench import RNNTask

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

    Attributes:
        platform: Registry key of the platform that prepared it.
        task: The task it was compiled for.
        state: Opaque platform-specific compiled state (mapped design,
            simulation, precomputed model outputs, ...).  Only the
            owning platform interprets it.
        notes: Human-readable remarks from the compile phase.

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


class Platform(ABC):
    """A registered serving platform: compile once, serve many.

    Subclasses implement :meth:`prepare` (one-time compile) and
    :meth:`serve` (steady-state batch-1 request).  The batched cost
    model — :meth:`batch_latency_s` / :meth:`serve_batched` — comes for
    free from the paper's pipeline decomposition: a batch-B execution of
    one task costs the one-time setup (pipeline fill, instruction issue,
    kernel launch) once, plus B times the steady-state per-item work.
    Platforms tune it with :attr:`batch_setup_fraction` or override the
    methods outright (Plasticine derives the split exactly from its
    cycle simulation).

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

    #: True when one prepared model serves *any sequence length* of its
    #: task family: the compiled state depends only on the cell shape,
    #: and cost is affine in the step count (all four built-ins are).
    #: Such platforms implement :meth:`request_latency_s`, and the
    #: engine's compile cache collapses length variants onto one
    #: :meth:`compile_key`.
    length_flexible: bool = False

    @abstractmethod
    def prepare(self, task: RNNTask) -> PreparedModel:
        """One-time compile/initialize phase for ``task``."""

    @abstractmethod
    def serve(self, prepared: PreparedModel) -> ServingResult:
        """Steady-state phase: serve one request from a prepared model."""

    def compile_key(self, task: RNNTask) -> RNNTask:
        """The cache key under which ``task``'s compiled state is shared.

        Length-flexible platforms collapse every sequence-length variant
        of a family onto one key, so a stream whose requests carry
        per-request ``timesteps`` overrides compiles each family once
        instead of once per distinct length.  Platforms whose compiled
        state genuinely depends on ``T`` keep the default exact key.
        """
        if self.length_flexible:
            return task.with_timesteps(1)
        return task

    def request_latency_s(self, prepared: PreparedModel, task: RNNTask) -> float:
        """Batch-1 latency of ``task`` served from ``prepared``, where
        ``task`` may be a sequence-length variant of the prepared task's
        family.  Length-flexible platforms must override this; for
        ``task == prepared.task`` it must reproduce
        ``serve(prepared).latency_s`` exactly.
        """
        raise ServingError(
            f"platform {self.name!r} cannot re-cost a prepared model for "
            f"{task.name}; it was compiled for {prepared.task.name} and the "
            f"platform is not length-flexible"
        )

    def _latency_for(self, prepared: PreparedModel, task: RNNTask) -> float:
        """Batch-1 latency of ``task``: the exact serve number when the
        model was prepared for it, the re-costed one otherwise."""
        if task == prepared.task:
            return self.serve(prepared).latency_s
        return self.request_latency_s(prepared, task)

    def serve_request(
        self, prepared: PreparedModel, task: RNNTask | None = None
    ) -> ServingResult:
        """Serve one request for ``task`` from a prepared model.

        ``task`` defaults to the prepared task (plain :meth:`serve`).
        When it is a length variant of the prepared family, the result
        is re-costed for the request's *actual* step count via
        :meth:`request_latency_s` — padding never enters batch-1
        serving.

        Example::

            >>> from repro.serving import get_platform
            >>> from repro.workloads.deepbench import task
            >>> gpu = get_platform("gpu")
            >>> t = task("lstm", 512, 25)
            >>> prepared = gpu.prepare(t)
            >>> short = gpu.serve_request(prepared, t.with_timesteps(5))
            >>> long = gpu.serve_request(prepared, t.with_timesteps(500))
            >>> short.latency_s < long.latency_s
            True
        """
        self._check_prepared(prepared)
        if task is None or task == prepared.task:
            return self.serve(prepared)
        if task.family_key != prepared.task.family_key:
            raise ServingError(
                f"prepared model for {prepared.task.name} cannot serve "
                f"{task.name}: different task families"
            )
        latency_s = self.request_latency_s(prepared, task)
        base = self.serve(prepared)
        return replace(
            base,
            task=task,
            latency_s=latency_s,
            effective_tflops=task.effective_tflops(latency_s),
        )

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
        t1 = self._latency_for(prepared, task if task is not None else prepared.task)
        setup = t1 * self.batch_setup_fraction
        return setup + batch_size * (t1 - setup)

    def serve_batched(
        self,
        prepared: PreparedModel,
        batch_size: int,
        task: RNNTask | None = None,
    ) -> ServingResult:
        """Serve a batch of same-shape requests as one execution.

        Returns one :class:`~repro.serving.result.ServingResult` for the
        whole batch: ``latency_s`` is the batch completion time from
        :meth:`batch_latency_s`, ``effective_tflops`` counts all B
        requests' (possibly padded) work, and ``batch_size`` records the
        coalesced size.  ``task`` is the executed task — for a padded
        batch, the family padded to the longest member.
        ``batch_size=1`` returns the plain :meth:`serve_request` result,
        bit for bit.
        """
        self._check_prepared(prepared)
        _check_batch_size(batch_size)
        exec_task = task if task is not None else prepared.task
        base = self.serve_request(prepared, exec_task)
        if batch_size == 1:
            return base
        latency_s = self.batch_latency_s(prepared, batch_size, task=exec_task)
        return replace(
            base,
            latency_s=latency_s,
            effective_tflops=exec_task.effective_tflops(latency_s) * batch_size,
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
