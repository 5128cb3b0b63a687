"""Built-in platforms: Plasticine plus the CPU/GPU/Brainwave baselines.

Each class adapts one of the performance models to the two-method
contract of :class:`~repro.serving.platform.Platform`: everything
expensive happens exactly once per (platform, task family) in
``prepare``, and ``latency_s`` re-costs any sequence length from it.
"""

from __future__ import annotations

from repro.baselines.brainwave import BrainwaveServingModel, BrainwaveStepTrace
from repro.baselines.cpu import CPUServingModel
from repro.baselines.gpu import GPUServingModel
# NOTE: repro.dse is imported lazily inside the Plasticine platform's
# prepare path — the DSE layer sits *above* serving (its runner fans
# serving simulations onto worker pools), so a module-level import here
# would be circular.
from repro.mapping.mapper import map_rnn_program
from repro.plasticine.area_power import ActivityProfile, AreaPowerModel
from repro.plasticine.chip import PlasticineConfig
from repro.plasticine.simulator import simulate_pipeline
from repro.rnn.lstm_loop import LoopParams
from repro.serving.platform import (
    Platform,
    PreparedModel,
    _check_batch_size,
    register_platform,
)
from repro.workloads.deepbench import RNNTask

__all__ = [
    "PlasticinePlatform",
    "BrainwavePlatform",
    "CPUPlatform",
    "GPUPlatform",
]


@register_platform("plasticine")
class PlasticinePlatform(Platform):
    """Map the loop-based design and run the cycle-level simulator.

    ``prepare`` runs the whole compile pipeline — parameter selection
    (paper Table 7 or the DSE), program construction, mapping/placement,
    and the cycle simulation — so ``latency_s`` is one multiplication.
    The mapped cell and its per-step schedule depend only on the cell
    shape, never on the sequence length, so one compile serves every
    length variant.

    The batched cost model is exact rather than a tuned fraction: the
    cycle simulation splits a request into per-step steady-state cycles
    and a one-time pipeline fill, and back-to-back same-task requests
    keep the pipeline full, so a batch of B costs ``fill + B * steady``
    cycles.  The fill is small — which is the paper's point: Plasticine
    hits high utilization at batch 1 and does not need batching the way
    the throughput-oriented baselines do.

    Example::

        >>> from repro.serving import get_platform
        >>> from repro.workloads.deepbench import task
        >>> plat = get_platform("plasticine")
        >>> prepared = plat.prepare(task("lstm", 512, 25))  # full compile
        >>> plat.serve(prepared).latency_ms < 5.0           # paper's window
        True
    """

    def __init__(
        self,
        chip: PlasticineConfig | None = None,
        *,
        params: LoopParams | None = None,
        bits: int = 8,
        use_dse: bool = False,
    ) -> None:
        self.chip = chip or PlasticineConfig.rnn_serving()
        self.params = params
        self.bits = bits
        self.use_dse = use_dse

    def _resolve_params(self, task: RNNTask) -> LoopParams:
        from repro.dse.tuner import paper_params, tune

        if self.params is not None:
            return self.params
        params = None if self.use_dse else paper_params(task)
        if params is None:
            params = tune(task, self.chip, bits=self.bits).best_params
        return params

    def prepare(self, task: RNNTask) -> PreparedModel:
        from repro.dse.search import build_task_program

        chip = self.chip
        params = self._resolve_params(task)
        prog = build_task_program(task, params)
        design = map_rnn_program(prog, chip, bits=self.bits)
        sim = simulate_pipeline(design.graph)
        power_model = AreaPowerModel()
        activity = ActivityProfile(
            pcu_busy=min(sim.average_busy_units(design.graph, "pcu"), chip.n_pcu),
            pmu_busy=min(sim.average_busy_units(design.graph, "pmu"), chip.n_pmu),
        )
        notes = list(design.resources.notes)
        if not design.resources.fits_capacity:
            notes.append(
                f"weights exceed on-chip capacity "
                f"({design.resources.bytes_used / 2**20:.1f} MB > "
                f"{design.resources.onchip_bytes / 2**20:.1f} MB)"
            )
        if task.layers > 1 or task.decoder_timesteps:
            # Stacked / seq2seq tasks time-multiplex one mapped cell:
            # the design above is a single layer, run once per cell-step.
            # The note stays length-agnostic because this prepared model
            # is shared by every sequence-length variant of the family.
            decoder = (
                f" + a {task.decoder_timesteps}-step decoder leg"
                if task.decoder_timesteps
                else ""
            )
            notes.append(
                f"{task.layers} layer(s){decoder} time-multiplex one "
                f"mapped cell"
            )
        return PreparedModel(
            platform=self.name,
            task=task,
            state=chip,
            notes=tuple(notes),
            power_w=power_model.power_w(chip, activity),
            cycles_per_step=sim.cycles_per_step + sim.step_overhead,
            design=design,
            simulation=sim,
        )

    def latency_s(self, prepared: PreparedModel, task: RNNTask) -> float:
        """``total_steps`` times the simulated per-step cycles.

        That product is ``sim.total_cycles`` exactly for the
        single-layer tasks the simulator ran (the simulated schedule is
        affine in steps with no constant), and extends it to any length
        and to stacked / seq2seq tasks: every cell-step pays the same
        simulated cost, and there is no per-launch constant to
        re-charge (the pipeline fill is part of every step; the ``h_t``
        feedback serializes steps).
        """
        chip: PlasticineConfig = prepared.state
        cycles = task.total_steps * prepared.cycles_per_step
        return cycles / (chip.clock_ghz * 1e9)

    def batch_latency_s(
        self,
        prepared: PreparedModel,
        batch_size: int,
        task: RNNTask | None = None,
    ) -> float:
        """Exact pipeline model from the cycle simulation.

        Within one request the ``h_t`` feedback serializes time steps, so
        a step costs its full fill + drain + bottleneck time.  Requests
        in a batch are independent, though: their iterations interleave
        through the pipeline, so each step's fill/drain and sequencing
        overhead is paid once per step while the bottleneck stage (the
        largest per-step busy-cycle count) runs ``B`` requests' worth of
        iterations back to back.  ``task`` is the executed (possibly
        padded or multi-layer) task; its actual cell-step count scales
        the model, and the pipeline setup is part of the per-step
        schedule — never re-charged per layer.  ``batch_size=1``
        reproduces :meth:`latency_s` exactly.
        """
        self._check_prepared(prepared)
        _check_batch_size(batch_size)
        chip: PlasticineConfig = prepared.state
        per_step = prepared.cycles_per_step
        activities = prepared.simulation.activities.values()
        bottleneck = min(max(act.busy_cycles for act in activities), per_step)
        fill = per_step - bottleneck
        steps = (task if task is not None else prepared.task).total_steps
        cycles = steps * (fill + batch_size * bottleneck)
        return cycles / (chip.clock_ghz * 1e9)


class _AnalyticalPlatform(Platform):
    """Shared contract of the analytical baselines: the compiled state is
    the model itself, whose latency depends only on the cell shape and
    is affine in the step count."""

    model: BrainwaveServingModel | CPUServingModel | GPUServingModel

    def prepare(self, task: RNNTask) -> PreparedModel:
        return PreparedModel(platform=self.name, task=task, state=self.model)

    def latency_s(self, prepared: PreparedModel, task: RNNTask) -> float:
        return prepared.state.latency_seconds(task)


@register_platform("brainwave")
class BrainwavePlatform(_AnalyticalPlatform):
    """The Brainwave instruction-level model (Section 3.2).

    Brainwave is the paper's throughput-oriented batched baseline: its
    per-step cost is dominated by streaming the weight matrices through
    the MVM units, which a batch shares.  We model that as 70% of the
    batch-1 latency being per-batch setup (weight streaming, instruction
    issue) amortized across the batch.

    Example::

        >>> from repro.serving import get_platform
        >>> from repro.workloads.deepbench import task
        >>> bw = get_platform("brainwave")
        >>> prepared = bw.prepare(task("gru", 2816, 750))
        >>> t1 = bw.batch_latency_s(prepared, 1)
        >>> t8 = bw.batch_latency_s(prepared, 8)
        >>> t1 < t8 < 8 * t1        # batching amortizes weight streaming
        True
    """

    batch_setup_fraction = 0.70

    def __init__(self, model: BrainwaveServingModel | None = None) -> None:
        self.model = model or BrainwaveServingModel()

    def prepare(self, task: RNNTask) -> PreparedModel:
        trace: BrainwaveStepTrace = self.model.step_trace(task)
        notes = (
            f"{trace.mvm_instructions} MVM + {trace.mfu_instructions} MFU instrs/step",
        )
        return PreparedModel(
            platform=self.name,
            task=task,
            state=self.model,
            notes=notes,
            cycles_per_step=trace.step_cycles,
        )


@register_platform("cpu")
class CPUPlatform(_AnalyticalPlatform):
    """The Xeon Skylake / TensorFlow streaming model.

    Batch-1 RNN inference on a CPU is mostly serial compute, so batching
    amortizes only framework overhead: 20% of the batch-1 latency is
    modelled as per-batch setup.

    Example::

        >>> from repro.serving import get_platform
        >>> from repro.workloads.deepbench import task
        >>> cpu = get_platform("cpu")
        >>> cpu.serve(cpu.prepare(task("lstm", 512, 25)), batch_size=4).batch_size
        4
    """

    batch_setup_fraction = 0.20

    def __init__(self, model: CPUServingModel | None = None) -> None:
        self.model = model or CPUServingModel()


@register_platform("gpu")
class GPUPlatform(_AnalyticalPlatform):
    """The Tesla V100 / cuDNN streaming model.

    Batch-1 MVMs leave a V100 memory-bound on weight fetch (the paper's
    Section 1 motivation); batching turns them into GEMMs that reuse the
    fetched weights, so most of the batch-1 latency — modelled at 80% —
    is per-batch setup amortized across the batch.

    Example::

        >>> from repro.serving import get_platform
        >>> from repro.workloads.deepbench import task
        >>> gpu = get_platform("gpu")
        >>> prepared = gpu.prepare(task("lstm", 512, 25))
        >>> t1 = gpu.batch_latency_s(prepared, 1)
        >>> round(gpu.batch_latency_s(prepared, 2) / t1, 2)  # 0.8 + 2*0.2
        1.2
    """

    batch_setup_fraction = 0.80

    def __init__(self, model: GPUServingModel | None = None) -> None:
        self.model = model or GPUServingModel()
