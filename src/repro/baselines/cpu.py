"""CPU serving model: TensorFlow fused RNN kernels on Xeon Skylake.

Section 5.2's findings, which this model encodes:

* the TF RNN kernels are not multi-threaded, and batch 1 exposes no
  parallelism outside the kernel, so one core's streaming bandwidth rules;
* every time step streams the full weight matrix (no reuse at batch 1),
  so per-step time is ``max(weight_bytes / bw(footprint), flops / peak)``
  plus a small framework overhead;
* fp32 only ("due to lack of low-precision support in both tool chain and
  platform").

The model also distinguishes the ``BasicLSTM`` graph-of-BLAS-kernels
implementation (Figure 1a) from the fused ``LSTMBlockFusedCell`` kernels:
BasicLSTM materializes every intermediate, adding per-kernel dispatch and
intermediate-buffer traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.machine import ProcessorMachine, XEON_SKYLAKE
from repro.workloads.deepbench import RNNTask

__all__ = ["CPUServingModel", "CPUStepBreakdown"]

#: fp32 storage.
_BYTES_PER_WEIGHT = 4

#: BasicLSTM (non-fused) only: per-BLAS-kernel dispatch cost and the
#: number of kernels in the unfused cell graph (Figure 1a: 2 MVMs worth of
#: blocked GEMV work split per gate, bias adds, non-linearities, and the
#: element-wise cell update all as separate TF ops).
_KERNEL_DISPATCH_S = 15e-6
_BASIC_LSTM_KERNELS = 16


@dataclass(frozen=True)
class CPUStepBreakdown:
    """Per-step time decomposition."""

    stream_s: float
    compute_s: float
    overhead_s: float

    @property
    def total_s(self) -> float:
        return max(self.stream_s, self.compute_s) + self.overhead_s


@dataclass(frozen=True)
class CPUServingModel:
    """Latency model for TF fused RNN kernels on a CPU."""

    machine: ProcessorMachine = XEON_SKYLAKE
    fused: bool = True

    def step_breakdown(self, task: RNNTask) -> CPUStepBreakdown:
        """Decompose one cell step (a stacked model runs one of these per
        layer per time step, each streaming its own layer's weights)."""
        wbytes = task.cell_weight_bytes(_BYTES_PER_WEIGHT)
        stream = self.machine.stream_seconds(wbytes)
        flops = task.shape.mvm_flops_per_step()
        compute = self.machine.flops_seconds(flops, efficiency=0.5)
        overhead = self.machine.per_step_overhead_s
        if not self.fused:
            # Unfused BasicLSTM: per-kernel dispatch plus writing/reading
            # the G pre-activation vectors (H fp32 each) through cache.
            overhead += _KERNEL_DISPATCH_S * _BASIC_LSTM_KERNELS
            intermediate = 2 * task.shape.gates * task.hidden * _BYTES_PER_WEIGHT
            stream += intermediate / (self.machine.levels[0].bandwidth_gbs * 1e9)
        return CPUStepBreakdown(stream_s=stream, compute_s=compute, overhead_s=overhead)

    def latency_seconds(self, task: RNNTask) -> float:
        """End-to-end latency of serving one sequence.

        Linear in the request's *actual* cell-step count — layers and
        encoder/decoder legs multiply the per-step cost, while the
        framework init is charged once per request, not per layer.
        """
        step = self.step_breakdown(task).total_s
        return self.machine.init_overhead_s + task.total_steps * step
