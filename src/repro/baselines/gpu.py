"""GPU serving model: TensorFlow + cuDNN on Tesla V100 (fp16).

Section 5.2's findings, encoded here:

* cuDNN's RNN path is built on BLAS3 (matrix-matrix) kernels; at batch 1
  each "matrix-matrix" operand is a single vector, so compute utilization
  collapses and the per-step time is weight streaming from HBM plus the
  fixed kernel-chain overhead;
* "GPUs are designed for throughput oriented rather than latency
  sensitive workloads" — the ~9 us per-step kernel overhead dominates
  small models;
* the GRU H=512, T=1 outlier "is likely due to the initialization
  overhead which should not be timed" — modelled as a one-time
  ``init_overhead_s`` that only matters for single-step sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.machine import ProcessorMachine, TESLA_V100
from repro.workloads.deepbench import RNNTask

__all__ = ["GPUServingModel", "GPUStepBreakdown"]

#: fp16 storage on the GPU (Table 5).
_BYTES_PER_WEIGHT = 2

#: Fraction of peak fp16 FLOPS cuDNN reaches on batch-1 MVM shapes —
#: BLAS3 kernels padding the vector to a tile (Section 3.1's MMM/MMA
#: underutilization).
_BATCH1_COMPUTE_EFFICIENCY = 0.10


@dataclass(frozen=True)
class GPUStepBreakdown:
    """Per-step time decomposition."""

    stream_s: float
    compute_s: float
    overhead_s: float

    @property
    def total_s(self) -> float:
        return max(self.stream_s, self.compute_s) + self.overhead_s


@dataclass(frozen=True)
class GPUServingModel:
    """Latency model for cuDNN RNN serving on a GPU."""

    machine: ProcessorMachine = TESLA_V100

    def step_breakdown(self, task: RNNTask) -> GPUStepBreakdown:
        """One cell step: a stacked model runs one per layer per time
        step, each streaming its own layer's weights from HBM."""
        wbytes = task.cell_weight_bytes(_BYTES_PER_WEIGHT)
        stream = self.machine.stream_seconds(wbytes)
        flops = task.shape.mvm_flops_per_step()
        compute = self.machine.flops_seconds(flops, efficiency=_BATCH1_COMPUTE_EFFICIENCY)
        return GPUStepBreakdown(
            stream_s=stream,
            compute_s=compute,
            overhead_s=self.machine.per_step_overhead_s,
        )

    def latency_seconds(self, task: RNNTask) -> float:
        """Linear in the request's actual cell-step count (layers and
        decoder legs included); init is charged once per request."""
        step = self.step_breakdown(task).total_s
        return self.machine.init_overhead_s + task.total_steps * step
