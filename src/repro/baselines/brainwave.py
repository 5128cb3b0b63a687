"""Microsoft Brainwave serving model (Section 3.2, Figure 2, Table 7).

Brainwave's datapath: a matrix-vector unit of ``ru`` tile engines, each
with ``hv`` dot-product engines ("native dimension") vectorized by ``rv``
lanes, achieving one ``hv x rv`` tile per cycle; a pipelined reduction/
accumulation unit; and vector multi-function units (MFUs) executing the
element-wise chain on ``hv``-wide chunks.  Weights are stored in blocked
floating point (shared 5-bit exponent per ``hv`` values).

Key structural behaviours the model reproduces:

* one MVM instruction takes ``ceil(H/hv) * ceil(R/(rv*ru))`` tile
  iterations (the paper's Section 3.2 iteration count);
* ``WxX`` and ``WhH`` are computed *separately* (not concatenated), so a
  G-gate cell dispatches ``2G`` MVM instructions per step;
* instructions dispatch through a scheduler with a fixed per-instruction
  cost; an instruction occupies the unit for
  ``max(dispatch_cost, tile_iterations)`` cycles.  This makes per-step
  latency nearly flat until tiles saturate the chain — exactly the
  behaviour in Table 6 (~700-770 cycles/step for every LSTM up to
  H=2048) — and lets Brainwave win on the largest GRUs, where Plasticine's
  lower mixed-precision peak FLOPS binds (Section 5.2);
* 2-D fragmentation: a tile covers ``hv x (rv*ru)`` even when ``H`` or
  ``R`` has a partial remainder (Figure 4a).

Calibration: ``dispatch_cycles = 54`` reproduces the published flat
region (LSTM ~700-770, GRU ~630-660 cycles/step at 250 MHz).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.platforms import PLATFORMS
from repro.workloads.deepbench import RNNTask

__all__ = ["BrainwaveConfig", "BrainwaveServingModel", "BrainwaveStepTrace"]

#: MFU vector instructions of the fused element-wise epilogue.
#: LSTM (Figure 2): c = f*c + i*j (3), tanh(c) (1), h = o*tanh(c) (1).
#: GRU: 1-z (1), (1-z)*cand (1), z*h (1), + (1), tanh (1), r*(Uh h) (1).
_MFU_OPS = {"lstm": 5, "gru": 6}


@dataclass(frozen=True)
class BrainwaveConfig:
    """Brainwave datapath configuration (Table 7's Stratix 10 column)."""

    hv: int = 400  # native dimension (dot-product engines per tile)
    rv: int = 40  # lanes per dot-product engine
    ru: int = 6  # parallel tile engines ("# MV Tiles")
    # Table 5 achieved clock, from the single spec registry.
    clock_ghz: float = PLATFORMS["brainwave"].achieved_clock_ghz
    dispatch_cycles: int = 54
    init_cycles: int = 2600

    def __post_init__(self) -> None:
        if min(self.hv, self.rv, self.ru) < 1:
            raise ConfigError("hv, rv, ru must be >= 1")
        if self.clock_ghz <= 0:
            raise ConfigError("clock must be positive")

    def mvm_tile_iterations(self, rows: int, cols: int) -> int:
        """Iterations of one MVM instruction over a ``rows x cols`` matrix
        (Section 3.2: ``ceil(H/hv) * ceil(R/(rv*ru))``)."""
        if rows < 1 or cols < 1:
            raise ConfigError("matrix dimensions must be positive")
        row_tiles = -(-rows // self.hv)
        col_iters = -(-cols // (self.rv * self.ru))
        return row_tiles * col_iters


@dataclass(frozen=True)
class BrainwaveStepTrace:
    """Instruction-level trace of one time step."""

    mvm_instructions: int
    mfu_instructions: int
    mvm_cycles: int
    mfu_cycles: int

    @property
    def step_cycles(self) -> int:
        return self.mvm_cycles + self.mfu_cycles


@dataclass(frozen=True)
class BrainwaveServingModel:
    """Latency model for Brainwave RNN serving."""

    config: BrainwaveConfig = BrainwaveConfig()

    def step_trace(self, task: RNNTask) -> BrainwaveStepTrace:
        """Schedule one time step's instruction chain."""
        cfg = self.config
        shape = task.shape
        h, d = shape.hidden, shape.input_dim
        # 2G MVMs: Wx (H x D) and Wh (H x H) per gate, dispatched
        # sequentially per Section 3.2.
        mvm_cycles = 0
        for _gate in range(shape.gates):
            for cols in (d, h):
                iters = cfg.mvm_tile_iterations(h, cols)
                mvm_cycles += max(cfg.dispatch_cycles, iters)
        mfu_n = _MFU_OPS[task.kind]
        mfu_cycles = mfu_n * cfg.dispatch_cycles
        return BrainwaveStepTrace(
            mvm_instructions=2 * shape.gates,
            mfu_instructions=mfu_n,
            mvm_cycles=mvm_cycles,
            mfu_cycles=mfu_cycles,
        )

    def latency_seconds(self, task: RNNTask) -> float:
        """Linear in the request's actual cell-step count: a stacked or
        seq2seq request dispatches one instruction chain per cell step
        (``L * (T + T_dec)`` of them), while the scheduler init cost is
        paid once per request, not once per layer."""
        trace = self.step_trace(task)
        cycles = self.config.init_cycles + task.total_steps * trace.step_cycles
        return cycles / (self.config.clock_ghz * 1e9)
