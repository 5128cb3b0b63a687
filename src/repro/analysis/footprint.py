"""Figures 1-3: intermediate memory footprint of LSTM implementations.

The paper's core memory argument: BLAS-based cells materialize
``O(H)``-sized intermediate vectors between kernels, while the loop-based
design keeps every intermediate in pipeline registers (``O(1)`` scalars
per parallel lane).  These functions compute the named per-step buffers of
each implementation so the argument can be reproduced quantitatively for
any ``H``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError

__all__ = [
    "FootprintReport",
    "basic_lstm_footprint",
    "cudnn_lstm_footprint",
    "brainwave_footprint",
    "loop_based_footprint",
]


@dataclass(frozen=True)
class FootprintReport:
    """Per-step intermediate storage of one implementation.

    ``buffers`` maps buffer name to element count; ``element_bytes`` is
    the storage precision.  Weights and persistent state (``c``, ``h``)
    are excluded — the comparison is about *intermediates*.
    """

    implementation: str
    buffers: dict[str, int] = field(repr=False)
    element_bytes: int = 4

    @property
    def total_elements(self) -> int:
        return sum(self.buffers.values())

    @property
    def total_bytes(self) -> int:
        return self.total_elements * self.element_bytes


def _check_dims(h: int, d: int) -> None:
    if h < 1 or d < 1:
        raise ConfigError(f"dimensions must be >= 1: H={h}, D={d}")


def basic_lstm_footprint(h: int, d: int | None = None) -> FootprintReport:
    """TensorFlow BasicLSTM (Figure 1a): every kernel boundary
    materializes its output in memory."""
    d = h if d is None else d
    _check_dims(h, d)
    r = h + d
    return FootprintReport(
        implementation="basic-lstm",
        buffers={
            "concat_xh": r,  # [x, h_{t-1}] materialized for the MVM
            "mvm_out": 4 * h,  # [i|j|f|o] pre-activations from one GEMM
            "bias_out": 4 * h,  # after the bias add kernel
            "i": h, "j": h, "f": h, "o": h,  # gate activations
            "f_mul_c": h, "i_mul_j": h,  # Hadamard products of Eq. 5
            "tanh_c": h,  # Eq. 6 intermediate
        },
    )


def cudnn_lstm_footprint(h: int, d: int | None = None) -> FootprintReport:
    """CudnnLSTM (Figure 1b): all vector-vector ops after the MVMs are
    fused, but an H-sized buffer per gate remains between the MVM kernel
    and the fused element-wise kernel."""
    d = h if d is None else d
    _check_dims(h, d)
    return FootprintReport(
        implementation="cudnn-lstm",
        buffers={f"gate_preact_{g}": h for g in "ijfo"},
        element_bytes=2,  # fp16 on the GPU
    )


def brainwave_footprint(h: int, d: int | None = None, hv: int = 400, ru: int = 6) -> FootprintReport:
    """Brainwave (Figure 2): intermediates are hv-sized vector chunks —
    much smaller than H, but replicated across the ru tile engines
    ("with parallelization in ru, BW allocates lots of vectorized
    intermediate buffers")."""
    d = h if d is None else d
    _check_dims(h, d)
    return FootprintReport(
        implementation="brainwave",
        buffers={
            "tile_partials": ru * hv,  # per-tile-engine partial sums
            "accum_chunk": hv,  # pipelined reduction output
            "mfu_chunk": hv,  # element-wise working chunk
        },
        element_bytes=2,  # 16-bit post-MVM precision
    )


def loop_based_footprint(
    h: int,
    d: int | None = None,
    hu: int = 4,
    ru: int = 8,
    gates: int = 4,
) -> FootprintReport:
    """The loop-based design (Figure 3): intermediates are scalars in
    pipeline registers — per parallel LSTM-1 lane, one partial sum per
    MapReduce unit and a handful of element-wise live values.  The total
    is independent of H."""
    d = h if d is None else d
    _check_dims(h, d)
    return FootprintReport(
        implementation="loop-based",
        buffers={
            "dot_partials": hu * gates * ru,  # per-unit reduction scalars
            "gate_scalars": hu * gates,  # i, j, f, o for the live element
            "cell_scalars": hu * 2,  # cNew and tanh(cNew)
        },
        element_bytes=4,  # accumulation precision
    )
