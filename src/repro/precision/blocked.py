"""Brainwave's blocked floating-point (BFP) format.

Section 3.2 of the paper: "Brainwave embeds MVM in a blocked
floating-point format, where the vector of ``hv`` values share a single
5-bit exponent and have distinct signs and 2-5 bit mantissa for each
value."  This module provides an encoder/decoder for that format plus the
storage accounting the Brainwave baseline model uses to decide whether
weights fit on-chip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PrecisionError

__all__ = ["BlockedFloatFormat", "BlockedVector", "BW_BFP"]


@dataclass(frozen=True)
class BlockedFloatFormat:
    """A block-floating-point format: one shared exponent per block.

    Attributes:
        block_size: Number of values sharing one exponent (Brainwave's
            native dimension ``hv``).
        exponent_bits: Width of the shared exponent field.
        mantissa_bits: Per-value unsigned mantissa width (2-5 for BW).
    """

    block_size: int
    exponent_bits: int = 5
    mantissa_bits: int = 5

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise PrecisionError(f"block_size must be >= 1, got {self.block_size}")
        if not (1 <= self.mantissa_bits <= 10):
            raise PrecisionError(f"mantissa_bits out of range: {self.mantissa_bits}")
        if not (2 <= self.exponent_bits <= 8):
            raise PrecisionError(f"exponent_bits out of range: {self.exponent_bits}")

    @property
    def bits_per_value(self) -> float:
        """Amortized storage bits per value (sign + mantissa + shared exp)."""
        return 1 + self.mantissa_bits + self.exponent_bits / self.block_size

    @property
    def exponent_bias(self) -> int:
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def max_exponent(self) -> int:
        return (1 << self.exponent_bits) - 1 - self.exponent_bias

    @property
    def min_exponent(self) -> int:
        return -self.exponent_bias


#: Brainwave's published configuration: hv=400 native dimension, 5-bit
#: shared exponent, 5-bit mantissa ("ms-fp9"-class precision).
BW_BFP = BlockedFloatFormat(block_size=400, exponent_bits=5, mantissa_bits=5)


@dataclass(frozen=True)
class BlockedVector:
    """An encoded block: shared exponent + integer mantissas with signs."""

    fmt: BlockedFloatFormat
    shared_exponent: int
    mantissas: np.ndarray  # signed integers, |m| < 2**mantissa_bits

    @classmethod
    def encode(cls, values: np.ndarray, fmt: BlockedFloatFormat) -> "BlockedVector":
        """Encode up to ``fmt.block_size`` values against a shared exponent.

        The shared exponent is the largest per-value exponent in the block
        (clamped to the exponent field's range); every value is then
        expressed as ``mant * 2**(shared_exponent - mantissa_bits + 1)``
        with round-half-even, saturating mantissas.
        """
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size == 0 or v.size > fmt.block_size:
            raise PrecisionError(
                f"block must hold 1..{fmt.block_size} values, got {v.size}"
            )
        if not np.all(np.isfinite(v)):
            raise PrecisionError("BFP encode requires finite inputs")

        mag = np.abs(v)
        peak = float(mag.max())
        if peak == 0.0:
            exp = fmt.min_exponent
        else:
            exp = int(np.clip(np.floor(np.log2(peak)), fmt.min_exponent, fmt.max_exponent))

        scale = 2.0 ** (exp - fmt.mantissa_bits + 1)
        mant_limit = (1 << fmt.mantissa_bits) - 1
        mants = np.clip(np.round(v / scale), -mant_limit, mant_limit).astype(np.int64)
        return cls(fmt=fmt, shared_exponent=exp, mantissas=mants)

    def decode(self) -> np.ndarray:
        """Reconstruct the block's float values."""
        scale = 2.0 ** (self.shared_exponent - self.fmt.mantissa_bits + 1)
        return self.mantissas.astype(np.float64) * scale

    @staticmethod
    def quantize_array(values: np.ndarray, fmt: BlockedFloatFormat) -> np.ndarray:
        """Round an arbitrary array through BFP blocks along its last axis.

        Used to evaluate Brainwave's numerical behaviour: the array is
        split into ``block_size`` chunks, each encoded and decoded.
        """
        v = np.asarray(values, dtype=np.float64)
        flat = v.reshape(-1, v.shape[-1]) if v.ndim > 1 else v.reshape(1, -1)
        out = np.empty_like(flat)
        for r in range(flat.shape[0]):
            row = flat[r]
            for start in range(0, row.size, fmt.block_size):
                chunk = row[start : start + fmt.block_size]
                out[r, start : start + chunk.size] = BlockedVector.encode(
                    chunk, fmt
                ).decode()
        return out.reshape(v.shape)
