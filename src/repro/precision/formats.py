"""Parametric floating-point format descriptors.

The paper serves RNNs with 8-bit weights/multiplies, 16-bit first-stage
reduction, and 32-bit accumulation (Section 5.1: "mix f8+16+32").  We model
each precision as a :class:`FloatFormat` — an IEEE-754-style sign /
exponent / mantissa layout — so that every arithmetic path in the library
can be quantized onto an explicit representable grid.

The 8-bit format follows the 1-4-3 (sign / 4-bit exponent / 3-bit
mantissa) layout common to deep-learning inference hardware; the paper
itself only requires "8-bit" so the format is configurable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PrecisionError


@dataclass(frozen=True)
class FloatFormat:
    """An IEEE-754-style binary floating point format.

    Attributes:
        name: Human-readable identifier (``"fp8"``, ``"fp16"``, ...).
        exponent_bits: Width of the biased exponent field.
        mantissa_bits: Width of the fraction field (excludes implicit 1).
        has_subnormals: Whether values below ``2**min_exponent`` are
            represented on the subnormal grid (otherwise flushed to zero).
    """

    name: str
    exponent_bits: int
    mantissa_bits: int
    has_subnormals: bool = True

    def __post_init__(self) -> None:
        if self.exponent_bits < 2:
            raise PrecisionError(
                f"{self.name}: need at least 2 exponent bits, got {self.exponent_bits}"
            )
        if self.mantissa_bits < 1:
            raise PrecisionError(
                f"{self.name}: need at least 1 mantissa bit, got {self.mantissa_bits}"
            )
        if self.total_bits > 32:
            raise PrecisionError(
                f"{self.name}: {self.total_bits} bits exceed the 32-bit storage word"
            )

    @property
    def total_bits(self) -> int:
        """Storage width in bits (sign + exponent + mantissa)."""
        return 1 + self.exponent_bits + self.mantissa_bits

    @property
    def total_bytes(self) -> int:
        """Storage width in whole bytes (rounded up)."""
        return (self.total_bits + 7) // 8

    @property
    def bias(self) -> int:
        """Exponent bias, IEEE-style ``2**(e-1) - 1``."""
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def min_exponent(self) -> int:
        """Smallest unbiased exponent of a *normal* value."""
        return 1 - self.bias

    @property
    def max_exponent(self) -> int:
        """Largest unbiased exponent (all-ones exponent is reserved)."""
        return (1 << self.exponent_bits) - 2 - self.bias

    @property
    def max_value(self) -> float:
        """Largest finite representable magnitude."""
        return float(2.0**self.max_exponent * (2.0 - 2.0**-self.mantissa_bits))

    @property
    def min_normal(self) -> float:
        """Smallest positive normal magnitude."""
        return float(2.0**self.min_exponent)

    @property
    def min_subnormal(self) -> float:
        """Smallest positive representable magnitude."""
        if not self.has_subnormals:
            return self.min_normal
        return float(2.0 ** (self.min_exponent - self.mantissa_bits))


#: 8-bit 1-4-3 format used for weights and multiplies on Plasticine.
FP8 = FloatFormat("fp8", exponent_bits=4, mantissa_bits=3)

#: IEEE half precision; used for the first reduction stage and on the GPU.
FP16 = FloatFormat("fp16", exponent_bits=5, mantissa_bits=10)

#: IEEE single precision (modelled exactly by float64 quantization).
FP32 = FloatFormat("fp32", exponent_bits=8, mantissa_bits=23)
