"""Vectorized quantization onto a :class:`~repro.precision.formats.FloatFormat`.

All quantization is round-to-nearest-even with *saturating* overflow, the
behaviour of inference accelerators that clamp rather than produce
infinities.  Values are carried as float64 and snapped onto the target
grid, which is exact because every modelled format is far narrower than
float64.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PrecisionError
from repro.precision.formats import FloatFormat

__all__ = ["quantize", "ulp"]


def _exponents(mag: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    """Per-element unbiased exponent, clamped into the format's range."""
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log2(mag, where=mag > 0, out=np.zeros_like(mag)))
    return np.clip(e, fmt.min_exponent, fmt.max_exponent)


def quantize(x: np.ndarray | float, fmt: FloatFormat) -> np.ndarray:
    """Round ``x`` to the nearest representable value of ``fmt``.

    Rounding is half-to-even; magnitudes beyond :attr:`FloatFormat.max_value`
    saturate; magnitudes below the smallest representable value round to
    zero (through the subnormal grid when the format has one).

    Returns a float64 array of the same shape holding exactly representable
    values.
    """
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)):
        raise PrecisionError("quantize requires finite inputs")

    mag = np.abs(arr)
    e = _exponents(mag, fmt)
    if not fmt.has_subnormals:
        # Flush magnitudes below the normal range to zero before rounding.
        mag = np.where(mag < fmt.min_normal / 2, 0.0, mag)
    # Grid spacing at each element's exponent; subnormals share the spacing
    # of the minimum exponent because e was clamped to min_exponent.
    step = np.exp2(e - fmt.mantissa_bits)
    q = np.round(mag / step) * step
    q = np.minimum(q, fmt.max_value)
    out = np.copysign(q, arr)
    out[mag == 0.0] = 0.0
    return out[0] if scalar else out


def ulp(x: np.ndarray | float, fmt: FloatFormat) -> np.ndarray:
    """Unit-in-the-last-place of ``fmt`` at the magnitude of ``x``."""
    mag = np.abs(np.asarray(x, dtype=np.float64))
    e = _exponents(mag, fmt)
    return np.exp2(e - fmt.mantissa_bits)
