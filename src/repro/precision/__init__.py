"""Low- and mixed-precision number formats.

This subpackage is the numerical substrate for the paper's Section 4.1
("Mixed-Precision Support"):

* :mod:`repro.precision.formats` — parametric ``(exponent, mantissa)``
  floating-point format descriptors (fp8 / fp16 / fp32).
* :mod:`repro.precision.quantize` — vectorized round-to-nearest-even
  quantization onto a format's representable grid, which the DSL
  interpreter applies after every operation under a precision policy.
* :mod:`repro.precision.blocked` — Microsoft Brainwave's blocked
  floating-point format (one shared 5-bit exponent per ``hv`` values,
  per-value sign and 2-5 bit mantissa).
"""

from repro.precision.formats import FP8, FP16, FP32, FloatFormat
from repro.precision.quantize import quantize, ulp
from repro.precision.blocked import BlockedFloatFormat, BlockedVector, BW_BFP

__all__ = [
    "FloatFormat",
    "FP8",
    "FP16",
    "FP32",
    "quantize",
    "ulp",
    "BlockedFloatFormat",
    "BlockedVector",
    "BW_BFP",
]
