"""Unit tests for repro.precision.formats."""

import pytest

from repro.errors import PrecisionError
from repro.precision import FP8, FP16, FP32, FloatFormat


class TestFormatLayout:
    def test_fp8_is_one_four_three(self):
        assert FP8.total_bits == 8
        assert FP8.exponent_bits == 4
        assert FP8.mantissa_bits == 3

    def test_fp16_matches_ieee_half(self):
        assert FP16.total_bits == 16
        assert FP16.bias == 15
        assert FP16.max_value == 65504.0
        assert FP16.min_normal == 2.0**-14

    def test_fp32_matches_ieee_single(self):
        assert FP32.total_bits == 32
        assert FP32.bias == 127

    def test_total_bytes_rounds_up(self):
        assert FP8.total_bytes == 1
        assert FP16.total_bytes == 2
        assert FP32.total_bytes == 4
        odd = FloatFormat("odd", exponent_bits=4, mantissa_bits=4)
        assert odd.total_bits == 9
        assert odd.total_bytes == 2

    def test_bias_is_ieee_convention(self):
        assert FP8.bias == 7
        # All-ones exponent is reserved (IEEE-style), so emax = 14 - 7 = 7.
        assert FP8.max_exponent == 7
        assert FP8.min_exponent == -6

    def test_min_subnormal_below_min_normal(self):
        for fmt in (FP8, FP16, FP32):
            assert fmt.min_subnormal < fmt.min_normal

    def test_no_subnormal_format(self):
        fmt = FloatFormat("flush", 4, 3, has_subnormals=False)
        assert fmt.min_subnormal == fmt.min_normal


class TestFormatValidation:
    def test_rejects_tiny_exponent_field(self):
        with pytest.raises(PrecisionError):
            FloatFormat("bad", exponent_bits=1, mantissa_bits=3)

    def test_rejects_zero_mantissa(self):
        with pytest.raises(PrecisionError):
            FloatFormat("bad", exponent_bits=4, mantissa_bits=0)

    def test_rejects_over_32_bits(self):
        with pytest.raises(PrecisionError):
            FloatFormat("bad", exponent_bits=11, mantissa_bits=25)


class TestFormatRange:
    def test_fp8_max_value(self):
        # 1-4-3 with bias 7 and reserved all-ones exponent:
        # max = 2^7 * (2 - 2^-3) = 240
        assert FP8.max_value == 240.0

    def test_formats_are_hashable_and_frozen(self):
        s = {FP8, FP16, FP32}
        assert len(s) == 3
        with pytest.raises(Exception):
            FP8.name = "other"  # type: ignore[misc]
