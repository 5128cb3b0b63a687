"""Unit + property tests for blocked floating point."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PrecisionError
from repro.precision import BW_BFP, BlockedFloatFormat, BlockedVector


class TestBlockedFormat:
    def test_bw_published_config(self):
        assert BW_BFP.block_size == 400
        assert BW_BFP.exponent_bits == 5
        assert BW_BFP.mantissa_bits == 5

    def test_bits_per_value_amortizes_exponent(self):
        fmt = BlockedFloatFormat(block_size=4, exponent_bits=5, mantissa_bits=5)
        # 1 sign + 5 mantissa + 5/4 shared exponent
        assert fmt.bits_per_value == pytest.approx(6 + 1.25)

    def test_validation(self):
        with pytest.raises(PrecisionError):
            BlockedFloatFormat(block_size=0)
        with pytest.raises(PrecisionError):
            BlockedFloatFormat(block_size=4, mantissa_bits=0)
        with pytest.raises(PrecisionError):
            BlockedFloatFormat(block_size=4, exponent_bits=1)


class TestBlockedVector:
    def test_roundtrip_exact_for_grid_values(self):
        fmt = BlockedFloatFormat(block_size=4, mantissa_bits=5)
        # With shared exponent 0 the grid step is 2^(0-4) = 1/16.
        vals = np.array([1.0, 0.5, -0.25, 0.0625])
        out = BlockedVector.encode(vals, fmt).decode()
        np.testing.assert_array_equal(out, vals)

    def test_shared_exponent_follows_peak(self):
        fmt = BlockedFloatFormat(block_size=4, mantissa_bits=5)
        enc = BlockedVector.encode(np.array([8.0, 0.1, 0.1, 0.1]), fmt)
        assert enc.shared_exponent == 3

    def test_small_values_lose_precision_next_to_large(self):
        fmt = BlockedFloatFormat(block_size=2, mantissa_bits=3)
        # Peak 8.0 -> step 2^(3-2)=2: 0.4 rounds to 0.
        out = BlockedVector.encode(np.array([8.0, 0.4]), fmt).decode()
        assert out[0] == 8.0
        assert out[1] == 0.0

    def test_zero_block(self):
        enc = BlockedVector.encode(np.zeros(8), BW_BFP)
        np.testing.assert_array_equal(enc.decode(), np.zeros(8))

    def test_block_size_limit(self):
        fmt = BlockedFloatFormat(block_size=4)
        with pytest.raises(PrecisionError):
            BlockedVector.encode(np.ones(5), fmt)
        with pytest.raises(PrecisionError):
            BlockedVector.encode(np.ones(0), fmt)

    def test_rejects_nonfinite(self):
        with pytest.raises(PrecisionError):
            BlockedVector.encode(np.array([1.0, np.inf]), BW_BFP)

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False, width=64),
            min_size=1,
            max_size=16,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_error_bounded_by_peak(self, xs):
        fmt = BlockedFloatFormat(block_size=16, mantissa_bits=5)
        v = np.array(xs)
        out = BlockedVector.encode(v, fmt).decode()
        peak = np.abs(v).max()
        if peak == 0:
            np.testing.assert_array_equal(out, v)
        else:
            # Worst case error is one mantissa step at the shared exponent
            # (half a step from rounding, up to a step at the saturating
            # mantissa edge); the exponent itself clamps to the field range.
            e = np.clip(np.floor(np.log2(peak)), fmt.min_exponent, fmt.max_exponent)
            step = 2.0 ** (e - fmt.mantissa_bits + 1)
            assert np.max(np.abs(out - v)) <= step + 1e-12

    def test_quantize_array_blocks_along_last_axis(self):
        fmt = BlockedFloatFormat(block_size=4, mantissa_bits=5)
        rng = np.random.default_rng(3)
        m = rng.uniform(-4, 4, size=(3, 8))
        out = BlockedVector.quantize_array(m, fmt)
        assert out.shape == m.shape
        # Each 4-chunk of each row should match an independent encode.
        expected = BlockedVector.encode(m[1, 4:8], fmt).decode()
        np.testing.assert_array_equal(out[1, 4:8], expected)
