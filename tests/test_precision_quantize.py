"""Unit + property tests for repro.precision.quantize."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PrecisionError
from repro.precision import FP8, FP16, FP32, FloatFormat, quantize, ulp

FORMATS = [FP8, FP16, FP32]


class TestQuantizeBasics:
    def test_zero_maps_to_zero(self):
        for fmt in FORMATS:
            assert quantize(0.0, fmt) == 0.0

    def test_exact_values_pass_through(self):
        # 1.0, 0.5, powers of two and small mantissa steps are on the grid.
        vals = np.array([1.0, 0.5, 2.0, 1.25, -1.5, 0.125])
        out = quantize(vals, FP8)
        np.testing.assert_array_equal(out, vals)

    def test_rounds_to_nearest(self):
        # FP8 grid near 1.0 has spacing 1/8.
        assert quantize(1.06, FP8) == 1.0
        assert quantize(1.07, FP8) == 1.125

    def test_round_half_even(self):
        # Midpoint 1.0625 between 1.0 and 1.125 (grid 1/8): ties-to-even
        # picks the even mantissa (1.0).
        assert quantize(1.0625, FP8) == 1.0
        # Midpoint between 1.125 and 1.25 is 1.1875 -> even neighbour 1.25.
        assert quantize(1.1875, FP8) == 1.25

    def test_saturates_at_max(self):
        assert quantize(1e9, FP8) == FP8.max_value
        assert quantize(-1e9, FP8) == -FP8.max_value

    def test_subnormals_are_representable(self):
        sub = FP8.min_subnormal
        assert quantize(sub, FP8) == sub
        assert quantize(sub * 0.49, FP8) == 0.0

    def test_negative_symmetry(self):
        vals = np.linspace(0.01, 400, 97)
        np.testing.assert_array_equal(quantize(-vals, FP8), -quantize(vals, FP8))

    def test_scalar_in_scalar_out(self):
        out = quantize(3.3, FP8)
        assert np.ndim(out) == 0

    def test_rejects_nan_and_inf(self):
        with pytest.raises(PrecisionError):
            quantize(np.array([1.0, np.nan]), FP8)
        with pytest.raises(PrecisionError):
            quantize(np.inf, FP16)

    def test_fp16_matches_numpy_half(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1000, 1000, size=512)
        ours = quantize(x, FP16)
        theirs = x.astype(np.float16).astype(np.float64)
        np.testing.assert_array_equal(ours, theirs)

    def test_fp16_matches_numpy_half_up_to_max(self):
        # Draws up to 60000, near fp16's largest finite value (65504),
        # where the grid spacing is 32.
        rng = np.random.default_rng(2)
        x = rng.uniform(-60000, 60000, size=256)
        np.testing.assert_array_equal(quantize(x, FP16), x.astype(np.float16))

    def test_fp32_matches_numpy_single(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1e30, 1e30, size=512)
        ours = quantize(x, FP32)
        theirs = x.astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(ours, theirs)

    def test_every_finite_fp16_value_is_on_the_grid(self):
        # All 63,488 finite half-precision bit patterns, both signs.
        halves = np.arange(0x10000, dtype=np.uint32).astype(np.uint16).view(np.float16)
        finite = halves[np.isfinite(halves)].astype(np.float64)
        assert finite.size == 63_488
        np.testing.assert_array_equal(quantize(finite, FP16), finite)

    def test_fp16_midpoints_tie_like_numpy_half(self):
        # Halfway between each pair of neighbouring positive halves, from
        # the subnormals up to 65504: ties go to the even mantissa.
        grid = np.arange(0x7C00, dtype=np.uint16).view(np.float16).astype(np.float64)
        mid = (grid[:-1] + grid[1:]) / 2
        np.testing.assert_array_equal(quantize(mid, FP16), mid.astype(np.float16))

    def test_fp16_subnormal_range_matches_numpy_half(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-FP16.min_normal, FP16.min_normal, size=512)
        np.testing.assert_array_equal(quantize(x, FP16), x.astype(np.float16))
        assert FP16.min_subnormal == float(np.finfo(np.float16).smallest_subnormal)

    def test_format_without_subnormals_flushes_below_half_min_normal(self):
        flush = FloatFormat("flush", 4, 3, has_subnormals=False)
        tiny = np.array([0.49, 0.25, 0.01]) * flush.min_normal
        np.testing.assert_array_equal(quantize(tiny, flush), 0.0)
        np.testing.assert_array_equal(quantize(-tiny, flush), 0.0)
        # The normal range rounds exactly as in the format with subnormals.
        normal = np.linspace(flush.min_normal, flush.max_value, 301)
        np.testing.assert_array_equal(quantize(normal, flush), quantize(normal, FP8))

    @pytest.mark.parametrize(
        "fmt, eps",
        [
            (FP8, 0.125),
            (FP16, float(np.finfo(np.float16).eps)),
            (FP32, float(np.finfo(np.float32).eps)),
        ],
        ids=["fp8", "fp16", "fp32"],
    )
    def test_ulp_of_one_is_machine_epsilon(self, fmt, eps):
        assert float(ulp(1.0, fmt)) == eps == 2.0**-fmt.mantissa_bits
        assert quantize(1.0 + eps, fmt) == 1.0 + eps
        # Half an epsilon above one is a tie, which goes to the even 1.0.
        assert quantize(1.0 + eps / 2, fmt) == 1.0


class TestQuantizeProperties:
    @given(
        st.lists(
            st.floats(min_value=-480, max_value=480, allow_nan=False, width=64),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, xs):
        x = np.array(xs)
        once = quantize(x, FP8)
        twice = quantize(once, FP8)
        np.testing.assert_array_equal(once, twice)

    @given(
        st.floats(min_value=2**-6, max_value=240, allow_nan=False, width=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_relative_error_bound_normal_range(self, x):
        q = float(quantize(x, FP8))
        # Round-to-nearest: error at most half a ulp.
        assert abs(x - q) <= 0.5 * float(ulp(x, FP8)) + 1e-18

    @given(
        st.floats(min_value=-480.0, max_value=480.0, allow_nan=False, width=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_precision_ladder(self, x):
        # Finer formats never do worse than coarser ones.
        e8 = abs(x - float(quantize(x, FP8)))
        e16 = abs(x - float(quantize(x, FP16)))
        e32 = abs(x - float(quantize(x, FP32)))
        assert e32 <= e16 + 1e-18
        assert e16 <= e8 + 1e-18


class TestQuantizedOps:
    def test_ulp_scales_with_magnitude(self):
        assert float(ulp(1.0, FP8)) == 0.125
        assert float(ulp(2.0, FP8)) == 0.25
        assert float(ulp(100.0, FP8)) == 8.0
