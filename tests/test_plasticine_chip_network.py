"""Tests for grid layouts, routing, chip configs, and area/power."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.plasticine.area_power import ActivityProfile, AreaPowerModel
from repro.plasticine.chip import PlasticineConfig
from repro.plasticine.network import GridLayout


class TestGridLayout:
    @pytest.mark.parametrize("build", [GridLayout.checkerboard, GridLayout.rnn_variant],
                             ids=["checkerboard", "rnn_variant"])
    def test_empty_grid_rejected(self, build):
        for rows, cols in [(0, 3), (3, 0), (-3, 3)]:
            with pytest.raises(ConfigError, match="at least 1x1"):
                build(rows, cols)

    def test_rnn_variant_ratio(self):
        # Figure 7 / Table 3: 24x24 grid -> 192 PCU, 384 PMU (2:1).
        g = GridLayout.rnn_variant(24, 24)
        assert g.n_pcu == 192
        assert g.n_pmu == 384
        assert g.pmu_to_pcu_ratio == 2.0

    def test_checkerboard_ratio(self):
        g = GridLayout.checkerboard(16, 8)
        assert g.n_pcu == 64
        assert g.n_pmu == 64
        assert g.pmu_to_pcu_ratio == 1.0

    def test_rnn_variant_pattern(self):
        # Row pattern is PMU PCU PMU repeated.
        g = GridLayout.rnn_variant(3, 6)
        pcu_cols = sorted({c for r, c in g.pcus})
        assert pcu_cols == [1, 4]

    def test_rnn_variant_needs_multiple_of_three(self):
        with pytest.raises(ConfigError):
            GridLayout.rnn_variant(4, 8)

    def test_switch_count(self):
        g = GridLayout.rnn_variant(24, 24)
        assert g.n_switches == 25 * 25

    def test_manhattan_and_routes(self):
        g = GridLayout.checkerboard(8, 8)
        assert g.manhattan((0, 0), (3, 4)) == 7
        assert g.route_cycles((0, 0), (3, 4)) == 8  # hops + fabric entry
        assert g.route_cycles((2, 2), (2, 2)) == 0

    def test_ascii_diagram(self):
        text = GridLayout.rnn_variant(3, 6).ascii_diagram()
        assert text.splitlines()[0] == "PMU PCU PMU PMU PCU PMU"

    def test_cached_hash_agrees_with_equality_in_any_process(self):
        import pickle
        import subprocess
        import sys

        layout = GridLayout.rnn_variant(24, 24)
        assert hash(layout) == hash(GridLayout.rnn_variant(24, 24))
        copy = pickle.loads(pickle.dumps(layout))
        assert copy == layout and hash(copy) == hash(layout)
        # A worker started apart draws another string-hash seed; an equal
        # layout it builds must still hash like the cached copy it gets.
        other = subprocess.run(
            [sys.executable, "-c", "from repro.plasticine.network import GridLayout;"
             " print(hash(GridLayout.rnn_variant(24, 24)))"],
            capture_output=True, text=True, check=True,
        )
        assert int(other.stdout) == hash(layout)

    @given(rows=st.integers(1, 10), cols=st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_checkerboard_covers_grid(self, rows, cols):
        g = GridLayout.checkerboard(rows, cols)
        assert g.n_pcu + g.n_pmu == rows * cols
        assert abs(g.n_pcu - g.n_pmu) <= (rows * cols) % 2 + rows * cols % 2 + 1


class TestPlasticineConfig:
    def test_rnn_serving_matches_table3(self):
        chip = PlasticineConfig.rnn_serving()
        d = chip.describe()
        assert d["grid"] == "24x24"
        assert d["n_pcu"] == 192
        assert d["n_pmu"] == 384
        assert d["lanes"] == 16
        assert d["stages"] == 4
        assert d["pmu_capacity_kb"] == 84

    def test_onchip_capacity_matches_table4(self):
        # Table 4: 31.5 MB on-chip scratchpad.
        chip = PlasticineConfig.rnn_serving()
        assert chip.onchip_mb == pytest.approx(31.5, abs=0.01)

    def test_peak_8bit_tflops_matches_table4(self):
        # Table 4: 49 peak 8-bit TFLOPS.
        chip = PlasticineConfig.rnn_serving()
        assert chip.peak_tflops(8) == pytest.approx(49, rel=0.01)

    def test_peak_32bit_tflops_matches_table4(self):
        # Table 4: 12.5 peak 32-bit TFLOPS (we compute 12.3).
        chip = PlasticineConfig.rnn_serving()
        assert chip.peak_tflops(32) == pytest.approx(12.5, rel=0.02)

    def test_dot_lanes_per_pcu(self):
        chip = PlasticineConfig.rnn_serving()
        assert chip.dot_lanes_per_pcu(8) == 64
        assert chip.dot_lanes_per_pcu(32) == 16

    def test_compute_to_memory_ratio_section42(self):
        # Original: 6-stage PCUs at 1:1 -> 6:1; variant: 4-stage at 2:1
        # -> 2:1, matching the RNN's 2N^2 compute : N^2 reads.
        original = PlasticineConfig.isca2017()
        variant = PlasticineConfig.rnn_serving()
        assert original.compute_to_memory_read_ratio() == pytest.approx(6.0)
        assert variant.compute_to_memory_read_ratio() == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            PlasticineConfig(
                name="bad",
                layout=GridLayout.rnn_variant(3, 3),
                pcu=PlasticineConfig.rnn_serving().pcu,
                pmu=PlasticineConfig.rnn_serving().pmu,
                clock_ghz=0,
            )

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"hop_latency": 0}, "hop latency must be >= 1"),
            ({"reserved_pcus": -1}, "reserved_pcus out of range"),
            ({"reserved_pcus": 192}, "reserved_pcus out of range"),
        ],
        ids=["zero-hop", "negative-reserve", "reserve-every-pcu"],
    )
    def test_network_and_reserve_validation(self, kwargs, message):
        base = PlasticineConfig.rnn_serving()
        assert base.layout.n_pcu == 192
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(base, **kwargs)


class TestAreaPower:
    def test_die_area_matches_table4(self):
        # Table 4: Plasticine die area 494.37 mm2 at 28 nm.
        model = AreaPowerModel()
        chip = PlasticineConfig.rnn_serving()
        assert model.chip_area_mm2(chip) == pytest.approx(494.37, rel=0.005)

    def test_area_smaller_than_v100_and_stratix(self):
        # Abstract: 1.6x area advantage vs V100 (815 mm2).
        model = AreaPowerModel()
        area = model.chip_area_mm2(PlasticineConfig.rnn_serving())
        assert 815 / area == pytest.approx(1.65, abs=0.1)
        assert 1200 / area > 2.0  # "more than 2x smaller than Stratix 10"

    def test_tdp_matches_table4(self):
        # Table 4: TDP 160 W.
        model = AreaPowerModel()
        assert model.chip_tdp_w(PlasticineConfig.rnn_serving()) == pytest.approx(
            160, rel=0.02
        )

    def test_power_monotone_in_activity(self):
        model = AreaPowerModel()
        chip = PlasticineConfig.rnn_serving()
        low = model.power_w(chip, ActivityProfile(pcu_busy=10, pmu_busy=10))
        high = model.power_w(chip, ActivityProfile(pcu_busy=150, pmu_busy=300))
        assert low < high < model.chip_tdp_w(chip)

    def test_activity_bounds_checked(self):
        model = AreaPowerModel()
        chip = PlasticineConfig.rnn_serving()
        with pytest.raises(ConfigError):
            model.power_w(chip, ActivityProfile(pcu_busy=500, pmu_busy=0))
        with pytest.raises(ConfigError):
            ActivityProfile(pcu_busy=-1, pmu_busy=0)

    def test_idle_power_is_static(self):
        model = AreaPowerModel()
        chip = PlasticineConfig.rnn_serving()
        assert model.power_w(chip, ActivityProfile(0, 0)) == model.static_w
