"""Tests for the reproduction harness: paper data, tables, figures."""

import math

import pytest

from repro.errors import ConfigError
from repro.harness import (
    figure1_3_footprints,
    figure4_fragmentation,
    figure6_pcu_timing,
    figure7_layouts,
    format_table,
    geometric_mean,
    table3,
    table4,
    table5,
    table6,
    table7,
)
from repro.harness.paper_data import TABLE6, TABLE6_GEOMEAN_SPEEDUPS, paper_row
from repro.platforms import PLATFORMS, platform
from repro.workloads.deepbench import RNNTask


class TestPaperData:
    def test_ten_rows(self):
        assert len(TABLE6) == 10

    def test_lookup(self):
        row = paper_row("lstm", 1024)
        assert row.latency_plasticine_ms == 0.0292
        with pytest.raises(KeyError):
            paper_row("lstm", 300)

    def test_speedups_consistent_with_latencies(self):
        # The published speedup columns equal the latency ratios (to the
        # rounding of the published latencies — GRU-512's 0.0004 ms is
        # rounded to one significant digit, skewing its ratio ~4%).
        for row in TABLE6:
            assert row.speedup_vs_cpu == pytest.approx(
                row.latency_cpu_ms / row.latency_plasticine_ms, rel=0.05
            )
            assert row.speedup_vs_bw == pytest.approx(
                row.latency_bw_ms / row.latency_plasticine_ms, rel=0.15
            )

    def test_published_geomean_consistent(self):
        # The paper's geomean row follows from its own speedup column to
        # within latency-rounding noise (~10% on the GPU column, again
        # dominated by the GRU-512 row).
        geo = math.exp(
            sum(math.log(r.speedup_vs_gpu) for r in TABLE6) / len(TABLE6)
        )
        assert geo == pytest.approx(TABLE6_GEOMEAN_SPEEDUPS["gpu"], rel=0.12)

    def test_effective_tflops_consistent(self):
        # TFLOPS = T * 2*G*H*R / latency for each published row.
        for row in TABLE6:
            task = RNNTask(row.kind, row.hidden, row.timesteps)
            derived = task.effective_tflops(row.latency_plasticine_ms * 1e-3)
            assert derived == pytest.approx(row.tflops_plasticine, rel=0.05)


class TestPlatforms:
    def test_registry_complete(self):
        assert set(PLATFORMS) == {"cpu", "gpu", "brainwave", "plasticine"}

    def test_lookup(self):
        assert platform("plasticine").die_area_mm2 == 494.37
        with pytest.raises(KeyError):
            platform("tpu")

    def test_area_advantage_claims(self):
        # Abstract: 1.6x area advantage vs GPU; >2x smaller than Stratix.
        pl = platform("plasticine")
        assert platform("gpu").die_area_mm2 / pl.die_area_mm2 > 1.6
        assert platform("brainwave").die_area_mm2 / pl.die_area_mm2 > 2.0

    def test_brainwave_measured_power(self):
        assert platform("brainwave").measured_peak_power_w == 125


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all("|" in line for line in (lines[0], lines[2], lines[3]))

    def test_geometric_mean(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)
        with pytest.raises(ConfigError):
            geometric_mean([])
        with pytest.raises(ConfigError):
            geometric_mean([1.0, -1.0])


class TestStaticTables:
    def test_table3_contents(self):
        text = table3()
        for token in ("192", "384", "16", "84", "31.5"):
            assert token in text

    def test_table4_contents(self):
        text = table4()
        assert "Plasticine" in text
        assert "494.4" in text
        assert "Tesla V100" in text

    def test_table5_contents(self):
        text = table5()
        assert "Spatial" in text
        assert "Brainwave" in text
        assert "mix f8+16+32" in text


class TestLiveTables:
    @pytest.fixture(scope="class")
    def t6(self):
        # Build once; ~3 s for all ten tasks x four platforms.
        return table6()

    def test_all_tasks_and_platforms_present(self, t6):
        assert len(t6.results) == 10
        for per in t6.results.values():
            assert set(per) == {"cpu", "gpu", "brainwave", "plasticine"}

    def test_headline_geomeans_reproduced(self, t6):
        # Paper: 2529x vs CPU, 29.8x vs GPU, 2.0x vs BW.  Accept the
        # shape: same order of magnitude, same ranking.
        geo = t6.geomean_speedups
        assert 1500 < geo["cpu"] < 4000
        assert 15 < geo["gpu"] < 60
        assert 1.5 < geo["brainwave"] < 3.5
        assert geo["cpu"] > geo["gpu"] > geo["brainwave"]

    def test_plasticine_latencies_within_15pct(self, t6):
        for row in TABLE6:
            task_name = f"{row.kind}-h{row.hidden}-t{row.timesteps}"
            measured = t6.results[task_name]["plasticine"].latency_ms
            assert measured == pytest.approx(row.latency_plasticine_ms, rel=0.15), task_name

    def test_all_plasticine_latencies_under_5ms_claim(self, t6):
        # Section 5.2: "Both BW and Plasticine deliver promising latencies
        # within 5 ms for all problem sizes" (per-request, T<=375 tasks;
        # the T=1500 GRU totals more but its per-step time is ~1 us).
        for name, per in t6.results.items():
            res = per["plasticine"]
            if res.task.timesteps <= 375:
                assert res.latency_ms < 5.0, name

    def test_bw_wins_only_on_largest(self, t6):
        # Section 5.2: BW is ahead only for the largest models.
        losses = [
            name
            for name, per in t6.results.items()
            if per["plasticine"].speedup_over(per["brainwave"]) < 1.0
        ]
        assert losses  # some exist
        assert all(int(name.split("h")[1].split("-")[0]) >= 2048 for name in losses)

    def test_power_within_range(self, t6):
        # Table 6 Plasticine power: 28.5 - 117.2 W; peak < BW's 125 W.
        for per in t6.results.values():
            p = per["plasticine"].power_w
            assert 20 <= p <= 125

    def test_text_rendering(self, t6):
        assert "geomean" in t6.text
        assert "lstm-h1024-t25" in t6.text

    def test_table7_without_dse(self):
        text = table7(run_dse=False)
        assert "6/400/40" in text
        assert "4/8/64" in text


class TestFigures:
    def test_figure1_3(self):
        text = figure1_3_footprints([256, 1024])
        assert "BasicLSTM" in text
        assert "Loop-based" in text

    def test_figure4(self):
        text = figure4_fragmentation([256, 2048])
        assert "advantage" in text

    def test_figure6(self):
        text = figure6_pcu_timing()
        assert "fused" in text and "folded" in text
        # The headline config: 4 stages, 7 cycles.
        assert " 4 |" in text and " 7 |" in text

    def test_figure7(self):
        text = figure7_layouts()
        assert "ratio 1.0" in text
        assert "ratio 2.0" in text
        assert "PMU PCU PMU" in text
