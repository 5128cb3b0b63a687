"""Tests for the CPU / GPU / Brainwave serving models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    BrainwaveConfig,
    BrainwaveServingModel,
    CPUServingModel,
    GPUServingModel,
    TESLA_V100,
    XEON_SKYLAKE,
)
from repro.baselines.machine import MemoryLevel, ProcessorMachine
from repro.errors import ConfigError
from repro.workloads.deepbench import RNNTask


class TestProcessorMachine:
    def test_bandwidth_selection(self):
        assert XEON_SKYLAKE.effective_bandwidth_gbs(1 * 2**20) == 20.0
        assert XEON_SKYLAKE.effective_bandwidth_gbs(10 * 2**20) == 18.0
        assert XEON_SKYLAKE.effective_bandwidth_gbs(100 * 2**20) == 8.2

    def test_stream_seconds(self):
        t = XEON_SKYLAKE.stream_seconds(8.2e9)
        assert t == pytest.approx(1.0)

    def test_levels_must_be_ordered(self):
        with pytest.raises(ConfigError):
            ProcessorMachine(
                "bad", 1.0, 1.0,
                (MemoryLevel("L3", 100, 10.0), MemoryLevel("L2", 10, 40.0),
                 MemoryLevel("DRAM", None, 5.0)),
                0.0, 0.0,
            )

    def test_last_level_unbounded(self):
        with pytest.raises(ConfigError):
            ProcessorMachine("bad", 1.0, 1.0, (MemoryLevel("L2", 10, 40.0),), 0.0, 0.0)

    def test_flops_seconds(self):
        assert TESLA_V100.flops_seconds(15.7e12) == pytest.approx(1.0)
        # Table 4's CPU peak, derived from the spec's clock.
        assert XEON_SKYLAKE.peak_tflops == 0.128
        with pytest.raises(ConfigError):
            TESLA_V100.flops_seconds(1.0, efficiency=0)


class TestCPUModel:
    def test_lstm256_matches_paper(self):
        # Paper: 15.75 ms; weight-stream model gives ~16.3 ms.
        model = CPUServingModel()
        ms = model.latency_seconds(RNNTask("lstm", 256, 150)) * 1e3
        assert ms == pytest.approx(15.75, rel=0.10)

    def test_lstm2048_matches_paper(self):
        model = CPUServingModel()
        ms = model.latency_seconds(RNNTask("lstm", 2048, 25)) * 1e3
        assert ms == pytest.approx(429.36, rel=0.10)

    def test_gru1024_matches_paper(self):
        model = CPUServingModel()
        ms = model.latency_seconds(RNNTask("gru", 1024, 1500)) * 1e3
        assert ms == pytest.approx(3810.0, rel=0.25)

    def test_large_models_memory_bound(self):
        model = CPUServingModel()
        b = model.step_breakdown(RNNTask("lstm", 2048, 25))
        assert b.stream_s > b.compute_s

    def test_effective_tflops_tiny(self):
        # Table 6: CPU effective TFLOPS 0.003-0.010.
        model = CPUServingModel()
        for task in (RNNTask("lstm", 256, 150), RNNTask("gru", 2560, 375)):
            assert 0.002 < task.effective_tflops(model.latency_seconds(task)) < 0.012

    def test_basic_lstm_slower_than_fused(self):
        fused = CPUServingModel(fused=True)
        basic = CPUServingModel(fused=False)
        task = RNNTask("lstm", 512, 25)
        assert basic.latency_seconds(task) > fused.latency_seconds(task)

    @given(h=st.sampled_from([128, 256, 512, 1024, 2048]))
    @settings(max_examples=10, deadline=None)
    def test_latency_monotone_in_h(self, h):
        model = CPUServingModel()
        t1 = model.latency_seconds(RNNTask("lstm", h, 10))
        t2 = model.latency_seconds(RNNTask("lstm", 2 * h, 10))
        assert t2 > t1


class TestGPUModel:
    def test_lstm1024_matches_paper(self):
        model = GPUServingModel()
        ms = model.latency_seconds(RNNTask("lstm", 1024, 25)) * 1e3
        assert ms == pytest.approx(0.71, rel=0.6)  # shape, not absolute

    def test_small_models_overhead_bound(self):
        model = GPUServingModel()
        b = model.step_breakdown(RNNTask("lstm", 256, 150))
        assert b.overhead_s > b.stream_s

    def test_large_models_stream_bound(self):
        model = GPUServingModel()
        b = model.step_breakdown(RNNTask("gru", 2560, 375))
        assert b.stream_s > b.overhead_s

    def test_gru512_init_overhead_dominates(self):
        # The paper's own note: GRU H=512 T=1 is "initialization overhead
        # which should not be timed".
        model = GPUServingModel()
        task = RNNTask("gru", 512, 1)
        total = model.latency_seconds(task)
        assert model.machine.init_overhead_s / total > 0.9

    def test_effective_tflops_range(self):
        # Table 6: V100 effective TFLOPS 0.01 - 1.25.
        model = GPUServingModel()
        small, large = (
            task.effective_tflops(model.latency_seconds(task))
            for task in (RNNTask("gru", 512, 1), RNNTask("gru", 2560, 375))
        )
        assert small < 0.05
        assert 0.5 < large < 2.0

    def test_gpu_faster_than_cpu_everywhere(self):
        cpu, gpu = CPUServingModel(), GPUServingModel()
        for task in (RNNTask("lstm", 256, 150), RNNTask("gru", 2048, 375)):
            assert gpu.latency_seconds(task) < cpu.latency_seconds(task)


class TestBrainwaveModel:
    def test_tile_iterations_formula(self):
        # Section 3.2: ceil(H/hv) * ceil(R/(rv*ru)).
        cfg = BrainwaveConfig()
        assert cfg.mvm_tile_iterations(256, 512) == 1 * 3
        assert cfg.mvm_tile_iterations(2048, 2048) == 6 * 9

    def test_flat_latency_region(self):
        # Table 6: LSTM per-step latency nearly constant (~2.8-3.1 us)
        # from H=256 to H=2048.
        model = BrainwaveServingModel()
        steps = [
            model.step_trace(RNNTask("lstm", h, 25)).step_cycles
            for h in (256, 512, 1024, 1536, 2048)
        ]
        assert max(steps) / min(steps) < 1.2

    def test_lstm256_latency_matches_paper(self):
        model = BrainwaveServingModel()
        ms = model.latency_seconds(RNNTask("lstm", 256, 150)) * 1e3
        assert ms == pytest.approx(0.425, rel=0.10)

    def test_gru2560_latency_matches_paper(self):
        model = BrainwaveServingModel()
        ms = model.latency_seconds(RNNTask("gru", 2560, 375)) * 1e3
        assert ms == pytest.approx(0.993, rel=0.25)

    def test_effective_tflops_rises_with_size(self):
        # Table 6: BW 0.25 -> 29.7 effective TFLOPS.
        model = BrainwaveServingModel()
        small, large = (
            task.effective_tflops(model.latency_seconds(task))
            for task in (RNNTask("lstm", 256, 150), RNNTask("gru", 2560, 375))
        )
        assert small < 1.0
        assert large > 15.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            BrainwaveConfig(hv=0)
        with pytest.raises(ConfigError):
            BrainwaveConfig(clock_ghz=0)
        with pytest.raises(ConfigError):
            BrainwaveConfig().mvm_tile_iterations(0, 5)
