"""Unit tests for the PCU/PMU models and the Figure 6 timing laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.plasticine.isa import Opcode, low_precision_map_reduce_schedule
from repro.plasticine.pcu import PCUConfig
from repro.plasticine.pmu import PMUConfig


class TestISA:
    def test_low_precision_schedule_unfused_has_five_stages(self):
        sched = low_precision_map_reduce_schedule(fused=False)
        assert len(sched) == 5
        assert sched[0] is Opcode.MUL_4x8
        assert sched[-1] is Opcode.ADD_32

    def test_fused_schedule_has_three_stages(self):
        sched = low_precision_map_reduce_schedule(fused=True)
        assert len(sched) == 3
        assert sched[0] is Opcode.FUSED_MUL_4x8_SPLIT


class TestPCUConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PCUConfig(lanes=3)
        with pytest.raises(ConfigError):
            PCUConfig(lanes=16, stages=0)
        with pytest.raises(ConfigError):
            PCUConfig(regs_per_stage=1)

    def test_packing(self):
        pcu = PCUConfig()
        assert pcu.packing(8) == 4
        assert pcu.packing(16) == 2
        assert pcu.packing(32) == 1
        with pytest.raises(ConfigError):
            pcu.packing(4)

    def test_values_per_cycle_is_rv(self):
        # 16 lanes x 4 packed fp8 = 64: the rv the paper uses.
        assert PCUConfig(lanes=16).values_per_cycle(8) == 64
        assert PCUConfig(lanes=16).values_per_cycle(16) == 32
        assert PCUConfig(lanes=16).values_per_cycle(32) == 16

    def test_paper_timing_law_8bit(self):
        # "a PCU is able to perform all map-reduce that accumulates
        # 4*LANE 8-bit values using 4 stages ... completed in
        # 2 + log2(LANE) + 1 cycles."
        pcu = PCUConfig(lanes=16, stages=4)
        t = pcu.map_reduce_timing(8)
        assert t.stages_used == 4
        assert t.depth_cycles == 2 + 4 + 1
        assert t.elements_per_cycle == 64
        assert t.initiation_interval == 1

    @given(lanes=st.sampled_from([2, 4, 8, 16, 32]))
    @settings(max_examples=10, deadline=None)
    def test_timing_law_scales_with_lanes(self, lanes):
        import math

        pcu = PCUConfig(lanes=lanes, stages=4)
        t = pcu.map_reduce_timing(8)
        assert t.depth_cycles == 2 + int(math.log2(lanes)) + 1

    def test_unfused_needs_more_stages(self):
        fused = PCUConfig(stages=4, fused_low_precision=True, folded_reduction=True)
        assert fused.map_reduce_timing(8).stages_used == 4
        unfused = PCUConfig(stages=12, fused_low_precision=False, folded_reduction=False)
        # 5 map stages + log2(16)+1 tree stages
        assert unfused.map_reduce_timing(8).stages_used == 10

    def test_unfused_does_not_fit_four_stages(self):
        pcu = PCUConfig(stages=4, fused_low_precision=False, folded_reduction=False)
        with pytest.raises(ConfigError):
            pcu.map_reduce_timing(8)

    def test_folded_tree_single_stage(self):
        folded = PCUConfig(folded_reduction=True)
        unfolded = PCUConfig(stages=8, folded_reduction=False)
        assert folded.reduction_stages_used() == 1
        assert unfolded.reduction_stages_used() == 5  # log2(16) + 1

    def test_folding_preserves_latency(self):
        # Figure 6c: folding changes stage usage, not cycle count.
        folded = PCUConfig(folded_reduction=True)
        unfolded = PCUConfig(stages=8, folded_reduction=False)
        assert folded.reduction_cycles() == unfolded.reduction_cycles() == 5

    def test_folding_improves_fu_utilization(self):
        folded = PCUConfig(folded_reduction=True)
        unfolded = PCUConfig(stages=8, folded_reduction=False)
        assert folded.reduction_fu_utilization() > unfolded.reduction_fu_utilization()
        assert folded.reduction_fu_utilization() == 1.0

    def test_full_precision_timing(self):
        pcu = PCUConfig(lanes=16, stages=4)
        t = pcu.map_reduce_timing(32)
        assert t.elements_per_cycle == 16
        assert t.depth_cycles == 1 + 5


class TestPMUConfig:
    def test_defaults_match_table3(self):
        pmu = PMUConfig()
        assert pmu.capacity_bytes == 84 * 1024
        assert pmu.banks == 16

    def test_validation(self):
        with pytest.raises(ConfigError):
            PMUConfig(capacity_bytes=0)
        with pytest.raises(ConfigError):
            PMUConfig(banks=3)
        with pytest.raises(ConfigError):
            PMUConfig(word_bytes=3)

    def test_bandwidth(self):
        pmu = PMUConfig(banks=16, word_bytes=4)
        assert pmu.bytes_per_cycle == 64

    def test_one_pmu_feeds_one_dot_pcu(self):
        # A dot PCU consumes 64 fp8 weights/cycle = 64 B/cycle: exactly
        # one PMU's bandwidth — the paper's 2:1 PMU:PCU rationale.
        pmu = PMUConfig()
        from repro.plasticine.pcu import PCUConfig

        assert pmu.bytes_per_cycle == PCUConfig().values_per_cycle(8) * 1
