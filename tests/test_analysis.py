"""Tests for the fragmentation and footprint analyses, and Plasticine's
FLOPS utilization across sizes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    basic_lstm_footprint,
    brainwave_footprint,
    cudnn_lstm_footprint,
    loop_based_footprint,
    loop_utilization,
    mvm_tile_utilization,
    utilization_sweep,
)
from repro.errors import ConfigError


class TestFragmentation:
    def test_aligned_mvm_is_full(self):
        assert mvm_tile_utilization(800, 480, hv=400, rv=40, ru=6) == 1.0

    def test_misaligned_h_wastes_rows(self):
        # H=256 in a 400-row tile: at most 64% utilization from H alone.
        u = mvm_tile_utilization(256, 480, hv=400, rv=40, ru=6)
        assert u == pytest.approx(256 / 400)

    def test_2d_fragmentation_compounds(self):
        u = mvm_tile_utilization(256, 500, hv=400, rv=40, ru=6)
        assert u == pytest.approx((256 / 400) * (500 / 720))

    def test_loop_design_immune_to_h(self):
        # hv=1: H fragmentation vanishes (hu=1 default).
        assert loop_utilization(257, 512, rv=64, ru=8) == pytest.approx(
            loop_utilization(256, 512, rv=64, ru=8) * (257 * 512) / (256 * 512),
            rel=0.01,
        ) or loop_utilization(257, 512, rv=64, ru=8) == pytest.approx(1.0)

    def test_loop_1d_fragmentation_only(self):
        # R=500 with rv=64, ru=1: 8 blocks cover 512 slots.
        assert loop_utilization(100, 500, rv=64) == pytest.approx(500 / 512)

    def test_paper_claim_loop_beats_mvm(self):
        # Figure 4: the loop-based design never fragments worse.
        for p in utilization_sweep():
            assert p.loop_utilization >= p.mvm_utilization
            assert p.advantage >= 1.0

    def test_small_sizes_hurt_mvm_most(self):
        pts = utilization_sweep([256, 2048])
        assert pts[0].mvm_utilization < pts[1].mvm_utilization

    def test_deepbench_sizes_fully_utilize_loop_design(self):
        # rv=64 divides every DeepBench R=2H; 1-D fragmentation is zero.
        for p in utilization_sweep():
            assert p.loop_utilization == 1.0

    @given(
        h=st.integers(1, 3000),
        r=st.integers(1, 6000),
        hv=st.sampled_from([1, 40, 400]),
        rv=st.sampled_from([8, 40, 64]),
        ru=st.sampled_from([1, 4, 6, 8]),
    )
    @settings(max_examples=150, deadline=None)
    def test_utilization_in_unit_interval(self, h, r, hv, rv, ru):
        u_mvm = mvm_tile_utilization(h, r, hv, rv, ru)
        u_loop = loop_utilization(h, r, rv, ru)
        assert 0 < u_mvm <= 1
        assert 0 < u_loop <= 1
        # hv=1 reduces MVM tiling to the loop design on the H axis.
        if hv == 1:
            assert u_mvm == pytest.approx(loop_utilization(h, r, rv, ru))

    def test_validation(self):
        with pytest.raises(ConfigError):
            mvm_tile_utilization(0, 1, 1, 1)
        with pytest.raises(ConfigError):
            loop_utilization(1, 1, 0)


class TestFootprint:
    def test_basic_lstm_scales_with_h(self):
        small = basic_lstm_footprint(256)
        large = basic_lstm_footprint(2048)
        assert large.total_bytes == 8 * small.total_bytes

    def test_cudnn_eliminates_most_buffers(self):
        # Figure 1b vs 1a: cuDNN fuses the post-MVM vector ops.
        h = 1024
        assert cudnn_lstm_footprint(h).total_bytes < basic_lstm_footprint(h).total_bytes / 4

    def test_brainwave_independent_of_h(self):
        assert brainwave_footprint(256).total_bytes == brainwave_footprint(2816).total_bytes

    def test_loop_based_independent_of_h_and_smallest(self):
        for h in (256, 1024, 2816):
            loop = loop_based_footprint(h)
            assert loop.total_bytes == loop_based_footprint(256).total_bytes
            assert loop.total_bytes < brainwave_footprint(h).total_bytes
            assert loop.total_bytes < cudnn_lstm_footprint(h).total_bytes

    def test_footprint_ordering_matches_paper(self):
        # BasicLSTM > cuDNN > Brainwave > loop-based for large H.
        h = 2048
        sizes = [
            basic_lstm_footprint(h).total_bytes,
            cudnn_lstm_footprint(h).total_bytes,
            brainwave_footprint(h).total_bytes,
            loop_based_footprint(h).total_bytes,
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_largest_buffer_named(self):
        buffers = basic_lstm_footprint(512).buffers
        assert max(buffers, key=buffers.get) in ("mvm_out", "bias_out")
        assert max(buffers.values()) == 4 * 512

    def test_validation(self):
        with pytest.raises(ConfigError):
            basic_lstm_footprint(0)


class TestUtilization:
    def test_plasticine_utilization_consistent_across_sizes(self):
        # The headline claim: utilization stays high and flat-to-rising.
        from repro.serving import ServingEngine
        from repro.workloads.deepbench import RNNTask

        utils = []
        for h, t in [(512, 5), (1024, 5), (2048, 5)]:
            res = ServingEngine("plasticine").serve(RNNTask("lstm", h, t)).result
            utils.append(res.effective_tflops / 49.0)
        assert utils == sorted(utils)  # rising with size
        assert utils[-1] > 0.25
