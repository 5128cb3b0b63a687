"""End-to-end integration battery across the whole stack.

These tests exercise the same paths the benchmarks use, plus the
cross-cutting invariants that individual module tests cannot see:
functional fidelity under the serving datapath, latency scaling laws,
power bounds, and the DSE/mapper/simulator agreeing with each other.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.search import build_task_program
from repro.mapping import map_rnn_program
from repro.plasticine import PlasticineConfig, simulate_pipeline
from repro.plasticine.area_power import AreaPowerModel
from repro.precision import FP8, FP16
from repro.rnn import (
    GRUWeights,
    LSTMWeights,
    RNNShape,
    build_gru_program,
    build_lstm_program,
    gru_sequence,
    lstm_sequence,
)
from repro.rnn.lstm_loop import LoopParams
from repro.serving import ServingEngine
from repro.spatial import PrecisionPolicy
from repro.workloads.deepbench import RNNTask, all_tasks, task


class TestFunctionalFidelity:
    """The serving datapath computes the function it claims to."""

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_exact_datapath_bitexact_medium(self, kind):
        h = 48
        shape = RNNShape(kind, h, h)
        rng = np.random.default_rng(9)
        xs = rng.uniform(-1, 1, (6, h))
        if kind == "lstm":
            w = LSTMWeights.random(shape, rng=9)
            prog = build_lstm_program(w, xs, LoopParams(hu=3, ru=2, rv=8))
            sig = prog.memories.luts["luti"].apply
            tnh = prog.memories.luts["tanh"].apply
            expected, _, _ = lstm_sequence(w, xs, sigma=sig, tanh=tnh)
        else:
            w = GRUWeights.random(shape, rng=9)
            prog = build_gru_program(w, xs, LoopParams(hu=3, ru=2, rv=8))
            sig = prog.memories.luts["sigmoid"].apply
            tnh = prog.memories.luts["tanh"].apply
            expected, _ = gru_sequence(w, xs, sigma=sig, tanh=tnh)
        got = prog.run().state["y_seq"]
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_serving_precision_tracks_reference(self, kind):
        h = 32
        shape = RNNShape(kind, h, h)
        rng = np.random.default_rng(21)
        xs = rng.uniform(-1, 1, (10, h))
        cls = LSTMWeights if kind == "lstm" else GRUWeights
        w = cls.random(shape, rng=21)
        builder = build_lstm_program if kind == "lstm" else build_gru_program
        prog = builder(
            w, xs, LoopParams(hu=4, ru=2, rv=16),
            weight_dtype=FP8, state_dtype=FP16,
        )
        got = prog.run(policy=PrecisionPolicy.plasticine_mixed()).state["y_seq"]
        if kind == "lstm":
            ref, _, _ = lstm_sequence(w, xs)
        else:
            ref, _ = gru_sequence(w, xs)
        assert np.corrcoef(got.ravel(), ref.ravel())[0, 1] > 0.97

    def test_longer_sequences_stay_stable(self):
        # Quantization error must not blow up over many steps.
        h = 24
        shape = RNNShape("lstm", h, h)
        w = LSTMWeights.random(shape, rng=3)
        xs = np.random.default_rng(4).uniform(-1, 1, (60, h))
        prog = build_lstm_program(
            w, xs, LoopParams(hu=2, ru=2, rv=8), weight_dtype=FP8, state_dtype=FP16
        )
        got = prog.run(policy=PrecisionPolicy.plasticine_mixed()).state["y_seq"]
        assert np.all(np.isfinite(got))
        assert np.abs(got).max() <= 1.0 + 1e-6  # h = o * tanh(c) stays bounded


class TestScalingLaws:
    """Latency structure the paper's Table 6 implies."""

    def test_latency_linear_in_timesteps(self):
        base = ServingEngine("plasticine").serve(task("lstm", 512, 10)).result
        triple = ServingEngine("plasticine").serve(task("lstm", 512, 30)).result
        assert triple.latency_s == pytest.approx(3 * base.latency_s, rel=1e-6)

    def test_latency_superlinear_in_hidden(self):
        # cycles/step ~ ceil(H/hu) * ceil(2H/512): quadratic region.
        l1 = ServingEngine("plasticine").serve(task("lstm", 1024, 25)).result
        l2 = ServingEngine("plasticine").serve(task("lstm", 2048, 25)).result
        assert 2.5 < l2.latency_s / l1.latency_s < 4.5

    def test_effective_tflops_flat_to_rising(self):
        # The paper's "consistent FLOPS" claim.
        results = [
            ServingEngine("plasticine").serve(task("lstm", h, 25)).result
            for h in (512, 1024, 2048)
        ]
        vals = [r.effective_tflops for r in results]
        assert vals == sorted(vals)
        assert vals[0] > 3.0  # even the small point is far above CPU/GPU

    def test_plasticine_wins_small_loses_large_vs_bw(self):
        small = task("gru", 512)
        large = task("gru", 2560)
        p_small = ServingEngine("plasticine").serve(small).result.speedup_over(
            ServingEngine("brainwave").serve(small).result
        )
        p_large = ServingEngine("plasticine").serve(large).result.speedup_over(
            ServingEngine("brainwave").serve(large).result
        )
        assert p_small > 10
        assert p_large < 1.0

    def test_ordering_cpu_gpu_spatial(self):
        for t in (task("lstm", 1024), task("gru", 1536)):
            cpu = ServingEngine("cpu").serve(t).result.latency_s
            gpu = ServingEngine("gpu").serve(t).result.latency_s
            bw = ServingEngine("brainwave").serve(t).result.latency_s
            pl = ServingEngine("plasticine").serve(t).result.latency_s
            assert cpu > gpu > bw
            assert cpu > gpu > pl


class TestWholeSuiteInvariants:
    """Run every DeepBench task through the full Plasticine path."""

    @pytest.fixture(scope="class")
    def results(self):
        return {
            t.name: ServingEngine("plasticine").serve(t).result for t in all_tasks()
        }

    def test_all_designs_fit_compute_and_bandwidth(self, results):
        for name, res in results.items():
            assert res.design.resources.fits_compute, name
            assert res.design.resources.fits_bandwidth, name

    def test_capacity_overflow_only_on_documented_tasks(self, results):
        # A known deviation from the paper: at fp8 the three largest
        # models do not fit on-chip, and the serve notes say so.
        over = sorted(
            name for name, res in results.items()
            if not res.design.resources.fits_capacity
        )
        assert over == ["gru-h2560-t375", "gru-h2816-t750", "lstm-h2048-t25"]
        for name in over:
            assert any("capacity" in note for note in results[name].notes)

    def test_power_between_static_and_tdp(self, results):
        model = AreaPowerModel()
        chip = PlasticineConfig.rnn_serving()
        tdp = model.chip_tdp_w(chip)
        for name, res in results.items():
            assert model.static_w < res.power_w < tdp, name

    def test_per_step_latency_interactive(self, results):
        # Every task serves a step in under 7 us — the real-time window.
        for name, res in results.items():
            per_step_us = res.latency_s / res.task.timesteps * 1e6
            assert per_step_us < 7.0, name

    def test_utilization_band(self, results):
        # Effective/peak-8bit between 7% and 40% across the whole suite
        # (paper: 3.8/49 ~ 8% to 15.8/49 ~ 32%).
        for name, res in results.items():
            util = res.effective_tflops / 49.0
            assert 0.05 < util < 0.45, name


class TestMapperSimulatorAgreement:
    @given(
        h=st.sampled_from([128, 256, 384]),
        hu=st.sampled_from([1, 2, 4]),
        ru=st.sampled_from([1, 2, 4]),
        kind=st.sampled_from(["lstm", "gru"]),
    )
    @settings(max_examples=16, deadline=None)
    def test_sim_matches_closed_form_on_real_designs(self, h, hu, ru, kind):
        t = RNNTask(kind, h, 3)
        prog = build_task_program(t, LoopParams(hu=hu, ru=ru, rv=64))
        design = map_rnn_program(prog)
        sim = simulate_pipeline(design.graph)
        assert sim.cycles_per_step == design.graph.analytic_step_cycles()

    @given(hu=st.sampled_from([1, 2, 3, 4, 6]))
    @settings(max_examples=6, deadline=None)
    def test_more_unroll_never_slower(self, hu):
        t = RNNTask("lstm", 512, 2)
        base = simulate_pipeline(
            map_rnn_program(build_task_program(t, LoopParams(hu=1, ru=4, rv=64))).graph
        )
        tuned = simulate_pipeline(
            map_rnn_program(build_task_program(t, LoopParams(hu=hu, ru=4, rv=64))).graph
        )
        assert tuned.cycles_per_step <= base.cycles_per_step

    def test_checkerboard_vs_variant_pmu_budget(self):
        # Section 4.2's sizing argument: at the same PCU count, a 1:1
        # checkerboard (24x16 -> 192 PCU / 192 PMU) cannot feed every dot
        # PCU its two PMUs (weights + [x,h] copy); the 2:1 variant can.
        from repro.plasticine.network import GridLayout
        from repro.plasticine.pcu import PCUConfig
        from repro.plasticine.pmu import PMUConfig

        checker = PlasticineConfig(
            name="checker-1to1",
            layout=GridLayout.checkerboard(24, 16),
            pcu=PCUConfig(lanes=16, stages=4),
            pmu=PMUConfig(),
        )
        t = task("lstm", 1024)
        prog = build_task_program(t, LoopParams(hu=4, ru=8, rv=64))
        on_checker = map_rnn_program(prog, checker)
        on_variant = map_rnn_program(prog, PlasticineConfig.rnn_serving())
        assert on_variant.resources.fits_bandwidth
        assert not on_checker.resources.fits_bandwidth


class TestServingResultContract:
    def test_notes_propagate_replication(self):
        res = ServingEngine("plasticine").serve(task("lstm", 256)).result
        assert any("replicated" in n for n in res.notes)

    def test_use_dse_flag(self):
        engine = ServingEngine("plasticine", use_dse=True)
        res = engine.serve(task("lstm", 256)).result
        assert res.design.resources.fits_compute

    def test_unknown_size_falls_back_to_dse(self):
        res = ServingEngine("plasticine").serve(RNNTask("lstm", 320, 4)).result
        assert res.latency_s > 0

    def test_effective_tflops_consistency(self):
        t = task("gru", 1024)
        res = ServingEngine("plasticine").serve(t).result
        assert res.effective_tflops == pytest.approx(
            t.flops / res.latency_s / 1e12, rel=1e-9
        )
