"""Tests for the DeepBench suite and the DSE."""

import pytest

from repro.dse import ParameterSpace, paper_params, search, tune
from repro.dse.search import build_task_program, evaluate
from repro.errors import DSEError, WorkloadError
from repro.plasticine import PlasticineConfig
from repro.rnn.lstm_loop import LoopParams
from repro.workloads import GRU_TASKS, LSTM_TASKS, RNNTask, all_tasks, table6_tasks, task


class TestDeepBenchSuite:
    def test_table6_has_ten_points(self):
        assert len(table6_tasks()) == 10

    def test_suite_includes_gru2816(self):
        names = [t.name for t in all_tasks()]
        assert "gru-h2816-t750" in names
        assert not task("gru", 2816).in_table6

    def test_lstm_points_match_paper(self):
        pts = [(t.hidden, t.timesteps) for t in LSTM_TASKS]
        assert pts == [(256, 150), (512, 25), (1024, 25), (1536, 50), (2048, 25)]

    def test_gru_points_match_paper(self):
        pts = [(t.hidden, t.timesteps) for t in GRU_TASKS]
        assert pts == [
            (512, 1), (1024, 1500), (1536, 375), (2048, 375), (2560, 375), (2816, 750),
        ]

    def test_flops_accounting(self):
        # LSTM 2048 T=25: 25 * 2*4*2048*4096 = 1.678 GFLOP; at the paper's
        # 0.106 ms this is 15.8 effective TFLOPS (Table 6).
        t = task("lstm", 2048)
        assert t.flops == 25 * 2 * 4 * 2048 * 4096
        assert t.effective_tflops(0.106e-3) == pytest.approx(15.8, rel=0.01)

    def test_batch_field_is_gone(self):
        # Regression for the removed RNNTask.batch wart: the field was
        # always 1 and silently ignored by serve_batched.  Batch sizes
        # are a serving-policy outcome (ServingResult.batch_size), not a
        # task attribute, and constructing a task with one must fail
        # loudly rather than be dropped on the floor.
        with pytest.raises(TypeError):
            RNNTask("lstm", 512, 25, batch=1)
        with pytest.raises(TypeError):
            RNNTask("lstm", 512, 25, 1)  # old positional batch slot
        assert not any(hasattr(t, "batch") for t in all_tasks())

    def test_suite_is_single_layer_fixed_length(self):
        assert all(t.layers == 1 and t.decoder_timesteps == 0 for t in all_tasks())
        assert all(t.total_steps == t.timesteps for t in all_tasks())

    def test_lookup_errors(self):
        with pytest.raises(WorkloadError):
            task("lstm", 333)  # unknown size without timesteps
        assert task("lstm", 333, 7).timesteps == 7  # explicit construction

    def test_validation(self):
        with pytest.raises(WorkloadError):
            RNNTask("rnn", 256, 10)
        with pytest.raises(WorkloadError):
            RNNTask("lstm", 0, 10)
        with pytest.raises(WorkloadError):
            task("lstm", 256).effective_tflops(0.0)

    def test_weight_bytes(self):
        t = task("lstm", 1024)
        assert t.weight_bytes(1) == 4 * 1024 * 2048


class TestParameterSpace:
    def test_rv_pinned_to_pcu_width(self):
        space = ParameterSpace()
        chip = PlasticineConfig.rnn_serving()
        assert space.rv_for(chip, 8) == 64
        assert space.rv_for(chip, 32) == 16

    def test_candidates_respect_pcu_bound(self):
        space = ParameterSpace()
        chip = PlasticineConfig.rnn_serving()
        for p in space.candidates(task("lstm", 1024), chip):
            assert 4 * p.hu * p.ru <= chip.usable_pcus

    def test_ru_never_exceeds_blocks(self):
        space = ParameterSpace()
        chip = PlasticineConfig.rnn_serving()
        # H=256: R=512 -> 8 blocks of rv=64; ru=16 must be pruned.
        rus = {p.ru for p in space.candidates(task("lstm", 256), chip)}
        assert 16 not in rus

    def test_empty_space_rejected(self):
        with pytest.raises(DSEError):
            ParameterSpace(max_hu=0)
        with pytest.raises(DSEError):
            ParameterSpace(ru_choices=())

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"ru_choices": (4, 0)}, "ru must be >= 1"), ({"pass_configs": ()}, "empty pass-config axis")],
        ids=["ru-zero", "no-pass-configs"],
    )
    def test_bad_axis_rejected(self, kwargs, message):
        with pytest.raises(DSEError, match=message):
            ParameterSpace(**kwargs)


class TestSearch:
    def test_search_small_lstm(self):
        res = search(task("lstm", 256), space=ParameterSpace(max_hu=6, ru_choices=(2, 4, 8)))
        assert res.best.fits
        assert res.best.total_cycles == min(p.total_cycles for p in res.feasible_points())

    def test_dse_beats_or_matches_paper_params(self):
        # The DSE optimum is never slower than the reconstructed paper
        # choice under the same constraints.
        t = task("lstm", 1024)
        chip = PlasticineConfig.rnn_serving()
        res = tune(t, chip, ParameterSpace(max_hu=8, ru_choices=(4, 8)))
        paper_point = evaluate(t, paper_params(t), chip)
        assert res.best.total_cycles <= paper_point.total_cycles

    def test_large_lstm_maxes_dot_resources(self):
        # Section 5.2: large problems spend the PCU budget on the dot
        # product (hu * ru maxed under the 190-PCU constraint; hu=4/ru=8
        # and hu=8/ru=4 tie to within the drain).
        res = tune(task("lstm", 2048), space=ParameterSpace(max_hu=8, ru_choices=(2, 4, 8)))
        assert res.best_params.hu * res.best_params.ru == 32

    def test_lstm_hu5_ru8_infeasible(self):
        # 4 gates x 5 x 8 map-reduce PCUs + accum + ew > 190 usable PCUs.
        point = evaluate(task("lstm", 1024), LoopParams(hu=5, ru=8, rv=64),
                         PlasticineConfig.rnn_serving())
        assert not point.fits

    def test_gru_hu5_ru8_feasible(self):
        point = evaluate(task("gru", 1024), LoopParams(hu=5, ru=8, rv=64),
                         PlasticineConfig.rnn_serving())
        assert point.fits

    def test_build_task_program_zero_weights(self):
        prog = build_task_program(task("lstm", 256), LoopParams(hu=2, ru=2, rv=64))
        assert prog.trace() is not None
        # Costing binds no data: every SRAM runs as zeros.
        assert prog.data == {}


class TestPaperParams:
    def test_all_table_points_covered(self):
        for t in all_tasks():
            p = paper_params(t)
            assert p is not None
            assert p.rv == 64
            assert p.hv == 1

    def test_unknown_task_returns_none(self):
        assert paper_params(RNNTask("lstm", 300, 10)) is None

    def test_paper_params_always_feasible(self):
        chip = PlasticineConfig.rnn_serving()
        for t in all_tasks():
            point = evaluate(t, paper_params(t), chip)
            assert point.fits, t.name
