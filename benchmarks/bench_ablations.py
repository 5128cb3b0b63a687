"""Ablation benchmarks for the paper's design choices.

Not figures from the paper, but the quantified versions of its design
arguments: what each micro-architectural choice (precision packing,
cross-kernel fusion, parameter tuning) buys on the headline workload.
"""

import numpy as np
import pytest

from repro.harness.report import format_table
from repro.rnn.lstm_loop import LoopParams
from repro.serving import ServingEngine
from repro.workloads.deepbench import task


def test_precision_packing_ablation(benchmark, artifact):
    # 8-bit packing quadruples per-PCU dot width; serving at 32-bit needs
    # 4x the PCUs for the same rv, or 4x the initiation interval.
    t = task("lstm", 1024)

    def measure():
        rows = []
        for bits, rv in ((8, 64), (16, 32), (32, 16)):
            engine = ServingEngine(
                "plasticine", params=LoopParams(hu=4, ru=8, rv=rv), bits=bits
            )
            res = engine.serve(t).result
            rows.append([f"{bits}-bit (rv={rv})", res.latency_ms, res.effective_tflops])
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    artifact(
        "ablation_precision",
        format_table(
            ["precision", "latency ms", "effective TFLOPS"],
            rows,
            title="Ablation: weight precision vs serving latency (LSTM 1024)",
        ),
    )
    lat8, lat16, lat32 = (r[1] for r in rows)
    assert lat8 < lat16 < lat32
    # Halving the packing roughly doubles the dot-product II.
    assert lat16 / lat8 == pytest.approx(2.0, rel=0.35)


def test_parameter_sensitivity_ablation(benchmark, artifact):
    # Mistuning the knobs costs real latency: the DSE's job.
    t = task("lstm", 2048)

    def measure():
        rows = []
        for hu, ru in ((1, 1), (1, 8), (4, 4), (4, 8)):
            engine = ServingEngine("plasticine", params=LoopParams(hu=hu, ru=ru, rv=64))
            res = engine.serve(t).result
            rows.append([f"hu={hu} ru={ru}", res.latency_ms])
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    artifact(
        "ablation_parameters",
        format_table(
            ["parameters", "latency ms"],
            rows,
            title="Ablation: loop-knob sensitivity (LSTM 2048)",
        ),
    )
    latencies = [r[1] for r in rows]
    assert latencies == sorted(latencies, reverse=True)
    assert latencies[0] / latencies[-1] > 20  # untuned is >20x slower


def test_sequential_timestep_cost(benchmark):
    # The h_t feedback forbids cross-step pipelining: per-step cost is
    # constant, total scales linearly in T.
    def scale():
        r5 = ServingEngine("plasticine").serve(task("lstm", 1024, 5)).result
        r25 = ServingEngine("plasticine").serve(task("lstm", 1024, 25)).result
        return r25.latency_s / r5.latency_s

    assert benchmark.pedantic(scale, rounds=1, iterations=1) == pytest.approx(5.0, rel=0.01)


def test_functional_fidelity_under_serving_precision(benchmark):
    # End-to-end: the mixed-precision datapath still computes an LSTM
    # whose outputs track the fp32 reference.
    from repro.precision import FP8, FP16
    from repro.rnn import LSTMWeights, RNNShape, build_lstm_program, lstm_sequence
    from repro.spatial import PrecisionPolicy

    shape = RNNShape("lstm", 32, 32)
    w = LSTMWeights.random(shape, rng=11)
    xs = np.random.default_rng(12).uniform(-1, 1, (8, 32))

    def run():
        prog = build_lstm_program(
            w, xs, LoopParams(hu=4, ru=2, rv=16), weight_dtype=FP8, state_dtype=FP16
        )
        ex = prog.run(policy=PrecisionPolicy.plasticine_mixed())
        return ex.state["y_seq"]

    quantized = benchmark.pedantic(run, rounds=2, iterations=1)
    reference, _, _ = lstm_sequence(w, xs)
    corr = np.corrcoef(quantized.ravel(), reference.ravel())[0, 1]
    assert corr > 0.97
