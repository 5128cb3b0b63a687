"""Table 6, baseline columns: CPU, GPU, and Brainwave latencies.

Each benchmark sweeps the ten DeepBench points through one platform model
and checks the shape against the paper: per-row tolerance bands reflect
each model's documented fidelity (CPU ±25%, Brainwave ±25%, GPU ±70%;
each run writes its per-row ratios to ``benchmarks/out/table6_*.txt``).
"""

import pytest

from repro.harness.paper_data import paper_row
from repro.harness.report import format_table
from repro.serving import ServingEngine
from repro.workloads.deepbench import table6_tasks


def _sweep(platform: str):
    engine = ServingEngine(platform)
    return {task.name: engine.serve(task).result for task in table6_tasks()}


def test_cpu_column(benchmark, artifact):
    results = benchmark(_sweep, "cpu")
    rows = []
    for task in table6_tasks():
        paper_ms = paper_row(task.kind, task.hidden).latency_cpu_ms
        measured = results[task.name].latency_ms
        rows.append([task.name, measured, paper_ms, measured / paper_ms])
        assert measured == pytest.approx(paper_ms, rel=0.25), task.name
    artifact(
        "table6_cpu",
        format_table(
            ["task", "cpu ms", "paper ms", "ratio"], rows,
            title="Table 6 (CPU column): Xeon Skylake model vs paper",
        ),
    )


def test_gpu_column(benchmark, artifact):
    results = benchmark(_sweep, "gpu")
    rows = []
    for task in table6_tasks():
        paper_ms = paper_row(task.kind, task.hidden).latency_gpu_ms
        measured = results[task.name].latency_ms
        rows.append([task.name, measured, paper_ms, measured / paper_ms])
        assert measured == pytest.approx(paper_ms, rel=0.70), task.name
    artifact(
        "table6_gpu",
        format_table(
            ["task", "gpu ms", "paper ms", "ratio"], rows,
            title="Table 6 (GPU column): Tesla V100 model vs paper",
        ),
    )


def test_brainwave_column(benchmark, artifact):
    results = benchmark(_sweep, "brainwave")
    rows = []
    for task in table6_tasks():
        paper_ms = paper_row(task.kind, task.hidden).latency_bw_ms
        measured = results[task.name].latency_ms
        rows.append([task.name, measured, paper_ms, measured / paper_ms])
        assert measured == pytest.approx(paper_ms, rel=0.25), task.name
    artifact(
        "table6_brainwave",
        format_table(
            ["task", "bw ms", "paper ms", "ratio"], rows,
            title="Table 6 (Brainwave column): Stratix 10 model vs paper",
        ),
    )


def test_brainwave_flat_latency_region(benchmark):
    # The structural signature: BW per-step latency is nearly constant
    # across LSTM sizes (instruction-chain bound).
    from repro.baselines import BrainwaveServingModel
    from repro.workloads.deepbench import RNNTask

    model = BrainwaveServingModel()

    def steps():
        return [
            model.step_trace(RNNTask("lstm", h, 25)).step_cycles
            for h in (256, 512, 1024, 1536, 2048)
        ]

    cycles = benchmark(steps)
    assert max(cycles) / min(cycles) < 1.2
