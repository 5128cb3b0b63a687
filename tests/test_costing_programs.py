"""Costing builds data-free programs.

:func:`repro.dse.search.build_task_program` declares a cell's memories
and loop nest and binds no data.  Mapping and cycle simulation read only
that declaration, and an unbound SRAM runs as zeros, so the data-free
program must map, simulate and compute exactly what the same cell built
with explicit all-zero weights and inputs does.  The differential cases
cover both cell kinds at hidden sizes with whole and padded rv-blocks,
with unroll factors drawn from a fixed seed, and each is compared at
every precision and pass config.  An allocation bound on the largest
DeepBench task pins that costing never allocates the weight SRAMs.
"""

import random
import tracemalloc

import numpy as np
import pytest

from repro.dse import paper_params
from repro.dse.search import build_task_program
from repro.errors import ConfigError
from repro.mapping import map_rnn_program
from repro.mapping.passes import PassConfig, diff_designs
from repro.plasticine import simulate_pipeline
from repro.rnn import (
    GRUWeights,
    LSTMWeights,
    RNNShape,
    build_gru_program,
    build_lstm_program,
    declare_gru_program,
    declare_lstm_program,
)
from repro.rnn.lstm_loop import LoopParams
from repro.workloads.deepbench import RNNTask, task

PASS_CONFIGS = [
    PassConfig(fuse_gates=fuse, double_buffer=double)
    for fuse in (False, True)
    for double in (False, True)
]


def _draw_cases(seed: int = 14) -> list[tuple]:
    """Both kinds at a whole and two padded rv-block counts; seeded unrolls."""
    rng = random.Random(seed)
    return [
        (kind, hidden, rng.randint(1, 4), rng.choice((1, 2, 4)))
        for kind in ("lstm", "gru")
        for hidden in (64, 100, 200)
    ]


CASES = _draw_cases()


def _zero_data_program(t: RNNTask, params: LoopParams):
    """The same cell through the data-binding builder, all zeros bound."""
    shape = t.shape
    cls, build = (
        (LSTMWeights, build_lstm_program) if t.kind == "lstm" else (GRUWeights, build_gru_program)
    )
    weights = cls(
        shape=shape,
        w={g: np.zeros((shape.hidden, shape.concat_dim)) for g in shape.gate_names},
        b={g: np.zeros(shape.hidden) for g in shape.gate_names},
    )
    return build(weights, np.zeros((t.timesteps, shape.input_dim)), params)


@pytest.mark.parametrize(
    "kind,hidden,hu,ru", CASES, ids=[f"{k}-{h}-hu{hu}-ru{ru}" for k, h, hu, ru in CASES]
)
def test_data_free_program_matches_zero_weights(kind, hidden, hu, ru):
    t = RNNTask(kind, hidden, 3, in_table6=False)
    params = LoopParams(hu=hu, ru=ru, rv=64)
    free = build_task_program(t, params)
    bound = _zero_data_program(t, params)
    assert free.data == {}
    assert "x_seq" in bound.data and f"b{t.shape.gate_names[0]}" in bound.data
    for bits in (8, 16, 32):
        for pass_config in PASS_CONFIGS:
            a = map_rnn_program(free, bits=bits, pass_config=pass_config)
            b = map_rnn_program(bound, bits=bits, pass_config=pass_config)
            assert diff_designs(a, b) == [], (bits, pass_config)
            assert simulate_pipeline(a.graph) == simulate_pipeline(b.graph)
    y_free = free.run().state["y_seq"]
    np.testing.assert_array_equal(y_free, bound.run().state["y_seq"])
    # The LUTs have no entry at exactly 0, so the outputs are not trivially 0.
    assert np.any(y_free != 0.0)


def test_costing_build_allocates_no_weight_memory():
    # Binding zero weights here would allocate ~363 MB (six padded
    # 2816 x 2816 float64 weight SRAMs); a declaration is a few kilobytes.
    t = task("gru", 2816)
    params = paper_params(t)
    tracemalloc.start()
    try:
        build_task_program(t, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_declare_checks_the_cell_kind():
    with pytest.raises(ConfigError, match="requires an lstm shape"):
        declare_lstm_program(RNNShape("gru", 8, 8), 2)
    with pytest.raises(ConfigError, match="requires a gru shape"):
        declare_gru_program(RNNShape("lstm", 8, 8), 2)
