"""Property tests for the cycle-level simulator on random pipeline DAGs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping import PipelineGraph, Stage
from repro.plasticine import simulate_pipeline


def _random_dag(rng: np.random.Generator, n_stages: int, n_iter: int) -> PipelineGraph:
    """A random layered DAG: every stage connects to 1-2 later stages."""
    g = PipelineGraph("rand", n_iterations=n_iter, steps=1)
    for k in range(n_stages):
        g.add_stage(
            Stage(f"s{k}", ii=int(rng.integers(1, 8)), latency=int(rng.integers(0, 10)))
        )
    for k in range(n_stages - 1):
        targets = rng.choice(
            np.arange(k + 1, n_stages),
            size=min(int(rng.integers(1, 3)), n_stages - 1 - k),
            replace=False,
        )
        for t in targets:
            g.connect(f"s{k}", f"s{int(t)}", int(rng.integers(0, 6)))
    return g


class TestSimulatorDAGProperties:
    @given(
        seed=st.integers(0, 10_000),
        n_stages=st.integers(2, 8),
        n_iter=st.integers(1, 50),
    )
    @settings(max_examples=80, deadline=None)
    def test_event_sim_bounded_by_closed_forms(self, seed, n_stages, n_iter):
        # On arbitrary DAGs the closed form is an upper bound (exact when
        # a bottleneck-II stage lies on the critical path, as in every
        # mapped RNN design); the throughput and latency bounds are lower
        # bounds.
        g = _random_dag(np.random.default_rng(seed), n_stages, n_iter)
        sim = simulate_pipeline(g)
        upper = g.analytic_step_cycles()
        lower = max(g.critical_path_cycles(), (n_iter - 1) * g.bottleneck_ii)
        assert lower <= sim.cycles_per_step <= upper

    @given(seed=st.integers(0, 2_000), n_iter=st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_more_iterations_never_faster(self, seed, n_iter):
        rng = np.random.default_rng(seed)
        g1 = _random_dag(rng, 5, n_iter)
        g2 = PipelineGraph("rand", n_iterations=n_iter + 5, steps=1)
        for s in g1.stages.values():
            g2.add_stage(s)
        g2.edges = list(g1.edges)
        assert simulate_pipeline(g2).cycles_per_step >= simulate_pipeline(g1).cycles_per_step

    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=40, deadline=None)
    def test_raising_an_ii_never_faster(self, seed):
        rng = np.random.default_rng(seed)
        g = _random_dag(rng, 5, 20)
        base = simulate_pipeline(g).cycles_per_step
        victim = rng.choice(list(g.stages))
        s = g.stages[victim]
        g.stages[victim] = Stage(s.name, ii=s.ii + 3, latency=s.latency)
        assert simulate_pipeline(g).cycles_per_step >= base

    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=40, deadline=None)
    def test_adding_route_latency_never_faster(self, seed):
        rng = np.random.default_rng(seed)
        g = _random_dag(rng, 5, 20)
        base = simulate_pipeline(g).cycles_per_step
        g.edges = [(a, b, r + 2) for a, b, r in g.edges]
        assert simulate_pipeline(g).cycles_per_step >= base

    @given(seed=st.integers(0, 2_000), steps=st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_total_cycles_linear_in_steps(self, seed, steps):
        g = _random_dag(np.random.default_rng(seed), 4, 12)
        g.step_overhead = 9
        g.steps = steps
        sim = simulate_pipeline(g)
        assert sim.total_cycles == steps * (sim.cycles_per_step + 9)

    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=30, deadline=None)
    def test_every_stage_busy_and_exits_within_step(self, seed):
        g = _random_dag(np.random.default_rng(seed), 6, 25)
        sim = simulate_pipeline(g)
        assert sim.cycles_per_step > 0
        for act in sim.activities.values():
            assert act.busy_cycles > 0
            assert act.exit_last <= sim.cycles_per_step

    def test_single_iteration_is_pure_latency(self):
        g = PipelineGraph("one", n_iterations=1, steps=1)
        g.add_stage(Stage("a", ii=100, latency=3))
        g.add_stage(Stage("b", ii=50, latency=4))
        g.connect("a", "b", 2)
        # With one iteration, IIs are irrelevant: latency path only.
        assert simulate_pipeline(g).cycles_per_step == 3 + 2 + 4


class TestVisualization:
    def test_placement_map_renders(self):
        from repro.dse.search import build_task_program
        from repro.mapping import map_rnn_program
        from repro.mapping.visualize import placement_map
        from repro.rnn.lstm_loop import LoopParams
        from repro.workloads.deepbench import RNNTask

        design = map_rnn_program(
            build_task_program(RNNTask("lstm", 512, 2), LoopParams(hu=4, ru=4, rv=64))
        )
        text = placement_map(design, max_rows=8)
        assert "legend" in text
        assert "D" in text and "w" in text and "x" in text and "E" in text
        # Grid lines have the chip's column count.
        grid_lines = text.splitlines()[2:10]
        assert all(len(line.split(" ")) == 24 for line in grid_lines)

    def test_placement_map_full_grid(self):
        from repro.dse.search import build_task_program
        from repro.mapping import map_rnn_program
        from repro.mapping.visualize import placement_map
        from repro.rnn.lstm_loop import LoopParams
        from repro.workloads.deepbench import RNNTask

        design = map_rnn_program(
            build_task_program(RNNTask("gru", 256, 2), LoopParams(hu=2, ru=2, rv=64))
        )
        text = placement_map(design)
        assert len(text.splitlines()) == 24 + 2
