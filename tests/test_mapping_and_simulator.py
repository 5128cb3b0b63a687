"""Tests for the pipeline graph, mapper, and cycle-level simulator."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError, SimulationError
from repro.mapping import PipelineGraph, Stage, map_rnn_program
from repro.plasticine import PlasticineConfig, simulate_pipeline
from repro.rnn import GRUWeights, LSTMWeights, RNNShape, build_gru_program, build_lstm_program
from repro.rnn.lstm_loop import LoopParams
from repro.workloads.deepbench import RNNTask


def _chain(iis, lats, routes=None, n_iter=10, steps=1, overhead=0):
    g = PipelineGraph(name="chain", n_iterations=n_iter, steps=steps, step_overhead=overhead)
    names = []
    for k, (ii, lat) in enumerate(zip(iis, lats)):
        g.add_stage(Stage(f"s{k}", ii=ii, latency=lat))
        names.append(f"s{k}")
    routes = routes or [0] * (len(names) - 1)
    for a, b, r in zip(names, names[1:], routes):
        g.connect(a, b, r)
    return g


class TestPipelineGraph:
    def test_duplicate_stage_rejected(self):
        g = PipelineGraph("p", n_iterations=1, steps=1)
        g.add_stage(Stage("a", ii=1, latency=1))
        with pytest.raises(MappingError):
            g.add_stage(Stage("a", ii=1, latency=1))

    def test_unknown_edge_endpoint(self):
        g = PipelineGraph("p", n_iterations=1, steps=1)
        g.add_stage(Stage("a", ii=1, latency=1))
        with pytest.raises(MappingError):
            g.connect("a", "ghost")

    def test_cycle_detected(self):
        g = _chain([1, 1], [1, 1])
        g.connect("s1", "s0")
        with pytest.raises(MappingError):
            g.topological_order()

    def test_stage_validation(self):
        with pytest.raises(MappingError):
            Stage("bad", ii=0, latency=1)
        with pytest.raises(MappingError):
            Stage("bad", ii=1, latency=-1)
        with pytest.raises(MappingError):
            Stage("bad", ii=1, latency=1, n_pcus=-1)

    def test_critical_path_linear(self):
        g = _chain([1, 1, 1], [3, 2, 5], routes=[2, 4])
        assert g.critical_path_cycles() == 3 + 2 + 2 + 4 + 5

    def test_critical_path_diamond(self):
        g = PipelineGraph("d", n_iterations=4, steps=1)
        for name, lat in [("a", 1), ("b", 10), ("c", 2), ("d", 1)]:
            g.add_stage(Stage(name, ii=1, latency=lat))
        g.connect("a", "b")
        g.connect("a", "c")
        g.connect("b", "d")
        g.connect("c", "d")
        assert g.critical_path_cycles() == 1 + 10 + 1

    def test_topological_order_pinned_on_a_diamond(self):
        # Sources in insertion order, then successors in first-edge order;
        # the doubled left->sink edge counts once.
        g = PipelineGraph("d", n_iterations=1, steps=1)
        for name in ("sink", "left", "right", "src", "solo"):
            g.add_stage(Stage(name, ii=1, latency=1))
        for src, dst in [("src", "right"), ("src", "left"), ("right", "sink"),
                         ("left", "sink"), ("left", "sink")]:
            g.connect(src, dst)
        assert g.topological_order() == ["src", "solo", "right", "left", "sink"]

    def test_topological_order_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(2019)
        for case in range(500):
            names = [f"s{k}" for k in range(rng.randint(1, 12))]
            rank = {name: k for k, name in enumerate(names)}
            rng.shuffle(names)  # insertion order differs from the ranking
            g = PipelineGraph("r", n_iterations=1, steps=1)
            ref = nx.DiGraph()
            for name in names:
                g.add_stage(Stage(name, ii=1, latency=1))
                ref.add_node(name)
            for _ in range(rng.randint(0, 2 * len(names))):
                a, b = rng.sample(names, 2) if len(names) > 1 else (names[0], names[0])
                if rank[a] > rank[b] and rng.random() > 0.02:
                    a, b = b, a  # mostly DAGs; a few back edges make cycles
                g.connect(a, b)
                ref.add_edge(a, b)
            if nx.is_directed_acyclic_graph(ref):
                assert g.topological_order() == list(nx.topological_sort(ref)), case
            else:
                with pytest.raises(MappingError, match="cycle"):
                    g.topological_order()

    def test_resources_scale_with_replicas(self):
        g = _chain([1], [1])
        g.stages["s0"] = Stage("s0", ii=1, latency=1, n_pcus=3, n_pmus=2)
        g.replicas = 4
        assert g.total_pcus() == 12
        assert g.total_pmus() == 8


class TestSimulator:
    def test_single_stage_throughput(self):
        g = _chain([2], [5], n_iter=10)
        sim = simulate_pipeline(g)
        # 9 intervals of II=2 plus latency 5.
        assert sim.cycles_per_step == 9 * 2 + 5

    def test_matches_analytic_closed_form_chain(self):
        g = _chain([3, 1, 2], [4, 2, 6], routes=[1, 2], n_iter=17)
        sim = simulate_pipeline(g)
        assert sim.cycles_per_step == g.analytic_step_cycles()

    @given(
        n_stages=st.integers(1, 6),
        n_iter=st.integers(1, 40),
        seed=st.integers(0, 999),
    )
    @settings(max_examples=60, deadline=None)
    def test_event_sim_equals_closed_form_random_chains(self, n_stages, n_iter, seed):
        rng = np.random.default_rng(seed)
        iis = rng.integers(1, 9, n_stages).tolist()
        lats = rng.integers(0, 12, n_stages).tolist()
        routes = rng.integers(0, 5, max(n_stages - 1, 0)).tolist()
        g = _chain(iis, lats, routes, n_iter=n_iter)
        sim = simulate_pipeline(g)
        assert sim.cycles_per_step == g.analytic_step_cycles()

    def test_parallel_branches_join(self):
        g = PipelineGraph("fork", n_iterations=8, steps=1)
        g.add_stage(Stage("src", ii=1, latency=1))
        g.add_stage(Stage("fast", ii=1, latency=2))
        g.add_stage(Stage("slow", ii=4, latency=9))
        g.add_stage(Stage("join", ii=1, latency=1))
        g.connect("src", "fast")
        g.connect("src", "slow")
        g.connect("fast", "join")
        g.connect("slow", "join")
        sim = simulate_pipeline(g)
        assert sim.cycles_per_step == g.analytic_step_cycles()

    def test_sequential_steps_multiply(self):
        g1 = _chain([2], [3], n_iter=5, steps=1, overhead=7)
        g4 = _chain([2], [3], n_iter=5, steps=4, overhead=7)
        s1, s4 = simulate_pipeline(g1), simulate_pipeline(g4)
        assert s4.total_cycles == 4 * s1.total_cycles

    def test_empty_pipeline_rejected(self):
        g = _chain([1], [1], n_iter=0)
        with pytest.raises(SimulationError):
            simulate_pipeline(g)

    def test_no_time_steps_rejected(self):
        with pytest.raises(SimulationError, match="'chain' has no time steps"):
            simulate_pipeline(_chain([1], [1], steps=0))

    def test_activity_busy_cycles(self):
        g = _chain([2, 4], [1, 1], n_iter=10)
        sim = simulate_pipeline(g)
        act = sim.activities["s1"]
        assert act.busy_cycles == 40
        assert sim.cycles_per_step > 0

    def test_busy_unit_cycles(self):
        g = _chain([1], [0], n_iter=10)
        g.stages["s0"] = Stage("s0", ii=1, latency=0, n_pcus=2)
        g.replicas = 3
        sim = simulate_pipeline(g)
        assert sim.busy_unit_cycles(g, "pcu") == 10 * 1 * 2 * 3


def _lstm_design(h=256, t=2, hu=4, ru=4, chip=None):
    shape = RNNShape("lstm", h, h)
    w = LSTMWeights.random(shape, rng=0)
    xs = np.zeros((t, h))
    prog = build_lstm_program(w, xs, LoopParams(hu=hu, ru=ru, rv=64))
    return map_rnn_program(prog, chip)


class TestMapper:
    def test_lstm_structure(self):
        design = _lstm_design()
        assert len(design.gates) == 4
        assert design.hu == 4
        assert design.n_iterations == 64
        assert design.steps == 2
        names = set(design.graph.stages)
        assert {"load_x", "ew", "writeback"} <= names
        assert sum(1 for n in names if n.startswith("dot_")) == 4
        assert sum(1 for n in names if n.startswith("accum_")) == 4

    def test_lstm_dot_ii(self):
        # H=256: R=512, rv=64, ru=4 -> ceil(8/4) = 2 blocks per iteration.
        design = _lstm_design()
        for gate in design.gates:
            assert gate.issue_blocks == 2

    def test_gru_groups_parts_by_gate(self):
        shape = RNNShape("gru", 128, 128)
        w = GRUWeights.random(shape, rng=0)
        prog = build_gru_program(w, np.zeros((2, 128)), LoopParams(hu=2, ru=2, rv=64))
        design = map_rnn_program(prog)
        assert len(design.gates) == 3
        # Each GRU gate has two part-dots whose blocks add up.
        for gate in design.gates:
            assert len(gate.reduces) == 2
            assert gate.issue_blocks == 2  # ceil(ceil(128/64)/2) * 2 parts

    def test_resource_counts_lstm(self):
        design = _lstm_design(h=1024, hu=4, ru=8)
        # dots: 4 gates x 8 ru x 4 hu = 128; accum: 4x2x4=32; ew: 2x4=8.
        assert design.resources.pcus_used == 168
        assert design.resources.fits_compute

    def test_infeasible_hu_flagged(self):
        # LSTM hu=5, ru=8 needs 210 PCUs > 190 usable.
        design = _lstm_design(h=1024, hu=5, ru=8)
        assert design.resources.pcus_used > design.resources.pcus_available
        assert not design.resources.fits_compute

    def test_capacity_overflow_flagged(self):
        design = _lstm_design(h=2048, hu=4, ru=8)
        assert not design.resources.fits_capacity
        assert design.resources.bytes_used > design.resources.onchip_bytes

    def test_small_fits_everything(self):
        res = _lstm_design(h=256).resources
        assert res.fits_compute and res.fits_bandwidth and res.fits_capacity

    def test_summary_flags_each_overflow(self):
        assert _lstm_design(h=256).resources.summary().endswith("[fits]")
        over_pcu = _lstm_design(h=1024, hu=5, ru=8).resources.summary()
        assert "OVER-PCU" in over_pcu and "OVER-CAPACITY" not in over_pcu
        over_mem = _lstm_design(h=2048, hu=4, ru=8).resources.summary()
        assert "OVER-CAPACITY" in over_mem and "OVER-PCU" not in over_mem
        res = _lstm_design(h=256).resources
        starved = dataclasses.replace(res, pmus_available=res.pmus_used - 1)
        assert "OVER-PMU" in starved.summary()
        assert "OVER-PMU" not in res.summary()

    def test_rejects_non_rnn_program(self):
        from repro.spatial import Foreach, Program, Range

        prog = Program("plain")
        x = prog.sram("x", (8,))

        @prog.main
        def body():
            Foreach(Range(8), lambda i: x.write(x[i] * 2.0, i))

        with pytest.raises(MappingError):
            map_rnn_program(prog)

    def test_step_cycles_model_lstm1024(self):
        # The reverse-engineered Table 6 structure:
        # cycles/step ~ ceil(H/hu) * ceil(R/(rv*ru)) + drain.
        design = _lstm_design(h=1024, t=25, hu=4, ru=8)
        sim = simulate_pipeline(design.graph)
        issue = 256 * 4
        drain = sim.cycles_per_step - issue
        assert 100 < drain < 230  # placed critical path, not a constant

    def test_paper_table6_lstm1024_latency(self):
        # Paper: 0.0292 ms. Accept +-10%.
        design = _lstm_design(h=1024, t=25, hu=4, ru=8)
        sim = simulate_pipeline(design.graph)
        ms = sim.total_cycles / 1e6
        assert ms == pytest.approx(0.0292, rel=0.10)

    def test_isca_chip_cannot_map_lowprecision(self):
        # The original 6-stage chip lacks fused/folded low-precision
        # support: an 8-bit map-reduce does not fit its PCU.
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            _lstm_design(chip=PlasticineConfig.isca2017())

    def test_bits_change_rv_requirement(self):
        # At 32-bit, one PCU consumes 16 weights/cycle, so rv=64 gangs
        # 4 PCUs per MapReduce unit.
        shape = RNNShape("lstm", 256, 256)
        w = LSTMWeights.random(shape, rng=0)
        prog = build_lstm_program(w, np.zeros((2, 256)), LoopParams(hu=2, ru=2, rv=64))
        d8 = map_rnn_program(prog, bits=8)
        d32 = map_rnn_program(prog, bits=32)
        assert d32.resources.pcus_used > d8.resources.pcus_used


class TestServingAPI:
    def test_plasticine_result_fields(self):
        from repro.serving import ServingEngine

        task = RNNTask("lstm", 256, 5)
        engine = ServingEngine("plasticine", params=LoopParams(hu=2, ru=2, rv=64))
        res = engine.serve(task).result
        assert res.platform == "plasticine"
        assert res.latency_s > 0
        assert res.effective_tflops > 0
        assert res.power_w is not None and 10 <= res.power_w <= 160
        assert res.design is not None

    def test_speedup_over(self):
        from repro.serving import ServingEngine

        task = RNNTask("lstm", 512, 25)
        p = ServingEngine("plasticine").serve(task).result
        g = ServingEngine("gpu").serve(task).result
        assert p.speedup_over(g) == pytest.approx(g.latency_s / p.latency_s)
        assert p.speedup_over(g) > 1
