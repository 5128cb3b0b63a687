"""The paper's abstract, as a benchmark.

"...a geometric speedup of 30x in performance, 1.6x in area, and 2x in
power efficiency compared to a Tesla V100 GPU, and a geometric speedup
of 2x compared to Microsoft Brainwave implementation on a Stratix 10
FPGA."

Runs the whole evaluation once and checks every quantitative claim.
"""

from repro.analysis.efficiency import abstract_claims


def test_abstract_claims(benchmark, artifact):
    report = benchmark.pedantic(abstract_claims, rounds=1, iterations=1)
    artifact("abstract_claims", report.text)
    failing = [c.claim for c in report.checks if not c.holds]
    assert not failing, f"claims outside the shape band: {failing}"


def test_within_5ms_claim(benchmark, artifact):
    # Section 5.2: "Both BW and Plasticine deliver promising latencies
    # within 5ms for all problem sizes" — checked for every per-request
    # task (T <= 375; the T=1500 GRU is a 1500-step sequence whose
    # per-step latency is ~1 us).
    from repro.harness.report import format_table
    from repro.serving import ServingEngine
    from repro.workloads.deepbench import table6_tasks

    def sweep():
        rows = []
        for t in table6_tasks():
            pl = ServingEngine("plasticine").serve(t).result
            bw = ServingEngine("brainwave").serve(t).result
            rows.append([t.name, pl.latency_ms, bw.latency_ms])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    artifact(
        "claims_5ms",
        format_table(
            ["task", "plasticine ms", "brainwave ms"],
            rows,
            title="Section 5.2: spatial architectures within 5 ms",
        ),
    )
    for name, pl_ms, bw_ms in rows:
        t_steps = int(name.split("-t")[1])
        if t_steps <= 375:
            assert pl_ms < 5.0, name
            assert bw_ms < 5.0, name
