#!/usr/bin/env python3
"""Design-space exploration over the loop knobs (paper Table 7).

For one DeepBench task, map and cycle-simulate every (hu, ru) candidate
on the Table 3 chip, print the full frontier with resource usage and
feasibility, and compare the optimum against the paper's choice.

Shows the paper's Section 5.2 tuning rule emerging from the search:
small problems unroll the hidden dimension (hu), large problems shift
PCUs to the dot product (ru) — and infeasible points (e.g. LSTM hu=5,
ru=8 needing 210 of 190 usable PCUs) are rejected by resource checks,
not by hand.

Run: python examples/dse_tuning.py [lstm|gru] [hidden]
"""

import sys

from repro.dse import paper_params, tune
from repro.dse.search import evaluate
from repro.harness.report import format_table
from repro.plasticine import PlasticineConfig
from repro.workloads.deepbench import task


def main() -> None:
    kind = sys.argv[1] if len(sys.argv) > 1 else "lstm"
    hidden = int(sys.argv[2]) if len(sys.argv) > 2 else 1024
    t = task(kind, hidden)
    chip = PlasticineConfig.rnn_serving()

    print(f"DSE for {t.name} on {chip.name} "
          f"({chip.usable_pcus} usable PCUs, {chip.n_pmu} PMUs)\n")

    result = tune(t, chip, prune=False)
    rows = []
    for point in sorted(result.points, key=lambda p: p.total_cycles):
        rows.append(
            [
                f"hu={point.params.hu} ru={point.params.ru}",
                point.cycles_per_step,
                round(point.total_cycles / 1e6, 4),
                point.pcus_used,
                point.pmus_used,
                "yes" if point.fits else "NO",
                "<== best" if point is result.best else "",
            ]
        )
    print(
        format_table(
            ["params", "cycles/step", "latency ms", "PCUs", "PMUs", "fits", ""],
            rows[:20],
            title=f"Design points (best 20 of {len(rows)})",
        )
    )

    pp = paper_params(t)
    if pp is not None:
        paper_point = evaluate(t, pp, chip)
        best = result.best
        print(f"\npaper choice  hu={pp.hu} ru={pp.ru}: "
              f"{paper_point.cycles_per_step} cycles/step")
        print(f"DSE optimum   hu={best.params.hu} ru={best.params.ru}: "
              f"{best.cycles_per_step} cycles/step "
              f"({paper_point.cycles_per_step / best.cycles_per_step:.2f}x)")


if __name__ == "__main__":
    main()
