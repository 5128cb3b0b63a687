"""Per-task parameter selection (paper Table 7, Plasticine columns).

Three parameter sources, in increasing order of automation:

* :func:`paper_params` — the parameters we reconstructed from the paper.
  Table 7's Plasticine column did not survive PDF text extraction intact,
  so these are fit against Table 6's published latencies (they reproduce
  the LSTM 1024/1536/2048 rows to within a few cycles).  ``rv = 64``
  (16 lanes x 4-packed fp8) and ``hv = 1`` throughout, exactly as the
  paper states.
* :func:`tune` — run the DSE and take its optimum (an exact
  branch-and-bound by default: points whose proven cycle bound cannot
  beat the incumbent stop before placement; ``prune=False`` maps and
  simulates every candidate).
* A fixed :class:`~repro.rnn.lstm_loop.LoopParams` the caller supplies.

The paper's qualitative tuning rule (Section 5.2) falls out of the DSE:
small problems fully unroll the dot product and spend leftover PCUs on
``hu``; large problems shift PCUs to ``ru`` to shorten the dot-product
initiation interval that bottlenecks the pipeline.
"""

from __future__ import annotations

from repro.errors import DSEError
from repro.dse.search import DSEResult, search
from repro.dse.space import ParameterSpace
from repro.plasticine.chip import PlasticineConfig
from repro.rnn.lstm_loop import LoopParams
from repro.workloads.deepbench import RNNTask

__all__ = ["paper_params", "tune"]

#: Reconstructed Table 7 parameters (Plasticine columns).
_PAPER_PARAMS: dict[tuple[str, int], LoopParams] = {
    ("lstm", 256): LoopParams(hu=4, ru=4, rv=64),
    ("lstm", 512): LoopParams(hu=5, ru=4, rv=64),
    ("lstm", 1024): LoopParams(hu=4, ru=8, rv=64),
    ("lstm", 1536): LoopParams(hu=4, ru=8, rv=64),
    ("lstm", 2048): LoopParams(hu=4, ru=8, rv=64),
    ("gru", 512): LoopParams(hu=4, ru=8, rv=64),
    ("gru", 1024): LoopParams(hu=5, ru=8, rv=64),
    ("gru", 1536): LoopParams(hu=5, ru=8, rv=64),
    ("gru", 2048): LoopParams(hu=5, ru=8, rv=64),
    ("gru", 2560): LoopParams(hu=5, ru=8, rv=64),
    ("gru", 2816): LoopParams(hu=5, ru=8, rv=64),
}


def paper_params(task: RNNTask) -> LoopParams | None:
    """The reconstructed paper parameters for a DeepBench task, or None
    if the task is not in the published suite."""
    return _PAPER_PARAMS.get((task.kind, task.hidden))


def tune(
    task: RNNTask,
    chip: PlasticineConfig | None = None,
    space: ParameterSpace | None = None,
    *,
    bits: int = 8,
    workers: int | None = None,
    pass_axis: bool = False,
    prune: bool = True,
) -> DSEResult:
    """Run the DSE for a task; thin alias of :func:`repro.dse.search.search`.

    Args:
        workers: Parallel parameter-point evaluation (bit-identical to
            sequential at any count; see :func:`~repro.dse.search.search`).
        pass_axis: Search the optimization-pass axis too
            (:meth:`ParameterSpace.with_pass_axis
            <repro.dse.space.ParameterSpace.with_pass_axis>`), so the
            result reports which pass config wins for this task.
        prune: Skip placement, routing and simulation of the points
            whose cycle lower bound is above the incumbent's cycles
            (see :func:`~repro.dse.search.search`); they come back
            ``pruned=True``.  ``False`` evaluates every candidate.
    """
    if pass_axis:
        if space is not None:
            raise DSEError(
                "pass_axis=True builds its own pass-config axis; pass a "
                "ParameterSpace with pass_configs instead of both"
            )
        space = ParameterSpace.with_pass_axis()
    return search(task, chip, space, bits=bits, workers=workers, prune=prune)
