"""Design-space exploration over the loop knobs (hu, ru, rv).

Spatial "exposes important design parameters such as blocking size and
unrolling factor ... users can easily tune their design either manually or
with an external DSE engine" (Section 2.3).  This package is that engine
for the RNN-serving designs:

* :mod:`repro.dse.space` — enumerate candidate parameter points.
* :mod:`repro.dse.search` — map + simulate each feasible point, keep the
  latency-optimal one.
* :mod:`repro.dse.tuner` — per-task selection, plus the paper's published
  and reconstructed Table 7 parameter sets.
* :mod:`repro.dse.capacity` — the same idiom one level up: search fleet
  size × platform mix × scheduler × batcher for the cheapest fleet that
  holds a P99 SLO on a diurnal serving workload.
* :mod:`repro.dse.runner` — the shared execution engine both searches
  route through: ordered worker-pool fan-out (bit-identical to the
  sequential loops at any worker count) and exact SLO pruning for the
  capacity planner.  The chip tuner memoizes in-process in the serving
  engine's :class:`~repro.serving.engine.EvalMemo`.  No search result
  is persisted: every answer follows the current mapper and cost
  models.
"""

from repro.dse.space import ParameterSpace
from repro.dse.runner import DSEStats, PruningSummary, prune_threshold
from repro.dse.search import DSEResult, SearchPoint, search
from repro.dse.tuner import paper_params, tune
from repro.dse.capacity import CapacityPlan, CapacityPoint, FleetSpace, plan_capacity
from repro.serving.engine import EvalMemo

__all__ = [
    "ParameterSpace",
    "search",
    "SearchPoint",
    "DSEResult",
    "DSEStats",
    "EvalMemo",
    "PruningSummary",
    "prune_threshold",
    "tune",
    "paper_params",
    "FleetSpace",
    "CapacityPoint",
    "CapacityPlan",
    "plan_capacity",
]
