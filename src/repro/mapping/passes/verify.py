"""The mapping-IR verifier.

:func:`verify_state` checks the invariants each completed pass is
responsible for, so the :class:`~repro.mapping.passes.core.PassManager`
can run it after *every* pass: a pass that corrupts the IR fails
immediately, named, instead of surfacing as a wrong cycle count three
passes later.

Invariants (cumulative, keyed on which passes have completed):

* after ``recognize_rnn`` — structure is present and sane (gates
  non-empty, ``hu``/``steps``/``n_iterations`` at least 1);
* after ``plan_gates`` — every edge connects existing stages, IIs are
  at least 1, latencies non-negative, resource counts non-negative, the
  stage DAG is acyclic (re-checked only when the stage names or edge
  endpoints differ from the last passing check);
* after ``place_units`` — every stage is placed on-grid, occupied units
  are real PCUs/PMUs of the layout (overflowed requests may sit at the
  grid-edge coordinate, but only when the placer counted an overflow),
  and the PCU/PMU ledger is conserved: units handed out by the placer
  exactly cover the per-replica stage counts times ``hu``;
* after ``route_edges`` — every edge has a non-negative routed cost;
* after ``report_resources`` — the frozen graph matches the drafts and
  the resource report's unit tallies match the graph.
"""

from __future__ import annotations

import operator

from repro.errors import MappingError
from repro.mapping.passes.core import MappingState
from repro.mapping.pipeline import kahn_order

__all__ = ["verify_state"]


def _fail(state: MappingState, message: str) -> None:
    last = state.completed[-1] if state.completed else "<no pass>"
    raise MappingError(f"IR verifier after {last}: {message}")


def _check_acyclic(state: MappingState) -> None:
    # Only the stage names and edge endpoints decide acyclicity, so a
    # graph with the same ones as the last passing check passes again.
    # Compared by content: a pass may rewrite an edge in place.
    key = (tuple(state.stages), tuple([(edge.src, edge.dst) for edge in state.edges]))
    if key == state.acyclic_verified:
        return
    if len(kahn_order(state.stages, key[1])) != len(state.stages):
        _fail(state, "stage graph contains a cycle")
    state.acyclic_verified = key


def _verify_structure(state: MappingState) -> None:
    if state.cell is None:
        _fail(state, "recognized structure is incomplete")
    if not state.gates:
        _fail(state, "no gate groups recognized")
    if state.hu < 1:
        _fail(state, f"hu must be >= 1, got {state.hu}")
    if state.n_iterations < 1:
        _fail(state, f"n_iterations must be >= 1, got {state.n_iterations}")
    if state.steps < 1:
        _fail(state, f"steps must be >= 1, got {state.steps}")


def _verify_skeleton(state: MappingState) -> None:
    if not state.stages:
        _fail(state, "no stages in the skeleton")
    for name, draft in state.stages.items():
        if draft.name != name:
            _fail(state, f"stage key {name!r} does not match draft {draft.name!r}")
        if draft.ii < 1:
            _fail(state, f"stage {name!r}: ii must be >= 1, got {draft.ii}")
        if draft.latency < 0:
            _fail(state, f"stage {name!r}: latency must be >= 0, got {draft.latency}")
        if draft.n_pcus < 0 or draft.n_pmus < 0:
            _fail(state, f"stage {name!r}: negative resource counts")
    for edge in state.edges:
        for endpoint in (edge.src, edge.dst):
            if endpoint not in state.stages:
                _fail(state, f"edge endpoint {endpoint!r} is not a stage")
        if edge.route is not None and edge.route < 0:
            _fail(state, f"edge {edge.src!r}->{edge.dst!r}: negative route")
    _check_acyclic(state)


def _check_units(state, name, units, real, edge_coord, overflow_ok, kind) -> None:
    if real.issuperset(units):
        return
    for unit in units:
        if unit in real:
            continue
        if unit == edge_coord and overflow_ok:
            continue
        _fail(state, f"stage {name!r} occupies non-{kind} unit {unit}")


def _verify_placement(state: MappingState) -> None:
    if state.placer is None:
        _fail(state, "no placer after place_units")
    layout = state.chip.layout
    edge_coord = state.placer.edge_coord
    pcu_overflow_ok = state.placer.overflow_pcus > 0
    pmu_overflow_ok = state.placer.overflow_pmus > 0
    for name, draft in state.stages.items():
        if draft.coord is None:
            _fail(state, f"stage {name!r} is unplaced")
        r, c = draft.coord
        if not (0 <= r < layout.rows and 0 <= c < layout.cols):
            _fail(state, f"stage {name!r} placed off-grid at {draft.coord}")
        # A tuple cannot change, so the same tuple objects under the same
        # layout, edge and overflow flags pass again: skip them.  A pass
        # that rewrites a stage's units assigns new ones.
        checked = (
            draft.units_pcu, draft.units_pmu, layout, edge_coord,
            pcu_overflow_ok, pmu_overflow_ok,
        )
        last = state.units_verified.get(name)
        if last is not None and all(map(operator.is_, last, checked)):
            continue
        _check_units(state, name, draft.units_pcu, layout.pcu_set,
                     edge_coord, pcu_overflow_ok, "PCU")
        _check_units(state, name, draft.units_pmu, layout.pmu_set,
                     edge_coord, pmu_overflow_ok, "PMU")
        if type(draft.units_pcu) is tuple and type(draft.units_pmu) is tuple:
            state.units_verified[name] = checked
    # Ledger conservation: what the placer handed out must exactly cover
    # the per-replica stage counts scaled by the hu replication.
    want_pcus = state.hu * sum(d.n_pcus for d in state.stages.values())
    want_pmus = state.hu * sum(d.n_pmus for d in state.stages.values())
    if state.pcus_allocated != want_pcus:
        _fail(
            state,
            f"PCU ledger not conserved: placer allocated {state.pcus_allocated}, "
            f"stages claim {want_pcus}",
        )
    if state.pmus_allocated != want_pmus:
        _fail(
            state,
            f"PMU ledger not conserved: placer allocated {state.pmus_allocated}, "
            f"stages claim {want_pmus}",
        )


def _verify_routes(state: MappingState) -> None:
    for edge in state.edges:
        if edge.route is None:
            _fail(state, f"edge {edge.src!r}->{edge.dst!r} is unrouted")
        if edge.route < 0:
            _fail(state, f"edge {edge.src!r}->{edge.dst!r}: negative route")


def _verify_report(state: MappingState) -> None:
    if state.graph is None or state.resources is None or state.design is None:
        _fail(state, "report_resources left the design incomplete")
    if set(state.graph.stages) != set(state.stages):
        _fail(state, "frozen graph stages differ from the IR drafts")
    if len(state.graph.edges) != len(state.edges):
        _fail(state, "frozen graph edge count differs from the IR drafts")
    if state.resources.pcus_used != state.graph.total_pcus():
        _fail(state, "resource report PCU tally differs from the graph")
    if state.resources.pmus_used != state.graph.total_pmus():
        _fail(state, "resource report PMU tally differs from the graph")


def verify_state(state: MappingState) -> None:
    """Check every invariant the completed passes are responsible for.

    Raises :class:`~repro.errors.MappingError` naming the last completed
    pass on the first violation; returns ``None`` on a healthy IR.
    """
    done = set(state.completed)
    if "recognize_rnn" in done:
        _verify_structure(state)
    if "plan_gates" in done:
        _verify_skeleton(state)
    if "place_units" in done:
        _verify_placement(state)
    if "route_edges" in done:
        _verify_routes(state)
    if "report_resources" in done:
        _verify_report(state)
