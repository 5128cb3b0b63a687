"""PipelineGraph: the mapped, placed dataflow pipeline.

One :class:`PipelineGraph` describes how a *single time step* of the RNN
flows through the fabric: ``n_iterations`` loop iterations (the unrolled
``Foreach(H par hu)`` issue groups) stream through a DAG of stages.  Each
stage has an initiation interval (cycles between successive iterations),
a latency (first-input to first-output), and a placement-derived route
latency on each outgoing edge.  The ``Sequential`` time-step loop is
represented by ``steps`` and ``step_overhead`` (control handshake plus the
state-broadcast drain that separates steps).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MappingError

__all__ = ["Stage", "PipelineGraph", "kahn_order"]

_Units = tuple[tuple[int, int], ...]


def kahn_order(nodes, edges) -> list:
    """FIFO Kahn topological order, the one ``networkx.topological_sort``
    gives: sources in ``nodes`` order, then each node's successors in
    first-edge order, parallel edges counted once.  On a cycle the order
    comes back short: it omits every node on or behind the cycle."""
    succs: dict = {node: {} for node in nodes}
    for src, dst in edges:
        succs[src][dst] = None
    indegree = dict.fromkeys(succs, 0)
    for children in succs.values():
        for dst in children:
            indegree[dst] += 1
    order = [node for node, deg in indegree.items() if deg == 0]
    for node in order:  # appending while iterating: a FIFO queue
        for dst in succs[node]:
            indegree[dst] -= 1
            if indegree[dst] == 0:
                order.append(dst)
    return order


@dataclass(frozen=True)
class Stage:
    """One pipeline stage (a PCU group, PMU access, or fabric action).

    Attributes:
        name: Unique stage name.
        ii: Initiation interval — cycles between accepting iterations.
        latency: Cycles from accepting an iteration to emitting it.
        n_pcus: PCUs this stage occupies per pipeline replica.
        n_pmus: PMUs this stage occupies per pipeline replica.
        coord: Representative placement (row, col) or None if virtual.
        units_pcu: Every PCU the stage occupies across all replicas, in
            the placer's take order (empty unless the pass pipeline
            placed it; outside equality).
        units_pmu: Likewise for PMUs.
    """

    name: str
    ii: int
    latency: int
    n_pcus: int = 0
    n_pmus: int = 0
    coord: tuple[int, int] | None = None
    units_pcu: _Units = field(default=(), compare=False, repr=False)
    units_pmu: _Units = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.ii < 1:
            raise MappingError(f"stage {self.name!r}: ii must be >= 1")
        if self.latency < 0:
            raise MappingError(f"stage {self.name!r}: latency must be >= 0")
        if self.n_pcus < 0 or self.n_pmus < 0:
            raise MappingError(f"stage {self.name!r}: negative resources")


@dataclass
class PipelineGraph:
    """A placed pipeline for one RNN cell step, replicated ``replicas``
    times (the ``hu`` unroll), run for ``steps`` sequential time steps."""

    name: str
    n_iterations: int
    steps: int
    replicas: int = 1
    step_overhead: int = 0
    stages: dict[str, Stage] = field(default_factory=dict)
    edges: list[tuple[str, str, int]] = field(default_factory=list)

    def add_stage(self, stage: Stage) -> Stage:
        if stage.name in self.stages:
            raise MappingError(f"duplicate stage {stage.name!r}")
        self.stages[stage.name] = stage
        return stage

    def connect(self, src: str, dst: str, route_cycles: int = 0) -> None:
        for name in (src, dst):
            if name not in self.stages:
                raise MappingError(f"unknown stage {name!r}")
        if route_cycles < 0:
            raise MappingError("route latency must be >= 0")
        self.edges.append((src, dst, route_cycles))

    # -- graph structure -----------------------------------------------------

    def topological_order(self) -> list[str]:
        order = kahn_order(self.stages, ((src, dst) for src, dst, _ in self.edges))
        if len(order) != len(self.stages):
            raise MappingError(f"pipeline {self.name!r} contains a cycle")
        return order

    def predecessors(self, name: str) -> list[tuple[str, int]]:
        return [(src, route) for src, dst, route in self.edges if dst == name]

    # -- aggregate properties --------------------------------------------------

    @property
    def bottleneck_ii(self) -> int:
        return max(stage.ii for stage in self.stages.values())

    def critical_path_cycles(self) -> int:
        """Longest (latency + route) path through the DAG."""
        order = self.topological_order()
        dist = {name: self.stages[name].latency for name in order}
        for name in order:
            for src, route in self.predecessors(name):
                cand = dist[src] + route + self.stages[name].latency
                if cand > dist[name]:
                    dist[name] = cand
        return max(dist.values()) if dist else 0

    def analytic_step_cycles(self) -> int:
        """Closed-form steady-state: fill + drain plus bottleneck issue.

        ``(n_iterations - 1) * max_ii + critical_path``.  Exact whenever a
        bottleneck-II stage lies on the critical path — true of every
        mapped RNN design, where the gate dot products both set the II and
        feed the element-wise chain — and an upper bound on arbitrary
        DAGs.  Property-tested against the event simulation both ways in
        the test suite.
        """
        return (self.n_iterations - 1) * self.bottleneck_ii + self.critical_path_cycles()

    def total_pcus(self) -> int:
        return self.replicas * sum(s.n_pcus for s in self.stages.values())

    def total_pmus(self) -> int:
        return self.replicas * sum(s.n_pmus for s in self.stages.values())
