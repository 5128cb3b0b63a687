"""The mapping IR and the pass-pipeline machinery.

The Section 4 lowering is structured as a sequence of small passes over
a :class:`MappingState` — the mapping IR.  Each pass reads what earlier
passes produced and adds one layer:

``recognize_rnn``
    trace the program and locate the time-step loop, the cell loop and
    the gate reduce groups;
``plan_gates``
    turn the recognized structure into a stage skeleton (names, IIs,
    placement-independent latencies, per-replica resource needs);
``place_units``
    allocate physical PCUs/PMUs on the grid (greedy nearest-available,
    identical to the legacy monolith's order) and record each unit on
    its stage draft, the IR's one placement record;
``route_edges``
    derive routed edge costs and the placement-dependent latency terms
    (reduction trees, the writeback broadcast) from real Manhattan
    distances;
``fold_luts``
    fold each gate's non-linearity into its accumulate stage's PMU
    lookup table (the LUT access latency);
``report_resources``
    freeze the drafts into a :class:`~repro.mapping.pipeline.PipelineGraph`,
    tally the :class:`~repro.mapping.resources.ResourceReport` and build
    the final :class:`~repro.mapping.mapper.MappedDesign`.

Two optimization passes the monolith could not express are gated behind
:class:`PassConfig`: ``fuse_gates`` and ``double_buffer`` (see
:mod:`repro.mapping.passes.optimize`).

Passes register under string names exactly like schedulers, batchers and
fault policies do::

    @register_pass("my_pass")
    class MyPass(MappingPass):
        requires = ("place_units",)
        def run(self, state): ...

The :class:`PassManager` threads one :class:`MappingState` through an
ordered pipeline, enforcing each pass's ``requires`` declaration
*before* the pass runs (an illegal ordering raises
:class:`~repro.errors.MappingError` without touching the state), timing
every pass, and — by default — running the IR verifier
(:func:`~repro.mapping.passes.verify.verify_state`) after every pass.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import MappingError
from repro.mapping.mapper import SEQ_SYNC_CYCLES, GateGroup, MappedDesign, _Placer
from repro.mapping.pipeline import PipelineGraph
from repro.mapping.resources import ResourceReport
from repro.plasticine.chip import PlasticineConfig
from repro.plasticine.network import Coord
from repro.registry import Registry
from repro.spatial.builder import Program
from repro.spatial.ir import LoopRecord

__all__ = [
    "PassConfig",
    "StageDraft",
    "EdgeDraft",
    "GatePlan",
    "xh_pmus",
    "PassTiming",
    "MappingState",
    "MappingPass",
    "PassManager",
    "register_pass",
    "unregister_pass",
    "get_pass",
    "available_passes",
    "DEFAULT_PIPELINE",
]

#: The default lowering pipeline, in order.  Optimization passes are
#: spliced in between ``fold_luts`` and ``report_resources``.
DEFAULT_PIPELINE: tuple[str, ...] = (
    "recognize_rnn",
    "plan_gates",
    "place_units",
    "route_edges",
    "fold_luts",
    "report_resources",
)


@dataclass(frozen=True)
class PassConfig:
    """Which optimization passes to splice into the default pipeline.

    Frozen and hashable so it can serve as a DSE axis
    (:class:`repro.dse.space.ParameterSpace.pass_configs`).
    """

    #: Merge compatible accumulate stages into one fused chain placed
    #: next to the element-wise stage (fewer PCUs, shorter routes).
    fuse_gates: bool = False
    #: Double-buffer the ``[x, h]`` copies so the state writeback
    #: overlaps the next step's load, cutting ``SEQ_SYNC_CYCLES``
    #: exposure (fewer cycles, more PMUs + state bytes).
    double_buffer: bool = False

    def optimization_names(self) -> tuple[str, ...]:
        names = []
        if self.fuse_gates:
            names.append("fuse_gates")
        if self.double_buffer:
            names.append("double_buffer")
        return tuple(names)

    @property
    def key(self) -> str:
        """Short stable label for tables and artifacts."""
        opts = self.optimization_names()
        return "+".join(opts) if opts else "default"


@dataclass
class StageDraft:
    """A pipeline stage under construction (the IR analogue of
    :class:`~repro.mapping.pipeline.Stage`, mutable so passes can refine
    it layer by layer).

    ``units_pcu`` / ``units_pmu`` are the IR's one placement record:
    every physical unit the stage occupies across all replicas, in take
    order (a dot stage's PMUs are its weight slices, then its ``[x, h]``
    copies, then any back buffers — see :func:`xh_pmus`).  ``n_pcus`` /
    ``n_pmus`` stay per-replica, exactly like the final frozen stage.
    """

    name: str
    ii: int
    latency: int
    n_pcus: int = 0
    n_pmus: int = 0
    coord: Coord | None = None
    units_pcu: tuple[Coord, ...] = ()
    units_pmu: tuple[Coord, ...] = ()


def xh_pmus(dot: StageDraft, hu: int) -> tuple[Coord, ...]:
    """A dot stage's ``[x, h]`` copies (and any back buffers): its PMUs
    after the one weight slice per dot PCU."""
    return dot.units_pmu[dot.n_pcus * hu :]


@dataclass
class EdgeDraft:
    """A dataflow edge under construction; ``route is None`` until
    ``route_edges`` derives its cost from placement."""

    src: str
    dst: str
    route: int | None = None


@dataclass
class GatePlan:
    """Which stages lower one gate (their units live on the drafts)."""

    gate: GateGroup
    dot_name: str
    accum_name: str
    #: Length of the accumulate chain (cross-PCU tree adds), before the
    #: bias add and LUT access — what ``fuse_gates`` packs together.
    accum_chain_ops: int


@dataclass(frozen=True)
class PassTiming:
    """Wall-clock cost of one pass run (observability hook)."""

    name: str
    seconds: float


@dataclass
class MappingState:
    """The mapping IR: everything the passes produce, in one place.

    Lifecycle — each field block is owned by the pass that writes it:
    recognized loop structure (``recognize_rnn``) → stage skeleton
    (``plan_gates``) → placement + unit ledger (``place_units``) →
    routed edges (``route_edges``) → folded LUTs (``fold_luts``) →
    final graph/resources/design (``report_resources``).
    """

    prog: Program
    chip: PlasticineConfig
    bits: int = 8

    # -- recognize_rnn ----------------------------------------------------
    cell: LoopRecord | None = None
    gates: tuple[GateGroup, ...] = ()
    hu: int = 0
    n_iterations: int = 0
    steps: int = 0

    # -- plan_gates -------------------------------------------------------
    stages: dict[str, StageDraft] = field(default_factory=dict)
    edges: list[EdgeDraft] = field(default_factory=list)
    gate_plans: list[GatePlan] = field(default_factory=list)

    # -- place_units (the units themselves live on the stage drafts) ------
    placer: _Placer | None = None
    #: Unit ledger: physical units handed out by the placer (take minus
    #: release).  The verifier checks it against the stage drafts.
    pcus_allocated: int = 0
    pmus_allocated: int = 0

    # -- optimization passes ----------------------------------------------
    fused_groups: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    #: Effective Sequential-step overhead (``double_buffer`` lowers it).
    step_overhead: int = SEQ_SYNC_CYCLES

    # -- report_resources -------------------------------------------------
    graph: PipelineGraph | None = None
    resources: ResourceReport | None = None
    design: MappedDesign | None = None

    # -- bookkeeping ------------------------------------------------------
    completed: list[str] = field(default_factory=list)
    timings: list[PassTiming] = field(default_factory=list)
    #: The verifier's last passing unit check per stage: its unit tuples,
    #: the layout, the edge coordinate and the two overflow flags.
    units_verified: dict[str, tuple] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: The stage names and ``(src, dst)`` edge endpoints of the verifier's
    #: last passing acyclicity check.
    acyclic_verified: tuple | None = field(default=None, repr=False, compare=False)

    # -- IR manipulation helpers -----------------------------------------

    def stage(self, name: str) -> StageDraft:
        try:
            return self.stages[name]
        except KeyError:
            raise MappingError(f"no stage {name!r} in the mapping IR") from None

    def add_stage(self, draft: StageDraft) -> StageDraft:
        if draft.name in self.stages:
            raise MappingError(f"duplicate stage {draft.name!r} in the mapping IR")
        self.stages[draft.name] = draft
        return draft

    def add_edge(self, src: str, dst: str, route: int | None = None) -> EdgeDraft:
        for name in (src, dst):
            if name not in self.stages:
                raise MappingError(f"edge endpoint {name!r} is not a stage")
        edge = EdgeDraft(src, dst, route)
        self.edges.append(edge)
        return edge

    def edge(self, src: str, dst: str) -> EdgeDraft:
        for edge in self.edges:
            if edge.src == src and edge.dst == dst:
                return edge
        raise MappingError(f"no edge {src!r} -> {dst!r} in the mapping IR")


class MappingPass(ABC):
    """One rewrite step over the :class:`MappingState`.

    Subclasses declare ``requires`` — the names of passes that must have
    completed first.  The :class:`PassManager` enforces the declaration
    before invoking :meth:`run`, so an illegally ordered pass raises
    :class:`~repro.errors.MappingError` without corrupting the state.
    """

    #: Registry key; set by :func:`register_pass`.
    name: str = "?"
    #: Pass names that must appear in ``state.completed`` first.
    requires: tuple[str, ...] = ()

    @abstractmethod
    def run(self, state: MappingState) -> None:
        """Apply this pass's rewrite to the state, in place."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


#: Every registered pass, keyed by name.  Unlike the serving kinds, a
#: pass name can be registered only once, even by the same class.
PASSES: Registry[MappingPass] = Registry(
    "mapping pass", MappingPass, MappingError, idempotent=False
)
register_pass = PASSES.register
unregister_pass = PASSES.unregister
available_passes = PASSES.names
get_pass = PASSES.get


class PassManager:
    """Runs an ordered pipeline of passes over one :class:`MappingState`.

    * enforces each pass's ``requires`` declaration and rejects running
      the same pass twice;
    * records a :class:`PassTiming` per pass;
    * optionally runs the IR verifier after every pass (``verify=True``)
      and calls ``trace_hook(pass_name, state, seconds)`` after each pass.
    """

    def __init__(
        self,
        passes: Sequence[MappingPass | str],
        *,
        verify: bool = True,
        trace_hook: Callable[[str, MappingState, float], None] | None = None,
    ):
        if not passes:
            raise MappingError("empty pass pipeline")
        self.passes: list[MappingPass] = [
            get_pass(p)() if isinstance(p, str) else p for p in passes
        ]
        self.verify = verify
        self.trace_hook = trace_hook

    @classmethod
    def default(
        cls,
        config: PassConfig | None = None,
        *,
        verify: bool = True,
        trace_hook: Callable[[str, MappingState, float], None] | None = None,
    ) -> "PassManager":
        """The default pipeline, with ``config``'s optimization passes
        spliced in before ``report_resources``."""
        config = config or PassConfig()
        names = (
            DEFAULT_PIPELINE[:-1]
            + config.optimization_names()
            + DEFAULT_PIPELINE[-1:]
        )
        return cls(names, verify=verify, trace_hook=trace_hook)

    def split_after(self, name: str) -> tuple["PassManager", "PassManager"]:
        """This pipeline cut after pass ``name``: two managers, each with
        this one's verifier and trace hook, that run every pass in order
        when run one after the other over the same state."""
        names = [p.name for p in self.passes]
        if name not in names[:-1]:
            raise MappingError(f"no pass {name!r} to split the pipeline after")
        cut = names.index(name) + 1
        return tuple(
            PassManager(part, verify=self.verify, trace_hook=self.trace_hook)
            for part in (self.passes[:cut], self.passes[cut:])
        )

    def run(self, state: MappingState) -> MappingState:
        from repro.mapping.passes.verify import verify_state

        for p in self.passes:
            missing = [r for r in p.requires if r not in state.completed]
            if missing:
                raise MappingError(
                    f"pass {p.name!r} requires {', '.join(missing)} to run first"
                )
            if p.name in state.completed:
                raise MappingError(f"pass {p.name!r} already ran on this state")
            t0 = time.perf_counter()
            p.run(state)
            dt = time.perf_counter() - t0
            state.completed.append(p.name)
            state.timings.append(PassTiming(p.name, dt))
            if self.verify:
                verify_state(state)
            if self.trace_hook is not None:
                self.trace_hook(p.name, state, dt)
        return state

    def run_program(
        self,
        prog: Program,
        chip: PlasticineConfig | None = None,
        *,
        bits: int = 8,
    ) -> MappingState:
        """Build a fresh state for ``prog`` and run the pipeline."""
        state = MappingState(
            prog=prog, chip=chip or PlasticineConfig.rnn_serving(), bits=bits
        )
        return self.run(state)
