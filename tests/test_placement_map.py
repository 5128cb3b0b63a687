"""The placement map draws the placement the mapper really made.

A recorder wraps the placer's ``take_pcus``, ``take_pmus`` and
``release_pcus`` and logs every unit it hands out or gets back.  On
every LSTM/GRU x bits x chip case of the pass-parity matrix, under all
four pass configurations, the cells :func:`placement_map` draws as PCUs
(``D``/``A``/``E``) must be exactly the PCUs still held when mapping
ends, the cells drawn as PMUs (``w``/``x``/``l``) exactly the PMUs
taken, and each role's cell count must match its stages' per-replica
``n_pcus``/``n_pmus`` times ``hu``.  Designs whose placement overflows
the grid are skipped: their overflowed units share one synthesized
edge coordinate, so no map can draw them cell for cell.
"""

import itertools
from collections import Counter

import pytest
from monolith_mapper import _map_rnn_monolith
from test_pass_pipeline_parity import CHIPS, MATRIX, _program

from repro.errors import MappingError
from repro.mapping.mapper import _Placer, map_rnn_program
from repro.mapping.passes import PassConfig
from repro.mapping.visualize import placement_map

PASS_CONFIGS = [
    PassConfig(fuse_gates=fuse, double_buffer=double)
    for fuse, double in itertools.product((False, True), repeat=2)
]

PCU_MARKS = frozenset("DAE")
PMU_MARKS = frozenset("wxl")


@pytest.fixture
def handouts(monkeypatch):
    """Record every unit the placer hands out (PCUs net of releases)."""
    log = {"pcu": Counter(), "pmu": Counter()}
    take_pcus, take_pmus = _Placer.take_pcus, _Placer.take_pmus
    release_pcus = _Placer.release_pcus

    def recording_take_pcus(self, k, near):
        taken = take_pcus(self, k, near)
        log["pcu"].update(taken)
        return taken

    def recording_take_pmus(self, k, near):
        taken = take_pmus(self, k, near)
        log["pmu"].update(taken)
        return taken

    def recording_release_pcus(self, coords):
        coords = list(coords)
        log["pcu"].subtract(coords)
        release_pcus(self, coords)

    monkeypatch.setattr(_Placer, "take_pcus", recording_take_pcus)
    monkeypatch.setattr(_Placer, "take_pmus", recording_take_pmus)
    monkeypatch.setattr(_Placer, "release_pcus", recording_release_pcus)
    return log


def _drawn_cells(text: str, layout) -> dict:
    """Parse the map back into ``{(row, col): mark}``."""
    rows = text.splitlines()[2:]
    assert len(rows) == layout.rows
    cells = {}
    for r, line in enumerate(rows):
        for c in range(layout.cols):
            cells[(r, c)] = line[2 * c]
    return cells


def _role_counts(design) -> Counter:
    """What each mark's cell count must be, from the frozen stages."""
    want = Counter()
    for stage in design.graph.stages.values():
        role = stage.name.split("_")[0]
        if role == "dot":
            want["D"] += stage.n_pcus
            want["w"] += stage.n_pcus  # one weight slice per dot PCU
            want["x"] += stage.n_pmus - stage.n_pcus  # [x,h] copies + back buffers
        elif role == "accum":
            want["A"] += stage.n_pcus
            want["l"] += stage.n_pmus
        elif role == "ew":
            want["E"] += stage.n_pcus
            want["l"] += stage.n_pmus
    return Counter({mark: n * design.hu for mark, n in want.items()})


@pytest.mark.parametrize(
    "kind,hidden",
    sorted({(kind, hidden) for kind, hidden, _, _ in MATRIX}),
    ids=lambda v: str(v),
)
def test_map_draws_every_recorded_handout(handouts, kind, hidden):
    prog = _program(kind, hidden)
    cases = [(b, c) for k, h, b, c in MATRIX if (k, h) == (kind, hidden)]
    checked = []
    for (bits, chip_name), config in itertools.product(cases, PASS_CONFIGS):
        case = f"{kind}-{hidden}-{bits}b-{chip_name}-{config.key}"
        handouts["pcu"].clear()
        handouts["pmu"].clear()
        chip = CHIPS[chip_name]()
        design = map_rnn_program(prog, chip, bits=bits, pass_config=config)
        if any("placement overflow" in note for note in design.resources.notes):
            continue
        held_pcus = +handouts["pcu"]  # drop released units
        taken_pmus = +handouts["pmu"]
        assert all(n == 1 for n in held_pcus.values()), case
        assert all(n == 1 for n in taken_pmus.values()), case
        cells = _drawn_cells(placement_map(design), chip.layout)
        drawn_pcus = {c for c, mark in cells.items() if mark in PCU_MARKS}
        drawn_pmus = {c for c, mark in cells.items() if mark in PMU_MARKS}
        assert drawn_pcus == set(held_pcus), case
        assert drawn_pmus == set(taken_pmus), case
        drawn = Counter(m for m in cells.values() if m in PCU_MARKS | PMU_MARKS)
        assert drawn == _role_counts(design), case
        checked.append(case)
    # Every hidden size maps without overflow at least on the Table 3
    # chip at 8 bits, under every pass configuration.
    assert len(checked) >= len(PASS_CONFIGS)


def test_monolith_design_has_no_placement_to_draw():
    design = _map_rnn_monolith(_program("lstm", 128))
    with pytest.raises(MappingError, match="placed units"):
        placement_map(design)
