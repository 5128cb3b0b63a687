"""Seeded boundary fuzz of the trace JSONL reader.

Valid :func:`request_to_json` records are mutated 2,000 times — a value
replaced by a wrong type, NaN, an infinity, a negative or a huge number;
a key dropped; an extra key added; the line truncated — and each
mutation is written as a one-line trace and read back through
:func:`iter_trace`.  Every line must either parse into one well-typed
request or raise :class:`~repro.errors.ServingError` naming ``trace
line 1``; any other exception escaping the reader is a failure.
"""

import json
import random
from collections import Counter

import pytest

from repro.errors import ServingError
from repro.serving import ServeRequest, iter_trace, request_to_json
from repro.workloads.deepbench import task

N_MUTATIONS = 2_000

_BASES = (
    ServeRequest(task=task("lstm", 512, 25)),
    ServeRequest(
        task=task("gru", 256, 50),
        arrival_s=0.25,
        request_id=7,
        tenant="asr",
        priority=2,
        slo_ms=5.0,
    ),
)

#: Replacement values: wrong types, non-finite, negative and huge numbers.
_BAD_VALUES = (
    None, True, "", "lstm", "12", [], [1], {}, {"a": 1},
    float("nan"), float("inf"), float("-inf"),
    0, -1, -2.5, 2.5, 10**30, -(10**30), 1e308,
)


def _well_typed(req: ServeRequest) -> bool:
    """Every field holds its schema type; a bool is not a number here."""
    t = req.task
    ints = (t.hidden, t.timesteps, t.layers, t.decoder_timesteps,
            req.request_id, req.priority)
    return (
        all(type(v) is int for v in ints)
        and type(t.kind) is str
        and type(req.tenant) is str
        and type(t.in_table6) is bool
        and type(req.arrival_s) in (int, float)
        and type(req.slo_ms) in (int, float, type(None))
    )


def _mutate(rng: random.Random) -> str:
    """One mutated trace line (1-3 edits of a valid record)."""
    rec = request_to_json(rng.choice(_BASES))
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("replace", "replace", "drop", "extra"))
        if op == "replace" and rec:
            rec[rng.choice(sorted(rec))] = rng.choice(_BAD_VALUES)
        elif op == "drop" and rec:
            del rec[rng.choice(sorted(rec))]
        else:
            rec[rng.choice(("batch", "extra", "v", "zz"))] = rng.choice(_BAD_VALUES)
    line = json.dumps(rec, sort_keys=True)
    if rng.random() < 0.2:
        line = line[: rng.randint(1, len(line) - 1)]
    return line


def test_mutated_trace_lines_parse_or_raise_serving_error(tmp_path):
    rng = random.Random(22)
    path = tmp_path / "fuzz.jsonl"
    outcomes = Counter()
    for _ in range(N_MUTATIONS):
        line = _mutate(rng)
        path.write_text(line + "\n")
        try:
            requests = list(iter_trace(path))
        except ServingError as exc:
            assert "trace line 1" in str(exc), (line, str(exc))
            outcomes["rejected"] += 1
        except Exception as exc:  # the boundary leaked: report the line
            pytest.fail(f"trace line {line!r} raised {exc!r}")
        else:
            assert len(requests) == 1 and isinstance(requests[0], ServeRequest), line
            assert _well_typed(requests[0]), (line, requests[0])
            outcomes["parsed"] += 1
    # Both outcomes occur, so the draw is neither all valid nor all junk.
    assert outcomes["parsed"] and outcomes["rejected"], outcomes
