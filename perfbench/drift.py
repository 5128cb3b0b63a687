"""Drift correction: a fixed reference slice interleaved through each run.

On a small shared VM the whole machine's speed drifts over seconds to
minutes, so two runs of identical work can differ by 10-25% in host
time.  Each run therefore executes a fixed reference slice at regular
points of the workload, subtracts the slices' time from the run, and
rescales the remainder by how much slower (or faster) the slices ran
than their calibrated time:

    corrected = (raw - ref) * calibrated_ref / ref

The slice is a miniature serving loop in pure Python (the serving and
planning loops are interpreter-bound) and, where the workload fills
large arrays (program builds fill H x R weight SRAMs), also a numpy
allocate-and-fill that tracks that cost.  It is the benchmark's own code,
so no change to the library can move it.  A tight arithmetic loop tracked
the serving workloads worse than no correction at all: their slowdowns
follow the breadth of interpreter code they run, which the slice mimics.

Set-up is mostly one import per fresh interpreter, too short to
interleave slices with, and its speed follows the machine's file-system
and loader work rather than the interpreter loop: a loop slice tracked it
poorly, in the same process or not.  Each set-up sample is therefore
paired with a reference import run just before it in a fresh interpreter
of its own: a fixed set of standard-library modules, pure-Python and
C-extension alike (:data:`REFERENCE_IMPORTS`).

The calibrated times are constants recorded once with the benchmark, on
a 2-vCPU Intel Xeon VM with Python 3.11 and numpy 2.4.  They only set the
unit of the corrected numbers; changing them rescales every baseline, so
re-record them (``python3 perfbench/drift.py``) only together with a new
baseline.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, replace

#: Calibrated seconds of one :func:`loop_slice` and one :func:`fill_slice`.
CALIBRATED_LOOP_S = 0.00191
CALIBRATED_FILL_S = 0.00057
#: Calibrated seconds of :data:`REFERENCE_IMPORTS` in a fresh interpreter:
#: the middle of three calibrations (0.075-0.112 s, as the machine drifts).
CALIBRATED_IMPORT_S = 0.0905

#: The reference import: none of these is imported by the interpreter
#: that times it before it starts timing.
REFERENCE_IMPORTS = (
    "argparse",
    "asyncio",
    "configparser",
    "csv",
    "decimal",
    "difflib",
    "email.mime.multipart",
    "http.client",
    "logging.handlers",
    "pydoc",
    "sqlite3",
    "tarfile",
    "unittest",
    "xml.dom.minidom",
)

_LOOP_N = 300
_FILL_SHAPE = (1024, 1024)
_TENANTS = ("a", "b", "c")


@dataclass(frozen=True)
class _Request:
    rid: int
    arrival: float
    length: int
    tenant: str


def loop_slice() -> float:
    """A miniature serving loop: frozen-dataclass requests (some re-made by
    ``dataclasses.replace``), a heapq event queue, a tuple-keyed memo and
    a log-histogram fold."""
    heap: list = []
    memo: dict = {}
    hist = [0] * 64
    total = now = 0.0
    state = 12345
    for i in range(_LOOP_N):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        now += (state & 1023) * 1e-6
        req = _Request(i, now, 10 + (state >> 10) % 50, _TENANTS[i % 3])
        if i % 3 == 0:
            req = replace(req, length=req.length + 1)
        heapq.heappush(heap, (req.arrival + req.length * 1e-5, i, req))
        if len(heap) > 8:
            _, _, done = heapq.heappop(heap)
            key = (done.tenant, done.length)
            service = memo.get(key)
            if service is None:
                service = memo[key] = math.sqrt(done.length) * 1e-4
            sojourn_ms = (now - done.arrival + service) * 1e3
            hist[min(63, max(0, int(math.log10(sojourn_ms + 1e-9) * 8 + 32)))] += 1
            total += sojourn_ms
    return total


def fill_slice() -> float:
    """Allocate fresh pages and fill them, as program builds do."""
    import numpy as np

    block = np.empty(_FILL_SHAPE)
    block.fill(1.0)
    return float(block[-1, -1])


class Reference:
    """Runs reference slices and accumulates their host time.

    ``fill`` adds the numpy slice to every tick.  ``tracer`` (optional)
    records each tick as its own span, so no layer is charged for it.
    """

    def __init__(self, *, fill: bool, tracer=None) -> None:
        self.fill = fill
        self.ticks = 0
        self.seconds = 0.0
        #: Items that :meth:`interleave` passed through to the end.
        self.items = 0
        self._tracer = tracer

    def tick(self) -> None:
        if self._tracer is not None:
            self._tracer.span("host.ref", self._run_slice)
        else:
            self._run_slice()
        self.ticks += 1

    def _run_slice(self) -> None:
        t0 = time.perf_counter()
        loop_slice()
        if self.fill:
            fill_slice()
        self.seconds += time.perf_counter() - t0

    @property
    def calibrated_s(self) -> float:
        per_tick = CALIBRATED_LOOP_S + (CALIBRATED_FILL_S if self.fill else 0.0)
        return self.ticks * per_tick

    def interleave(self, iterable, every: int):
        """Yield ``iterable`` unchanged, ticking before every ``every`` items."""
        i = -1
        for i, item in enumerate(iterable):
            if i % every == 0:
                self.tick()
            yield item
        self.items += i + 1


def corrected(raw_s: float, ref_s: float, calibrated_s: float) -> float:
    """Host seconds of the work alone, rescaled to the calibrated speed.

    With no ticks (``ref_s == 0``) there is nothing to correct by, and
    the raw time is returned.
    """
    if ref_s <= 0.0:
        return raw_s
    return (raw_s - ref_s) * (calibrated_s / ref_s)


def reference_import() -> float:
    """Import :data:`REFERENCE_IMPORTS`; return the seconds it took."""
    import importlib

    t0 = time.perf_counter()
    for name in REFERENCE_IMPORTS:
        importlib.import_module(name)
    return time.perf_counter() - t0


def corrected_setup(setup_s: list, reference_s: list) -> float:
    """Median set-up time, each sample rescaled to the calibrated speed by
    the reference import run just before it."""
    import statistics  # not at module level: it would add to every run's RSS

    return statistics.median(
        s * CALIBRATED_IMPORT_S / r for s, r in zip(setup_s, reference_s)
    )


def _calibrate(repeats: int = 2001, interpreters: int = 41) -> None:
    import statistics

    for name, fn in (("loop", loop_slice), ("fill", fill_slice)):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        print(f"{name}: median {statistics.median(times):.6f} s")
    import run

    run._child("prime")
    times = [run._child("reference")["reference_s"] for _ in range(interpreters)]
    print(f"import: median {statistics.median(times):.6f} s")


if __name__ == "__main__":
    _calibrate()
