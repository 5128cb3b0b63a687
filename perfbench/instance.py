"""One cold run of one workload, in the fresh interpreter run.py starts.

Usage: python3 perfbench/instance.py MODE [WORKLOAD SEED SIZE]

MODE is ``prime`` (only import the library and the reference modules, so
their bytecode is cached before anything is timed), ``reference`` (time
the reference import of ``drift.REFERENCE_IMPORTS``, and nothing else),
``setup`` (import and prepare the workload, then stop), ``run`` (set up,
run the timed call and check it) or ``trace`` (as ``run``, with every
layer's entry points traced).  Prints one JSON record as its last line.
An exception the library raises in set-up, the timed call or its checks
is recorded as a failed run; the process exits non-zero only when the
library or one of its entry points cannot be imported.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _import_library() -> None:
    import repro  # noqa: F401
    import repro.dse  # noqa: F401
    import repro.serving  # noqa: F401


def _guarded(fn, *args) -> tuple:
    """``(fn(*args), None)``, or ``(None, exc)`` when the library raised
    ``exc``: a failed run, reported with the rest.  An ImportError (the
    library or one of its entry points is missing) propagates, and that
    run has no result."""
    try:
        return fn(*args), None
    except ImportError:
        raise
    except Exception as exc:  # noqa: BLE001
        return None, exc


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "reference":
        from drift import reference_import

        print(json.dumps({"reference_s": reference_import()}))
        return 0
    _import_library()
    if mode == "prime":
        from drift import reference_import

        reference_import()
        return 0
    name, seed, size = argv[1], int(argv[2]), argv[3]
    t_imported = time.perf_counter()

    from drift import Reference, corrected
    from tracer import Tracer, install
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.calibrate()
        install(tracer)
    ref = Reference(fill=workload.fill, tracer=tracer)
    state, error = _guarded(workload.prepare, seed, size)
    if error is None:
        workload.hook(state, ref)
    t_ready = time.perf_counter()
    record = {
        "setup_s": t_ready - _T_START,
        "import_s": t_imported - _T_START,
        "prepare_s": t_ready - t_imported,
    }
    if mode == "setup":
        if error is not None:
            raise error
        print(json.dumps(record))
        return 0

    if error is None:
        out, error = _guarded(workload.run, state, ref, tracer)
    raw_s = time.perf_counter() - t_ready
    if error is None:
        outcome, error = _guarded(workload.check, state, ref, out)
    if error is not None:
        outcome = workload.crashed(state, error)
    import numpy

    record.update(
        {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "raw_s": raw_s,
            "ref_s": ref.seconds,
            "ticks": ref.ticks,
            "host_s": corrected(raw_s, ref.seconds, ref.calibrated_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": outcome.attempted,
            "completed": outcome.completed,
            "failures": outcome.failures,
            "metrics": outcome.metrics,
            "work": outcome.work,
            "signature": outcome.signature,
        }
    )
    if tracer is not None:
        layers = tracer.layer_metrics()
        record["layers"] = layers
        record["failures"] += workload.check_trace(layers)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
