"""repro — reproduction of *Serving Recurrent Neural Networks Efficiently
with a Spatial Accelerator* (Zhao, Zhang, Olukotun; SysML 2019).

The package is organized bottom-up:

* :mod:`repro.precision` — fp8/fp16/fp32 and blocked floating point.
* :mod:`repro.spatial` — the Spatial-like loop/memory DSL and interpreter.
* :mod:`repro.plasticine` — the CGRA machine model and cycle simulator.
* :mod:`repro.mapping` — lowering DSL programs onto the chip.
* :mod:`repro.rnn` — LSTM/GRU reference and loop-based implementations.
* :mod:`repro.baselines` — CPU / GPU / Brainwave serving-platform models.
* :mod:`repro.dse` — design-space exploration over (hu, ru, rv, hv).
* :mod:`repro.workloads` — the DeepBench task suite.
* :mod:`repro.serving` — the pluggable serving engine: platform
  registry, compile-once sessions, multi-tenant traffic generation,
  pluggable schedulers, dynamic batching, and autoscaled fleets.
* :mod:`repro.analysis` — fragmentation / footprint studies and the
  abstract's efficiency claims.
* :mod:`repro.harness` — regenerates every table and figure of the paper.

Quickstart::

    from repro import ServingEngine
    from repro.workloads import deepbench

    task = deepbench.task("lstm", hidden=1024, timesteps=25)
    engine = ServingEngine("plasticine")
    result = engine.serve(task).result      # compile once ...
    result = engine.serve(task).result      # ... serve many (cache hit)
    print(result.latency_ms, result.effective_tflops)
"""

from __future__ import annotations

__version__ = "1.2.0"

_SERVING_NAMES = (
    "ServingEngine",
    "ServingResult",
    "ServeRequest",
    "ServeResponse",
    "StreamReport",
    "Fleet",
    "Platform",
    "PreparedModel",
    "register_platform",
    "get_platform",
    "available_platforms",
    "poisson_arrivals",
    "uniform_arrivals",
    "mmpp_arrivals",
    "diurnal_arrivals",
    "mix",
    "record_trace",
    "replay_trace",
    "Scheduler",
    "register_scheduler",
    "get_scheduler",
    "available_schedulers",
    "Batcher",
    "register_batcher",
    "get_batcher",
    "available_batchers",
    "Autoscaler",
    "ScaleEvent",
)

__all__ = ["__version__", *_SERVING_NAMES]


def __getattr__(name: str):
    # Lazy import keeps `import repro.precision` and the other lower
    # layers cheap: repro.serving imports most of the package.
    if name in _SERVING_NAMES:
        from repro import serving

        return getattr(serving, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
