"""Per-layer spans recorded from outside, through each layer's entry points.

:func:`install` patches the entry points of every layer in place (the
function object in every ``repro`` module that binds it, or the method
on the class that defines it) with a wrapper that records a span.  Spans
are aggregated in memory per (entry point, calling entry point): calls,
total time and self time, where self time is a span's duration minus
the time of the traced spans nested in it.  Nothing is written per call,
so a million-request trace stays bounded.

The serving loop picks its fast path by identity checks
(``type(scheduler) is FIFOScheduler``, ``type(batcher).hold_until is
Batcher.hold_until``, ``dispatch is single_replica_dispatch``), so the
tracer never wraps ``hold_until`` or ``single_replica_dispatch`` and
never replaces a scheduler or batcher class, only methods on it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: The default mapping passes, each with a ``mapping.<pass>.self_s`` metric.
MAPPING_PASSES = (
    "recognize_rnn",
    "plan_gates",
    "place_units",
    "route_edges",
    "fold_luts",
    "report_resources",
)
#: Layers with a ``<layer>.self_s`` metric.
LAYERS = (
    "serving.traffic",
    "serving.events",
    "serving.stats",
    "serving.scheduler",
    "serving.batching",
    "serving.engine",
    "serving.fleet",
    "dse.capacity",
    "dse.search",
    "rnn",
    "mapping",
    "plasticine",
)

_ROOT = ("benchmark", "")
#: ServingEngine's memoized cost lookups.
_LOOKUPS = ("result_for", "batch_latency_s", "serve_batched")


class Tracer:
    """Aggregating span recorder for one synchronous thread.

    A wrapper costs time on both sides of the interval it measures: the
    part inside inflates the traced call, the part outside inflates its
    caller.  :meth:`calibrate` measures both per span kind on no-op
    calls, and the self times reported subtract them.
    """

    def __init__(self) -> None:
        self._stack: list = [_ROOT]
        self._child: list = [0.0]
        #: (frame, caller frame) -> [calls, total_s, self_s]; a frame is
        #: (layer, entry point).
        self.spans: dict = {}
        #: One frame object per (layer, entry point), so wrappers of the
        #: same entry point on different classes compare by identity.
        self._frames: dict = {}
        #: frame -> "call" (wrapped function) or "next" (wrapped iterator).
        self._kind: dict = {}
        #: kind -> (seconds inside, seconds outside) the measured interval.
        self.overhead = {"call": (0.0, 0.0), "next": (0.0, 0.0)}
        #: Named counts recorded from entry-point results.
        self.counts: dict = {}

    def _frame(self, layer: str, entry: str, kind: str) -> tuple:
        frame = self._frames.setdefault((layer, entry), (layer, entry))
        self._kind[frame] = kind
        return frame

    def _record(self, frame, caller, dt: float, count: int = 1) -> None:
        inner = self._child.pop()
        self._child[-1] += dt
        rec = self.spans.get((frame, caller))
        if rec is None:
            self.spans[(frame, caller)] = [count, dt, dt - inner]
        else:
            rec[0] += count
            rec[1] += dt
            rec[2] += dt - inner

    def span(self, layer: str, fn, *args):
        """Call ``fn(*args)`` inside a one-off span of ``layer``."""
        frame = self._frame(layer, "", "call")
        caller = self._stack[-1]
        self._stack.append(frame)
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self._record(frame, caller, dt)

    def wrap(self, layer: str, entry: str, fn, observe=None):
        """``fn`` with a span around every call; ``observe(result)`` runs
        after a call returns, and its time is charged to no layer.

        The bookkeeping of :meth:`_record` is inlined here and in
        :meth:`iterate`: they run once per request, and a method call
        per span would add to the overhead they measure.
        """
        frame = self._frame(layer, entry, "call")
        stack, child, spans = self._stack, self._child, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1]
            if caller is frame:  # an override calling super(): one span
                return fn(*args, **kwargs)
            stack.append(frame)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                inner = child.pop()
                child[-1] += dt
                rec = spans.get((frame, caller))
                if rec is None:
                    spans[(frame, caller)] = [1, dt, dt - inner]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - inner
            if observe is not None:
                t1 = clock()
                observe(result)
                child[-1] += clock() - t1  # not the caller's own time
            return result

        return traced

    def iterate(self, layer: str, entry: str, iterable):
        """Yield ``iterable`` unchanged, with a span around every ``next``."""
        frame = self._frame(layer, entry, "next")
        stack, child, spans = self._stack, self._child, self.spans
        clock = time.perf_counter
        nxt = iter(iterable).__next__
        while True:
            caller = stack[-1]
            stack.append(frame)
            child.append(0.0)
            t0 = clock()
            try:
                item = nxt()
            except StopIteration:
                stack.pop()
                self._record(frame, caller, clock() - t0, count=0)
                return
            dt = clock() - t0
            stack.pop()
            inner = child.pop()
            child[-1] += dt
            rec = spans.get((frame, caller))
            if rec is None:
                spans[(frame, caller)] = [1, dt, dt - inner]
            else:
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner
            yield item

    def calibrate(self, n: int = 100_000, repeats: int = 5) -> None:
        """Measure the per-span overhead of wrapped calls and iterators."""
        import statistics

        def noop():
            return None

        items = [None] * n
        samples = {"call": [], "next": []}
        for _ in range(repeats):
            for kind in samples:
                probe = Tracer()
                if kind == "call":
                    traced = probe.wrap("probe", "", noop)
                    t0 = time.perf_counter()
                    for _ in items:
                        noop()
                    plain = time.perf_counter() - t0
                    t0 = time.perf_counter()
                    for _ in items:
                        traced()
                    total = time.perf_counter() - t0
                else:
                    t0 = time.perf_counter()
                    for _ in iter(items):
                        pass
                    plain = time.perf_counter() - t0
                    t0 = time.perf_counter()
                    for _ in probe.iterate("probe", "", items):
                        pass
                    total = time.perf_counter() - t0
                measured = probe.spans[(("probe", ""), _ROOT)][1]
                samples[kind].append(((measured - plain) / n, (total - measured) / n))
        self.overhead = {
            kind: (
                statistics.median(s[0] for s in pairs),
                statistics.median(s[1] for s in pairs),
            )
            for kind, pairs in samples.items()
        }

    def bump(self, name: str, by: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    # -- reading -----------------------------------------------------------

    def calls(self, layer: str, *entries: str, caller_layer: str | None = None) -> int:
        return sum(
            rec[0]
            for ((lay, ent), (clay, _)), rec in self.spans.items()
            if lay == layer
            and (not entries or ent in entries)
            and (caller_layer is None or clay == caller_layer)
        )

    def self_s(self, layer: str) -> float:
        """Time in ``layer`` outside nested spans, less tracer overhead."""
        total = 0.0
        for (frame, caller), (calls, _, self_s) in self.spans.items():
            inside, outside = self.overhead[self._kind[frame]]
            if frame[0] == layer:
                total += self_s - calls * inside
            if caller[0] == layer:
                total -= calls * outside
        return max(total, 0.0)

    def layer_metrics(self) -> dict:
        """Every per-layer metric, 0 where the run bypassed the layer."""
        c = self.counts
        # A cost lookup is a call into the engine from outside it
        # (batch_latency_s serves through serve_batched: one lookup); a
        # memo miss is a lookup that goes on to fetch the prepared model.
        lookups = sum(
            rec[0]
            for ((lay, ent), (clay, _)), rec in self.spans.items()
            if lay == "serving.engine" and ent in _LOOKUPS and clay != "serving.engine"
        )
        misses = sum(
            rec[0]
            for ((lay, ent), (clay, cent)), rec in self.spans.items()
            if (lay, ent) == ("serving.engine", "prepare")
            and clay == "serving.engine"
            and cent in _LOOKUPS
        )
        batches = c.get("batches", 0)
        points = c.get("points", 0)
        padded = c.get("padded_steps", 0)
        out = {f"{layer}.self_s": self.self_s(layer) for layer in LAYERS}
        out.update(
            {
                "serving.traffic.calls": self.calls("serving.traffic"),
                "serving.stats.calls": self.calls("serving.stats"),
                "serving.scheduler.calls": self.calls("serving.scheduler"),
                "serving.batching.batches": batches,
                "serving.batching.mean_batch": (
                    c.get("batched_requests", 0) / batches if batches else 0.0
                ),
                "serving.batching.padding_waste_frac": (
                    (padded - c.get("useful_steps", 0)) / padded if padded else 0.0
                ),
                "serving.engine.calls": lookups,
                "serving.engine.memo_hit_frac": (
                    (lookups - misses) / lookups if lookups else 0.0
                ),
                "serving.engine.compiles": self.calls("serving.engine", "compile"),
                "serving.fleet.calls": self.calls("serving.fleet", "choose"),
                "dse.capacity.candidates": self.calls(
                    "serving.fleet", "serve_stream", caller_layer="dse.capacity"
                ),
                "dse.capacity.pruned": c.get("pruned", 0),
                "dse.search.points": points,
                "dse.search.feasible_frac": (
                    c.get("feasible", 0) / points if points else 0.0
                ),
                "rnn.builds": self.calls("rnn"),
                "plasticine.calls": self.calls("plasticine"),
            }
        )
        for name in MAPPING_PASSES:
            out[f"mapping.{name}.self_s"] = c.get(f"pass.{name}", 0.0)
        return out


# -- installation -------------------------------------------------------------


def _repro_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def _patch_function(module, name: str, make) -> None:
    """Replace function ``module.name`` in every repro module binding it."""
    original = getattr(module, name)
    wrapped = make(original)
    for mod in _repro_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def _patch_method(classes, name: str, make) -> None:
    """Wrap method ``name`` once, on each class that defines it for ``classes``."""
    owners = []
    for cls in classes:
        for klass in cls.__mro__:
            if name in vars(klass):
                if klass not in owners:
                    owners.append(klass)
                break
    for klass in owners:
        setattr(klass, name, make(vars(klass)[name]))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    """Patch every layer's entry points to record spans on ``tracer``."""
    from repro.serving import batching, engine, events, fleet, platform, scheduler, stats

    importlib.import_module("repro.serving.platforms")
    search = importlib.import_module("repro.dse.search")
    capacity = importlib.import_module("repro.dse.capacity")
    mapper = importlib.import_module("repro.mapping.mapper")
    passes = importlib.import_module("repro.mapping.passes")
    simulator = importlib.import_module("repro.plasticine.simulator")
    importlib.import_module("repro.dse.tuner")
    importlib.import_module("repro.dse.runner")

    wrap = tracer.wrap
    bump = tracer.bump

    _patch_function(events, "run_stream", lambda f: wrap("serving.events", "run_stream", f))
    # The planner's PruningSummary overrides observe_served.
    _patch_method(
        [stats.StreamSummary, *_subclasses(stats.StreamSummary)],
        "observe_served",
        lambda f: wrap("serving.stats", "observe_served", f),
    )

    sched_classes = [
        type(scheduler.get_scheduler(n)) for n in scheduler.available_schedulers()
    ]
    for name in ("push", "pop"):
        _patch_method(
            sched_classes, name, lambda f, n=name: wrap("serving.scheduler", n, f)
        )

    def observe_batch(entries) -> None:
        if not entries:
            return
        bump("batches")
        bump("batched_requests", len(entries))
        steps = [entry.request.task.timesteps for entry in entries]
        bump("padded_steps", max(steps) * len(steps))
        bump("useful_steps", sum(steps))

    batch_classes = [type(batching.get_batcher(n)) for n in batching.available_batchers()]
    _patch_method(
        batch_classes,
        "take",
        lambda f: wrap("serving.batching", "take", f, observe=observe_batch),
    )

    for name in (*_LOOKUPS, "prepare"):
        _patch_method(
            [engine.ServingEngine], name, lambda f, n=name: wrap("serving.engine", n, f)
        )
    platform_classes = [
        type(platform.get_platform(n)) for n in platform.available_platforms()
    ]
    _patch_method(
        platform_classes, "prepare", lambda f: wrap("serving.engine", "compile", f)
    )

    _patch_method(
        list(_subclasses(events.StreamDispatcher)),
        "choose",
        lambda f: wrap("serving.fleet", "choose", f),
    )
    _patch_method(
        [fleet.Fleet], "serve_stream", lambda f: wrap("serving.fleet", "serve_stream", f)
    )

    def observe_plan(plan) -> None:
        bump("pruned", plan.n_pruned)

    _patch_function(
        capacity,
        "plan_capacity",
        lambda f: wrap("dse.capacity", "plan_capacity", f, observe=observe_plan),
    )

    def traced_stream(fn):
        @functools.wraps(fn)
        def make_stream(*args, **kwargs):
            stream = fn(*args, **kwargs)
            if isinstance(stream, tuple):  # materialized inside the call
                return stream
            return tracer.iterate("serving.traffic", fn.__name__, stream)

        return make_stream

    # The planner builds its stream once; only its binding is traced, so
    # the serving workloads' own generators are not double-counted.
    capacity.diurnal_arrivals = traced_stream(capacity.diurnal_arrivals)

    def observe_search(result) -> None:
        bump("points", len(result.points))
        bump("feasible", len(result.feasible_points()))

    _patch_function(
        search, "search", lambda f: wrap("dse.search", "search", f, observe=observe_search)
    )
    _patch_function(
        search, "build_task_program", lambda f: wrap("rnn", "build_task_program", f)
    )

    _patch_function(mapper, "map_rnn_program", lambda f: wrap("mapping", "map_rnn_program", f))

    # Per-pass times come from the pass manager's own timings, through
    # its trace hook: MappedDesign.pass_timings is taken inside the last
    # pass, report_resources, so it cannot hold that pass's time.
    def on_pass(name: str, _state, seconds: float) -> None:
        bump(f"pass.{name}", seconds)

    default = passes.PassManager.default.__func__

    @functools.wraps(default)
    def default_with_hook(cls, config=None, *, verify=True, trace_hook=None):
        return default(cls, config, verify=verify, trace_hook=trace_hook or on_pass)

    passes.PassManager.default = classmethod(default_with_hook)
    _patch_function(
        simulator, "simulate_pipeline", lambda f: wrap("plasticine", "simulate_pipeline", f)
    )
