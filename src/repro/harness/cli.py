"""Command-line interface: regenerate any table or figure.

Usage::

    python -m repro table3|table4|table5|table6|table7
    python -m repro figure1_3|figure4|figure6|figure7
    python -m repro claims           # the abstract's headline claims
    python -m repro serve lstm 1024  # one task on all registered platforms
    python -m repro serve --platform plasticine          # one platform
    python -m repro serve lstm 512 --stream --rate 400 --slo-ms 5
    python -m repro all              # everything (slow: runs the DSE)
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def _cmd_table(name: str) -> Callable[[argparse.Namespace], str]:
    def run(args: argparse.Namespace) -> str:
        from repro.harness import tables

        fn = getattr(tables, name)
        out = fn()
        return out.text if hasattr(out, "text") else out

    return run


def _cmd_table7(args: argparse.Namespace) -> str:
    from repro.errors import DSEError
    from repro.harness import tables

    if args.dse_workers is not None and args.dse_workers < 1:
        raise DSEError("--dse-workers must be >= 1")
    return tables.table7(pass_axis=args.pass_axis, workers=args.dse_workers)


def _cmd_figure(name: str) -> Callable[[argparse.Namespace], str]:
    def run(args: argparse.Namespace) -> str:
        from repro.harness import figures

        return getattr(figures, name)()

    return run


def _cmd_claims(args: argparse.Namespace) -> str:
    from repro.analysis.efficiency import abstract_claims

    return abstract_claims().text


def _cmd_serve(args: argparse.Namespace) -> str:
    from repro.errors import ServingError
    from repro.serving import available_platforms, get_platform
    from repro.workloads.deepbench import task

    _validate_serve_flags(args)
    t = task(args.kind, args.hidden, args.timesteps)
    if args.plan_capacity:
        return _serve_plan_capacity(args, t)
    if args.platform:
        get_platform(args.platform)  # fail fast with the registry's message
        names = [args.platform]
    elif args.fleet_mix:
        # One row: the whole heterogeneous fleet is the "platform".
        names = [args.fleet_mix]
    else:
        names = list(available_platforms())
    if args.listen and args.clients is None:
        if not args.platform:
            raise ServingError(
                "--listen without --clients serves forever and needs one "
                "platform; pass --platform NAME"
            )
        return _serve_listen_forever(args, t)
    if args.clients is not None:
        return _serve_live_table(args, t, names)
    if args.stream:
        return _serve_stream_table(args, t, names)
    return _serve_once_table(t, names)


def _validate_serve_flags(args: argparse.Namespace) -> None:
    """Cross-flag validation for the parallel/live serving frontends.

    Also resolves the ``--mode`` default: ``full`` classically, but a
    sharded run *is* summary serving (each worker streams its shard
    through O(1)-memory statistics), so ``--shards`` defaults to
    ``summary`` and an explicit ``--mode full`` with it is rejected
    rather than silently downgraded.
    """
    from repro.errors import ServingError
    from repro.serving.request import _check_budget_ms

    if args.shards is not None and args.shards < 1:
        raise ServingError("--shards must be >= 1")
    if args.workers is not None:
        if args.workers < 1:
            raise ServingError("--workers must be >= 1")
        if args.shards is None:
            raise ServingError("--workers only applies to a sharded run; add --shards N")
    if args.clients is not None and args.clients < 1:
        raise ServingError("--clients must be >= 1")
    if args.listen:
        _parse_listen(args.listen)  # fail fast on a malformed spec
    if args.shards is not None:
        if args.listen:
            raise ServingError(
                "--shards replays a stream across worker processes and "
                "--listen starts a live server; pick one frontend"
            )
        if args.mode == "full":
            raise ServingError(
                "--shards merges per-shard summaries and cannot "
                "materialize every response; drop --mode full (sharded "
                "runs default to --mode summary)"
            )
    if args.fleet_mix:
        from repro.serving import parse_fleet_mix

        parse_fleet_mix(args.fleet_mix)  # fail fast on a malformed spec
        if args.platform:
            raise ServingError(
                "--fleet-mix names the whole fleet roster; drop --platform"
            )
        if args.replicas != 1:
            raise ServingError(
                "--fleet-mix sets the replica count from the roster "
                "(e.g. plasticine:2,gpu:1 is three replicas); drop --replicas"
            )
        if args.listen or args.clients is not None:
            raise ServingError(
                "--fleet-mix drives the simulated stream; the live "
                "frontend serves a single platform"
            )
    if args.plan_capacity:
        if args.listen or args.clients is not None or args.shards is not None:
            raise ServingError(
                "--plan-capacity sweeps candidate fleets over its own "
                "diurnal workload; drop --listen/--clients/--shards"
            )
        if args.trace or args.mix:
            raise ServingError(
                "--plan-capacity generates its own diurnal workload; "
                "drop --trace/--mix"
            )
    if args.dse_workers is not None and args.dse_workers < 1:
        raise ServingError("--dse-workers must be >= 1")
    if not args.plan_capacity and (
        args.dse_workers is not None or not args.dse_prune
    ):
        raise ServingError(
            "--dse-workers/--no-dse-prune tune the capacity-planner DSE; "
            "add --plan-capacity"
        )
    _check_budget_ms("--slo-ms", args.slo_ms)
    _check_budget_ms("--timeout-ms", args.timeout_ms)
    _check_budget_ms("--hedge-ms", args.hedge_ms)
    if args.retries < 0:
        raise ServingError("--retries must be >= 0")
    if args.retries and args.timeout_ms is None:
        raise ServingError(
            "--retries re-dispatches timed-out requests; add --timeout-ms"
        )
    faulty = args.faults != "none" or args.hedge_ms is not None or args.retries
    if args.plan_capacity and (
        faulty or args.timeout_ms is not None or args.autoscale
    ):
        raise ServingError(
            "--plan-capacity scores clean candidate fleets; drop "
            "--faults/--retries/--hedge-ms/--timeout-ms/--autoscale"
        )
    if faulty and (args.listen or args.clients is not None):
        raise ServingError(
            "--faults/--retries/--hedge-ms inject into the simulated "
            "stream; the live frontend honors only --timeout-ms"
        )
    if args.mode is None:
        args.mode = "summary" if args.shards is not None else "full"
    if (
        args.shards is not None
        or args.listen
        or args.clients is not None
        or faulty
        or args.timeout_ms is not None
        or args.fleet_mix
    ):
        # The parallel, live, fault-injected, and mixed-fleet frontends
        # are stream serving by definition.
        args.stream = True


#: Fallback sequence length for --mix specs naming a task outside the
#: DeepBench suite without an explicit timesteps component.
_MIX_DEFAULT_TIMESTEPS = 25


def _request_count(text: str) -> int:
    """``--requests`` value: a positive whole number, scientific notation
    welcome (``--requests 1e6``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid request count {text!r}") from None
    if not value.is_integer() or value < 1:
        raise argparse.ArgumentTypeError(
            f"--requests needs a positive whole number, got {text!r}"
        )
    return int(value)


def _parse_mix(spec: str):
    """Parse ``--mix`` specs:
    ``kind:hidden[:timesteps[dDEC]][:layers][@slo_ms][^prio]``.

    Returns a list of (task, slo_ms, priority) tuples, one per
    comma-separated entry.  Tasks in the DeepBench suite resolve their
    timesteps automatically; anything else defaults to 25 timesteps.
    ``25d10`` in the timesteps field makes the task seq2seq (25 encoder
    + 10 decoder steps); a fourth field stacks that many layers —
    ``lstm:1024:30d30:2`` is a 2-layer GNMT-style encoder-decoder.
    """
    from repro.errors import ServingError, WorkloadError
    from repro.workloads.deepbench import RNNTask, task

    entries = []
    for part in spec.split(","):
        body = part.strip()
        if not body:
            continue
        try:
            priority = 0
            slo_ms = None
            if "^" in body:
                body, _, prio_text = body.rpartition("^")
                priority = int(prio_text)
            if "@" in body:
                body, _, slo_text = body.rpartition("@")
                slo_ms = float(slo_text)
            fields = body.split(":")
            if len(fields) not in (2, 3, 4):
                raise ValueError("wrong field count")
            kind, hidden = fields[0], int(fields[1])
            timesteps = None
            decoder = 0
            if len(fields) >= 3:
                t_text, _, dec_text = fields[2].partition("d")
                timesteps = int(t_text)
                decoder = int(dec_text) if dec_text else 0
            layers = int(fields[3]) if len(fields) == 4 else 1
            if layers < 1 or decoder < 0:
                # Reject rather than fall through to the single-layer
                # lookup — a typo must not silently serve a different
                # workload than the user named.
                raise ValueError("layers must be >= 1 and decoder >= 0")
        except ValueError as exc:
            raise ServingError(
                f"bad --mix entry {part!r}; expected "
                f"kind:hidden[:timesteps[dDECODER]][:layers][@slo_ms][^priority]"
            ) from exc
        if layers > 1 or decoder > 0:
            t = RNNTask(
                kind,
                hidden,
                timesteps if timesteps is not None else _MIX_DEFAULT_TIMESTEPS,
                layers=layers,
                decoder_timesteps=decoder,
                in_table6=False,
            )
        else:
            try:
                t = task(kind, hidden, timesteps)
            except WorkloadError:
                t = RNNTask(kind, hidden, _MIX_DEFAULT_TIMESTEPS)
        entries.append((t, slo_ms, priority))
    if not entries:
        raise ServingError(f"--mix {spec!r} names no tasks")
    return entries


def _mix_lazy(tenant_kwargs: tuple) -> object:
    """Module-level lazy --mix factory (closures cannot cross a
    multiprocessing pool, so sharded runs need a picklable callable)."""
    from repro.serving import mix, poisson_arrivals

    return mix(*(poisson_arrivals(**kw) for kw in tenant_kwargs), presorted=True)


def _build_stream(args: argparse.Namespace, default_task):
    """Build the arrival stream for --stream mode.

    Returns ``(make_arrivals, description)`` where ``make_arrivals()``
    yields a fresh stream per call (each platform consumes its own).
    Precedence: --trace replays a recorded stream verbatim; --mix
    interleaves one Poisson tenant per spec (splitting --rate and
    --requests evenly); otherwise a single Poisson stream of the
    positional task.

    With ``--mode summary`` everything is *lazy*: the trace is read line
    by line (:func:`~repro.serving.traffic.iter_trace`), generators
    yield requests one at a time (``materialize=False``), and --mix
    merges sorted tenant streams incrementally — a million-request
    stream never sits in memory.  The lazy factories are built from
    module-level callables (``functools.partial``), so ``--shards`` can
    ship them to pool workers for per-shard re-generation.
    """
    from functools import partial
    from repro.errors import ServingError
    from repro.serving import (
        iter_trace,
        length_sampler,
        mix,
        poisson_arrivals,
        record_trace,
        replay_trace,
    )

    lazy = args.mode == "summary"
    lengths = length_sampler(args.length_dist) if args.length_dist else None
    if args.trace:
        if lengths is not None:
            raise ServingError(
                "--length-dist cannot apply to a replayed trace: the "
                "trace already records every request's length; drop one "
                "of --trace / --length-dist"
            )
        if lazy:
            factory = partial(iter_trace, args.trace)
        else:
            arrivals = replay_trace(args.trace)

            def factory():
                return arrivals
        desc = f"trace {args.trace}"
    elif args.mix:
        specs = _parse_mix(args.mix)
        per_rate = args.rate / len(specs)
        per_n = max(1, args.requests // len(specs))
        tenant_kwargs = tuple(
            dict(
                task=t,
                rate_per_s=per_rate,
                n_requests=per_n,
                seed=args.seed + i,
                tenant=t.name,
                priority=priority,
                slo_ms=slo_ms,
                lengths=lengths,
                materialize=not lazy,
            )
            for i, (t, slo_ms, priority) in enumerate(specs)
        )

        if lazy:
            factory = partial(_mix_lazy, tenant_kwargs)
        else:
            arrivals = mix(
                *(poisson_arrivals(**kw) for kw in tenant_kwargs)
            )

            def factory():
                return arrivals
        desc = f"{len(specs)}-tenant mix at {args.rate:.0f} req/s"
    else:
        if lazy:
            factory = partial(
                poisson_arrivals,
                default_task,
                rate_per_s=args.rate,
                n_requests=args.requests,
                seed=args.seed,
                tenant=default_task.name,
                lengths=lengths,
                materialize=False,
            )
        else:
            arrivals = poisson_arrivals(
                default_task,
                rate_per_s=args.rate,
                n_requests=args.requests,
                seed=args.seed,
                tenant=default_task.name,
                lengths=lengths,
            )

            def factory():
                return arrivals
        desc = f"{default_task.name} at {args.rate:.0f} req/s"
    if lengths is not None and not args.trace:
        desc += f", lengths {args.length_dist}"
    if args.record_trace:
        # record_trace streams line by line, so one lazy pass suffices.
        record_trace(factory(), args.record_trace)
    return factory, desc


def _tenant_breakdown_table(name: str, report, slo_ms: float) -> str:
    from repro.harness.report import format_table

    rows = []
    for tenant, sub in report.per_tenant().items():
        # Works for both the materialized report and the O(1) summary:
        # the single per-request SLO tag if the tenant has one, else the
        # stream-level SLO.
        tenant_slo = sub.uniform_slo_ms()
        if tenant_slo is None:
            tenant_slo = slo_ms
        rows.append(
            [
                tenant,
                sub.n_requests,
                round(sub.p50_ms, 3),
                round(sub.p99_ms, 3),
                tenant_slo,
                f"{100.0 * sub.slo_attainment:.1f}%",
            ]
        )
    return format_table(
        ["tenant", "requests", "P50 ms", "P99 ms", "SLO ms", "SLO attained"],
        rows,
        title=f"Per-tenant breakdown ({name})",
    )


def _serve_once_table(t, names: list[str]) -> str:
    from repro.harness.report import format_table
    from repro.serving import ServingEngine

    results = {name: ServingEngine(name).serve(t).result for name in names}
    plat = results.get("plasticine")
    headers = ["platform", "latency ms", "eff TFLOPS", "power W"]
    if plat is not None:
        headers.insert(3, "plasticine speedup")
    rows = []
    for res in results.values():
        row = [
            res.platform,
            res.latency_ms,
            res.effective_tflops,
            res.power_w if res.power_w is not None else "-",
        ]
        if plat is not None:
            row.insert(3, plat.speedup_over(res))
        rows.append(row)
    return format_table(headers, rows, title=f"Serving {t.name}")


def _parse_autoscale(spec: str):
    """Parse ``--autoscale MIN:MAX`` into an Autoscaler."""
    from repro.errors import ServingError
    from repro.serving import Autoscaler

    try:
        lo_text, _, hi_text = spec.partition(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise ServingError(
            f"bad --autoscale spec {spec!r}; expected MIN:MAX replica counts"
        ) from exc
    return Autoscaler(min_replicas=lo, max_replicas=hi)


def _scale_events_table(name: str, report) -> str:
    from repro.harness.report import format_table

    rows = [
        [f"{e.time_s * 1e3:.3f}", e.action, e.replicas, e.queue_depth, e.reason]
        for e in report.scale_events
    ]
    return format_table(
        ["t ms", "action", "replicas", "queue depth", "reason"],
        rows,
        title=f"Scale events ({name}: peak {report.n_replicas} replicas, "
        f"{report.active_replicas} active at end)",
    )


def _serve_plan_capacity(args: argparse.Namespace, t) -> str:
    """--plan-capacity: the fleet-level DSE over the serve flags.

    Sweeps platform mix × fleet size (and whatever --policy/--scheduler/
    --batcher name) for the cheapest fleet holding P99 < --slo-ms on a
    seeded diurnal workload peaking at --rate req/s, and prints the
    cost/latency frontier.  --fleet-mix narrows the platform set (and
    its total count caps the fleet size); --platform pins a single
    platform; otherwise the default plasticine/brainwave/gpu space up to
    --replicas (min 3) replicas is searched.
    """
    from repro.dse import FleetSpace, plan_capacity
    from repro.errors import DSEError
    from repro.harness.report import format_table
    from repro.serving import parse_fleet_mix

    if args.fleet_mix:
        roster = parse_fleet_mix(args.fleet_mix)
        platforms = tuple(sorted(set(roster)))
        max_replicas = len(roster)
    elif args.platform:
        platforms = (args.platform,)
        max_replicas = max(args.replicas, 3)
    else:
        platforms = ("plasticine", "brainwave", "gpu")
        max_replicas = max(args.replicas, 3)
    space = FleetSpace(
        platforms=platforms,
        max_replicas=max_replicas,
        policies=(args.policy,),
        schedulers=(args.scheduler,),
        batchers=(args.batcher,),
        max_batch=args.max_batch if args.batcher != "none" else None,
    )
    plan = plan_capacity(
        t,
        slo_ms=args.slo_ms,
        peak_rate_per_s=args.rate,
        n_requests=args.requests,
        seed=args.seed,
        space=space,
        workers=args.dse_workers,
        prune=args.dse_prune,
    )
    rows = [
        [
            p.mix,
            p.replicas,
            round(p.p99_ms, 3),
            "yes" if p.meets_slo else "NO",
            round(p.throughput_rps, 1),
            round(p.joules_per_request, 6),
            round(p.fleet_watt_hours, 6),
            round(p.cost_usd_per_1m, 4),
        ]
        for p in plan.frontier()
    ]
    table = format_table(
        ["fleet", "replicas", "P99 ms", f"P99<{args.slo_ms:g}ms",
         "req/s", "J/req", "fleet Wh", "$/1M req"],
        rows,
        title=(
            f"Capacity frontier for {t.name} "
            f"(diurnal peak {args.rate:.0f} req/s, {args.requests} "
            f"requests, {space.n_candidates()} candidate fleets, "
            f"{args.policy})"
        ),
    )
    try:
        best = plan.best
        verdict = (
            f"cheapest fleet holding P99 < {args.slo_ms:g} ms: {best.mix} "
            f"at ${best.cost_usd_per_1m:.4f}/1M requests "
            f"(P99 {best.p99_ms:.3f} ms, {best.joules_per_request:.6f} J/req)"
        )
    except DSEError as exc:
        verdict = f"no feasible fleet: {exc}"
    if plan.n_pruned:
        full = len(plan.points) * args.requests
        verdict += (
            f"\npruned {plan.n_pruned}/{len(plan.points)} candidates early: "
            f"{plan.simulated_requests}/{full} requests simulated"
        )
    return f"{table}\n\n{verdict}"


def _serve_stream_table(args: argparse.Namespace, t, names: list[str]) -> str:
    from repro.errors import ServingError
    from repro.harness.report import format_table
    from repro.serving import Fleet, ServingEngine

    if args.replicas < 1:
        raise ServingError("--replicas must be >= 1")
    autoscaler = _parse_autoscale(args.autoscale) if args.autoscale else None
    fault_kwargs = dict(
        faults=args.faults,
        fault_seed=args.fault_seed,
        timeout_ms=args.timeout_ms,
        retries=args.retries,
        hedge_ms=args.hedge_ms,
    )
    make_arrivals, desc = _build_stream(args, t)
    # Summary mode streams lazily, which requires (and all built-in
    # sources guarantee) time-ordered input with monotone ids.
    presorted = args.mode == "summary"
    batched = args.batcher != "none"
    mixed = bool(args.fleet_mix)
    n_replicas = args.replicas
    if mixed:
        from itertools import groupby

        from repro.serving import parse_fleet_mix

        roster = parse_fleet_mix(args.fleet_mix)
        n_replicas = len(roster)
        # Canonical name:count label, e.g. "plasticine:2,gpu:1".
        names = [
            ",".join(f"{n}:{len(list(g))}" for n, g in groupby(roster))
        ]
    n_requests = 0
    rows = []
    breakdowns = []
    for name in names:
        arrivals = None if args.shards is not None else make_arrivals()
        if args.shards is not None:
            from repro.serving import serve_parallel

            report = serve_parallel(
                make_arrivals,
                name,
                shards=args.shards,
                shard_by=args.shard_by,
                workers=args.workers,
                replicas=args.replicas,
                policy=args.policy,
                scheduler=args.scheduler,
                batcher=args.batcher,
                max_batch=args.max_batch,
                slo_ms=args.slo_ms,
                autoscaler=autoscaler,
                mix=args.fleet_mix,
                affinity_by=args.affinity_by,
                **fault_kwargs,
            )
        elif mixed:
            server = Fleet(
                args.fleet_mix,
                policy=args.policy,
                affinity_by=args.affinity_by,
            )
            report = server.serve_stream(
                arrivals,
                slo_ms=args.slo_ms,
                scheduler=args.scheduler,
                batcher=args.batcher,
                max_batch=args.max_batch,
                autoscaler=autoscaler,
                mode=args.mode,
                presorted=presorted,
                **fault_kwargs,
            )
        elif args.replicas > 1 or autoscaler is not None:
            server = Fleet(name, replicas=args.replicas, policy=args.policy)
            report = server.serve_stream(
                arrivals,
                slo_ms=args.slo_ms,
                scheduler=args.scheduler,
                batcher=args.batcher,
                max_batch=args.max_batch,
                autoscaler=autoscaler,
                mode=args.mode,
                presorted=presorted,
                **fault_kwargs,
            )
        else:
            report = ServingEngine(name).serve_stream(
                arrivals,
                slo_ms=args.slo_ms,
                scheduler=args.scheduler,
                batcher=args.batcher,
                max_batch=args.max_batch,
                mode=args.mode,
                presorted=presorted,
                **fault_kwargs,
            )
        n_requests = report.n_requests
        row = [
            name,
            report.mean_service_ms,
            report.p50_ms,
            report.p99_ms,
            report.mean_queue_delay_ms,
            round(report.max_rate_per_s, 1),
            f"{100.0 * report.slo_attainment:.1f}%",
            "SATURATED" if report.saturated else
            ("yes" if report.slo_attained else "NO"),
        ]
        if batched:
            row.insert(2, round(report.mean_batch_size, 2))
            row.insert(3, f"{100.0 * report.padding_waste_frac:.1f}%")
        if mixed:
            row.append(round(report.joules_per_request, 6))
            row.append(round(report.cost_usd_per_1m_requests, 4))
        rows.append(row)
        if len(report.tenants) > 1:
            breakdowns.append(_tenant_breakdown_table(name, report, args.slo_ms))
        if report.scale_events:
            breakdowns.append(_scale_events_table(name, report))
        if report.fault_stats.any:
            s = report.fault_stats
            breakdowns.append(
                f"[{name} fault injection ({report.faults}): "
                f"crashes {s.crashes} "
                f"(downtime {s.downtime_s * 1e3:.3f} ms), "
                f"stragglers {s.stragglers}, preemptions {s.preemptions}, "
                f"retries {s.retries}, timeouts {s.timeouts}, "
                f"hedges {s.hedges} ({s.hedge_wins} won)]"
            )
    title = (
        f"Streaming {desc} "
        f"({n_requests} requests, {n_replicas} replica(s), {args.policy}, "
        f"{args.scheduler}"
    )
    if batched:
        title += f", {args.batcher} batching <= {args.max_batch}"
    if autoscaler is not None:
        title += f", autoscale {args.autoscale}"
    if args.shards is not None:
        title += f", {args.shards} {args.shard_by} shard(s)"
    if args.faults != "none":
        title += f", faults {args.faults}"
    if args.mode == "summary":
        title += ", summary mode"
    title += ")"
    headers = ["platform", "service ms", "P50 ms", "P99 ms", "queue ms",
               "max req/s", "SLO attained", f"P99<={args.slo_ms}ms"]
    if batched:
        headers.insert(2, "mean batch")
        headers.insert(3, "pad waste")
    if mixed:
        headers.extend(["J/req", "$/1M req"])
    main_table = format_table(headers, rows, title=title)
    parts = [main_table, *breakdowns]
    if args.record_trace:
        parts.append(f"[trace recorded: {args.record_trace}]")
    return "\n\n".join(parts)


def _parse_listen(spec: str):
    """Parse ``--listen HOST:PORT`` or ``--listen unix:PATH``."""
    from repro.errors import ServingError

    if spec.startswith("unix:"):
        path = spec[len("unix:"):]
        if not path:
            raise ServingError("bad --listen spec: unix: needs a socket path")
        return ("unix", path, None)
    host, sep, port_text = spec.rpartition(":")
    try:
        if not sep or not host:
            raise ValueError
        port = int(port_text)
        if not 0 <= port <= 65535:
            raise ValueError
    except ValueError:
        raise ServingError(
            f"bad --listen spec {spec!r}; expected HOST:PORT or unix:PATH"
        ) from None
    return ("tcp", host, port)


async def _live_clients(server, bound, requests, n_clients: int):
    """Drive ``n_clients`` concurrent closed-loop clients to completion.

    Each client owns a round-robin slice of the request stream and
    submits it one request at a time, awaiting every response before
    sending the next — in-process via ``server.submit`` or, when
    ``bound`` names a listening socket, over a real connection speaking
    the JSONL protocol.
    """
    import asyncio
    import json

    from repro.errors import ServingError
    from repro.serving import request_to_json

    async def in_process(mine):
        return [await server.submit(req) for req in mine]

    async def over_socket(mine):
        kind, host, port = bound
        if kind == "unix":
            reader, writer = await asyncio.open_unix_connection(host)
        else:
            reader, writer = await asyncio.open_connection(host, port)
        replies = []
        for req in mine:
            writer.write(
                (json.dumps(request_to_json(req)) + "\n").encode()
            )
            await writer.drain()
            reply = json.loads(await reader.readline())
            if not reply.get("ok"):
                raise ServingError(f"server refused a request: {reply.get('error')}")
            replies.append(reply)
        writer.close()
        await writer.wait_closed()
        return replies

    drive = in_process if bound is None else over_socket
    slices = [requests[i::n_clients] for i in range(n_clients)]
    await asyncio.gather(*(drive(part) for part in slices if part))


def _serve_live_table(args: argparse.Namespace, t, names: list[str]) -> str:
    """--clients N: a live-server smoke — N concurrent asyncio clients.

    Builds the same arrival stream the simulator would replay, serves it
    through a :class:`~repro.serving.server.ServingServer` (over the
    socket when --listen is also given, in-process otherwise) on a
    virtual clock, drains, and reports the server's stream summary plus
    the conservation check (accepted == served == answered).
    """
    import asyncio

    from repro.errors import ServingError
    from repro.harness.report import format_table
    from repro.serving.server import ServingServer

    make_arrivals, desc = _build_stream(args, t)
    requests = list(make_arrivals())
    bound_spec = _parse_listen(args.listen) if args.listen else None

    async def run_one(name: str):
        server = ServingServer(
            name,
            replicas=args.replicas,
            scheduler=args.scheduler,
            batcher=args.batcher,
            max_batch=args.max_batch,
            slo_ms=args.slo_ms,
            timeout_ms=args.timeout_ms,
        )
        await server.start()
        bound = None
        if bound_spec is not None:
            kind, host, port = bound_spec
            if kind == "unix":
                bound = ("unix", await server.listen_unix(host), None)
            else:
                bound = ("tcp", *await server.listen(host, port))
        await _live_clients(server, bound, requests, args.clients)
        await server.drain()
        return server

    rows = []
    for name in names:
        server = asyncio.run(run_one(name))
        summary = server.summary
        if server.accepted != len(requests) or server.served != len(requests):
            raise ServingError(
                f"live serving lost requests on {name}: accepted "
                f"{server.accepted}, served {server.served} of {len(requests)}"
            )
        rows.append(
            [
                name,
                summary.n_requests,
                round(summary.mean_service_ms, 3),
                round(summary.p50_ms, 3),
                round(summary.p99_ms, 3),
                round(summary.mean_batch_size, 2),
                f"{100.0 * summary.slo_attainment:.1f}%",
                "yes",
            ]
        )
    transport = "socket" if args.listen else "in-process"
    title = (
        f"Live serving {desc} ({len(requests)} requests, {args.clients} "
        f"{transport} client(s), {args.replicas} replica(s), "
        f"{args.scheduler}, {args.batcher} batching)"
    )
    return format_table(
        ["platform", "served", "service ms", "P50 ms", "P99 ms",
         "mean batch", "SLO attained", "drained"],
        rows,
        title=title,
    )


def _serve_listen_forever(args: argparse.Namespace, t) -> str:
    """--listen without --clients: serve real clients until interrupted.

    Runs on a real (wall) clock; Ctrl-C triggers the graceful drain and
    the command exits with the stream summary of everything served.
    """
    import asyncio

    from repro.serving.server import RealClock, ServingServer

    kind, host, port = _parse_listen(args.listen)
    box: dict = {}

    async def run() -> None:
        server = ServingServer(
            args.platform,
            replicas=args.replicas,
            scheduler=args.scheduler,
            batcher=args.batcher,
            max_batch=args.max_batch,
            slo_ms=args.slo_ms,
            clock=RealClock(),
            timeout_ms=args.timeout_ms,
        )
        await server.start()
        box["server"] = server
        if kind == "unix":
            where = await server.listen_unix(host)
        else:
            bhost, bport = await server.listen(host, port)
            where = f"{bhost}:{bport}"
        print(
            f"serving {args.platform} on {where} "
            f"(JSONL trace schema; Ctrl-C to drain)",
            file=sys.stderr,
            flush=True,
        )
        try:
            while True:
                await asyncio.sleep(3600)
        finally:
            await server.drain()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    server = box.get("server")
    if server is None or not server.served:
        return "live server drained: nothing served"
    summary = server.summary
    return (
        f"live server drained: {summary.n_requests} served, "
        f"P50 {summary.p50_ms:.3f} ms, P99 {summary.p99_ms:.3f} ms, "
        f"SLO attained {100.0 * summary.slo_attainment:.1f}%"
    )


def _cmd_all(args: argparse.Namespace) -> str:
    from repro.harness import (
        figure1_3_footprints,
        figure4_fragmentation,
        figure6_pcu_timing,
        figure7_layouts,
        table3,
        table4,
        table5,
        table6,
        table7,
    )

    parts = [
        table3(), table4(), table5(), table6().text, table7(),
        figure1_3_footprints(), figure4_fragmentation(),
        figure6_pcu_timing(), figure7_layouts(),
    ]
    return "\n\n".join(parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures from 'Serving RNNs Efficiently "
        "with a Spatial Accelerator' (SysML 2019).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("table3", "table4", "table5", "table6"):
        sub.add_parser(name, help=f"regenerate {name}").set_defaults(
            fn=_cmd_table(name)
        )
    table7_parser = sub.add_parser(
        "table7",
        help="regenerate table7 (per-task DSE parameters)",
        description="Run the per-task chip DSE and print Table 7: "
        "Brainwave's fixed parameters, the reconstructed paper "
        "parameters, and the DSE optimum per DeepBench task.",
    )
    table7_parser.add_argument(
        "--pass-axis",
        action="store_true",
        help="also search the optimization-pass axis (gate fusion x "
        "double buffering) and report which pass config wins per task",
    )
    table7_parser.add_argument(
        "--dse-workers",
        type=int,
        default=None,
        metavar="N",
        help="evaluate each task's parameter sweep on an N-process pool; "
        "bit-identical results for any worker count (default: sequential)",
    )
    table7_parser.set_defaults(fn=_cmd_table7)
    for cli_name, fn_name in (
        ("figure1_3", "figure1_3_footprints"),
        ("figure4", "figure4_fragmentation"),
        ("figure6", "figure6_pcu_timing"),
        ("figure7", "figure7_layouts"),
    ):
        sub.add_parser(cli_name, help=f"regenerate {cli_name}").set_defaults(
            fn=_cmd_figure(fn_name)
        )
    sub.add_parser("claims", help="check the abstract's claims").set_defaults(
        fn=_cmd_claims
    )

    # Choices come from the live registries, so platforms, schedulers,
    # and batchers registered by plugins show up in --help automatically.
    from repro.serving import (
        AFFINITY_KEYS,
        SCHEDULING_POLICIES,
        available_batchers,
        available_fault_policies,
        available_platforms,
        available_schedulers,
    )

    serve = sub.add_parser(
        "serve",
        help="serve one task on a registered platform (default: all)",
        description="Serve a DeepBench task through the serving engine. "
        "With --stream, run a Poisson request stream through the "
        "discrete-event queue simulation and report P50/P99 against the "
        "SLO.",
        epilog="The --mix mini-grammar "
        "(kind:hidden[:timesteps][@slo_ms][^priority]), the sharded "
        "multi-core replay (--shards/--workers/--shard-by), the live "
        "asyncio frontend (--listen/--clients), and the full serving "
        "CLI reference are documented in docs/CLI.md.",
    )
    serve.add_argument("kind", choices=["lstm", "gru"], nargs="?", default="lstm")
    serve.add_argument("hidden", type=int, nargs="?", default=512)
    serve.add_argument("timesteps", type=int, nargs="?", default=None)
    serve.add_argument(
        "--platform",
        metavar="NAME",
        help="registered platform name, one of: "
        f"{', '.join(available_platforms())} "
        "(default: every registered platform)",
    )
    serve.add_argument(
        "--stream", action="store_true", help="simulate a Poisson request stream"
    )
    serve.add_argument(
        "--rate", type=float, default=400.0, help="stream arrival rate, req/s"
    )
    serve.add_argument(
        "--slo-ms", type=float, default=5.0, help="latency SLO for the stream"
    )
    serve.add_argument(
        "--requests",
        type=_request_count,
        default=1000,
        help="number of stream requests (scientific notation welcome: 1e6)",
    )
    serve.add_argument(
        "--mode",
        choices=("full", "summary"),
        default=None,
        help="stream accounting: 'full' materializes every response "
        "(bit-identical to the classic report); 'summary' streams "
        "arrivals lazily through O(1)-memory online statistics — the "
        "mode for million-request runs (see docs/CLI.md). Default: "
        "full, or summary when --shards is given (sharded runs merge "
        "summaries and reject an explicit --mode full)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="split the stream into N shards, simulate each on its own "
        "event loop in a multiprocessing pool, and merge the per-shard "
        "summaries — exact counter parity with the single-process run "
        "(stream mode; implies --mode summary)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --shards (default: min(shards, CPUs)); "
        "a pure throughput knob — the merged report is identical for "
        "any worker count",
    )
    serve.add_argument(
        "--shard-by",
        choices=("replica", "tenant", "hash"),
        default="replica",
        help="how --shards partitions the stream: 'replica' by arrival "
        "position (bit-identical to a round-robin fleet), 'tenant' "
        "keeps each tenant on one shard, 'hash' spreads by request id",
    )
    serve.add_argument(
        "--listen",
        metavar="HOST:PORT|unix:PATH",
        help="start the live asyncio server speaking the JSONL trace "
        "schema on a TCP or UNIX socket; alone it serves until Ctrl-C "
        "(real clock), with --clients it runs a socket smoke test and "
        "exits",
    )
    serve.add_argument(
        "--clients",
        type=int,
        default=None,
        metavar="C",
        help="drive the live server with C concurrent closed-loop asyncio "
        "clients (over the --listen socket if given, else in-process) "
        "and report the drained stream summary",
    )
    serve.add_argument("--seed", type=int, default=0, help="stream arrival seed")
    serve.add_argument(
        "--replicas", type=int, default=1, help="fleet replicas (stream mode)"
    )
    serve.add_argument(
        "--fleet-mix",
        metavar="SPEC",
        help="heterogeneous fleet roster as comma-separated "
        "name[:count] entries (e.g. plasticine:2,brainwave:1,gpu:1); "
        "replaces --platform/--replicas, dispatches by projected "
        "completion under each replica's own cost model, and adds "
        "energy (J/req) and TCO ($/1M requests) columns (stream mode)",
    )
    serve.add_argument(
        "--policy",
        choices=SCHEDULING_POLICIES,
        default="least-loaded",
        help="fleet dispatch policy (stream mode); 'affinity' pins each "
        "--affinity-by key to the platform tier that first served it",
    )
    serve.add_argument(
        "--affinity-by",
        choices=AFFINITY_KEYS,
        default="task",
        help="routing key for --policy affinity: pin by task shape, "
        "tenant, or sequence-length band",
    )
    serve.add_argument(
        "--plan-capacity",
        action="store_true",
        help="run the capacity-planner DSE instead of serving: search "
        "fleet size x platform mix (--fleet-mix narrows the platform "
        "set; --replicas caps the size, min 3) for the cheapest fleet "
        "holding P99 < --slo-ms on a diurnal workload peaking at "
        "--rate req/s, and print the cost/latency frontier",
    )
    serve.add_argument(
        "--dse-workers",
        type=int,
        default=None,
        metavar="N",
        help="evaluate --plan-capacity candidate fleets on an N-process "
        "pool; a pure throughput knob — the plan is bit-identical for "
        "any worker count (default: sequential)",
    )
    serve.add_argument(
        "--dse-prune",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="abort candidate fleets early once enough requests have "
        "clearly missed the SLO that P99 provably cannot meet it; "
        "exact — the frontier and chosen fleet never change "
        "(--no-dse-prune replays every candidate in full)",
    )
    serve.add_argument(
        "--scheduler",
        choices=available_schedulers(),
        default="fifo",
        help="per-replica queue discipline (stream mode)",
    )
    serve.add_argument(
        "--batcher",
        choices=available_batchers(),
        default="none",
        help="per-replica dynamic batching policy (stream mode); "
        "'none' serves batch-1 like the paper",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=8,
        help="batch-size cap for the batching policy (stream mode)",
    )
    serve.add_argument(
        "--autoscale",
        metavar="MIN:MAX",
        help="autoscale fleet replicas between MIN and MAX against queue "
        "depth and SLO pressure (stream mode; starts at MIN)",
    )
    serve.add_argument(
        "--faults",
        choices=available_fault_policies(),
        default="none",
        help="inject seeded hardware faults into the simulated stream: "
        "replica crashes ('crash'), heavy-tail stragglers "
        "('straggler'), priority preemption ('preempt'), or all three "
        "('chaos'); 'none' is bit-identical to no injection at all "
        "(stream mode)",
    )
    serve.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault timeline: the same seed replays the "
        "same crashes and stragglers run after run",
    )
    serve.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        help="per-attempt request timeout: a stream request still "
        "unfinished this long after arrival is re-dispatched "
        "(--retries) or recorded as a timeout; with --clients/--listen "
        "it bounds each live submit in wall time instead",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-dispatch budget after a --timeout-ms expiry before a "
        "request is recorded as a timeout (stream mode)",
    )
    serve.add_argument(
        "--hedge-ms",
        type=float,
        default=None,
        help="launch a duplicate copy of any request still unfinished "
        "this long after arrival; first completion wins (stream mode)",
    )
    serve.add_argument(
        "--mix",
        help="multi-tenant workload: comma-separated "
        "kind:hidden[:timesteps[dDECODER]][:layers][@slo_ms][^priority] "
        "specs (see docs/CLI.md) — e.g. lstm:1024:30d30:2 is a 2-layer "
        "seq2seq; --rate and --requests are split evenly across tenants",
    )
    serve.add_argument(
        "--length-dist",
        metavar="SPEC",
        help="per-request sequence-length distribution applied to every "
        "generated tenant stream: fixed:T, uniform:LO:HI, "
        "zipf:LO:HI[:ALPHA], or trace:PATH (see docs/CLI.md); pairs "
        "with the length-aware 'pad'/'bucket' batchers",
    )
    serve.add_argument(
        "--trace",
        help="replay a JSONL trace recorded with --record-trace "
        "(overrides --mix and the generated stream)",
    )
    serve.add_argument(
        "--record-trace",
        help="write the generated arrival stream to a JSONL trace file",
    )
    serve.set_defaults(fn=_cmd_serve)

    sub.add_parser("all", help="everything (slow)").set_defaults(fn=_cmd_all)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        print(args.fn(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
