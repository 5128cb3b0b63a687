"""Live async serving frontend: real concurrent clients, same cost model.

Everything else in this package *replays* traffic; this module is the
front door a Brainwave-style deployment actually exposes.  A
:class:`ServingServer` accepts requests from concurrent ``asyncio``
clients — in-process via :meth:`ServingServer.submit`, or over a
TCP/UNIX socket speaking the JSONL trace schema
(:func:`~repro.serving.traffic.request_to_json`, so a recorded trace
replays against a socket with no translation) — runs them through the
same registries the simulator uses (schedulers, batchers, the
platform cost models), and answers with the same
:class:`~repro.serving.request.ServeResponse` timeline fields.

Time is pluggable (:class:`Clock`):

* :class:`VirtualClock` (default) — logical time.  Service latencies
  come from the platform cost model and advance per-replica ``free_at``
  chains exactly as in the discrete-event loop; no coroutine ever waits
  wall time, so a hundred thousand requests settle in milliseconds.
  This is the mode tests and CI use.
* :class:`RealClock` — wall time, optionally scaled.  Each execution
  dwells ``latency / speedup`` real seconds, so the served stream is
  observable as actual temporal behaviour (``speedup=1000`` makes a
  2 ms inference occupy 2 µs of wall clock).

Replicas are worker coroutines pulling from **one shared ready queue**
(a single scheduler instance): the live server is work-conserving,
like the fleet's ``least-loaded`` dispatch rather than its round-robin
replay.  Batching policies plug in unchanged — when a worker frees up
it consults the batcher (``hold_until`` / ``take``) against the shared
queue and serves the coalesced batch via the engine's batched cost
model.

Shutdown is a **graceful drain**: :meth:`ServingServer.drain` stops
admission (new submits raise), lets workers flush every queued and
in-flight batch, resolves every outstanding client future, and only
then returns.  Conservation — every accepted request is answered
exactly once — is pinned by the test suite, and the server keeps a
:class:`~repro.serving.stats.StreamSummary` online so a drained server
reports the same p50/p99/SLO/batch statistics a simulated stream would.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import replace
from pathlib import Path
from typing import Iterable

from repro.errors import ServingError
from repro.serving.batching import Batcher, NoneBatcher, make_batcher
from repro.serving.engine import ServingEngine
from repro.serving.events import _batch_exec_task
from repro.serving.request import ServeRequest, ServeResponse, _check_budget_ms
from repro.serving.scheduler import QueuedRequest, Scheduler, make_scheduler
from repro.serving.stats import StreamSummary
from repro.serving.traffic import _parse_request_line
from repro.workloads.deepbench import RNNTask

__all__ = [
    "Clock",
    "VirtualClock",
    "RealClock",
    "ServingServer",
    "response_to_json",
]

_INF = float("inf")

#: Longest socket request line, in bytes before its newline (asyncio's
#: default stream limit).  A longer line gets an error reply and is
#: skipped; the connection reads on.
_LINE_LIMIT = 2**16


async def _read_request_line(reader: asyncio.StreamReader) -> "bytes | None":
    """The next line from a socket client, ``b""`` at the end of the
    stream, or ``None`` for a line longer than :data:`_LINE_LIMIT`,
    which is read through its newline and dropped, never held whole."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial  # a last line without a newline, or b"" at the end
    except asyncio.LimitOverrunError:
        pass
    while True:
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return None


class Clock:
    """Pluggable time source for the live server.

    ``now()`` stamps arrivals, ``wait()`` is how a worker dwells for a
    service latency, and ``advance_to()`` lets the server move logical
    time forward when an execution finishes (a no-op for wall clocks).
    """

    def now(self) -> float:
        raise NotImplementedError  # pragma: no cover

    async def wait(self, seconds: float) -> None:
        raise NotImplementedError  # pragma: no cover

    def advance_to(self, t: float) -> None:
        """Move logical time forward to ``t`` (never backward)."""

    def ready_floor(self) -> float:
        """Earliest instant a replica may *start* an execution.

        On a wall clock that is ``now()`` — real time has passed and a
        dispatch cannot start in the past.  On a logical clock there is
        no such floor: each replica's timeline is bound only by its own
        ``free_at`` chain and the request arrivals, exactly as in the
        discrete-event loop, so parallel replicas overlap instead of
        being serialized behind the global "latest finish" reading.
        """
        return self.now()


class VirtualClock(Clock):
    """Logical time: no coroutine ever waits wall time.

    ``now()`` starts at ``start_s`` and advances only when the server
    observes a completion (``advance_to``), so it reads as "latest
    finish so far".  Closed-loop clients that await each response before
    sending the next therefore get successive arrivals stamped at the
    simulated completion times — the same timeline a discrete-event
    replay of that closed loop would produce.

    Example::

        >>> from repro.serving.server import VirtualClock
        >>> clock = VirtualClock()
        >>> clock.advance_to(2.5); clock.advance_to(1.0); clock.now()
        2.5
    """

    def __init__(self, start_s: float = 0.0) -> None:
        self._now = start_s

    def now(self) -> float:
        return self._now

    async def wait(self, seconds: float) -> None:
        # Yield once so peers get scheduled, but never dwell.
        await asyncio.sleep(0)

    def advance_to(self, t: float) -> None:
        if t > self._now:
            self._now = t

    def ready_floor(self) -> float:
        return float("-inf")


class RealClock(Clock):
    """Wall time, optionally scaled: 1 virtual second = 1/speedup wall.

    With ``speedup=1000`` a 2 ms inference occupies 2 µs of wall clock,
    so latency behaviour stays observable in real time without making
    the test suite wait for it.

    Example::

        >>> from repro.serving.server import RealClock
        >>> RealClock(speedup=1000.0).now() >= 0.0
        True
    """

    def __init__(self, speedup: float = 1.0) -> None:
        if speedup <= 0:
            raise ServingError("speedup must be positive")
        self.speedup = speedup
        self._t0 = time.monotonic()

    def now(self) -> float:
        return (time.monotonic() - self._t0) * self.speedup

    async def wait(self, seconds: float) -> None:
        if seconds > 0:
            await asyncio.sleep(seconds / self.speedup)


def response_to_json(resp: ServeResponse) -> dict:
    """One response as the JSONL wire record the socket protocol sends.

    Mirrors :func:`~repro.serving.traffic.request_to_json`: identity
    fields echo the request, timeline fields carry the same numbers the
    in-process :class:`~repro.serving.request.ServeResponse` exposes.

    Example::

        >>> from repro.serving import ServingEngine
        >>> from repro.serving.server import response_to_json
        >>> from repro.workloads.deepbench import task
        >>> rec = response_to_json(ServingEngine("gpu").serve(task("lstm", 512, 25)))
        >>> (rec["ok"], rec["batch_size"], rec["queue_delay_ms"])
        (True, 1, 0.0)
    """
    req = resp.request
    return {
        "ok": True,
        "v": 2,
        "request_id": req.request_id,
        "tenant": req.tenant,
        "priority": req.priority,
        "slo_ms": req.slo_ms,
        "arrival_s": req.arrival_s,
        "start_s": resp.start_s,
        "finish_s": resp.finish_s,
        "queue_delay_ms": resp.queue_delay_s * 1e3,
        "sojourn_ms": resp.sojourn_s * 1e3,
        "latency_ms": resp.result.latency_ms,
        "batch_size": resp.batch_size,
        "batch_index": resp.batch_index,
    }


class ServingServer:
    """An asyncio frontend over one platform's replicas.

    Args:
        platform: Platform registry key (or instance) — service times
            come from its cost model, via one shared
            :class:`~repro.serving.engine.ServingEngine` (compile cache
            and result memo shared by all replicas).
        replicas: Number of worker coroutines (parallel executions).
        scheduler: Queue-discipline registry key; **one** shared ready
            queue serves all replicas (work-conserving dispatch).
        batcher: Batching-policy registry key, ``max_batch`` forwarded.
        slo_ms: Server-default SLO; per-request ``slo_ms`` overrides it,
            exactly as in ``serve_stream``.
        clock: A :class:`Clock`; defaults to :class:`VirtualClock`.
        timeout_ms: Wall-clock bound on how long one :meth:`submit`
            waits for its response.  On expiry the client future is
            cancelled and ``submit`` raises
            :class:`~repro.errors.ServingError` — cleanly: the request
            still drains through the queue (conservation holds), its
            response is simply no longer deliverable.  Wall time, not
            clock time, so it guards against a stalled server even
            under a :class:`VirtualClock`.
        **platform_options: Forwarded to the platform constructor.

    Lifecycle: ``start()`` spawns the workers, ``drain()`` stops
    admission and flushes everything in flight; ``async with`` does
    both.  After the drain, :attr:`summary` holds the stream-style
    report over everything served.

    Example::

        >>> import asyncio
        >>> from repro.serving.server import ServingServer
        >>> from repro.workloads.deepbench import task
        >>> async def main():
        ...     async with ServingServer("gpu", slo_ms=5.0) as server:
        ...         resps = await asyncio.gather(
        ...             *(server.submit(task("lstm", 512, 25)) for _ in range(3)))
        ...     return server.summary
        >>> summary = asyncio.run(main())
        >>> (summary.n_requests, summary.slo_attainment)
        (3, 1.0)
    """

    def __init__(
        self,
        platform: str,
        *,
        replicas: int = 1,
        scheduler: str = "fifo",
        batcher: str = "none",
        max_batch: int | None = None,
        slo_ms: float | None = None,
        clock: Clock | None = None,
        timeout_ms: float | None = None,
        **platform_options: object,
    ) -> None:
        if replicas < 1:
            raise ServingError("a server needs at least one replica")
        _check_budget_ms("slo_ms", slo_ms)
        _check_budget_ms("timeout_ms", timeout_ms)
        self.timeout_ms = timeout_ms
        self.engine = ServingEngine(platform, **platform_options)
        self.replicas = replicas
        self.slo_ms = slo_ms
        self.clock = clock if clock is not None else VirtualClock()
        self._scheduler: Scheduler = make_scheduler(scheduler)
        options = {} if max_batch is None else {"max_batch": max_batch}
        self._batcher: Batcher = make_batcher(batcher, **options)
        self._batcher.bind_cost(self.engine.batch_latency_s)
        self._summary = StreamSummary(
            self.engine.platform_name,
            slo_ms=slo_ms,
            scheduler=self._scheduler.name,
            batcher=self._batcher.name,
        )
        self._cond: asyncio.Condition | None = None
        self._futures: "dict[int, asyncio.Future[ServeResponse]]" = {}
        self._free_at = [0.0] * replicas
        self._workers: "list[asyncio.Task]" = []
        self._listeners: "list[asyncio.AbstractServer]" = []
        self._unix_paths: "list[str]" = []
        self._seq = 0
        self._started = False
        self._draining = False
        self._drained = False
        #: Conservation counters: accepted == served after a drain.
        self.accepted = 0
        self.served = 0

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> "ServingServer":
        """Spawn the replica workers; idempotent."""
        if self._started:
            return self
        self._started = True
        self._cond = asyncio.Condition()
        self._workers = [
            asyncio.create_task(self._worker(replica), name=f"replica-{replica}")
            for replica in range(self.replicas)
        ]
        for worker in self._workers:
            worker.add_done_callback(self._on_worker_done)
        return self

    def _on_worker_done(self, worker: "asyncio.Task") -> None:
        """A crashed replica must fail its clients, not strand them.

        If a worker dies with an exception, every outstanding client
        future gets that exception instead of waiting forever on a
        response no one will produce.
        """
        if worker.cancelled() or worker.exception() is None:
            return
        exc = worker.exception()
        for future in self._futures.values():
            if not future.done():
                future.set_exception(exc)
        self._futures.clear()

    async def __aenter__(self) -> "ServingServer":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.drain()

    async def drain(self) -> StreamSummary:
        """Graceful shutdown: stop admission, flush everything in flight.

        New :meth:`submit` calls raise once the drain begins; every
        request admitted before it is still served and its client future
        resolved.  Returns the finalized :attr:`summary`.  Idempotent.
        """
        if not self._started:
            raise ServingError("server was never started")
        if not self._drained:
            self._draining = True
            for listener in self._listeners:
                listener.close()
            async with self._cond:
                self._cond.notify_all()
            await asyncio.gather(*self._workers)
            for listener in self._listeners:
                await listener.wait_closed()
            self._listeners.clear()
            for path in self._unix_paths:
                Path(path).unlink(missing_ok=True)
            self._unix_paths.clear()
            self._drained = True
            if self.served:
                self._summary.finalize(
                    replicas=self.replicas, active_replicas=self.replicas
                )
        return self._summary

    @property
    def summary(self) -> StreamSummary:
        """Stream-style report over everything served; valid after drain."""
        if not self._drained:
            raise ServingError("summary is available after drain()")
        if not self.served:
            raise ServingError("stream produced no responses")
        return self._summary

    # -- in-process client API ----------------------------------------

    async def submit(self, request: "ServeRequest | RNNTask") -> ServeResponse:
        """Submit one request and await its response.

        A bare :class:`~repro.workloads.deepbench.RNNTask` is wrapped in
        a :class:`ServeRequest` stamped at ``clock.now()``; an explicit
        request keeps its tags, with its arrival clamped forward to the
        clock (a request cannot arrive before it is submitted).
        """
        if not self._started:
            raise ServingError("server is not started; use 'async with' or start()")
        now = self.clock.now()
        if isinstance(request, RNNTask):
            request = ServeRequest(
                task=request, arrival_s=now, request_id=self._seq
            )
        elif request.arrival_s < now:
            request = replace(request, arrival_s=now)
        result = self.engine.result_for(request.task)
        slo = request.effective_slo_ms(self.slo_ms)
        async with self._cond:
            # Admission is decided under the queue lock: either this
            # request is enqueued before the drain flushes the queue, or
            # it is rejected — it can never be enqueued and left behind.
            if self._draining:
                raise ServingError("server is draining; no new requests accepted")
            seq = self._seq
            self._seq += 1
            self.accepted += 1
            future: "asyncio.Future[ServeResponse]" = (
                asyncio.get_running_loop().create_future()
            )
            self._futures[seq] = future
            self._scheduler.push(
                QueuedRequest(
                    seq=seq,
                    request=request,
                    result=result,
                    service_s=result.latency_s,
                    deadline_s=_INF
                    if slo is None
                    else request.arrival_s + slo / 1e3,
                )
            )
            self._cond.notify_all()
        if self.timeout_ms is None:
            return await future
        try:
            # Shield so the wait_for cancellation hits our wrapper, not
            # the shared future a worker may be about to resolve.
            return await asyncio.wait_for(
                asyncio.shield(future), self.timeout_ms / 1e3
            )
        except asyncio.TimeoutError:
            self._futures.pop(seq, None)
            future.cancel()
            raise ServingError(
                f"request {request.request_id} timed out after "
                f"{self.timeout_ms:g} ms"
            ) from None

    async def serve_all(
        self, requests: "Iterable[ServeRequest | RNNTask]"
    ) -> "tuple[ServeResponse, ...]":
        """Submit a batch of requests concurrently and await all responses."""
        return tuple(
            await asyncio.gather(*(self.submit(req) for req in requests))
        )

    # -- replica workers ----------------------------------------------

    async def _worker(self, replica: int) -> None:
        scheduler, batcher, clock = self._scheduler, self._batcher, self.clock
        plain = type(batcher) is NoneBatcher
        while True:
            async with self._cond:
                await self._cond.wait_for(
                    lambda: len(scheduler) > 0 or self._draining
                )
                if not len(scheduler):
                    return  # draining and the shared queue is flushed
                now = max(clock.ready_floor(), self._free_at[replica])
                if not plain:
                    hold = batcher.hold_until(scheduler, now)
                    if hold > now:
                        # Hold the idle replica so a batch can gather; on
                        # a virtual clock the hold resolves instantly by
                        # advancing logical time to the launch point.
                        clock.advance_to(hold)
                        held = hold
                    else:
                        held = now
                    entries = batcher.take(scheduler, held)
                    if not entries:
                        raise ServingError(
                            f"batcher {batcher.name!r} returned an empty batch"
                        )
                    now = held
                else:
                    entries = [scheduler.pop()]
            await self._execute(replica, entries, now)

    async def _execute(
        self, replica: int, entries: "list[QueuedRequest]", now: float
    ) -> None:
        clock = self.clock
        head = entries[0]
        # The launch cannot predate ANY member's arrival: on the virtual
        # clock a replica's dispatch time is its own free_at chain, which
        # may lag requests stamped later by the global clock — a batch
        # follower admitted after the head must still pull the start
        # forward, or its sojourn would go non-positive.
        start = max(
            self._free_at[replica],
            now,
            *(entry.request.arrival_s for entry in entries),
        )
        if len(entries) == 1:
            result = head.result
        else:
            # Same coalesced-execution arithmetic as the event loop:
            # head's task padded to the batch's longest member.
            exec_task = _batch_exec_task(entries, self._batcher)
            result = self.engine.serve_batched(exec_task, len(entries))
        finish = start + result.latency_s
        self._free_at[replica] = finish
        clock.advance_to(finish)
        await clock.wait(result.latency_s)
        size = len(entries)
        for index, entry in enumerate(entries):
            response = ServeResponse(
                request=entry.request,
                result=result,
                queue_delay_s=start - entry.request.arrival_s,
                start_s=start,
                finish_s=finish,
                batch_size=size,
                batch_index=index,
            )
            self._summary.observe_served(
                entry.request, result, start, finish, size
            )
            self._summary.note_assignment(replica)
            self.served += 1
            future = self._futures.pop(entry.seq, None)
            if future is not None and not future.done():
                future.set_result(response)

    # -- socket frontend ----------------------------------------------

    async def listen(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Accept JSONL clients over TCP; returns the bound (host, port).

        Protocol: one request per line in the trace schema
        (:func:`~repro.serving.traffic.request_to_json`); one response
        per request in :func:`response_to_json` form, matched by
        ``request_id`` (responses may interleave — clients may pipeline).
        A malformed line, or one longer than 64 KiB, gets an
        ``{"ok": false, "error": ...}`` reply and the connection stays
        up.
        """
        listener = await asyncio.start_server(
            self._handle_client, host, port, limit=_LINE_LIMIT
        )
        self._listeners.append(listener)
        bound = listener.sockets[0].getsockname()
        return bound[0], bound[1]

    async def listen_unix(self, path: str) -> str:
        """Accept JSONL clients over a UNIX socket; returns the path.

        The socket file is removed when the server drains.
        """
        listener = await asyncio.start_unix_server(
            self._handle_client, path, limit=_LINE_LIMIT
        )
        self._listeners.append(listener)
        self._unix_paths.append(path)
        return path

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        pending: "set[asyncio.Task]" = set()

        async def answer(line: "bytes | None", lineno: int) -> None:
            where = f"socket request line {lineno}"
            try:
                if line is None:
                    raise ServingError(
                        f"{where} is longer than {_LINE_LIMIT} bytes; skipped"
                    )
                req = _parse_request_line(line, where)
                out = response_to_json(await self.submit(req))
            except ServingError as exc:
                out = {"ok": False, "error": str(exc)}
            async with write_lock:
                writer.write((json.dumps(out, sort_keys=True) + "\n").encode())
                await writer.drain()

        lineno = 0
        while True:
            line = await _read_request_line(reader)
            if line == b"":
                break
            if line is not None and not line.strip():
                continue
            lineno += 1
            task = asyncio.create_task(answer(line, lineno))
            pending.add(task)
            task.add_done_callback(pending.discard)
        if pending:
            await asyncio.gather(*pending)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass
