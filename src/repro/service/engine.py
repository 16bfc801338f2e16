"""Batch partition execution engine.

The engine is the serving core: submit any number of
:class:`PartitionRequest`\\ s and get back one response per request, in
request order, with bit-identical assignments to serial in-process
computation.  Per batch it

1. **deduplicates** requests by content hash (a sweep that asks the
   same point twice computes it once);
2. **consults the cache** (memory LRU, then disk) for every unique
   request;
3. **fans the misses out** over a ``ProcessPoolExecutor`` — sweep
   points are embarrassingly parallel, and the heavy partitioners
   (multilevel METIS) are pure CPU-bound Python/NumPy, so processes
   are the right executor;
4. **stores** every computed response back into the cache and records
   telemetry in :class:`~repro.service.stats.ServiceStats`.

``jobs=1`` (the default) computes misses inline — no pool, no fork —
which keeps single-request CLI calls and small test batches cheap and
trivially debuggable.
"""

from __future__ import annotations

import ctypes
import threading
import time
from collections.abc import Sequence
from concurrent.futures import Executor, ProcessPoolExecutor, wait
from time import perf_counter

import numpy as np

from ..partition import registry
from ..partition.pipeline import run_pipeline
from ..telemetry import (
    RequestContext,
    current_context,
    inc,
    log_event,
    observe,
    replay_payload,
    request_context,
    set_gauge,
    span,
    telemetry_active,
    worker_session,
)
from .cache import PartitionCache
from .requests import (
    PartitionRequest,
    PartitionResponse,
    RepartitionRequest,
    RepartitionResponse,
    quality_metrics,
)
from .stats import ServiceStats

__all__ = ["PartitionEngine", "compute_repartition_response", "compute_response"]


def compute_response(request: PartitionRequest) -> PartitionResponse:
    """Compute one partition + its metrics (runs in worker processes).

    Module-level (picklable) on purpose.  Deterministic for a given
    request, so parallel and serial execution agree bit-for-bit.

    Runs the staged pipeline (mesh → graph → partition → evaluate,
    :func:`repro.partition.pipeline.run_pipeline`): each stage is
    traced individually, and the mesh/graph stages are memoized per
    process, so a batch sweeping several methods at the same ``ne``
    builds the mesh and graph once.

    For weighted requests the ``lb_weight`` metric reports the load
    imbalance under the *request's* weights (the quantity a weighted
    cut balances), not the graph's uniform vertex weights.
    """
    start = perf_counter()
    with span(
        "compute",
        "service",
        key=request.cache_key()[:12],
        method=request.method,
        ne=request.ne,
        nparts=request.nparts,
    ):
        weights = request.resolve_weights()
        result = run_pipeline(
            request.method,
            request.ne,
            request.nparts,
            seed=request.seed,
            schedule=request.schedule,
            weights=weights,
        )
    metrics = quality_metrics(result.quality)
    if weights is not None:
        from ..partition.metrics import load_balance

        loads = np.bincount(
            result.partition.assignment, weights=weights,
            minlength=request.nparts,
        )
        metrics["lb_weight"] = load_balance(loads)
    return PartitionResponse(
        request=request,
        assignment=result.partition.assignment,
        metrics=metrics,
        elapsed_s=perf_counter() - start,
        source="computed",
    )


def compute_repartition_response(request: RepartitionRequest) -> RepartitionResponse:
    """Plan one rebalancing migration (runs in worker processes).

    Module-level (picklable) and deterministic, like
    :func:`compute_response`; the heavy lifting is
    :func:`repro.partition.repartition.plan_repartition` on the
    streaming key path.
    """
    from ..partition.repartition import plan_repartition

    start = perf_counter()
    with span(
        "repartition",
        "service",
        key=request.cache_key()[:12],
        method=request.method,
        ne=request.ne,
        nparts=request.nparts,
    ):
        plan = plan_repartition(
            request.old_assignment,
            request.resolve_weights(),
            ne=request.ne,
            nparts=request.nparts,
            method=request.method,
            seed=request.seed,
            schedule=request.schedule,
        )
    return RepartitionResponse(
        request=request,
        plan=plan,
        elapsed_s=perf_counter() - start,
        source="computed",
    )


def _pool_compute(item: tuple[PartitionRequest, bool, dict | None]):
    """Pool task: compute one response, optionally with telemetry.

    When the parent had a collector active, a fresh worker-local
    session records every span, metric, and log record produced by the
    computation and ships them back alongside the response (the parent
    replays the payload into its own collectors and log sinks).

    ``ctx_dict`` is the request's trace context crossing the process
    boundary: the worker re-enters it, so worker-side spans and log
    records carry the same trace id as the server-side request.

    Dispatches on the request type, so partition and repartition
    requests share one pool path (and one tuple shape on the wire).
    Every task ends with :func:`_release_free_heap`.
    """
    request, collect, ctx_dict = item
    compute = (
        compute_repartition_response
        if isinstance(request, RepartitionRequest)
        else compute_response
    )
    try:
        if not collect:
            return compute(request), None
        with request_context(RequestContext.from_dict(ctx_dict)):
            with worker_session() as session:
                response = compute(request)
                log_event(
                    "worker.compute",
                    key=request.cache_key()[:12],
                    method=request.method,
                    ne=request.ne,
                    nparts=request.nparts,
                    elapsed_ms=round(1e3 * response.elapsed_s, 3),
                )
        return response, session.to_payload()
    finally:
        _release_free_heap()


try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None  # not glibc: nothing to trim


def _release_free_heap() -> None:
    """Hand a pool worker's freed heap pages back to the OS (glibc only).

    A large mesh build frees tens of MiB of heap, which glibc keeps
    resident whenever a long-lived block was allocated above it.  That
    depends on allocation order, so the same request sequence left one
    worker at ~130 or ~220 MiB resident from run to run; trimming after
    every task makes the resident size follow the live data.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _record_response_metrics(response: PartitionResponse) -> None:
    """Per-request quality metrics and source counters (no-op when idle).

    The ``partitioner`` label is the registry name (the single source
    of truth for method identity), not the free-form ``method`` string
    a ``Partition`` happens to carry.
    """
    partitioner = registry.get(response.request.method).name
    inc("service_requests_total", source=response.source, partitioner=partitioner)
    m = response.metrics
    observe("request_lb_nelemd", m["lb_nelemd"], partitioner=partitioner)
    observe("request_lb_spcv", m["lb_spcv"], partitioner=partitioner)
    observe("request_edgecut", m["edgecut"], partitioner=partitioner)
    observe("request_tcv_points", m["total_volume_points"], partitioner=partitioner)
    if response.source == "computed":
        observe(
            "request_compute_seconds", response.elapsed_s, partitioner=partitioner
        )


class PartitionEngine:
    """Cached, batched, parallel partition server.

    Args:
        cache: Response cache; ``None`` builds a default memory-only
            :class:`PartitionCache`.
        jobs: Worker processes for cache misses.  ``1`` computes
            inline in this process.
    """

    def __init__(self, cache: PartitionCache | None = None, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.cache = cache if cache is not None else PartitionCache()
        self.jobs = jobs
        self.stats = ServiceStats(jobs=jobs)
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "PartitionEngine is closed; create a new engine to serve "
                "further requests"
            )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent worker pool, created lazily and thread-safely.

        The lock matters for long-running (server) use: the engine may
        be driven from an event loop and from executor threads at once,
        and two racing first submissions must not each fork a pool.
        """
        with self._lock:
            self._check_open()
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs if self.jobs > 1 else 1
                )
            return self._pool

    def executor(self) -> Executor:
        """The pool as a ``concurrent.futures.Executor`` (server path).

        Always process-backed — even at ``jobs=1`` — so an asyncio
        front-end can ``run_in_executor`` CPU-bound computes without
        ever blocking the event loop (or racing the process-global
        telemetry state from a worker thread).

        Raises:
            RuntimeError: The engine has been closed.
        """
        return self._ensure_pool()

    def warm(self) -> int:
        """Fork every worker process now; returns the worker count.

        ``ProcessPoolExecutor`` spawns workers lazily at submission
        time.  A worker forked mid-serving inherits copies of every
        file descriptor the parent has opened since the pool was
        created — including the server's listening socket and client
        connections — and those copies keep the sockets alive after
        the parent closes them.  The server therefore warms the pool
        *before* binding, so no worker can ever hold a socket fd.
        """
        pool = self._ensure_pool()
        want = getattr(pool, "_max_workers", self.jobs)
        procs = getattr(pool, "_processes", None)
        # Each submit spawns a new worker while none is idle, so rounds
        # of short sleeps (keeping existing workers busy) fork the rest.
        for _ in range(50):
            if procs is None or len(procs) >= want:
                break
            wait([pool.submit(time.sleep, 0.02) for _ in range(want)])
        return len(procs) if procs is not None else want

    def __enter__(self) -> PartitionEngine:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def serve(self, request: PartitionRequest) -> PartitionResponse:
        """Serve a single request (batch of one)."""
        return self.run([request])[0]

    def run(
        self, requests: Sequence[PartitionRequest]
    ) -> list[PartitionResponse]:
        """Serve a batch; responses align with ``requests`` by index."""
        self._check_open()
        start = perf_counter()
        with span("engine_run", "service", requests=len(requests), jobs=self.jobs):
            responses = self._run_batch(requests)
        self.stats.record_batch_wall(perf_counter() - start)
        return responses

    def _run_batch(
        self, requests: Sequence[PartitionRequest]
    ) -> list[PartitionResponse]:
        # Dedupe by content hash, preserving first-seen order.
        order: list[str] = []
        unique: dict[str, PartitionRequest] = {}
        with span("dedup", "service"):
            for req in requests:
                key = req.cache_key()
                order.append(key)
                unique.setdefault(key, req)

        resolved: dict[str, PartitionResponse] = {}
        misses: list[PartitionRequest] = []
        with span("cache", "service"):
            for key, req in unique.items():
                hit = self.cache.get(req)
                if hit is not None:
                    resolved[key] = hit
                else:
                    misses.append(req)
        inc("cache_hits", len(resolved))
        inc("cache_misses", len(misses))

        for response in self._compute_all(misses):
            self.cache.put(response.request, response)
            resolved[response.request.cache_key()] = response
            log_event(
                "engine.compute",
                key=response.request.cache_key()[:12],
                method=response.request.method,
                ne=response.request.ne,
                nparts=response.request.nparts,
                elapsed_ms=round(1e3 * response.elapsed_s, 3),
                jobs=self.jobs,
            )

        # Duplicate requests within the batch share the first
        # occurrence's answer; label repeats ``dedup`` so telemetry
        # doesn't double-count the compute time.
        responses: list[PartitionResponse] = []
        served: set[str] = set()
        for key in order:
            response = resolved[key]
            if key in served:
                response = response.with_source("dedup")
            served.add(key)
            responses.append(response)
        for response in responses:
            self.stats.record(response)
            _record_response_metrics(response)
        return responses

    def _compute_all(
        self, misses: list[PartitionRequest]
    ) -> list[PartitionResponse]:
        if not misses:
            return []
        if self.jobs == 1 or len(misses) == 1:
            with span("compute_inline", "service"):
                return [compute_response(req) for req in misses]
        # The pool persists across run() calls: repeated sweeps pay the
        # worker fork/import cost once per engine, not once per batch.
        pool = self._ensure_pool()
        collect = telemetry_active()
        ctx = current_context()
        ctx_dict = ctx.to_dict() if ctx is not None else None
        set_gauge("pool_queue_depth", len(misses))
        responses: list[PartitionResponse] = []
        with span("pool", "service", misses=len(misses), jobs=self.jobs):
            # Replay inside the pool span so worker spans re-parent
            # under it in the trace.
            for response, payload in pool.map(
                _pool_compute, [(req, collect, ctx_dict) for req in misses]
            ):
                if payload is not None:
                    replay_payload(payload)
                    inc("worker_payloads_merged")
                responses.append(response)
        set_gauge("pool_queue_depth", 0)
        return responses
