"""In-process traced replay of a served run.

Calls the layers' public functions in the order the server answered
the requests, with the stage caches reset wherever the served run
started a fresh worker, and records one span per layer call.  Spans
live in memory (name, start, end, parent span, request index) and are
written out once the replay ends.  The same replay with a no-op tracer
prices the tracing itself.

The replay mirrors the served path of each route:

* ``/partition``: ``json.loads`` + ``PartitionRequest.from_dict``
  (server.decode) -> ``PartitionCache.get`` (service.cache_get) -> on a
  miss ``cache_key`` (service.key) and the pipeline stages mesh, graph,
  partition, evaluate (under engine.compute), then ``PartitionCache.put``
  (service.cache_put) -> ``to_dict`` + ``json_body`` (server.encode);
* ``/repartition``: decode -> ``cache_key`` twice (plan-cache lookup and
  coalescing) -> ``plan_repartition`` (repartition.plan, under
  engine.compute) -> encode;

with the client's ``json.dumps`` (client.encode) before and
``json.loads`` (client.decode) after.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

from repro.service.cache import PartitionCache
from workloads import Call

#: Placeholder ids, sized like the ones the server stamps on each body.
_IDS = {"request_id": "0" * 16, "trace_id": "0" * 32}


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, self.request])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "request": r}
            for n, s, e, p, r in self.spans
        ]


class NullTracer:
    """Same interface as :class:`Tracer`; records nothing."""

    request = -1

    def span(self, name: str):
        return nullcontext()


def reset_stage_caches() -> None:
    """Empty the per-process mesh/graph caches, as in a fresh worker."""
    from repro.cubesphere.mesh import cubed_sphere_mesh
    from repro.partition.pipeline import clear_stage_caches

    clear_stage_caches()
    cubed_sphere_mesh.cache_clear()


class Replayer:
    """Replays calls through the layers, holding one server's state."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.cache = PartitionCache()

    def call(self, index: int, call: Call) -> None:
        tr = self.tracer
        tr.request = index
        with tr.span("client.encode"):
            body = json.dumps(call.wire).encode("utf-8")
        if call.route == "/repartition":
            out = self._repartition(body)
        else:
            out = self._partition(body)
        with tr.span("client.decode"):
            json.loads(out)

    def _partition(self, body: bytes) -> bytes:
        from repro.partition.pipeline import (
            evaluate_stage, graph_stage, mesh_stage, partition_stage,
        )
        from repro.service.requests import (
            PartitionRequest, PartitionResponse, quality_metrics,
        )

        tr = self.tracer
        with tr.span("server.decode"):
            req = PartitionRequest.from_dict(json.loads(body))
        with tr.span("service.cache_get"):
            response = self.cache.get(req)
        if response is None:
            with tr.span("service.key"):
                req.cache_key()
            with tr.span("engine.compute"):
                start = perf_counter()
                with tr.span("pipeline.mesh"):
                    mesh_stage(req.ne)
                with tr.span("pipeline.graph"):
                    graph = graph_stage(req.ne)
                with tr.span("pipeline.partition"):
                    part = partition_stage(
                        req.method, req.ne, req.nparts, seed=req.seed,
                        schedule=req.schedule, weights=req.resolve_weights(),
                    )
                with tr.span("pipeline.evaluate"):
                    quality = evaluate_stage(graph, part)
                response = PartitionResponse(
                    request=req,
                    assignment=part.assignment,
                    metrics=quality_metrics(quality),
                    elapsed_s=perf_counter() - start,
                )
            with tr.span("service.cache_put"):
                self.cache.put(req, response)
        return self._encode(response)

    def _repartition(self, body: bytes) -> bytes:
        from repro.partition.repartition import plan_repartition
        from repro.service.requests import RepartitionRequest, RepartitionResponse

        tr = self.tracer
        with tr.span("server.decode"):
            req = RepartitionRequest.from_dict(json.loads(body))
        with tr.span("service.key"):
            req.cache_key()
            req.cache_key()
        with tr.span("engine.compute"):
            start = perf_counter()
            weights = req.resolve_weights()
            with tr.span("repartition.plan"):
                plan = plan_repartition(
                    req.old_assignment, weights, ne=req.ne, nparts=req.nparts,
                    method=req.method, seed=req.seed, schedule=req.schedule,
                )
            response = RepartitionResponse(
                request=req, plan=plan, elapsed_s=perf_counter() - start
            )
        return self._encode(response)

    def _encode(self, response) -> bytes:
        from repro.server.http import json_body

        with self.tracer.span("server.encode"):
            data = response.to_dict()
            data.update(_IDS)
            return json_body(data)


def fill_responses(fill: list[Call]) -> list:
    """Compute the set-up fill once, from empty caches (untraced)."""
    from repro.service.engine import compute_response
    from repro.service.requests import PartitionRequest

    reset_stage_caches()
    return [compute_response(PartitionRequest.from_dict(c.wire)) for c in fill]


def _replay_server(tracer, filled: list, calls: list[tuple[int, Call]]) -> float:
    replayer = Replayer(tracer)
    for response in filled:
        replayer.cache.put(response.request, response)
    if not filled:
        reset_stage_caches()
    t0 = perf_counter()
    for index, call in calls:
        replayer.call(index, call)
    return perf_counter() - t0


def replay(filled: list, servers: list[list[tuple[int, Call]]]):
    """Replay ``servers`` (each: ``(index, call)`` in served order) twice,
    with spans and with a no-op tracer.

    A server with a set-up fill starts from the ``filled`` responses and
    the stage caches the fill left behind (its timed requests are all
    cache hits and touch no stage); any other server starts from empty
    caches.  The two passes alternate per server in ABBA order, so slow
    drifts of host speed cancel out of the overhead.

    Returns ``(tracer, untraced wall, traced wall)``.
    """
    tracer = Tracer()
    walls = {"untraced": 0.0, "traced": 0.0}
    passes = (("untraced", NullTracer()), ("traced", tracer))
    for i, calls in enumerate(servers):
        for name, tr in passes if i % 2 == 0 else passes[::-1]:
            walls[name] += _replay_server(tr, filled, calls)
    return tracer, walls["untraced"], walls["traced"]
