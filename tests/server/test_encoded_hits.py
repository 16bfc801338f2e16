"""Warm hits are served from pre-encoded bytes.

Every ``/partition``, ``/repartition`` and ``/batch`` body must equal,
byte for byte, what the plain encoder writes: ``json_body`` of the
response's dict with the request and trace ids stamped on.  The
reference dicts below are spelled out field by field, so they do not
lean on the encoder under test.  The memo tests pin the encoded head's
lifecycle: built on an entry's first memory hit, reused by every later
hit, never kept for any other source, and dropped with the entry.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest

from repro.partition import sfc_partition
from repro.partition.base import Partition
from repro.partition.registry import Partitioner, register, unregister
from repro.server import Connection, PartitionServer
from repro.server.http import HTTPRequest, json_body
from repro.service import PartitionCache, PartitionEngine, PartitionRequest
from repro.service.engine import compute_repartition_response, compute_response
from repro.service.requests import (
    PartitionResponse,
    RepartitionRequest,
    RepartitionResponse,
)
from repro.telemetry import RequestContext

NE = 4
SLOW_S = 0.4
TRACEPARENT = f"00-{'ab' * 16}-{'cd' * 8}-01"
#: Requests with and without an incoming trace context.
TRACE_HEADERS = {"fresh": {}, "continued": {"traceparent": TRACEPARENT}}


def run(coro, timeout: float = 60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def _slow_build(problem) -> Partition:
    time.sleep(SLOW_S)
    assignment = np.arange(problem.k, dtype=np.int64) % problem.nparts
    return Partition(assignment, nparts=problem.nparts, method="slowstub")


@pytest.fixture()
def slowstub():
    """A slow weighted partitioner, so concurrent requests coalesce."""
    register(
        Partitioner(
            name="slowstub",
            build=_slow_build,
            description="deliberately slow test stub",
            family="test",
            weighted=True,
        )
    )
    yield "slowstub"
    unregister("slowstub")


def partition_dict(response: PartitionResponse, source: str) -> dict:
    return {
        "schema": 1,
        "request": response.request.to_wire(),
        "assignment": response.assignment.tolist(),
        "metrics": response.metrics,
        "elapsed_s": response.elapsed_s,
        "source": source,
    }


def repartition_dict(response: RepartitionResponse, source: str) -> dict:
    return {
        "schema": 1,
        "request": response.request.to_wire(),
        "plan": response.plan.to_dict(include_assignment=True),
        "elapsed_s": response.elapsed_s,
        "source": source,
    }


def stamped(data: dict, ids: tuple[str, str] | None) -> bytes:
    """The plain encoder: sorted-key JSON with the ids stamped on."""
    if ids is not None:
        data = {**data, "request_id": ids[0], "trace_id": ids[1]}
    return json_body(data)


def ids_of(resp) -> tuple[str, str]:
    """``(request_id, trace_id)`` the server answered with."""
    return resp.headers["x-request-id"], resp.headers["traceparent"].split("-")[1]


def entry(cache: PartitionCache, request):
    """The memory-tier entry of ``request`` (no LRU bookkeeping)."""
    return dict(cache._memory.items())[request.cache_key()]


def storm_request(method: str = "sfc", step: int = 3) -> RepartitionRequest:
    return RepartitionRequest(
        ne=NE,
        old_assignment=sfc_partition(NE, 12).assignment,
        weights={"scenario": "storm", "step": step},
        nparts=12,
        method=method,
    )


async def post(conn: Connection, path: str, payload, headers: dict):
    return await conn.request(
        "POST", path, json.dumps(payload).encode(), headers=headers
    )


@pytest.mark.parametrize("trace", sorted(TRACE_HEADERS))
class TestPartitionParity:
    def test_disk_memory_and_computed(self, tmp_path, trace):
        headers = TRACE_HEADERS[trace]
        cached = PartitionRequest(ne=NE, nparts=12)
        fresh = PartitionRequest(ne=NE, nparts=24)
        with PartitionEngine(PartitionCache(cache_dir=tmp_path)) as filler:
            filler.run([cached])

        async def inner():
            with PartitionEngine(PartitionCache(cache_dir=tmp_path)) as engine:
                async with PartitionServer(engine) as server:
                    cache = engine.cache
                    async with await Connection.open(*server.address) as conn:
                        heads = []
                        for request, source in (
                            (cached, "disk"),
                            (cached, "memory"),
                            (cached, "memory"),
                            (fresh, "computed"),
                            (fresh, "memory"),
                        ):
                            resp = await post(
                                conn, "/partition", request.to_wire(), headers
                            )
                            assert resp.status == 200
                            assert resp.json()["source"] == source
                            stored = entry(cache, request)
                            assert resp.body == stamped(
                                partition_dict(stored, source), ids_of(resp)
                            )
                            heads.append(stored._memo[0])
            # disk and computed keep nothing; the first memory hit keeps
            # the head and the second reuses the very same bytes.
            assert heads[0] is None and heads[3] is None
            assert heads[1] is not None and heads[2] is heads[1]
            assert heads[4] is not None

        run(inner())

    def test_coalesced(self, slowstub, trace):
        headers = TRACE_HEADERS[trace]
        request = PartitionRequest(ne=NE, nparts=12, method=slowstub)

        async def inner():
            with PartitionEngine() as engine:
                async with PartitionServer(engine) as server:

                    async def one():
                        async with await Connection.open(*server.address) as c:
                            return await post(
                                c, "/partition", request.to_wire(), headers
                            )

                    answers = await asyncio.gather(one(), one())
                    stored = entry(engine.cache, request)
                    assert stored._memo[0] is None
            sources = sorted(a.json()["source"] for a in answers)
            assert sources == ["coalesced", "computed"]
            for a in answers:
                assert a.body == stamped(
                    partition_dict(stored, a.json()["source"]), ids_of(a)
                )

        run(inner())


@pytest.mark.parametrize("trace", sorted(TRACE_HEADERS))
class TestRepartitionParity:
    def test_computed_then_memory(self, trace):
        headers = TRACE_HEADERS[trace]
        request = storm_request()

        async def inner():
            async with PartitionServer() as server:
                async with await Connection.open(*server.address) as conn:
                    heads = []
                    for source in ("computed", "memory", "memory"):
                        resp = await post(
                            conn, "/repartition", request.to_wire(), headers
                        )
                        assert resp.status == 200
                        assert resp.json()["source"] == source
                        stored = entry(server._plans, request)
                        assert resp.body == stamped(
                            repartition_dict(stored, source), ids_of(resp)
                        )
                        heads.append(stored._memo[0])
            assert heads[0] is None
            assert heads[1] is not None and heads[2] is heads[1]

        run(inner())

    def test_coalesced(self, slowstub, trace):
        headers = TRACE_HEADERS[trace]
        request = storm_request(method=slowstub)

        async def inner():
            async with PartitionServer() as server:

                async def one():
                    async with await Connection.open(*server.address) as c:
                        return await post(
                            c, "/repartition", request.to_wire(), headers
                        )

                answers = await asyncio.gather(one(), one())
                stored = entry(server._plans, request)
            sources = sorted(a.json()["source"] for a in answers)
            assert sources == ["coalesced", "computed"]
            for a in answers:
                assert a.body == stamped(
                    repartition_dict(stored, a.json()["source"]), ids_of(a)
                )

        run(inner())


def _batch_reference(cache, requests, items, ids) -> bytes:
    """The plain encoder's batch body, given the served item sources."""
    expected = []
    for request, item in zip(requests, items):
        if request is None:
            assert item["error"]["status"] == 422
            expected.append(item)
        else:
            expected.append(partition_dict(entry(cache, request), item["source"]))
    return stamped({"schema": 1, "responses": expected}, ids)


@pytest.mark.parametrize("trace", sorted(TRACE_HEADERS))
class TestBatchParity:
    def test_mixed_hits_misses_and_errors(self, tmp_path, trace):
        headers = TRACE_HEADERS[trace]
        on_disk = PartitionRequest(ne=NE, nparts=6)
        warm = PartitionRequest(ne=NE, nparts=12)
        cold = PartitionRequest(ne=NE, nparts=24, method="block")
        with PartitionEngine(PartitionCache(cache_dir=tmp_path)) as filler:
            filler.run([on_disk])
        wire = [
            on_disk.to_wire(),
            warm.to_wire(),
            cold.to_wire(),
            cold.to_wire(),
            {"ne": NE, "nparts": 9999},
            {"ne": NE, "nparts": 4, "method": "nope"},
        ]
        requests = [on_disk, warm, cold, cold, None, None]

        async def inner():
            with PartitionEngine(PartitionCache(cache_dir=tmp_path)) as engine:
                async with PartitionServer(engine) as server:
                    async with await Connection.open(*server.address) as conn:
                        await post(conn, "/partition", warm.to_wire(), headers)
                        bodies = []
                        for _ in range(2):
                            resp = await post(conn, "/batch", wire, headers)
                            assert resp.status == 200
                            items = resp.json()["responses"]
                            assert resp.body == _batch_reference(
                                engine.cache, requests, items, ids_of(resp)
                            )
                            bodies.append([i.get("source") for i in items])
            assert bodies[0] == [
                "disk", "memory", "computed", "coalesced", None, None,
            ]
            assert bodies[1] == ["memory"] * 4 + [None, None]

        run(inner())


class TestWithoutContext:
    """No active request context: the body carries no ids."""

    def test_batch_route_outside_a_request(self):
        wire = [{"ne": NE, "nparts": 12}, {"ne": NE, "nparts": 9999}]
        requests = [PartitionRequest(ne=NE, nparts=12), None]

        async def inner():
            async with PartitionServer() as server:
                http = HTTPRequest("POST", "/batch", body=json.dumps(wire).encode())
                for _ in range(2):
                    result = await server._serve_batch(http)
                    items = json.loads(result.body)["responses"]
                    assert result.body == _batch_reference(
                        server.engine.cache, requests, items, None
                    )

        run(inner())

    @pytest.mark.parametrize(
        "source", ["computed", "memory", "disk", "coalesced", "dedup"]
    )
    def test_encode_matches_plain_dict(self, source):
        partition = compute_response(PartitionRequest(ne=NE, nparts=12))
        plan = compute_repartition_response(storm_request())
        ctx = RequestContext.new()
        ids = (ctx.request_id, ctx.trace_id)
        for _ in range(2):  # the second pass reads a kept head, if any
            p = partition.with_source(source)
            assert p.encode() == stamped(partition_dict(partition, source), None)
            assert p.encode(ctx) == stamped(partition_dict(partition, source), ids)
            r = plan.with_source(source)
            assert r.encode() == stamped(repartition_dict(plan, source), None)
            assert r.encode(ctx) == stamped(repartition_dict(plan, source), ids)


class TestMemo:
    def test_head_is_built_once_and_counted_in_memory_bytes(self, monkeypatch):
        request = PartitionRequest(ne=NE, nparts=12)
        computed = compute_response(request)
        cache = PartitionCache()
        cache.put(request, computed)
        base = cache.stats()["memory_bytes"]
        assert base == computed.assignment.nbytes

        builds = []
        invariant = PartitionResponse._invariant

        def counted(self):
            builds.append(self.source)
            return invariant(self)

        monkeypatch.setattr(PartitionResponse, "_invariant", counted)
        computed.encode()
        computed.with_source("coalesced").encode(RequestContext.new())
        assert computed._memo[0] is None
        assert cache.stats()["memory_bytes"] == base

        cache.get(request).encode(RequestContext.new())
        head = computed._memo[0]
        assert head is not None
        assert cache.stats()["memory_bytes"] == base + len(head)

        body = cache.get(request).encode(RequestContext.new())
        assert computed._memo[0] is head
        assert body.startswith(head)
        assert cache.stats()["memory_bytes"] == base + len(head)
        assert builds == ["computed", "coalesced", "memory"]

    def test_with_source_shares_the_memo_without_revalidating(self, monkeypatch):
        response = compute_response(PartitionRequest(ne=NE, nparts=12))

        def refuse(self):
            raise AssertionError("with_source re-ran __post_init__")

        monkeypatch.setattr(PartitionResponse, "__post_init__", refuse)
        hit = response.with_source("memory")
        assert hit.source == "memory" and response.source == "computed"
        assert hit._memo is response._memo
        assert hit.assignment is response.assignment

    def test_disk_hit_promoted_into_memory(self, tmp_path):
        request = PartitionRequest(ne=NE, nparts=12)
        PartitionCache(cache_dir=tmp_path).put(request, compute_response(request))
        cache = PartitionCache(cache_dir=tmp_path)
        disk = cache.get(request)
        assert disk.source == "disk"
        assert disk.encode() == stamped(partition_dict(disk, "disk"), None)
        assert disk._memo[0] is None
        memory = cache.get(request)
        assert memory.source == "memory"
        assert memory.encode() == stamped(partition_dict(disk, "memory"), None)
        assert entry(cache, request)._memo[0] is not None

    def test_eviction_drops_the_bytes(self):
        first = PartitionRequest(ne=NE, nparts=12)
        second = PartitionRequest(ne=NE, nparts=24)
        cache = PartitionCache(capacity=1)
        cache.put(first, compute_response(first))
        cache.get(first).encode()
        assert cache.stats()["memory_bytes"] > 6 * NE * NE * 8
        replacement = compute_response(second)
        cache.put(second, replacement)
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["memory_bytes"] == replacement.assignment.nbytes

    def test_plan_bytes_count_the_plan_arrays(self):
        request = storm_request()
        response = compute_repartition_response(request)
        plans = PartitionCache()
        plans.put(request, response)
        arrays = response.plan.new_assignment.nbytes + sum(
            gids.nbytes for gids in response.plan.moves.values()
        )
        assert plans.stats()["memory_bytes"] == arrays
        plans.get(request).encode()
        assert plans.stats()["memory_bytes"] == arrays + len(response._memo[0])
