"""The bounded LRU cache type shared by every in-process memo."""

from __future__ import annotations

import pytest

from repro.lru import LRUCache
from repro.telemetry import telemetry_session


class TestOrderAndEviction:
    def test_evicts_least_recently_used_at_maxsize(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # "b" is now least recent
        cache.put("c", 3)
        assert "b" not in cache
        assert [k for k, _ in cache.items()] == ["a", "c"]
        assert len(cache) == 2
        assert cache.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 10

    def test_get_or_compute_computes_once(self):
        cache = LRUCache(4)
        calls = []
        for _ in range(3):
            value = cache.get_or_compute("k", lambda: calls.append(1) or "v")
        assert value == "v"
        assert len(calls) == 1
        assert (cache.hits, cache.misses) == (2, 1)

    def test_invalid_entry_is_a_miss_and_replaced(self):
        cache = LRUCache(4)
        cache.put("k", "stale")
        value = cache.get_or_compute(
            "k", lambda: "fresh", valid=lambda v: v != "stale"
        )
        assert value == "fresh"
        assert cache.get("k") == "fresh"
        assert (cache.hits, cache.misses) == (1, 1)

    def test_get_missing_returns_default(self):
        cache = LRUCache(1)
        assert cache.get("nope") is None
        assert cache.get("nope", 7) == 7
        assert cache.misses == 2

    def test_maxsize_validated(self):
        with pytest.raises(ValueError, match="maxsize"):
            LRUCache(0)


def test_clear_resets_counters():
    cache = LRUCache(1)
    cache.get("a")
    cache.put("a", 1)
    cache.get("a")
    cache.put("b", 2)
    assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 1)
    cache.clear()
    assert len(cache) == 0
    assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
    assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}


def test_metric_family_and_labels_exported_as_passed():
    cache = LRUCache(2, "some_cache_total", stage="unit", tier="a")
    with telemetry_session() as session:
        cache.get_or_compute(1, lambda: "x")
        cache.get_or_compute(1, lambda: "x")
        cache.get(2)
    series = {
        (name, tuple(sorted(labels.items()))): metric.value
        for name, labels, metric in session.metrics.items()
    }
    assert series == {
        ("some_cache_total", (("outcome", "hit"), ("stage", "unit"), ("tier", "a"))): 1,
        ("some_cache_total", (("outcome", "miss"), ("stage", "unit"), ("tier", "a"))): 2,
    }


def test_unnamed_cache_publishes_nothing():
    cache = LRUCache(2)
    with telemetry_session() as session:
        cache.get_or_compute(1, lambda: "x")
        cache.get(1)
    assert list(session.metrics.items()) == []


def test_scenario_weights_and_mesh_stage_share_one_mesh():
    """Every mesh request in the process goes through one memo."""
    from repro.cubesphere.mesh import cubed_sphere_mesh
    from repro.partition.pipeline import (
        clear_stage_caches,
        mesh_stage,
        stage_cache_stats,
    )
    from repro.scenarios import scenario_weights

    clear_stage_caches()
    try:
        scenario_weights("storm", 6, 0)
        assert stage_cache_stats()["mesh"] == {"hits": 0, "misses": 1, "entries": 1}
        mesh = mesh_stage(6)
        assert mesh is cubed_sphere_mesh(6)
        assert stage_cache_stats()["mesh"] == {"hits": 2, "misses": 1, "entries": 1}
    finally:
        clear_stage_caches()
