"""Content-addressed partition cache: in-memory LRU + on-disk store.

Partitions are pure functions of their request's canonical form, so
the cache is content-addressed: the key is the SHA-256 of the request's
canonical JSON (:meth:`PartitionRequest.cache_key`).  Per-element
weights are part of that form — inline weights as an O(1) content
digest, scenario weights as their ``(name, step, params)`` spec — so
weighted, unweighted, and differently-weighted requests can never
collide, with no cache-layer special-casing.  Two tiers:

* an in-memory LRU (bounded by ``capacity`` responses) that makes
  repeated requests inside one process near-free;
* an optional on-disk store (one ``<key>.npz`` per entry holding the
  assignment array plus the response JSON metadata) so repeated CLI or
  benchmark invocations skip partitioning entirely.

Disk writes are atomic (temp file + ``os.replace``) so concurrent
engines sharing a cache directory can only ever observe complete
entries.  Disk hits are promoted into the memory tier.

Every disk entry is stamped with the partition pipeline's composite
stage-version tag (:func:`repro.partition.pipeline.cache_version`).
An entry whose tag differs from the running code's — including
pre-refactor entries written before the tag existed — is treated as a
miss and recomputed (and overwritten), so a stage-implementation bump
can never silently serve stale assignments.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from ..lru import LRUCache
from ..partition.pipeline import cache_version
from .requests import PartitionRequest, PartitionResponse

__all__ = ["PartitionCache", "scan_cache_dir"]


def scan_cache_dir(cache_dir: Path | str) -> dict[str, int | str]:
    """Summarize a persistent cache directory (for ``repro cache info``).

    Returns entry counts split by freshness against the running
    composite stage version: ``current`` entries would be served,
    ``stale`` (version mismatch or pre-version entries) and
    ``unreadable`` ones would be recomputed on the next request.
    """
    cache_dir = Path(cache_dir)
    current = stale = unreadable = total_bytes = 0
    version = cache_version()
    for path in sorted(cache_dir.glob("*.npz")) if cache_dir.is_dir() else []:
        total_bytes += path.stat().st_size
        try:
            with np.load(path) as data:
                meta = json.loads(bytes(data["meta"]).decode())
        except (OSError, KeyError, ValueError, json.JSONDecodeError):
            unreadable += 1
            continue
        if meta.get("cache_version") == version:
            current += 1
        else:
            stale += 1
    return {
        "cache_version": version,
        "entries": current + stale + unreadable,
        "current": current,
        "stale": stale,
        "unreadable": unreadable,
        "bytes": total_bytes,
    }


class PartitionCache:
    """Two-tier (memory LRU + disk) content-addressed response cache.

    The memory tier only needs ``request.cache_key()`` and
    ``response.with_source()``, so the server also keeps repartition
    plans in a memory-only instance.

    Args:
        capacity: Maximum responses held in memory (LRU eviction).
        cache_dir: Optional directory for the persistent tier; created
            on first use.  ``None`` keeps the cache memory-only.
    """

    def __init__(
        self, capacity: int = 256, cache_dir: Path | str | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._memory = LRUCache(capacity)
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.stale = 0  # disk entries rejected for a cache-version mismatch

    # -- lookup ---------------------------------------------------------

    def get(self, request: PartitionRequest) -> PartitionResponse | None:
        """Return the cached response for ``request``, or ``None``.

        The returned response's ``source`` reflects the tier that
        answered (``"memory"`` or ``"disk"``).
        """
        key = request.cache_key()
        hit = self._memory.get(key)
        if hit is not None:
            self.memory_hits += 1
            return hit.with_source("memory")
        hit = self._load_disk(key, request)
        if hit is not None:
            self.disk_hits += 1
            self._memory.put(key, hit)
            return hit
        self.misses += 1
        return None

    def put(self, request: PartitionRequest, response: PartitionResponse) -> None:
        """Insert a computed response into both tiers."""
        key = request.cache_key()
        self._memory.put(key, response)
        if self.cache_dir is not None:
            self._store_disk(key, response)
        self.stores += 1

    def __contains__(self, request: PartitionRequest) -> bool:
        key = request.cache_key()
        return key in self._memory or (
            self.cache_dir is not None and self._path(key).exists()
        )

    def __len__(self) -> int:
        return len(self._memory)

    def clear_memory(self) -> None:
        """Drop the memory tier (the disk tier survives)."""
        self._memory.clear()

    # -- stats ----------------------------------------------------------

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float | int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stale": self.stale,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
            "memory_entries": len(self._memory),
        }

    # -- internals ------------------------------------------------------

    def _path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.npz"

    def _store_disk(self, key: str, response: PartitionResponse) -> None:
        assert self.cache_dir is not None
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
        meta = {
            "cache_version": cache_version(),
            "request": response.request.canonical(),
            "metrics": response.metrics,
            "elapsed_s": response.elapsed_s,
        }
        try:
            with open(tmp, "wb") as fh:
                np.savez_compressed(
                    fh,
                    assignment=response.assignment,
                    meta=np.frombuffer(
                        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
                    ),
                )
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def _load_disk(
        self, key: str, request: PartitionRequest
    ) -> PartitionResponse | None:
        if self.cache_dir is None:
            return None
        path = self._path(key)
        if not path.exists():
            return None
        try:
            with np.load(path) as data:
                assignment = data["assignment"]
                meta = json.loads(bytes(data["meta"]).decode())
        except (OSError, KeyError, ValueError, json.JSONDecodeError):
            return None  # truncated/foreign file: treat as a miss
        # A pre-refactor entry (no tag) or one written by a different
        # stage-version combination must be recomputed, not served.
        if meta.get("cache_version") != cache_version():
            self.stale += 1
            return None
        # Paranoia against hash collisions and stale schemas: the stored
        # request must match the one asked for.
        if meta.get("request") != request.canonical():
            return None
        return PartitionResponse(
            request=request,
            assignment=assignment,
            metrics=meta["metrics"],
            elapsed_s=float(meta.get("elapsed_s", 0.0)),
            source="disk",
        )
