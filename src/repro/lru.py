"""The one in-process cache type: a count-bounded LRU map.

Every per-process memo in the package — meshes, element graphs, SE
geometries, DSS operators, the service's response tier and the
server's repartition plans — is an :class:`LRUCache`.  Each keeps
at most ``maxsize`` entries, evicts the least recently used first,
and counts its hits, misses and evictions.  When the owner names a
metric family, every lookup is also published to the active telemetry
session as ``<metric>{<labels>..., outcome="hit"|"miss"}``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import Any

from .telemetry import inc

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """Least-recently-used map holding at most ``maxsize`` entries.

    Args:
        maxsize: Entry bound; inserting beyond it evicts the least
            recently used entry.
        metric: Optional counter family that lookups are published
            under (with an ``outcome`` label).
        **labels: Extra labels stamped on every published lookup.
    """

    def __init__(self, maxsize: int, metric: str | None = None, **labels: str) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.metric = metric
        self.labels = labels
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _count(self, outcome: str) -> None:
        if outcome == "hit":
            self.hits += 1
        else:
            self.misses += 1
        if self.metric is not None:
            inc(self.metric, **self.labels, outcome=outcome)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value under ``key`` (refreshed as most recent), else ``default``."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self._count("miss")
            return default
        self._entries.move_to_end(key)
        self._count("hit")
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or replace ``key`` as most recent, evicting beyond the bound."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_or_compute(
        self,
        key: Hashable,
        compute: Callable[[], Any],
        valid: Callable[[Any], bool] | None = None,
    ) -> Any:
        """The cached value, or ``compute()`` stored under ``key``.

        An entry that fails ``valid`` counts as a miss and is replaced.
        """
        value = self._entries.get(key, _MISSING)
        if value is not _MISSING and (valid is None or valid(value)):
            self._entries.move_to_end(key)
            self._count("hit")
            return value
        self._count("miss")
        value = compute()
        self.put(key, value)
        return value

    def items(self) -> list[tuple[Hashable, Any]]:
        """``(key, value)`` pairs, least recently used first."""
        return list(self._entries.items())

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self)}

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)
