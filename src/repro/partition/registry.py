"""Partitioner registry: uniformly-interfaced, pluggable partitioners.

Every partitioning method the repo knows — the paper's SFC partitioner,
the three METIS-style multilevel algorithms, and the geometric/naive
baselines — is registered here as a :class:`Partitioner`: a name, a
builder over a :class:`PartitionProblem`, and capability flags (weight
support, seed contract, ``ne`` constraints).  Everything that needs to
resolve a method name — the service request validation, the pipeline's
partition stage, the figure/table sweeps, the CLI ``--method`` choices
and ``repro methods`` listing — consumes this registry, so the method
set has a single source of truth and third-party methods plug in with
one :func:`register` call.

Registering a new method::

    from repro.partition.registry import Partitioner, register

    def _build_hybrid(problem):
        part = ...  # use problem.ne/nparts/seed, problem.graph(), ...
        return part.with_method("hybrid")

    register(Partitioner(
        name="hybrid",
        build=_build_hybrid,
        description="SFC seed + FM refinement",
        family="hybrid",
        uses_seed=True,
    ))

The capability flags are enforced *at request-validation time* (see
:meth:`Partitioner.validate`): an inadmissible ``ne`` for the SFC, a
refinement schedule passed to a method that ignores it, or per-element
weights for an unweighted method all fail with a clear message before
any compute starts.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .base import Partition

__all__ = [
    "CapabilityError",
    "DuplicatePartitionerError",
    "MAX_ELEMENTS",
    "PartitionProblem",
    "Partitioner",
    "UnknownPartitionerError",
    "available",
    "get",
    "register",
    "specs",
    "unregister",
    "validate_weights",
    "weighted_methods",
]


def validate_weights(weights, k: int | None = None) -> np.ndarray:
    """Normalize and validate a per-element weight array.

    The single weight-sanity gate shared by every boundary — request
    parsing, :class:`PartitionProblem` construction, the repartition
    planner — so a bad weight vector fails the same way everywhere
    (and maps to HTTP 422 at the server) instead of silently producing
    garbage cuts.

    Args:
        weights: Array-like of per-element weights.
        k: Required length (``6 ne^2``), or ``None`` to skip the check.

    Returns:
        A contiguous 1-D float64 copy-if-needed view of ``weights``.

    Raises:
        ValueError: Non-1-D, wrong length, non-finite (NaN/inf), or
            non-positive entries — each with a message naming the
            offending property.
    """
    arr = np.asarray(weights, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"weights must be a 1-D array, got shape {arr.shape}")
    if k is not None and len(arr) != k:
        raise ValueError(
            f"weights must have one entry per element: expected {k}, "
            f"got {len(arr)}"
        )
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ValueError(
            f"weights must be finite; entry {bad} is {arr[bad]}"
        )
    if (arr <= 0).any():
        bad = int(np.flatnonzero(arr <= 0)[0])
        raise ValueError(
            f"weights must be positive; entry {bad} is {arr[bad]}"
        )
    return np.ascontiguousarray(arr)


class UnknownPartitionerError(ValueError):
    """No partitioner registered under the requested name."""


class DuplicatePartitionerError(ValueError):
    """A partitioner with this name is already registered."""


class CapabilityError(ValueError):
    """The problem violates the partitioner's capability contract."""


#: Largest admissible mesh, ``K = 6 ne^2`` elements (ne = 1024): one
#: request past it could exhaust a worker's memory.
MAX_ELEMENTS = 6 * 1024**2


@dataclass(frozen=True)
class PartitionProblem:
    """One partitioning problem, as handed to a partitioner's builder.

    Attributes:
        ne: Elements per cube-face edge (``K = 6 ne^2`` elements).
        nparts: Number of parts (processors).
        seed: Determinism seed (ignored by seedless methods).
        schedule: Optional face-local refinement schedule (methods with
            ``supports_schedule`` only).
        weights: Optional per-element (gid-indexed) weights (methods
            with ``weighted`` only).

    ``mesh()`` and ``graph()`` resolve through the staged pipeline's
    caches (:mod:`repro.partition.pipeline`), so builders that need the
    mesh or the element graph share one copy per ``ne`` with every
    other method, and builders that need neither (block, strided,
    random) never pay for them.
    """

    ne: int
    nparts: int
    seed: int = 0
    schedule: str | None = None
    weights: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.weights is not None:
            object.__setattr__(
                self, "weights", validate_weights(self.weights, self.k)
            )

    @property
    def k(self) -> int:
        """Total element count ``K = 6 ne^2``."""
        return 6 * self.ne * self.ne

    def mesh(self):
        """The cubed-sphere mesh at ``ne`` (stage-cached)."""
        from .pipeline import mesh_stage

        return mesh_stage(self.ne)

    def graph(self):
        """The weighted element graph at ``ne`` (stage-cached)."""
        from .pipeline import graph_stage

        return graph_stage(self.ne)


@dataclass(frozen=True)
class Partitioner:
    """A registered partitioning method and its capability contract.

    Attributes:
        name: Registry key; also stamped on produced partitions.
        build: ``PartitionProblem -> Partition`` builder.
        description: One-line summary for ``repro methods``.
        family: Coarse grouping (``"sfc"``, ``"metis"``,
            ``"geometric"``, ``"baseline"``, ...).
        weighted: Accepts per-element weights.
        uses_seed: Output depends on ``seed`` (the determinism
            contract: seedless methods are pure functions of
            ``(ne, nparts, schedule)``; seeded methods are pure
            functions of those plus ``seed``).
        supports_schedule: Accepts a refinement schedule.
        continuous: The method traverses the mesh along a single
            *continuous* curve (consecutive elements are edge
            neighbors), the property that lets the paper's SFC chain
            all six cube faces and keep segments connected.  Morton /
            Z-order is the flagged counterexample: its jumps cannot be
            chained, so it is registered ``continuous=False``.
        ne_constraint: Human-readable admissible-``ne`` description.
        check_ne: Predicate for admissible ``ne`` (``None``: any).
    """

    name: str
    build: Callable[[PartitionProblem], Partition]
    description: str = ""
    family: str = "baseline"
    weighted: bool = False
    uses_seed: bool = False
    supports_schedule: bool = False
    continuous: bool = False
    ne_constraint: str | None = None
    check_ne: Callable[[int], bool] | None = None

    def validate(
        self,
        *,
        ne: int,
        nparts: int,
        schedule: str | None = None,
        weighted: bool = False,
    ) -> None:
        """Raise :class:`CapabilityError` on a contract violation.

        Called at request-validation time so violations surface before
        any mesh/graph/partition compute starts.
        """
        if ne < 1:
            raise CapabilityError(f"ne must be >= 1, got {ne}")
        k = 6 * int(ne) ** 2
        if k > MAX_ELEMENTS:
            raise CapabilityError(
                f"ne={ne} gives K={k} elements, over the limit of "
                f"{MAX_ELEMENTS} (ne <= 1024)"
            )
        if self.check_ne is not None and not self.check_ne(ne):
            raise CapabilityError(
                f"method {self.name!r} requires {self.ne_constraint}; "
                f"ne={ne} is not admissible"
            )
        if not 1 <= nparts <= k:
            raise CapabilityError(
                f"nparts must be in [1, K={k}] for method {self.name!r}, "
                f"got {nparts}"
            )
        if schedule is not None and not self.supports_schedule:
            if self.family == "sfc" and not self.continuous:
                raise CapabilityError(
                    f"method {self.name!r} is discontinuous (its key "
                    f"order jumps, so it cannot chain cube faces into "
                    f"a single refined curve) and does not accept a "
                    f"refinement schedule (schedule={schedule!r})"
                )
            raise CapabilityError(
                f"method {self.name!r} does not accept a refinement "
                f"schedule (schedule={schedule!r}); only methods with "
                f"supports_schedule do"
            )
        if weighted and not self.weighted:
            raise CapabilityError(
                f"method {self.name!r} does not support per-element "
                f"weights; weighted methods: {weighted_methods()}"
            )

    def __call__(self, problem: PartitionProblem) -> Partition:
        """Validate the problem against the contract, then build."""
        self.validate(
            ne=problem.ne,
            nparts=problem.nparts,
            schedule=problem.schedule,
            weighted=problem.weights is not None,
        )
        return self.build(problem)


_REGISTRY: dict[str, Partitioner] = {}


def register(spec: Partitioner, *, replace: bool = False) -> Partitioner:
    """Add a partitioner to the registry.

    Args:
        spec: The partitioner to register.
        replace: Permit replacing an existing entry of the same name.

    Raises:
        DuplicatePartitionerError: Name taken and ``replace`` is false.
    """
    if not spec.name or not spec.name.isidentifier():
        raise ValueError(f"partitioner name must be an identifier, got {spec.name!r}")
    if spec.name in _REGISTRY and not replace:
        raise DuplicatePartitionerError(
            f"partitioner {spec.name!r} is already registered; "
            f"pass replace=True to override it"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a registered partitioner (no-op if absent)."""
    _REGISTRY.pop(name, None)


def get(name: str) -> Partitioner:
    """Resolve a method name, with a did-you-mean on typos.

    Raises:
        UnknownPartitionerError: Unregistered name; the message lists
            the registered methods and suggests the closest match.
    """
    spec = _REGISTRY.get(name)
    if spec is not None:
        return spec
    close = difflib.get_close_matches(str(name), _REGISTRY, n=1, cutoff=0.5)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    raise UnknownPartitionerError(
        f"unknown method {name!r}; choose from {available()}{hint}"
    )


def available() -> tuple[str, ...]:
    """Registered method names, in registration order."""
    return tuple(_REGISTRY)


def specs() -> tuple[Partitioner, ...]:
    """Registered partitioners, in registration order."""
    return tuple(_REGISTRY.values())


def weighted_methods() -> tuple[str, ...]:
    """Names of the methods that accept per-element weights."""
    return tuple(s.name for s in _REGISTRY.values() if s.weighted)


# -- built-in methods --------------------------------------------------------
#
# Builders import their implementation lazily so that loading the
# registry (e.g. for CLI --method choices or request validation) stays
# cheap and free of import cycles.


def _build_sfc(p: PartitionProblem) -> Partition:
    from .sfc import sfc_partition

    return sfc_partition(p.ne, p.nparts, schedule=p.schedule, weights=p.weights)


def _metis_builder(method: str) -> Callable[[PartitionProblem], Partition]:
    def build(p: PartitionProblem) -> Partition:
        from ..metis.api import part_graph

        return part_graph(p.graph(), p.nparts, method, seed=p.seed)

    return build


def _build_morton(p: PartitionProblem) -> Partition:
    from .sfc import morton_partition

    return morton_partition(p.ne, p.nparts, weights=p.weights)


def _morton_admissible(ne: int) -> bool:
    return ne >= 1 and ne & (ne - 1) == 0


def _build_rcb(p: PartitionProblem) -> Partition:
    from .geometric import rcb_partition

    return rcb_partition(p.mesh().centers_xyz, p.nparts)


def _build_block(p: PartitionProblem) -> Partition:
    from .block import block_partition

    return block_partition(p.k, p.nparts)


def _build_random(p: PartitionProblem) -> Partition:
    from .block import random_partition

    return random_partition(p.k, p.nparts, seed=p.seed)


def _build_strided(p: PartitionProblem) -> Partition:
    from .block import strided_partition

    return strided_partition(p.k, p.nparts)


def _sfc_admissible(ne: int) -> bool:
    from ..sfc.factorization import is_admissible_size

    return is_admissible_size(ne)


register(Partitioner(
    name="sfc",
    build=_build_sfc,
    description="space-filling curve cut into equal segments (the paper)",
    family="sfc",
    weighted=True,
    supports_schedule=True,
    continuous=True,
    ne_constraint="ne = 2^n * 3^m",
    check_ne=_sfc_admissible,
))
register(Partitioner(
    name="morton",
    build=_build_morton,
    description="Morton (Z-order) key cut; discontinuous, cannot chain faces",
    family="sfc",
    weighted=True,
    ne_constraint="ne = 2^n",
    check_ne=_morton_admissible,
))
register(Partitioner(
    name="rb",
    build=_metis_builder("rb"),
    description="multilevel recursive bisection (METIS pmetis)",
    family="metis",
    uses_seed=True,
))
register(Partitioner(
    name="kway",
    build=_metis_builder("kway"),
    description="multilevel K-way minimizing edgecut (METIS kmetis)",
    family="metis",
    uses_seed=True,
))
register(Partitioner(
    name="tv",
    build=_metis_builder("tv"),
    description="multilevel K-way minimizing total communication volume",
    family="metis",
    uses_seed=True,
))
register(Partitioner(
    name="rcb",
    build=_build_rcb,
    description="recursive coordinate bisection of element centers",
    family="geometric",
))
register(Partitioner(
    name="block",
    build=_build_block,
    description="contiguous blocks of the storage (gid) order",
))
register(Partitioner(
    name="random",
    build=_build_random,
    description="balanced random assignment (communication worst case)",
    uses_seed=True,
))
register(Partitioner(
    name="strided",
    build=_build_strided,
    description="round-robin (cyclic) assignment, worst-case locality",
))
