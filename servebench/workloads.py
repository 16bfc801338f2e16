"""Seeded request sequences of the served-path benchmark.

Every workload is pre-generated from ``(seed, seconds)`` before any
server starts, so a run replays a fixed amount of work and never stops
on a clock.  ``seconds`` only sizes the sequence, through a request
count per second (:data:`NOMINAL_RPS`); the seed picks the order, the
part counts and the storm's phase.  The program under test receives only the generated requests:
the seed appears in no request body and no server argument.

A :class:`Plan` holds

* ``fill`` — requests answered during set-up (the ``hit_mix`` cache
  fill); not timed;
* ``replicas`` — one entry per fresh server of the run; each entry is
  a list of streams, one stream per keep-alive connection.

Each :class:`Call` carries the digest of the correct answer, computed
in-process through the partitioner registry (or
:func:`~repro.partition.repartition.plan_repartition`) while the
sequence is generated, so the answer check needs no second compute.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

import numpy as np

#: Fresh servers per run.  Set-up time is the median over them, and the
#: timed work is split between them.
REPLICAS = 3

#: Requests generated per ``--seconds``.  On the reference host (a
#: 2-vCPU VM, one CPU used) ``--seconds 15`` gives timed phases of about
#: 13 s for hit_mix, 27 s for cold_ladder (10 s of it first-touch mesh
#: and graph builds) and 32 s for the storm (240 steps).
NOMINAL_RPS = {"hit_mix": 160.0, "cold_ladder": 28.0, "repartition_storm": 16.0}

WORKLOADS = tuple(NOMINAL_RPS)

# -- hit_mix ------------------------------------------------------------------
HIT_NE = (4, 8, 16, 32, 64, 128)
HIT_METHODS = ("sfc", "morton", "block")
HIT_RB_NE = (4, 8, 16)
HIT_NPARTS = (6, 24, 96, 384)
HIT_CONNECTIONS = 2
ZIPF_S = 1.0

# -- cold_ladder --------------------------------------------------------------
LADDER_MAX_NE = 128
LADDER_METHODS = ("sfc", "morton", "block", "strided")
LADDER_GRAPH_METHODS = ("rb", "kway")
LADDER_GRAPH_MAX_NE = 16
LADDER_MAX_NPARTS = 1536
LADDER_DOUBLE_FROM_NE = 16
LADDER_REPARTITION_MAX_NE = 32
#: Elements per part of the ladder's /repartition requests.  Far fewer
#: (sfc_partition(3, 38, weights=scenario_weights("storm", 3, 62))) can
#: send the weighted cut's boundary correction into an endless loop;
#: every storm step at this ratio and every ladder size is known to end.
LADDER_REPARTITION_ELEMENTS_PER_PART = 96

# -- repartition_storm --------------------------------------------------------
STORM_NE = 64
STORM_NPARTS = 64
STORM_PERIOD = 100
STORM_MIN_STEPS = 100


@dataclass(frozen=True)
class Call:
    """One request: route, JSON body object, digest of the right answer."""

    route: str
    wire: dict
    expect: str


@dataclass(frozen=True)
class Plan:
    """A run's pre-generated requests."""

    workload: str
    fill: tuple[Call, ...]
    replicas: tuple[tuple[tuple[Call, ...], ...], ...]

    def calls(self) -> list[Call]:
        """Timed requests in replica/stream order."""
        return [c for rep in self.replicas for stream in rep for c in stream]

    def to_bytes(self) -> bytes:
        """Canonical serialization (what the determinism test compares)."""

        def enc(calls):
            return [[c.route, c.wire, c.expect] for c in calls]

        doc = {
            "workload": self.workload,
            "fill": enc(self.fill),
            "replicas": [[enc(s) for s in rep] for rep in self.replicas],
        }
        return json.dumps(doc, sort_keys=True).encode("utf-8")


def assignment_digest(assignment) -> str:
    """Digest of a gid -> part vector (JSON list or array)."""
    arr = np.ascontiguousarray(np.asarray(assignment, dtype=np.int64))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def plan_digest(plan: dict) -> str:
    """Digest of a repartition plan in its JSON form."""
    text = json.dumps(plan, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def answer_digest(route: str, data: dict) -> str:
    """Digest of a decoded response body (the answer check's key)."""
    if route == "/repartition":
        return plan_digest(data["plan"])
    return assignment_digest(data["assignment"])


def _partition_digest(ne: int, nparts: int, method: str) -> str:
    from repro.partition import registry

    spec = registry.get(method)
    part = spec(registry.PartitionProblem(ne=ne, nparts=nparts))
    return assignment_digest(part.assignment)


def _partition_call(ne: int, nparts: int, method: str) -> Call:
    wire = {"ne": ne, "nparts": nparts, "method": method}
    return Call("/partition", wire, _partition_digest(ne, nparts, method))


def _storm_weights(ne: int, step: int) -> np.ndarray:
    from repro.scenarios import scenario_weights

    return scenario_weights("storm", ne, step, nsteps=STORM_PERIOD)


def _sfc_cut(ne: int, nparts: int, weights: np.ndarray) -> np.ndarray:
    from repro.partition import registry

    problem = registry.PartitionProblem(ne=ne, nparts=nparts, weights=weights)
    return registry.get("sfc")(problem).assignment


def _repartition_call(
    ne: int, nparts: int, old: np.ndarray, weights: np.ndarray
) -> tuple[Call, np.ndarray]:
    """One inline ``/repartition`` request and the new assignment."""
    from repro.partition.repartition import plan_repartition

    plan = plan_repartition(old, weights, ne=ne, nparts=nparts)
    wire = {
        "ne": ne,
        "nparts": nparts,
        "method": "sfc",
        "old_assignment": old.tolist(),
        "weights": weights.tolist(),
    }
    digest = plan_digest(plan.to_dict(include_assignment=True))
    return Call("/repartition", wire, digest), plan.new_assignment


def _split(items: list, parts: int) -> list[list]:
    """Contiguous split into ``parts`` near-equal chunks."""
    bounds = [round(i * len(items) / parts) for i in range(parts + 1)]
    return [items[bounds[i]:bounds[i + 1]] for i in range(parts)]


def zipf_counts(n: int, ranks: int, s: float = ZIPF_S) -> list[int]:
    """Exact Zipf counts of ``n`` draws over ``ranks`` keys.

    Largest-remainder rounding, so every stream of a run holds the same
    multiset of keys and only the order depends on the seed.
    """
    weights = [1.0 / (k + 1) ** s for k in range(ranks)]
    total = sum(weights)
    exact = [n * w / total for w in weights]
    counts = [math.floor(x) for x in exact]
    order = sorted(range(ranks), key=lambda k: (counts[k] - exact[k], k))
    for k in order[: n - sum(counts)]:
        counts[k] += 1
    return counts


def hit_universe() -> list[tuple[int, int, str]]:
    """The fixed ``(ne, nparts, method)`` keys, in Zipf rank order.

    Ranks interleave the sizes (rank 1 is the first ne=4 key, rank 2
    the first ne=8 key, ...), so every size keeps a fixed share of the
    traffic whatever the seed.
    """
    per_ne = []
    for ne in HIT_NE:
        methods = HIT_METHODS + (("rb",) if ne in HIT_RB_NE else ())
        per_ne.append(
            [(ne, p, m) for p in HIT_NPARTS if p <= 6 * ne * ne for m in methods]
        )
    ranked = []
    for i in range(max(len(keys) for keys in per_ne)):
        ranked.extend(keys[i] for keys in per_ne if i < len(keys))
    return ranked


def hit_mix(seed: int, seconds: float) -> Plan:
    universe = [_partition_call(ne, p, m) for ne, p, m in hit_universe()]
    streams = REPLICAS * HIT_CONNECTIONS
    per_stream = max(1, round(seconds * NOMINAL_RPS["hit_mix"] / streams))
    counts = zipf_counts(per_stream, len(universe))
    rng = random.Random(f"hit_mix:{seed}")
    built = []
    for _ in range(streams):
        stream = [c for c, n in zip(universe, counts) for _ in range(n)]
        rng.shuffle(stream)
        built.append(tuple(stream))
    replicas = tuple(
        tuple(built[r * HIT_CONNECTIONS:(r + 1) * HIT_CONNECTIONS])
        for r in range(REPLICAS)
    )
    return Plan("hit_mix", tuple(universe), replicas)


def ladder_sizes() -> list[int]:
    from repro.sfc.factorization import is_admissible_size

    return [ne for ne in range(1, LADDER_MAX_NE + 1) if is_admissible_size(ne)]


def ladder_methods(ne: int) -> tuple[str, ...]:
    methods = tuple(m for m in LADDER_METHODS if m != "morton" or ne & (ne - 1) == 0)
    if ne <= LADDER_GRAPH_MAX_NE:
        methods += LADDER_GRAPH_METHODS
    return methods


def stratified_nparts(rng: random.Random, k: int, reps: int) -> list[int]:
    """``reps`` distinct part counts, one per log-spaced stratum of
    ``[2, min(K, LADDER_MAX_NPARTS)]``, so per-request work varies
    little between seeds."""
    lo, hi = 2, min(k, LADDER_MAX_NPARTS)
    pool = list(range(lo, hi + 1))
    if len(pool) <= reps:
        return pool
    ratio = math.log(hi / lo)
    picks: list[int] = []
    for i in range(reps):
        a = lo * math.exp(ratio * i / reps)
        b = lo * math.exp(ratio * (i + 1) / reps)
        choice = round(math.exp(rng.uniform(math.log(a), math.log(b))))
        free = [p for p in pool if p not in picks]
        picks.append(min(free, key=lambda p: (abs(p - choice), p)))
    return picks


def ladder_reps(ne: int, base: int) -> int:
    """Part counts per (ne, method) slot.

    Sizes from ne=16 up get twice the small sizes' count, so the median
    request falls inside the ne=16..36 class rather than on the steep
    edge between overhead-bound small requests and compute-bound ones.
    """
    return base if ne < LADDER_DOUBLE_FROM_NE else 2 * base


def cold_ladder(seed: int, seconds: float) -> Plan:
    rng = random.Random(f"cold_ladder:{seed}")
    sizes = ladder_sizes()
    slots = sum(
        (len(ladder_methods(ne)) + (ne <= LADDER_REPARTITION_MAX_NE))
        * ladder_reps(ne, 1)
        for ne in sizes
    )
    base = max(1, round(seconds * NOMINAL_RPS["cold_ladder"] / slots))
    blocks: dict[int, list[Call]] = {}
    for ne in sizes:
        k, reps = 6 * ne * ne, ladder_reps(ne, base)
        block = [
            _partition_call(ne, p, m)
            for m in ladder_methods(ne)
            for p in stratified_nparts(rng, k, reps)
        ]
        # Small sizes also re-cut seeded storm steps against the cut of
        # the step before, so planning runs in the pool on this workload.
        if ne <= LADDER_REPARTITION_MAX_NE:
            p = max(2, k // LADDER_REPARTITION_ELEMENTS_PER_PART)
            for step in rng.sample(range(STORM_PERIOD), reps):
                old = _sfc_cut(ne, p, _storm_weights(ne, step - 1))
                block.append(
                    _repartition_call(ne, p, old, _storm_weights(ne, step))[0]
                )
        rng.shuffle(block)
        blocks[ne] = block
    # Deal the sizes to the replicas largest-first in snake order, so the
    # first-touch mesh/graph builds split evenly; each server then climbs
    # its own ladder in ascending ne.
    owner: dict[int, int] = {}
    for i, ne in enumerate(sorted(sizes, reverse=True)):
        lap, pos = divmod(i, REPLICAS)
        owner[ne] = pos if lap % 2 == 0 else REPLICAS - 1 - pos
    replicas = tuple(
        (tuple(c for ne in sizes if owner[ne] == r for c in blocks[ne]),)
        for r in range(REPLICAS)
    )
    return Plan("cold_ladder", (), replicas)


def repartition_storm(seed: int, seconds: float) -> Plan:
    # The storm circles the sphere every STORM_PERIOD steps; a longer run
    # keeps stepping it, and a lap repeats the previous lap's requests.
    # Up to 3 * STORM_PERIOD steps no server sees a lap's worth of them,
    # so none is asked the same thing twice (the source check fails the
    # run if one answers from its plan cache).
    steps = max(STORM_MIN_STEPS, round(seconds * NOMINAL_RPS["repartition_storm"]))
    phase = random.Random(f"repartition_storm:{seed}").randrange(STORM_PERIOD)
    old = _sfc_cut(STORM_NE, STORM_NPARTS, _storm_weights(STORM_NE, phase - 1))
    calls = []
    for step in range(phase, phase + steps):
        call, old = _repartition_call(
            STORM_NE, STORM_NPARTS, old, _storm_weights(STORM_NE, step)
        )
        calls.append(call)
    replicas = tuple((tuple(chunk),) for chunk in _split(calls, REPLICAS))
    return Plan("repartition_storm", (), replicas)


_BUILDERS = {
    "hit_mix": hit_mix,
    "cold_ladder": cold_ladder,
    "repartition_storm": repartition_storm,
}


def build(workload: str, seed: int, seconds: float) -> Plan:
    """The pre-generated plan of one run."""
    return _BUILDERS[workload](seed, seconds)
