"""Static storage-race detection for arbitrary mappings and stencils.

The certificate checker (:mod:`repro.analysis.certify`) decides the
special case "is this occupancy vector universal".  This module answers
the general question for *any* :class:`~repro.mapping.base.StorageMapping`
— rolling buffers, padded layouts, natural arrays — over a concrete ISG:

    are there two iterations ``p != q`` with ``SM(p) = SM(q)`` whose live
    ranges can overlap under **some** legal schedule?

No schedules are enumerated.  The value of ``p`` is guaranteed dead by
the time ``q`` writes, *in every legal schedule*, iff ``p`` and each of
its in-region consumers ``p + vi`` are forced before ``q`` by chains of
value dependences — i.e. they lie in the region-restricted
``DONE(V, q)`` (``q`` itself counts: reads precede the write within one
iteration).  A colliding pair is race-free iff that deadness holds in at
least one direction; otherwise some legal interleaving clobbers a live
value, and :func:`race_witness` will construct (or sample) a concrete
schedule demonstrating it.

The region restriction keeps the check *sound*: ``DONE`` only follows
dependence vectors backwards inside the region, so a dependence chain
that would have to leave the ISG is never credited with forcing an
order.  :class:`ForcedBeforeIndex` builds every point's ``DONE`` set in
one lexicographic pass; :func:`repro.core.cone.done_set` is the
single-query walk that :func:`race_witness` uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from repro.analysis.liveness import MappingViolation, find_mapping_violation
from repro.core.cone import done_set
from repro.core.stencil import Stencil
from repro.mapping.base import StorageMapping
from repro.util.polyhedron import Polytope
from repro.util.vectors import IntVector, dot, sub

__all__ = [
    "StorageRace",
    "ForcedBeforeIndex",
    "find_storage_races",
    "race_witness",
    "region_points",
]


def region_points(region: Polytope) -> list[IntVector]:
    """The integer points of a polytope region, in lexicographic order."""
    import itertools

    lower, upper = region.bounding_box()
    return [
        tuple(p)
        for p in itertools.product(
            *[range(lo, hi + 1) for lo, hi in zip(lower, upper)]
        )
        if region.contains(p)
    ]


@dataclass(frozen=True)
class StorageRace:
    """A colliding iteration pair unordered by value dependences.

    ``first``/``second`` share ``location``; neither point's value is
    provably dead before the other's write under every legal schedule.
    ``blocker`` names the evidence against the ``first``-dies-first
    direction: the consumer of ``first`` (or ``first`` itself) that is
    not forced before ``second``.
    """

    first: IntVector
    second: IntVector
    location: int
    blocker: IntVector

    def __str__(self) -> str:
        return (
            f"iterations {self.first} and {self.second} share location "
            f"{self.location} but no dependence orders "
            f"{self.blocker} before {self.second}: some legal schedule "
            f"clobbers a live value"
        )


class ForcedBeforeIndex:
    """Every region point's region-restricted ``DONE`` set, as bitmasks.

    The index owns the region's integer points (:attr:`points`, in
    :func:`region_points`' lexicographic order).  Bit ``k`` of a point
    ``q``'s mask is set when the ``k``-th point lies in ``DONE_R(q)``: it
    executes before ``q`` in every legal schedule of the region.  Stencil
    vectors are lexicographically positive, so every producer ``q - v``
    precedes ``q`` in that order, and one pass builds every mask::

        DONE_R(q) = {q}  |  union of DONE_R(q - v) for q - v in the region

    A producer without a mask lies outside the region, which is the
    region restriction: a dependence chain that would leave the ISG is
    never credited with forcing an order.  The pass costs ``N * |V|``
    big-int ORs and at most ``N**2 / 8`` bytes for ``N`` points, and runs
    on the first query, so a scan that meets no colliding pair never pays
    for it.  :func:`repro.core.cone.done_set` stays the single-query BFS
    and is the index's test oracle.
    """

    def __init__(self, stencil: Stencil, region: Polytope):
        self._vectors = stencil.vectors
        self.points: tuple[IntVector, ...] = tuple(region_points(region))
        self._position = {p: k for k, p in enumerate(self.points)}
        self._cache: dict[IntVector, frozenset[IntVector]] = {}

    @cached_property
    def _graph(self) -> tuple[list[int], list[list[int]]]:
        """Per point position: its ``DONE_R`` mask, and the positions of
        its in-region consumers.  Those are appended in point order,
        which is stencil order: the vectors are sorted lexicographically,
        and adding ``p`` keeps that order."""
        position = self._position
        masks: list[int] = []
        consumers: list[list[int]] = [[] for _ in self.points]
        for k, q in enumerate(self.points):
            mask = 1 << k
            for v in self._vectors:
                j = position.get(sub(q, v))
                if j is not None:
                    mask |= masks[j]
                    consumers[j].append(k)
            masks.append(mask)
        return masks, consumers

    def _mask(self, q: IntVector) -> int:
        masks, _ = self._graph
        k = self._position.get(q)
        if k is not None:
            return masks[k]
        # Outside the region ``q`` is not in its own DONE set, but its
        # in-region producers' chains still are.
        mask = 0
        for v in self._vectors:
            j = self._position.get(sub(q, v))
            if j is not None:
                mask |= masks[j]
        return mask

    def done(self, q: IntVector) -> frozenset[IntVector]:
        """``DONE_R(q)`` as a set of points, decoded once and memoised."""
        cached = self._cache.get(q)
        if cached is None:
            bits = bin(self._mask(q))[:1:-1]  # character k is bit k
            cached = frozenset(
                p for p, bit in zip(self.points, bits) if bit == "1"
            )
            self._cache[q] = cached
        return cached

    def dead_before(self, p: IntVector, q: IntVector) -> Optional[IntVector]:
        """``None`` when ``p``'s value is dead before ``q`` writes in every
        legal schedule; otherwise the blocking point: ``p`` itself when it
        is not forced before ``q``, else the first of ``p``'s in-region
        consumers, in stencil order, that is not."""
        done = self._mask(q)
        k = self._position.get(p)
        if k is None or not done >> k & 1:
            return p
        _, consumers = self._graph
        for j in consumers[k]:
            if not done >> j & 1:
                return self.points[j]
        return None


def find_storage_races(
    mapping: StorageMapping,
    stencil: Stencil,
    region: Polytope,
    limit: Optional[int] = None,
) -> list[StorageRace]:
    """All racy colliding pairs of ``mapping`` over ``region``.

    An empty result is a *proof* (for this finite ISG) that the mapping is
    schedule-independent: no legal schedule can clobber a live value.  A
    ``limit`` caps the number of reported races (the scan stops early);
    callers that only need "any race?" pass ``limit=1``.

    The region is enumerated once, by the :class:`ForcedBeforeIndex`
    that answers every pair check; its masks are built when the first
    collision group of two or more points is met, so an injective
    mapping never builds them.  Races come in location order, and within
    a location in the pair order of the positivity functional.
    """
    index = ForcedBeforeIndex(stencil, region)
    weights = stencil.positivity_weights
    races: list[StorageRace] = []
    groups = mapping.collision_groups(index.points)
    for location, group in sorted(groups.items()):
        if len(group) < 2:
            continue
        # Scan pairs in positivity order: dependences only ever force the
        # w-smaller point first, so only the (earlier, later) direction
        # and its reverse need checking once, not twice.
        group = sorted(group, key=lambda p: (dot(weights, p), p))
        for i, p in enumerate(group):
            for q in group[i + 1 :]:
                blocker = index.dead_before(p, q)
                if blocker is None:
                    continue
                if index.dead_before(q, p) is None:
                    continue
                races.append(StorageRace(p, q, location, blocker))
                if limit is not None and len(races) >= limit:
                    return races
    return races


def race_witness(
    mapping: StorageMapping,
    stencil: Stencil,
    bounds: Sequence[tuple[int, int]],
    race: StorageRace,
    samples: int = 128,
    seed: int = 0,
) -> Optional[list[IntVector]]:
    """A legal schedule of the box under which the race manifests.

    Constructive first: run the region-restricted ``DONE`` set of
    ``race.second``, then ``race.second``, then everything else (each part
    in positivity order — a legal linear extension).  The blocked consumer
    is then still pending when the colliding write lands.  If replay does
    not confirm (degenerate geometry), random legal schedules are sampled.
    Returns ``None`` only if no sampled schedule exhibits a violation —
    which for a reported race on these box sizes indicates a detector bug,
    and the tests assert it never happens on the corpus.
    """
    import itertools

    region = Polytope.from_loop_bounds(bounds)
    points = [
        tuple(p)
        for p in itertools.product(*[range(lo, hi + 1) for lo, hi in bounds])
    ]
    weights = stencil.positivity_weights
    q = race.second
    done = done_set(stencil, q, region)
    key = lambda p: (dot(weights, p), p)  # noqa: E731
    candidate = (
        sorted((p for p in done if p != q), key=key)
        + [q]
        + sorted((p for p in points if p not in done), key=key)
    )
    if find_mapping_violation(mapping, stencil, candidate) is not None:
        return candidate
    from repro.schedule.random_legal import sample_legal_orders

    for sampled in sample_legal_orders(stencil, bounds, samples, seed=seed):
        if find_mapping_violation(mapping, stencil, sampled) is not None:
            return sampled
    return None
