"""Traversal-based queries over a concept lattice.

Generalization walks cover edges toward the top (fewer attributes, more
objects), specialization toward the bottom.  Similarity between concepts is
shortest-path distance in the undirected cover graph, with the Jaccard
overlap of intents breaking ties among equidistant concepts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .context import (
    FormalContext,
    _attribute_set_to_mask,
    _extent_mask,
    _intent_mask,
    _mask_to_set,
)
from .enumeration import _mask_to_sorted
from .errors import EmptyCategory
from .lattice import ConceptLattice, _check_same_context


@dataclass(frozen=True)
class SimilarityResult:
    """One ranked neighbour: cover-graph distance plus intent overlap."""

    concept_id: int
    lattice_distance: int
    intent_jaccard: Fraction


def intent_jaccard(a: Iterable[int], b: Iterable[int]) -> Fraction:
    """|a & b| / |a | b| on attribute sets; 1 when both are empty."""
    sa, sb = frozenset(a), frozenset(b)
    union = sa | sb
    if not union:
        return Fraction(1)
    return Fraction(len(sa & sb), len(union))


def _walk(lat: ConceptLattice, start: int, steps: int, up: bool) -> frozenset[int]:
    lat._check_id(start)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    neighbours = lat.upper_covers if up else lat.lower_covers
    seen = {start}
    frontier = [start]
    reached: set[int] = set()
    for _ in range(steps):
        if not frontier:
            break
        nxt: list[int] = []
        for c in frontier:
            for nb in neighbours(c):
                if nb not in seen:
                    seen.add(nb)
                    reached.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return frozenset(reached)


def generalize(lat: ConceptLattice, concept_id: int, steps: int) -> frozenset[int]:
    """Concepts reachable from ``concept_id`` by 1..steps upward cover edges."""
    return _walk(lat, concept_id, steps, up=True)


def specialize(lat: ConceptLattice, concept_id: int, steps: int) -> frozenset[int]:
    """Concepts reachable from ``concept_id`` by 1..steps downward cover edges."""
    return _walk(lat, concept_id, steps, up=False)


def siblings(lat: ConceptLattice, concept_id: int) -> frozenset[int]:
    """Concepts other than ``concept_id`` sharing at least one upper cover with it."""
    lat._check_id(concept_id)
    out: set[int] = set()
    for parent in lat.upper_covers(concept_id):
        out.update(lat.lower_covers(parent))
    out.discard(concept_id)
    return frozenset(out)


def _distances_from(lat: ConceptLattice, start: int) -> dict[int, int]:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        c = queue.popleft()
        d = dist[c] + 1
        for nb in lat.upper_covers(c) + lat.lower_covers(c):
            if nb not in dist:
                dist[nb] = d
                queue.append(nb)
    return dist


def lattice_distance(lat: ConceptLattice, a: int, b: int) -> int:
    """Shortest undirected path length between two concepts in the cover graph."""
    lat._check_id(a)
    lat._check_id(b)
    if a == b:
        return 0
    # Cover graphs of lattices are connected, so the BFS always terminates
    # with b discovered.
    dist = {a: 0}
    queue = deque([a])
    while queue:
        c = queue.popleft()
        d = dist[c] + 1
        for nb in lat.upper_covers(c) + lat.lower_covers(c):
            if nb == b:
                return d
            if nb not in dist:
                dist[nb] = d
                queue.append(nb)
    raise AssertionError("cover graph unexpectedly disconnected")


def similar_concepts(lat: ConceptLattice, concept_id: int, k: int) -> list[SimilarityResult]:
    """The ``k`` nearest concepts to ``concept_id``.

    Ranked by cover-graph distance ascending, then intent Jaccard descending,
    then concept id.  ``concept_id`` itself is excluded; the list is shorter
    than ``k`` only when the lattice has fewer other concepts.
    """
    lat._check_id(concept_id)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    own_intent = lat.concepts[concept_id].intent
    dist = _distances_from(lat, concept_id)
    results = [
        SimilarityResult(c, d, intent_jaccard(own_intent, lat.concepts[c].intent))
        for c, d in dist.items()
        if c != concept_id
    ]
    results.sort(key=lambda r: (r.lattice_distance, -r.intent_jaccard, r.concept_id))
    return results[:k]


def nearest_concept(ctx: FormalContext, lat: ConceptLattice, attrs: Iterable[int]) -> int:
    """Id of the most specific concept whose intent contains ``attrs``.

    Total: an attribute combination no object exhibits lands on the bottom
    concept.  For any already-closed intent this is exactly its concept.
    """
    _check_same_context(lat, ctx)
    mask = _attribute_set_to_mask(ctx, attrs)
    extent = _extent_mask(ctx, mask)
    intent = _mask_to_sorted(_intent_mask(ctx, extent))
    return lat._id_by_intent[intent]


def prototype(ctx: FormalContext, category: Iterable[int]) -> int:
    """Most representative object of an attribute-defined category.

    Candidates are the objects carrying every category attribute; the winner
    maximizes Jaccard overlap between its full attribute row and the category
    closure, ties going to the smallest object index.
    """
    mask = _attribute_set_to_mask(ctx, category)
    extent = _extent_mask(ctx, mask)
    if not extent:
        raise EmptyCategory(ctx.attributes[m] for m in _mask_to_set(mask))
    closure = _mask_to_set(_intent_mask(ctx, extent))

    best_g = -1
    best_score = Fraction(-1)
    for g in sorted(_mask_to_set(extent)):
        score = intent_jaccard(_mask_to_set(ctx._row_masks[g]), closure)
        if score > best_score:
            best_g, best_score = g, score
    return best_g


__all__ = [
    "SimilarityResult",
    "intent_jaccard",
    "generalize",
    "specialize",
    "siblings",
    "lattice_distance",
    "similar_concepts",
    "nearest_concept",
    "prototype",
]
