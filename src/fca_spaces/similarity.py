"""Traversal-based queries over a concept lattice.

Generalization walks cover edges toward the top (fewer attributes, more
objects), specialization toward the bottom.  Similarity between concepts is
shortest-path distance in the undirected cover graph, with the Jaccard
overlap of intents breaking ties among equidistant concepts.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

from .context import (
    FormalContext,
    _attribute_set_to_mask,
    _extent_mask,
    _Frozen,
    _intent_mask,
    _mask_to_indices,
)
from .errors import BadArgument, EmptyCategory
from .lattice import ConceptLattice, _check_same_context, _ConceptIndex


class SimilarityResult(_Frozen):
    """One ranked neighbour: cover-graph distance plus intent overlap."""

    _shown = _compared = ("concept_id", "lattice_distance", "intent_jaccard")

    def __init__(self, concept_id: int, lattice_distance: int, intent_jaccard: Fraction):
        self._set("concept_id", concept_id)
        self._set("lattice_distance", lattice_distance)
        self._set("intent_jaccard", intent_jaccard)


def intent_jaccard(a: Iterable[int], b: Iterable[int]) -> Fraction:
    """|a & b| / |a | b| on attribute sets; 1 when both are empty."""
    sa, sb = frozenset(a), frozenset(b)
    union = sa | sb
    if not union:
        return Fraction(1)
    return Fraction(len(sa & sb), len(union))


def _layers(neighbours: Callable[[int], Iterable[int]], start: int) -> Iterator[list[int]]:
    """Breadth-first layers around ``start``: the nodes at distance 1, then 2, ...

    Each yielded layer is non-empty; the walk stops early when the caller does.
    """
    seen = {start}
    layer = [start]
    while True:
        nxt: list[int] = []
        for c in layer:
            for nb in neighbours(c):
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        if not nxt:
            return
        yield nxt
        layer = nxt


def _undirected(lat: ConceptLattice) -> Callable[[int], tuple[int, ...]]:
    upper, lower = lat._upper, lat._lower
    return lambda c: upper[c] + lower[c]


def _walk(lat: ConceptLattice, start: int, steps: int, up: bool) -> frozenset[int]:
    lat._check_id(start)
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
        raise BadArgument(f"steps must be an int >= 1, got {steps!r}")
    neighbours = lat._upper if up else lat._lower
    return frozenset(chain.from_iterable(islice(_layers(neighbours.__getitem__, start), steps)))


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


def lattice_distance(lat: ConceptLattice, a: int, b: int) -> int:
    """Shortest undirected path length between two concepts in the cover graph."""
    lat._check_id(a)
    lat._check_id(b)
    if a == b:
        return 0
    # Cover graphs of lattices are connected, so some layer holds b.
    for d, layer in enumerate(_layers(_undirected(lat), a), start=1):
        if b in layer:
            return d
    raise AssertionError("cover graph unexpectedly disconnected")


def similar_concepts(lat: ConceptLattice, concept_id: int, k: int) -> list[SimilarityResult]:
    """The ``k`` nearest concepts to ``concept_id``.

    Ranked by cover-graph distance ascending, then intent Jaccard descending,
    then concept id.  ``concept_id`` itself is excluded; the list is shorter
    than ``k`` only when the lattice has fewer other concepts.  The search
    stops at the distance of the ``k``-th result, so its cost follows the
    neighbourhood visited rather than the size of the lattice.
    """
    lat._check_id(concept_id)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise BadArgument(f"k must be an int >= 1, got {k!r}")
    own_intent = lat.concepts[concept_id].intent_set
    results: list[SimilarityResult] = []
    for d, layer in enumerate(_layers(_undirected(lat), concept_id), start=1):
        ranked = (
            SimilarityResult(c, d, intent_jaccard(own_intent, lat.concepts[c].intent))
            for c in layer
        )
        results += heapq.nsmallest(
            k - len(results), ranked, key=lambda r: (-r.intent_jaccard, r.concept_id)
        )
        if len(results) == k:
            break
    return results


def nearest_concept(ctx: FormalContext, lat: _ConceptIndex, attrs: Iterable[int]) -> int:
    """Id of the most specific concept whose intent contains ``attrs``.

    Total: an attribute combination no object exhibits lands on the bottom
    concept.  For any already-closed intent this is exactly its concept.
    Only the concepts of ``lat`` are read, never its covers, so an unordered
    ``_ConceptIndex`` serves as well as a lattice.
    """
    _check_same_context(lat, ctx)
    # The concept's extent is the cue's extent, so its intent need not be derived.
    return lat._id_by_extent[_extent_mask(ctx, _attribute_set_to_mask(ctx, attrs))]


def prototype(ctx: FormalContext, category: Iterable[int]) -> int:
    """Most representative object of an attribute-defined category.

    Candidates are the objects carrying every category attribute; the winner
    maximizes Jaccard overlap between its full attribute row and the category
    closure, ties going to the smallest object index.
    """
    mask = _attribute_set_to_mask(ctx, category)
    extent = _extent_mask(ctx, mask)
    if not extent:
        raise EmptyCategory(ctx.attributes[m] for m in _mask_to_indices(mask))
    closure = frozenset(_mask_to_indices(_intent_mask(ctx, extent)))

    best_g = -1
    best_score = Fraction(-1)
    for g in _mask_to_indices(extent):
        score = intent_jaccard(_mask_to_indices(ctx._row_masks[g]), closure)
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
