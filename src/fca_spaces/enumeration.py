"""Enumeration of all formal concepts of a context.

The worker is FCbO (Outrata and Vychodil, "Fast algorithm for computing
fixpoints of Galois connections induced by object-attribute relational
data", Inf. Sci. 185, 2012).  It grows each concept by one attribute ``j``
at a time, intersecting the extent with column ``j`` and deriving the new
intent, and keeps a child only when the closure adds no attribute below
``j`` (canonicity), so every concept is generated exactly once.  Each
expanded concept leaves its children an array of the closures that failed
that test, per attribute; a child skips attribute ``j`` without computing
anything when that failed closure, restricted below ``j``, is not inside
its own intent.  An explicit stack replaces the recursion, so depth is not
bounded by Python's recursion limit, and the output is (extent, intent)
mask pairs, so no extent is derived again from its intent.

The final list is re-sorted into the package-wide output order (extent
size descending, then intent lexicographic by attribute index), which is
what fixes concept ids everywhere else.
"""

from __future__ import annotations

from .context import FormalContext, _closure_mask, _extent_mask, _Frozen, _intent_mask
from .context import _mask_to_indices
from .errors import BadArgument, BadIndex

# Exhaustive 2^|M| verification is refused beyond this many attributes.
BRUTE_FORCE_ATTRIBUTE_LIMIT = 22


class FormalConcept(_Frozen):
    """A closed (extent, intent) pair, held as object and attribute bitmasks.

    Equality and hashing use the masks.  ``extent`` and ``intent`` are the
    same sets as index tuples sorted ascending, derived once at construction.
    """

    # Masks stay out of repr: one over more than about 14,000 objects has
    # more decimal digits than Python's int-to-str conversion allows.
    _shown = ("extent", "intent")
    _compared = ("extent_mask", "intent_mask")

    def __init__(self, extent_mask: int, intent_mask: int):
        self._set("extent_mask", extent_mask)
        self._set("intent_mask", intent_mask)
        self._set("extent", _mask_to_indices(extent_mask))
        self._set("intent", _mask_to_indices(intent_mask))

    # A per-concept hot path, so it skips _key().
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.extent_mask == other.extent_mask and self.intent_mask == other.intent_mask

    __hash__ = _Frozen.__hash__  # defining __eq__ alone would unset it

    @property
    def extent_set(self) -> frozenset[int]:
        return frozenset(self.extent)

    @property
    def intent_set(self) -> frozenset[int]:
        return frozenset(self.intent)


def _concept_pairs_fcbo(ctx: FormalContext) -> list[tuple[int, int]]:
    n = len(ctx.attributes)
    full = (1 << n) - 1
    cols = ctx._col_masks
    top_extent = ctx._all_objects_mask
    top_intent = _intent_mask(ctx, top_extent)
    pairs = [(top_extent, top_intent)]
    # Concepts still to expand: (extent, intent, first attribute to try,
    # the failed closures their parent left them).
    stack = [(top_extent, top_intent, 0, [0] * n)]
    while stack:
        extent, intent, start, failed = stack.pop()
        if intent == full:
            continue
        # Shared by the children, which are popped only after the loop below
        # has recorded every failure of this level.
        failed_here = failed[:]
        for j in range(start, n):
            bit = 1 << j
            if intent & bit:
                continue
            below = bit - 1
            # Pre-test: a closure that already failed for j on an ancestor
            # fails again whenever its part below j is new to this intent.
            if failed[j] & below & ~intent:
                continue
            child_extent = extent & cols[j]
            child_intent = _intent_mask(ctx, child_extent)
            if child_intent & below & ~intent:
                failed_here[j] = child_intent
            else:
                pairs.append((child_extent, child_intent))
                stack.append((child_extent, child_intent, j + 1, failed_here))
    return pairs


def _sort_concept_pairs(pairs: list[tuple[int, int]]) -> list[FormalConcept]:
    concepts = [FormalConcept(e, i) for e, i in pairs]
    concepts.sort(key=lambda c: (-c.extent_mask.bit_count(), c.intent))
    return concepts


def enumerate_concepts(ctx: FormalContext) -> list[FormalConcept]:
    """All formal concepts of ``ctx``, without duplicates.

    Ordered by extent size descending, ties broken by intent compared
    lexicographically as sorted index tuples.  The first element is always
    the top concept and the last the bottom.
    """
    return _sort_concept_pairs(_concept_pairs_fcbo(ctx))


def brute_force_concepts(ctx: FormalContext) -> list[FormalConcept]:
    """Closure of every attribute subset, deduplicated; same order contract.

    Exponential in the attribute count, so it refuses contexts with more than
    ``BRUTE_FORCE_ATTRIBUTE_LIMIT`` attributes.  Exists as the exhaustive
    cross-check behind ``fca validate --oracle``.
    """
    n = len(ctx.attributes)
    if n > BRUTE_FORCE_ATTRIBUTE_LIMIT:
        raise BadArgument(
            f"exhaustive enumeration over 2^{n} attribute subsets refused "
            f"(limit {BRUTE_FORCE_ATTRIBUTE_LIMIT} attributes)"
        )
    intents = {_closure_mask(ctx, b) for b in range(1 << n)}
    pairs = [(_extent_mask(ctx, im), im) for im in intents]
    return _sort_concept_pairs(pairs)


def object_concept(ctx: FormalContext, g: int) -> FormalConcept:
    """The most specific concept whose extent contains object ``g``."""
    if not isinstance(g, int) or not 0 <= g < len(ctx.objects):
        raise BadIndex("object", g, len(ctx.objects))
    intent = _intent_mask(ctx, 1 << g)
    return FormalConcept(_extent_mask(ctx, intent), intent)


def attribute_concept(ctx: FormalContext, m: int) -> FormalConcept:
    """The most general concept whose intent contains attribute ``m``."""
    if not isinstance(m, int) or not 0 <= m < len(ctx.attributes):
        raise BadIndex("attribute", m, len(ctx.attributes))
    extent = _extent_mask(ctx, 1 << m)
    return FormalConcept(extent, _intent_mask(ctx, extent))


__all__ = [
    "BRUTE_FORCE_ATTRIBUTE_LIMIT",
    "FormalConcept",
    "enumerate_concepts",
    "brute_force_concepts",
    "object_concept",
    "attribute_concept",
]
