"""Enumeration of all formal concepts of a context.

The worker is NextClosure: closures are visited in lectic order of their
intents, one closure computation per candidate attribute, with constant
stack depth regardless of how many concepts the context has.  The final
list is re-sorted into the package-wide output order (extent size
descending, then intent lexicographic by attribute index), which is what
fixes concept ids everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .context import FormalContext, _closure_mask, _extent_mask, _intent_mask, _mask_to_indices
from .errors import BadArgument, BadIndex

# Exhaustive 2^|M| verification is refused beyond this many attributes.
BRUTE_FORCE_ATTRIBUTE_LIMIT = 22


@dataclass(frozen=True)
class FormalConcept:
    """A closed (extent, intent) pair, held as object and attribute bitmasks.

    Equality and hashing use the masks.  ``extent`` and ``intent`` are the
    same sets as index tuples sorted ascending, derived once at construction.
    """

    # Out of repr: a mask over more than about 14,000 objects has more
    # decimal digits than Python's int-to-str conversion allows.
    extent_mask: int = field(repr=False)
    intent_mask: int = field(repr=False)
    extent: tuple[int, ...] = field(init=False, compare=False)
    intent: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "extent", _mask_to_indices(self.extent_mask))
        object.__setattr__(self, "intent", _mask_to_indices(self.intent_mask))

    @property
    def extent_set(self) -> frozenset[int]:
        return frozenset(self.extent)

    @property
    def intent_set(self) -> frozenset[int]:
        return frozenset(self.intent)


def _intent_masks_nextclosure(ctx: FormalContext) -> list[int]:
    n = len(ctx.attributes)
    full = (1 << n) - 1
    intents = []
    a = _closure_mask(ctx, 0)
    intents.append(a)
    while a != full:
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            if a & bit:
                a ^= bit
            else:
                b = _closure_mask(ctx, a | bit)
                if not b & ~a & (bit - 1):
                    a = b
                    intents.append(a)
                    break
    return intents


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
    pairs = [(_extent_mask(ctx, im), im) for im in _intent_masks_nextclosure(ctx)]
    return _sort_concept_pairs(pairs)


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
