"""Concept lattices: Hasse covers, levels, and JSON/DOT exports.

Concept ids are positions in the enumeration order, so they are stable for a
given context.  The cover relation is the transitive reduction of extent
containment; levels measure the longest cover path down from the top, which
keeps "one level apart" aligned with cover edges even when the lattice is
not graded.
"""

from __future__ import annotations

import html
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

from .context import FormalContext, _extent_mask, _mask_to_indices
from .enumeration import FormalConcept, enumerate_concepts
from .errors import BadId, MixedContext


class _ConceptIndex:
    """The concepts of one context and the id of each extent, unordered.

    Enough to look a concept up by its extent and to order part of the
    lattice (:func:`_upset_level`); :class:`ConceptLattice` adds the covers.
    """

    def __init__(self, context: FormalContext, concepts: Iterable[FormalConcept]):
        self.context = context
        self.concepts = tuple(concepts)
        self._extent_masks = [c.extent_mask for c in self.concepts]
        self._id_by_extent = {mask: i for i, mask in enumerate(self._extent_masks)}


class ConceptLattice(_ConceptIndex):
    """All concepts of one context plus the cover (Hasse) structure.

    Immutable after construction; safe for concurrent reads.  Build through
    :func:`build_lattice`.
    """

    def __init__(
        self,
        context: FormalContext,
        concepts: list[FormalConcept],
        upper: list[tuple[int, ...]],
        lower: list[tuple[int, ...]],
        levels: list[int],
        top_id: int,
        bottom_id: int,
    ):
        super().__init__(context, concepts)
        self._upper = tuple(upper)
        self._lower = tuple(lower)
        self._levels = tuple(levels)
        self.top_id = top_id
        self.bottom_id = bottom_id

    def __len__(self) -> int:
        return len(self.concepts)

    def _check_id(self, concept_id: int) -> int:
        if not isinstance(concept_id, int) or isinstance(concept_id, bool):
            raise BadId(concept_id, len(self.concepts))
        if not 0 <= concept_id < len(self.concepts):
            raise BadId(concept_id, len(self.concepts))
        return concept_id

    def concept(self, concept_id: int) -> FormalConcept:
        return self.concepts[self._check_id(concept_id)]

    def index_of(self, concept: FormalConcept) -> int:
        """Id of ``concept`` in this lattice; MixedContext if it is foreign."""
        try:
            found = self._id_by_extent[concept.extent_mask]
        except (AttributeError, KeyError, TypeError):
            raise MixedContext(f"concept {concept!r} does not belong to this lattice") from None
        if self.concepts[found] != concept:
            raise MixedContext(f"concept {concept!r} does not belong to this lattice")
        return found

    def _resolve(self, concept_or_id: FormalConcept | int) -> int:
        if isinstance(concept_or_id, FormalConcept):
            return self.index_of(concept_or_id)
        return self._check_id(concept_or_id)

    def leq(self, a: FormalConcept | int, b: FormalConcept | int) -> bool:
        """Order test on ids or concepts of this lattice."""
        ma = self.concepts[self._resolve(a)].extent_mask
        mb = self.concepts[self._resolve(b)].extent_mask
        return ma & mb == ma

    def upper_covers(self, concept_id: int) -> tuple[int, ...]:
        """Ids of the immediate superconcepts; empty only for the top."""
        return self._upper[self._check_id(concept_id)]

    def lower_covers(self, concept_id: int) -> tuple[int, ...]:
        """Ids of the immediate subconcepts; empty only for the bottom."""
        return self._lower[self._check_id(concept_id)]

    def level_of(self, concept_id: int) -> int:
        """Longest cover-path length from the top down to this concept."""
        return self._levels[self._check_id(concept_id)]

    def cover_edges(self) -> list[tuple[int, int]]:
        """All (lower_id, upper_id) cover pairs, sorted.

        Every upper-cover list is ascending, so walking the lists in id
        order already yields the pairs sorted.
        """
        return [(low, up) for low, ups in enumerate(self._upper) for up in ups]

    def height(self) -> int:
        """Longest cover path from top to bottom."""
        return self._levels[self.bottom_id]


def _lower_covers_and_levels(
    extent_masks: list[int], id_by_extent: dict[int, int], cols: Sequence[int], ids: list[int]
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Lower covers and level of each concept in ``ids``, an ascending id list.

    Neighbour construction (Lindig, "Fast concept analysis", taken from the
    attribute side).  Every lower cover of extent A has the form A & m' for
    an attribute m outside the intent, and A & m' is itself an extent, so
    the lower covers are the maximal sets among those candidates.  Ids
    ascend as extent size descends, so visiting candidates by id puts each
    one after all of its supersets: a candidate is a cover unless it lies
    inside one already kept, and the kept ids come out ascending.

    Upper covers have smaller ids, so one forward pass in id order sets
    each level before its lower covers read it.  ``cols`` may be the
    columns of one intent B only and ``ids`` the concepts above B's
    concept: every candidate then lies in that interval, which is the
    lattice of the subcontext on B, and the levels are the whole lattice's.
    Both lists returned follow ``ids``.
    """
    lower: list[tuple[int, ...]] = []
    level = [0] * (ids[-1] + 1)
    for i in ids:
        a = extent_masks[i]
        candidates = set(map(a.__and__, cols))
        candidates.discard(a)
        kept: list[int] = []
        kept_masks: list[int] = []
        for j in sorted(map(id_by_extent.__getitem__, candidates)):
            mj = extent_masks[j]
            for k in kept_masks:
                if mj & k == mj:
                    break
            else:
                kept.append(j)
                kept_masks.append(mj)
        lower.append(tuple(kept))
        below = level[i] + 1
        for j in kept:
            if level[j] < below:
                level[j] = below
    return lower, [level[i] for i in ids]


def _upset_level(index: _ConceptIndex, cid: int) -> int:
    """Level of concept ``cid``, ordering only the concepts above it.

    A longest cover path from the top to (A, B) stays inside the interval
    [(A, B), top], whose extents are those containing A and whose lower
    covers come from the columns of B, the columns containing A.
    """
    extent_masks = index._extent_masks
    a = extent_masks[cid]
    ids = [j for j in range(cid + 1) if extent_masks[j] & a == a]
    cols = [col for col in index.context._col_masks if col & a == a]
    return _lower_covers_and_levels(extent_masks, index._id_by_extent, cols, ids)[1][-1]


def build_lattice(ctx: FormalContext) -> ConceptLattice:
    """Order the concepts of ``ctx`` into their Hasse diagram."""
    index = _ConceptIndex(ctx, enumerate_concepts(ctx))
    concepts = index.concepts
    extent_masks = index._extent_masks
    n = len(concepts)
    lower, levels = _lower_covers_and_levels(
        extent_masks, index._id_by_extent, ctx._col_masks, list(range(n))
    )

    # Inverting in ascending id order leaves every upper-cover list sorted.
    upper_lists: list[list[int]] = [[] for _ in range(n)]
    for i, lows in enumerate(lower):
        for j in lows:
            upper_lists[j].append(i)
    upper = [tuple(ups) for ups in upper_lists]

    top_id = 0
    bottom_id = n - 1
    assert extent_masks[top_id] == ctx._all_objects_mask or not ctx.objects
    assert all(extent_masks[bottom_id] & m == extent_masks[bottom_id] for m in extent_masks)

    return ConceptLattice(
        ctx,
        concepts,
        upper,
        lower,
        levels,
        top_id,
        bottom_id,
    )


def recompute_covers_pairwise(lat: ConceptLattice) -> list[tuple[int, int]]:
    """Cover edges recomputed straight from the definition.

    For every ordered pair a < b, keep the edge iff no concept sits strictly
    between.  A triple loop, so cubic in the concept count.  It shares no
    logic with the neighbour construction in :func:`build_lattice` and is
    the oracle that construction is checked against; backs
    ``fca validate --oracle``.
    """
    masks = [c.extent_mask for c in lat.concepts]
    n = len(masks)

    def less(x: int, y: int) -> bool:
        return masks[x] != masks[y] and masks[x] & masks[y] == masks[x]

    edges = []
    for a in range(n):
        for b in range(n):
            if less(a, b) and not any(less(a, c) and less(c, b) for c in range(n)):
                edges.append((a, b))
    return sorted(edges)


def _covers_pass_neighbour_test(lat: ConceptLattice) -> bool:
    """True iff the stored cover lists are exactly the Hasse diagram.

    Lindig's neighbour test ("Fast concept analysis", 2000), taken from the
    object side on row and intent masks, so it shares no logic with the
    attribute-side construction in :func:`build_lattice`.  Adding an object
    g outside extent A to concept (A, B) gives the intent B & g'.  A listed
    upper cover b is sound iff A is a proper subset of ext(b) and every
    object it adds gives exactly int(b): then no concept lies in between.
    Each candidate intent belongs to a concept above (A, B), so a true cover
    sits below it; the list is complete iff every candidate is contained in
    the intent of some listed cover, since a true cover's own intent is one
    of the candidates.  Lower lists must be the inverse of the upper lists.
    Concepts are assumed closed, which ``fca validate`` checks separately.
    About concepts x objects mask intersections plus one per object a
    cover adds, so polynomial where :func:`recompute_covers_pairwise` is
    cubic in the concept count.
    """
    rows = lat.context._row_masks
    extents = [c.extent_mask for c in lat.concepts]
    intents = [c.intent_mask for c in lat.concepts]
    inverse: list[list[int]] = [[] for _ in extents]
    for a, (ext_a, int_a) in enumerate(zip(extents, intents)):
        ups = lat._upper[a]
        if len(set(ups)) != len(ups):
            return False
        for b in ups:
            added = extents[b] & ~ext_a
            if not added or extents[b] & ext_a != ext_a:
                return False
            if any(int_a & rows[g] != intents[b] for g in _mask_to_indices(added)):
                return False
            inverse[b].append(a)
        # Objects inside A give B itself, and only they do, A being B'.
        candidates = set(map(int_a.__and__, rows))
        candidates.discard(int_a)
        up_intents = [intents[b] for b in ups]
        for candidate in candidates:
            if not any(candidate & i == candidate for i in up_intents):
                return False
    return all(sorted(lows) == inv for lows, inv in zip(lat._lower, inverse))


def _check_same_context(lat: _ConceptIndex, ctx: FormalContext) -> None:
    if lat.context != ctx:
        raise MixedContext("lattice was not built from the given context")


def _json_list(items: Iterable[str], indent: str) -> str:
    """JSON list of already rendered values, laid out as ``json.dumps`` with
    ``indent=2`` lays out a list that opens at ``indent``: one value a line,
    ``[]`` when there are none."""
    body = (",\n" + indent + "  ").join(items)
    return "[\n" + indent + "  " + body + "\n" + indent + "]" if body else "[]"


_JSON_CONCEPT = (
    '{\n      "id": %d,\n      "extent": %s,\n      "intent": %s,\n      "level": %d\n    }'
)
_JSON_COVER = "[\n      %d,\n      %d\n    ]"
_JSON_LATTICE = (
    '{\n  "objects": %s,\n  "attributes": %s,\n  "concepts": %s,\n'
    '  "covers": %s,\n  "top": %d,\n  "bottom": %d\n}'
)


def export_json(lat: ConceptLattice, ctx: FormalContext) -> str:
    """Render the lattice as JSON with stable key order and sorted arrays.

    The text equals ``json.dumps(payload, indent=2)`` of the documented
    payload; it is filled into fixed templates, each name escaped once.
    """
    _check_same_context(lat, ctx)
    objects = list(map(encode_basestring_ascii, ctx.objects))
    attributes = list(map(encode_basestring_ascii, ctx.attributes))
    concepts = [
        _JSON_CONCEPT % (
            i,
            _json_list(map(objects.__getitem__, c.extent), "      "),
            _json_list(map(attributes.__getitem__, c.intent), "      "),
            level,
        )
        for i, (c, level) in enumerate(zip(lat.concepts, lat._levels))
    ]
    return _JSON_LATTICE % (
        _json_list(objects, "  "),
        _json_list(attributes, "  "),
        _json_list(concepts, "  "),
        _json_list([_JSON_COVER % edge for edge in lat.cover_edges()], "  "),
        lat.top_id,
        lat.bottom_id,
    )


def _dot_label(attr_names: list[str], obj_names: list[str]) -> str:
    rows = []
    if attr_names:
        cell = "<BR/>".join(html.escape(a) for a in attr_names)
        rows.append(f'<TR><TD BGCOLOR="gray83">{cell}</TD></TR>')
    if obj_names:
        cell = "<BR/>".join(html.escape(g) for g in obj_names)
        rows.append(f'<TR><TD BGCOLOR="white">{cell}</TD></TR>')
    inner = "".join(rows)
    return f'<<TABLE BORDER="0" CELLBORDER="1" CELLSPACING="0">{inner}</TABLE>>'


def export_dot(lat: ConceptLattice, ctx: FormalContext) -> str:
    """Render the lattice in DOT with reduced labeling.

    Each attribute name appears once, on its attribute concept, in a filled
    cell; each object name appears once, on its object concept, in an
    unfilled cell.  Unlabeled concepts render as small circles.  Edges run
    lower -> upper with ``rankdir=BT``.
    """
    _check_same_context(lat, ctx)
    # An attribute concept's extent is the attribute's column, and an object
    # concept's extent is the extent of the object's row, which equal rows share.
    id_by_extent = lat._id_by_extent
    try:
        attr_ids = [id_by_extent[col] for col in ctx._col_masks]
        id_by_row = {row: id_by_extent[_extent_mask(ctx, row)] for row in set(ctx._row_masks)}
    except KeyError:
        raise MixedContext("lattice lacks an attribute or object concept of the context") from None
    attr_labels: dict[int, list[str]] = {}
    for cid, name in zip(attr_ids, ctx.attributes):
        attr_labels.setdefault(cid, []).append(name)
    obj_labels: dict[int, list[str]] = {}
    for row, name in zip(ctx._row_masks, ctx.objects):
        obj_labels.setdefault(id_by_row[row], []).append(name)

    lines = [
        "digraph concept_lattice {",
        "  rankdir=BT;",
        '  node [shape=circle, width=0.18, fixedsize=true, label=""];',
    ]
    for i in range(len(lat)):
        attrs = attr_labels.get(i, [])
        objs = obj_labels.get(i, [])
        if attrs or objs:
            label = _dot_label(attrs, objs)
            lines.append(f"  c{i} [shape=plaintext, fixedsize=false, label={label}];")
        else:
            lines.append(f"  c{i};")
    for low, up in lat.cover_edges():
        lines.append(f"  c{low} -> c{up};")
    lines.append("}")
    return "\n".join(lines) + "\n"


__all__ = [
    "ConceptLattice",
    "build_lattice",
    "recompute_covers_pairwise",
    "export_json",
    "export_dot",
]
