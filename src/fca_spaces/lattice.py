"""Concept lattices: Hasse covers, levels, and JSON/DOT exports.

Concept ids are positions in the enumeration order, so they are stable for a
given context.  The cover relation is the transitive reduction of extent
containment; levels measure the longest cover path down from the top, which
keeps "one level apart" aligned with cover edges even when the lattice is
not graded.
"""

from __future__ import annotations

import html
from collections import defaultdict
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Sequence

from .context import FormalContext, _extent_mask, _mask_to_indices
from .enumeration import FormalConcept, enumerate_concepts
from .errors import BadId, MixedContext


class _ConceptIndex:
    """The concepts of one context and the id of each extent, unordered.

    Enough to look a concept up by its extent; :func:`_order_in_batch` and
    :func:`_order_on_demand` order it into a :class:`ConceptLattice`.
    """

    def __init__(self, context: FormalContext, concepts: Iterable[FormalConcept]):
        self.context = context
        self.concepts = tuple(concepts)
        self._extent_masks = [c.extent_mask for c in self.concepts]
        self._id_by_extent = {mask: i for i, mask in enumerate(self._extent_masks)}


class ConceptLattice(_ConceptIndex):
    """All concepts of one context plus the cover (Hasse) structure.

    Immutable after construction; safe for concurrent reads.  The lattice of
    :func:`build_lattice` holds every cover list and level from the start.
    One that ``fca similar`` or ``fca query`` orders on demand computes each
    cover list and level on its first read and keeps it.  Such an item is
    written only while missing and only ever with its one value, so reads
    stay safe.  Build through :func:`build_lattice`.
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
        self._upper: Sequence[tuple[int, ...]] = tuple(upper)
        self._lower: Sequence[tuple[int, ...]] = tuple(lower)
        self._levels: Sequence[int] = tuple(levels)
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


def _ordered(index: _ConceptIndex, upper, lower, levels) -> ConceptLattice:
    """The lattice of ``index`` with these cover lists and levels.

    The lattice shares the index's extent list and extent->id dict, so no
    lattice builds them twice.  Ids follow the enumeration order, which puts
    the top first and the bottom last.
    """
    lat = ConceptLattice.__new__(ConceptLattice)
    # Set one by one, as ``ConceptLattice.__init__`` does: copying the
    # index's ``__dict__`` would leave attribute reads slower.
    lat.context, lat.concepts = index.context, index.concepts
    lat._extent_masks, lat._id_by_extent = index._extent_masks, index._id_by_extent
    lat._upper, lat._lower, lat._levels = upper, lower, levels
    lat.top_id, lat.bottom_id = 0, len(index.concepts) - 1
    return lat


def _lower_covers_and_levels(
    extent_masks: list[int],
    id_by_extent: dict[int, int],
    cols: Sequence[int],
    ids: list[int],
    level: list[int] | dict[int, int],
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
    each level before its lower covers read it.  ``level`` holds, per id,
    the longest path found so far (a list over all ids, or a
    ``defaultdict(int)`` when only the covers are wanted), and the pass
    raises it in place: each concept of ``ids`` must have every upper cover
    either earlier in ``ids`` or already counted in ``level``.  Both lists
    returned follow ``ids``.
    """
    lower: list[tuple[int, ...]] = []
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


def _order_in_batch(index: _ConceptIndex) -> ConceptLattice:
    """Every cover list and level of ``index``, from one pass of the kernel."""
    ctx, extent_masks = index.context, index._extent_masks
    n = len(extent_masks)
    assert extent_masks[0] == ctx._all_objects_mask or not ctx.objects
    assert all(extent_masks[-1] & m == extent_masks[-1] for m in extent_masks)
    lower, levels = _lower_covers_and_levels(
        extent_masks, index._id_by_extent, ctx._col_masks, list(range(n)), [0] * n
    )
    # Inverting in ascending id order leaves every upper-cover list sorted.
    upper: list[list[int]] = [[] for _ in range(n)]
    for i, lows in enumerate(lower):
        for j in lows:
            upper[j].append(i)
    return _ordered(index, tuple(map(tuple, upper)), tuple(lower), tuple(levels))


class _OnDemand:
    """A read-only sequence whose item ``i`` is ``fill(i)``, computed on its
    first read and kept in ``items`` (``None`` marks an item not yet read).
    ``fill`` may store other items it computes on the way."""

    __slots__ = ("_items", "_fill")

    def __init__(self, items: list, fill: Callable[[int], object]):
        self._items = items
        self._fill = fill

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i: int):
        item = self._items[i]
        if item is None:
            i = range(len(self._items))[i]
            item = self._items[i] = self._fill(i)
        return item

    def __iter__(self) -> Iterator:
        return map(self.__getitem__, range(len(self._items)))


def _order_on_demand(index: _ConceptIndex) -> ConceptLattice:
    """The lattice of ``index``, each cover list and level computed on first read.

    A lower-cover list read on its own is the kernel of
    :func:`_order_in_batch` run on its one concept.  Reading a level or an
    upper-cover list orders the concepts above its concept, (A, B), that
    no earlier read ordered: a longest cover path from the top, and every
    upper cover, stays among the concepts whose extents contain A, and
    the kernel run over them in id order is the batch pass on that part
    of the lattice.  Ordering a concept keeps its level and lower covers,
    adds it to the upper-cover list of each lower cover, and raises the
    level each lower cover has reached in one list kept for the whole
    lattice; so no concept is ordered twice, and once (A, B) is ordered
    its upper-cover list is whole.

    The kernel work of any sequence of reads is at most that of
    :func:`_order_in_batch`, plus one more kernel run per lower-cover list
    read on its own.  Each read that orders also tests the extents of every
    id up to its concept, so r such reads cost O(r * n) besides.
    """
    ctx = index.context
    extent_masks, id_by_extent = index._extent_masks, index._id_by_extent
    cols = ctx._col_masks
    n = len(extent_masks)
    lowers: list[tuple[int, ...] | None] = [None] * n
    levels: list[int | None] = [None] * n
    reached = [0] * n  # per id, the longest path down from the top found so far
    ups: list[list[int]] = [[] for _ in range(n)]  # upper covers ordered so far

    def order_above(i: int) -> None:
        # Concepts an earlier read ordered have already raised ``reached``
        # and filled ``ups`` for their lower covers; the kernel orders the rest.
        a = extent_masks[i]
        todo = [j for j in range(i + 1) if levels[j] is None and extent_masks[j] & a == a]
        todo_lowers, todo_levels = _lower_covers_and_levels(
            extent_masks, id_by_extent, cols, todo, reached
        )
        # Ascending ids add every upper cover of a concept before its level
        # is kept, so a kept level always has its covers, lower and upper.
        for j, low, known in zip(todo, todo_lowers, todo_levels):
            lowers[j] = low
            for x in low:
                ups[x].append(j)
            levels[j] = known

    def upper(i: int) -> tuple[int, ...]:
        if levels[i] is None:
            order_above(i)
        # A set, since two threads may both order the same concept.
        return tuple(sorted(set(ups[i])))

    def lower(i: int) -> tuple[int, ...]:
        # Only the covers are wanted: the kernel's levels go to a scratch dict.
        return _lower_covers_and_levels(
            extent_masks, id_by_extent, cols, [i], defaultdict(int)
        )[0][0]

    def level(i: int) -> int:
        order_above(i)
        return levels[i]

    return _ordered(
        index, _OnDemand([None] * n, upper), _OnDemand(lowers, lower), _OnDemand(levels, level)
    )


def build_lattice(ctx: FormalContext) -> ConceptLattice:
    """Order the concepts of ``ctx`` into their Hasse diagram."""
    return _order_in_batch(_ConceptIndex(ctx, enumerate_concepts(ctx)))


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
