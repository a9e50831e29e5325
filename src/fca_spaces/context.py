"""Binary formal contexts and their derivation operators.

A context is a cross table: objects in rows, attributes in columns, a 0/1
incidence relation between them.  Rows and columns keep their input order;
that order is part of the context's identity and anchors every deterministic
output further down the pipeline (concept ids, exports, golden files).

Incidence is mirrored internally as per-row and per-column integer bitmasks,
which makes the derivation operators cheap set intersections.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import (
    BadArgument,
    BadIndex,
    ContextError,
    DuplicateName,
    InvalidName,
    MalformedCell,
    RaggedRow,
)

DOMAIN_TAGS = ("Fingers", "Wrist", "Forces", "Grasp")


class _Frozen:
    """Immutable value: ``__init__`` sets the fields, later assignment raises.
    Equality (within one class) and hashing use the ``_compared`` fields, ``repr``
    the ``_shown`` ones.  No ``__slots__``, so ``cached_property`` still works."""

    # How ``__init__`` sets a field.  Fields set this way stay inline; writing
    # to ``__dict__`` would make the instance keep a dict and every read slower.
    _set = object.__setattr__

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self._compared))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class AttributeMeta(_Frozen):
    """Quality-dimension tag attached to an attribute."""

    _shown = _compared = ("domain_tag",)

    def __init__(self, domain_tag: str):
        if domain_tag not in DOMAIN_TAGS:
            raise ContextError(f"unknown domain tag {domain_tag!r}; expected one of {DOMAIN_TAGS}")
        self._set("domain_tag", domain_tag)


def _check_name(kind: str, name: str) -> None:
    if not isinstance(name, str) or not name:
        raise InvalidName(kind, name, "name must be a non-empty string")
    if name != name.strip():
        raise InvalidName(kind, name, "surrounding whitespace is trimmed by the CSV format")
    if "," in name:
        raise InvalidName(kind, name, "commas are reserved as the CSV cell separator")
    if "\n" in name or "\r" in name:
        raise InvalidName(kind, name, "line breaks are not allowed in names")
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:  # strict UTF-8 refuses exactly U+D800-U+DFFF
        raise InvalidName(kind, name, "lone surrogates cannot be written as UTF-8") from None


class FormalContext(_Frozen):
    """Immutable object x attribute cross table.

    ``incidence`` holds ``(object_index, attribute_index)`` pairs.
    ``attribute_meta`` is optional annotation (attribute index -> AttributeMeta);
    it is carried along but excluded from equality, which is defined on the
    ordered object/attribute lists plus the incidence relation.

    Instances are safe to share across threads once constructed.
    """

    _shown = ("objects", "attributes", "incidence", "attribute_meta")
    _compared = _shown[:3]

    def __init__(self, objects: Iterable[str], attributes: Iterable[str],
                 incidence: Iterable[tuple[int, int]],
                 attribute_meta: Mapping[int, AttributeMeta] | None = None):
        objects, attributes = tuple(objects), tuple(attributes)
        seen: set[str] = set()
        for name in objects:
            _check_name("object", name)
            if name in seen:
                raise DuplicateName("object", name)
            seen.add(name)
        seen.clear()
        for name in attributes:
            _check_name("attribute", name)
            if name in seen:
                raise DuplicateName("attribute", name)
            seen.add(name)

        n_obj, n_attr = len(objects), len(attributes)
        # Indices must be ints: 0.0 passes the range test but breaks every
        # bit operation later.  Inline, since this runs once per incidence pair.
        items = tuple(incidence)
        for item in items:
            try:
                g, m = item
            except (TypeError, ValueError):
                raise ContextError(
                    f"incidence item {item!r} is not an (object, attribute) index pair"
                ) from None
            if not isinstance(g, int) or not 0 <= g < n_obj:
                raise BadIndex("object", g, n_obj)
            if not isinstance(m, int) or not 0 <= m < n_attr:
                raise BadIndex("attribute", m, n_attr)
        if attribute_meta:
            for m in attribute_meta:
                if not isinstance(m, int) or not 0 <= m < n_attr:
                    raise BadIndex("attribute", m, n_attr)
        self._set("objects", objects)
        self._set("attributes", attributes)
        self._set("incidence", frozenset(map(tuple, items)))
        self._set("attribute_meta", attribute_meta)

    @cached_property
    def _row_masks(self) -> tuple[int, ...]:
        masks = [0] * len(self.objects)
        for g, m in self.incidence:
            masks[g] |= 1 << m
        return tuple(masks)

    @cached_property
    def _col_masks(self) -> tuple[int, ...]:
        masks = [0] * len(self.attributes)
        for g, m in self.incidence:
            masks[m] |= 1 << g
        return tuple(masks)

    @cached_property
    def _all_objects_mask(self) -> int:
        return (1 << len(self.objects)) - 1

    @cached_property
    def _all_attributes_mask(self) -> int:
        return (1 << len(self.attributes)) - 1

    @cached_property
    def _object_ids(self) -> dict[str, int]:
        return {name: g for g, name in enumerate(self.objects)}

    @cached_property
    def _attribute_ids(self) -> dict[str, int]:
        return {name: m for m, name in enumerate(self.attributes)}

    def object_index(self, name: str) -> int:
        """Index of the named object; KeyError if there is none."""
        try:
            return self._object_ids[name]
        except TypeError:  # unhashable, so certainly not a name
            raise KeyError(name) from None

    def attribute_index(self, name: str) -> int:
        """Index of the named attribute; KeyError if there is none."""
        try:
            return self._attribute_ids[name]
        except TypeError:  # unhashable, so certainly not a name
            raise KeyError(name) from None

    def object_names(self, indices: Iterable[int]) -> tuple[str, ...]:
        """Names for the given object indices, in context (index) order."""
        return _names_at(self.objects, "object", indices)

    def attribute_names(self, indices: Iterable[int]) -> tuple[str, ...]:
        """Names for the given attribute indices, in context (index) order."""
        return _names_at(self.attributes, "attribute", indices)

    def domain_tag(self, m: int) -> str | None:
        if not isinstance(m, int) or not 0 <= m < len(self.attributes):
            raise BadIndex("attribute", m, len(self.attributes))
        if self.attribute_meta and m in self.attribute_meta:
            return self.attribute_meta[m].domain_tag
        return None


def _names_at(names: tuple[str, ...], kind: str, indices: Iterable[int]) -> tuple[str, ...]:
    """The names at ``indices``, in index order.

    Only the two ends of the sorted indices are checked, so that long extents
    pay no per-index test: ints in range at both ends bound every index
    between them, and anything between them that is not an index makes the
    set, the sort or the lookup raise TypeError.
    """
    n = len(names)
    _iter_indices(kind, indices)
    indices = tuple(indices)  # no copy for a tuple; the error path reads it again
    try:
        ordered = sorted(set(indices))
        for i in ordered[:1] + ordered[-1:]:
            if not isinstance(i, int) or not 0 <= i < n:
                raise BadIndex(kind, i, n)
        return tuple(map(names.__getitem__, ordered))
    except TypeError:
        raise BadIndex(kind, next(i for i in indices if not isinstance(i, int)), n) from None


def _iter_indices(kind: str, values: Iterable[int]) -> Iterator[int]:
    try:
        return iter(values)
    except TypeError:
        raise BadArgument(f"{kind} indices must be iterable, got {type(values).__name__}") from None


def _object_set_to_mask(ctx: FormalContext, objs: Iterable[int]) -> int:
    n = len(ctx.objects)
    mask = 0
    for g in _iter_indices("object", objs):
        if not isinstance(g, int) or not 0 <= g < n:
            raise BadIndex("object", g, n)
        mask |= 1 << g
    return mask


def _attribute_set_to_mask(ctx: FormalContext, attrs: Iterable[int]) -> int:
    n = len(ctx.attributes)
    mask = 0
    for m in _iter_indices("attribute", attrs):
        if not isinstance(m, int) or not 0 <= m < n:
            raise BadIndex("attribute", m, n)
        mask |= 1 << m
    return mask


def _mask_to_indices(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of ``mask``, ascending.

    Peeling the lowest bit copies the mask once per set bit, which is
    quadratic in its width; past 512 bits one linear scan of its binary
    digits is cheaper.  ``int.bit_length`` raises TypeError for a non-int.
    """
    if int.bit_length(mask) <= 512:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)
    digits = bin(mask)[:1:-1]  # least significant first, "0b" dropped
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return tuple(out)


def _intent_mask(ctx: FormalContext, object_mask: int) -> int:
    """Attributes common to every object in the mask (all attributes for the empty mask).

    Folding rows costs a step per object and testing columns a step per
    attribute, so past ``2 * |M|`` objects the attributes whose column
    contains the whole mask are collected instead.
    """
    if object_mask.bit_count() > 2 * len(ctx.attributes):
        result = 0
        for m, col in enumerate(ctx._col_masks):
            if object_mask & col == object_mask:
                result |= 1 << m
        return result
    result = ctx._all_attributes_mask
    rows = ctx._row_masks
    while object_mask:
        low = object_mask & -object_mask
        result &= rows[low.bit_length() - 1]
        if not result:
            break
        object_mask ^= low
    return result


def _extent_mask(ctx: FormalContext, attribute_mask: int) -> int:
    """Objects carrying every attribute in the mask (all objects for the empty mask)."""
    result = ctx._all_objects_mask
    cols = ctx._col_masks
    while attribute_mask:
        low = attribute_mask & -attribute_mask
        result &= cols[low.bit_length() - 1]
        if not result:
            break
        attribute_mask ^= low
    return result


def _closure_mask(ctx: FormalContext, attribute_mask: int) -> int:
    return _intent_mask(ctx, _extent_mask(ctx, attribute_mask))


def derive_intent(ctx: FormalContext, objs: Iterable[int]) -> frozenset[int]:
    """Attribute indices shared by all given objects.

    The empty object set derives to the full attribute set.  Antitone:
    more objects can only shrink the result.
    """
    return frozenset(_mask_to_indices(_intent_mask(ctx, _object_set_to_mask(ctx, objs))))


def derive_extent(ctx: FormalContext, attrs: Iterable[int]) -> frozenset[int]:
    """Object indices carrying all given attributes.

    The empty attribute set derives to the full object set.  Antitone.
    """
    return frozenset(_mask_to_indices(_extent_mask(ctx, _attribute_set_to_mask(ctx, attrs))))


def closure_attributes(ctx: FormalContext, attrs: Iterable[int]) -> frozenset[int]:
    """Double derivation of an attribute set: the smallest intent containing it.

    A closure operator: extensive, monotone, and idempotent.
    """
    return frozenset(_mask_to_indices(_closure_mask(ctx, _attribute_set_to_mask(ctx, attrs))))


def parse_context(text: str) -> FormalContext:
    """Parse the context CSV format.

    Line 1 is ``,attr1,attr2,...`` (empty corner cell); each further line is
    ``objName,c1,c2,...`` with cells in {0, 1}.  Whitespace around cells is
    trimmed; every other deviation raises, it is never repaired.
    """
    if not isinstance(text, str):
        raise BadArgument(f"context text must be a str, got {type(text).__name__}")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline
    if not lines:
        raise MalformedCell(0, 0, "empty input: missing attribute header")
    if text.startswith("\ufeff"):
        raise MalformedCell(0, 0, "input starts with a byte-order mark (U+FEFF); save it without one")

    header = [cell.strip() for cell in lines[0].split(",")]
    if header[0] != "":
        raise MalformedCell(0, 0, f"corner cell must be empty, got {header[0]!r}")
    attributes = header[1:]
    for j, name in enumerate(attributes, start=1):
        if name == "":
            raise MalformedCell(0, j, "empty attribute name (only the corner cell may be empty)")
    seen: set[str] = set()
    for name in attributes:
        if name in seen:
            raise DuplicateName("attribute", name)
        seen.add(name)

    n_attr = len(attributes)
    objects: list[str] = []
    seen.clear()
    incidence: set[tuple[int, int]] = set()
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != n_attr + 1:
            raise RaggedRow(i, n_attr + 1, len(cells))
        name = cells[0].strip()
        if name == "":
            raise MalformedCell(i, 0, "empty object name")
        if name in seen:
            raise DuplicateName("object", name)
        seen.add(name)
        g = len(objects)
        objects.append(name)
        for j, raw in enumerate(cells[1:], start=1):
            value = raw.strip()
            if value == "1":
                incidence.add((g, j - 1))
            elif value != "0":
                raise MalformedCell(i, j, f"cell must be '0' or '1', got {value!r}")

    return FormalContext(tuple(objects), tuple(attributes), frozenset(incidence))


def serialize_context(ctx: FormalContext) -> str:
    """Render a context back to the CSV format.

    Inverse of :func:`parse_context`: ``parse_context(serialize_context(ctx))``
    equals ``ctx`` (attribute metadata has no CSV representation and is dropped).
    Output uses LF line endings and a trailing newline.
    """
    lines = [",".join(("",) + ctx.attributes)]
    rows = ctx._row_masks
    for g, name in enumerate(ctx.objects):
        mask = rows[g]
        cells = ["1" if mask >> m & 1 else "0" for m in range(len(ctx.attributes))]
        lines.append(",".join([name] + cells))
    return "\n".join(lines) + "\n"


__all__ = [
    "DOMAIN_TAGS",
    "AttributeMeta",
    "FormalContext",
    "ContextError",
    "parse_context",
    "serialize_context",
    "derive_intent",
    "derive_extent",
    "closure_attributes",
]
