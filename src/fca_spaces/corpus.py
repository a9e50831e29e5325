"""Bundled contexts: the Ninapro exercise tables and the grasp table.

Both tables are embedded verbatim, row and column order preserved.  Object
labels ending in ``-`` denote paired movements (e.g. a flexion/extension
pair recorded as one row); the grasp table's rows are labeled r1..r18 in
row order because their Ninapro action numbers are not recorded.

`verify_corpus_cases` recomputes the four documented similarity claims
about these tables from the built lattices; verdicts are never hard-coded.
"""

from __future__ import annotations

from . import _lazy_names
from .context import AttributeMeta, FormalContext, _Frozen

# The lattice code is imported when the cases are first verified, not by ``fca corpus``.
_lazy = __getattr__ = _lazy_names(
    globals(), {"enumeration": ("object_concept",), "lattice": ("build_lattice",)}
)

ABC_NAME = "ninapro-abc"
GRASP_NAME = "ninapro-grasp"

_ABC_ATTRIBUTES: tuple[tuple[str, str], ...] = (
    ("Index Finger", "Fingers"),
    ("Middle Finger", "Fingers"),
    ("Ring Finger", "Fingers"),
    ("Little Finger", "Fingers"),
    ("Thumb", "Fingers"),
    ("Abduction", "Forces"),
    ("Flexion", "Forces"),
    ("Extension", "Forces"),
    ("Adduction", "Forces"),
    ("Up", "Forces"),
    ("Flexed over", "Forces"),
    ("Opposing base", "Forces"),
    ("Point", "Forces"),
    ("Close", "Forces"),
    ("Wrist", "Wrist"),
    ("Rotate", "Wrist"),
    ("Deviation", "Wrist"),
)

_ABC_ROWS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("Ex1 Act1-", ("Index Finger", "Flexion", "Extension")),
    ("Ex1 Act3-", ("Middle Finger", "Flexion", "Extension")),
    ("Ex1 Act5-", ("Ring Finger", "Flexion", "Extension")),
    ("Ex1 Act7-", ("Little Finger", "Flexion", "Extension")),
    ("Ex1 Act9-", ("Thumb", "Abduction", "Adduction")),
    ("Ex1 Act11-", ("Thumb", "Flexion", "Extension")),
    ("Ex2 Act1", ("Thumb", "Up")),
    ("Ex2 Act2", ("Middle Finger", "Little Finger", "Thumb", "Flexion", "Flexed over")),
    ("Ex2 Act3", ("Ring Finger", "Little Finger", "Flexion")),
    ("Ex2 Act4", ("Little Finger", "Thumb", "Opposing base")),
    ("Ex2 Act5", ("Index Finger", "Middle Finger", "Ring Finger", "Little Finger", "Thumb", "Flexion")),
    ("Ex2 Act6", ("Index Finger", "Middle Finger", "Ring Finger", "Little Finger", "Thumb", "Abduction")),
    ("Ex2 Act7", ("Index Finger", "Point")),
    ("Ex2 Act8", ("Index Finger", "Middle Finger", "Ring Finger", "Little Finger", "Thumb", "Flexion", "Close")),
    ("Ex3 Act1-", ("Middle Finger", "Wrist", "Rotate")),
    ("Ex3 Act3-", ("Little Finger", "Wrist", "Rotate")),
    ("Ex3 Act5-", ("Flexion", "Extension", "Wrist")),
    ("Ex3 Act7-", ("Wrist", "Deviation")),
    ("Ex3 Act9", ("Index Finger", "Middle Finger", "Ring Finger", "Little Finger", "Thumb", "Extension", "Close", "Wrist")),
)

_GRASP_ATTRIBUTES: tuple[tuple[str, str], ...] = (
    ("Power", "Grasp"),
    ("Intermediate", "Grasp"),
    ("Precision", "Grasp"),
    ("Pad", "Grasp"),
    ("Palm", "Grasp"),
    ("Side", "Grasp"),
    ("VF1", "Grasp"),
    ("VF2", "Grasp"),
    ("VF3", "Grasp"),
    ("Abduction", "Forces"),
    ("Adduction", "Forces"),
)

_GRASP_ROWS: tuple[tuple[str, ...], ...] = (
    ("Power", "Palm", "VF1", "VF2", "Abduction"),
    ("Power", "Palm", "VF1", "VF2", "Adduction"),
    ("Power", "Palm", "VF1", "VF2", "VF3", "Adduction"),
    ("Power", "Palm", "VF1", "VF2", "Abduction"),
    ("Power", "Pad", "VF1", "VF2", "Abduction"),
    ("Precision", "Pad", "VF1", "VF2", "Abduction"),
    ("Intermediate", "Side", "VF1", "VF2", "Adduction"),
    ("Precision", "Side", "VF1", "VF2", "Abduction"),
    ("Power", "Precision", "Pad", "Palm", "VF1", "VF2", "Abduction"),
    ("Precision", "Pad", "VF1", "VF2", "Abduction"),
    ("Precision", "Pad", "VF1", "VF2", "Abduction"),
    ("Precision", "Pad", "VF1", "VF2", "Abduction"),
    ("Intermediate", "Side", "VF1", "VF2", "Adduction"),
    ("Precision", "Pad", "VF1", "VF2", "Adduction"),
    ("Power", "Palm", "VF1", "VF2", "Abduction"),
    ("Precision", "Pad", "VF1", "VF2", "Abduction"),
    ("Intermediate", "Side", "VF1", "VF2", "Abduction"),
    ("Power", "Palm", "VF1", "VF2", "VF3", "Adduction"),
)


def _build(attr_spec, rows) -> FormalContext:
    attributes = tuple(name for name, _ in attr_spec)
    meta = {m: AttributeMeta(tag) for m, (_, tag) in enumerate(attr_spec)}
    position = {name: m for m, name in enumerate(attributes)}
    incidence = frozenset(
        (g, position[a]) for g, (_, row) in enumerate(rows) for a in row
    )
    return FormalContext(
        tuple(name for name, _ in rows), attributes, incidence, attribute_meta=meta
    )


def ninapro_abc() -> FormalContext:
    """Exercises A-C of the hand-movement table: 19 activities x 17 attributes."""
    return _build(_ABC_ATTRIBUTES, _ABC_ROWS)


def ninapro_grasp() -> FormalContext:
    """Grasp exercise table: 18 activities x 11 grasp/force attributes."""
    rows = tuple((f"Ex4 Act r{i + 1}", row) for i, row in enumerate(_GRASP_ROWS))
    return _build(_GRASP_ATTRIBUTES, rows)


CORPUS_BUILDERS = {ABC_NAME: ninapro_abc, GRASP_NAME: ninapro_grasp}
_GOLDEN_FILES = {ABC_NAME: "ninapro_abc.csv", GRASP_NAME: "ninapro_grasp.csv"}


def corpus_context(name: str) -> FormalContext:
    try:
        return CORPUS_BUILDERS[name]()
    except KeyError:
        raise KeyError(name) from None


def golden_csv(name: str) -> str:
    """Bundled golden CSV for a corpus name, byte-identical to serialization."""
    from importlib.resources import files

    return files("fca_spaces").joinpath("data", _GOLDEN_FILES[name]).read_text(encoding="utf-8")


class CaseReport(_Frozen):
    """Computed verdict for one documented similarity claim; ``computed_relation``
    is "holds", "fails" or "not-mappable", and equality ignores ``evidence``."""

    _shown = ("case_id", "claim", "computed_relation", "evidence")
    _compared = _shown[:3]

    def __init__(self, case_id: int, claim: str, computed_relation: str, evidence: dict):
        self._set("case_id", case_id)
        self._set("claim", claim)
        self._set("computed_relation", computed_relation)
        self._set("evidence", evidence)


def _concept_evidence(ctx: FormalContext, lat, concept) -> dict:
    return {
        "id": lat.index_of(concept),
        "extent": list(ctx.object_names(concept.extent)),
        "intent": list(ctx.attribute_names(concept.intent)),
    }


def _leq_case(case_id: int, claim: str, ctx, lat, lower_name: str, upper_name: str) -> CaseReport:
    object_concept = _lazy("object_concept")

    lower = object_concept(ctx, ctx.object_index(lower_name))
    upper = object_concept(ctx, ctx.object_index(upper_name))
    holds = lat.leq(lower, upper)
    evidence = {
        "lower_object": lower_name,
        "lower_concept": _concept_evidence(ctx, lat, lower),
        "upper_object": upper_name,
        "upper_concept": _concept_evidence(ctx, lat, upper),
        "extent_contained": holds,
    }
    return CaseReport(case_id, claim, "holds" if holds else "fails", evidence)


def verify_corpus_cases() -> list[CaseReport]:
    """Recompute the four documented similarity cases from both corpus lattices."""
    build_lattice, object_concept = map(_lazy, ("build_lattice", "object_concept"))

    abc = ninapro_abc()
    abc_lat = build_lattice(abc)
    grasp = ninapro_grasp()
    grasp_lat = build_lattice(grasp)
    reports = []

    reports.append(
        _leq_case(
            1,
            "wrist extension with closed hand (Ex3 Act9) specializes plain wrist "
            "extension (Ex3 Act5-): its object concept lies below",
            abc,
            abc_lat,
            "Ex3 Act9",
            "Ex3 Act5-",
        )
    )
    reports.append(
        _leq_case(
            2,
            "all-finger abduction (Ex2 Act6) specializes all-finger flexion with "
            "close (Ex2 Act8): its object concept lies below",
            abc,
            abc_lat,
            "Ex2 Act6",
            "Ex2 Act8",
        )
    )

    # Case 3: the five single-finger flexion/extension activities are pairwise
    # siblings under one shared cover whose intent is exactly {Flexion, Extension}.
    finger_objects = ["Ex1 Act1-", "Ex1 Act3-", "Ex1 Act5-", "Ex1 Act7-", "Ex1 Act11-"]
    member_ids = [
        abc_lat.index_of(object_concept(abc, abc.object_index(name)))
        for name in finger_objects
    ]
    cover_sets = [set(abc_lat.upper_covers(cid)) for cid in member_ids]
    shared = set.intersection(*cover_sets)
    flexion_extension = frozenset(
        {abc.attribute_index("Flexion"), abc.attribute_index("Extension")}
    )
    shared_match = [
        cid for cid in sorted(shared)
        if abc_lat.concepts[cid].intent_set == flexion_extension
    ]
    pairwise = all(
        member_ids[i] != member_ids[j] and cover_sets[i] & cover_sets[j]
        for i in range(len(member_ids))
        for j in range(i + 1, len(member_ids))
    )
    case3_holds = bool(shared_match) and pairwise
    reports.append(
        CaseReport(
            3,
            "the five single-finger flexion/extension activities form pairwise "
            "sibling concepts beneath one cover whose intent is exactly "
            "{Flexion, Extension}",
            "holds" if case3_holds else "fails",
            {
                "members": {
                    name: _concept_evidence(abc, abc_lat, abc_lat.concepts[cid])
                    for name, cid in zip(finger_objects, member_ids)
                },
                "shared_upper_covers": sorted(shared),
                "flexion_extension_cover": shared_match,
                "pairwise_siblings": pairwise,
            },
        )
    )

    # Case 4: duplicate grasp rows collapse onto shared concept nodes.
    by_concept: dict[int, list[str]] = {}
    for g, name in enumerate(grasp.objects):
        cid = grasp_lat.index_of(object_concept(grasp, g))
        by_concept.setdefault(cid, []).append(name)
    groups = [
        {
            "concept_id": cid,
            "objects": names,
            "intent": list(grasp.attribute_names(grasp_lat.concepts[cid].intent)),
        }
        for cid, names in sorted(by_concept.items())
        if len(names) > 1
    ]
    reports.append(
        CaseReport(
            4,
            "grasp activities with identical attribute rows group under a single "
            "shared concept node",
            "holds" if groups else "fails",
            {"shared_groups": groups},
        )
    )
    return reports


__all__ = [
    "ABC_NAME",
    "GRASP_NAME",
    "CORPUS_BUILDERS",
    "CaseReport",
    "corpus_context",
    "golden_csv",
    "ninapro_abc",
    "ninapro_grasp",
    "verify_corpus_cases",
]
