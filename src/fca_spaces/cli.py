"""Command-line interface.

Machine output goes to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 usage error or failed validation, 2 context load/parse error,
3 query error (unknown name, empty category).  All input and output uses
object/attribute names; indices never cross the CLI boundary.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Callable, Sequence

from . import _lazy_names
from . import corpus as corpus_mod
from .context import (
    FormalContext,
    derive_extent,
    derive_intent,
    parse_context,
    serialize_context,
)
from .errors import BadArgument, ContextError, EmptyCategory, FcaError

if TYPE_CHECKING:
    from fractions import Fraction
    from .lattice import ConceptLattice

# The enumeration, lattice and query code is imported by the first command
# that runs it, so that start-up stays cheap.  Commands call it through this
# module (``_lazy``), where its names also resolve as attributes, so that a
# stand-in set here (by a test, or a tracer) is what runs.
_lazy = __getattr__ = _lazy_names(globals(), {
    "enumeration": ("brute_force_concepts", "enumerate_concepts", "object_concept"),
    "lattice": (
        "_ConceptIndex", "_covers_pass_neighbour_test", "_json_list", "_order_on_demand",
        "build_lattice", "export_dot", "export_json", "recompute_covers_pairwise",
    ),
    "similarity": ("nearest_concept", "prototype", "siblings", "similar_concepts"),
})

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONTEXT = 2
EXIT_QUERY = 3

DEFAULT_K = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; this CLI reserves 2 for
    # context errors, so usage failures are rerouted through _UsageError.
    def error(self, message):
        raise _UsageError(message)


class _QueryError(Exception):
    pass


def _load_context(source: str) -> FormalContext:
    if source in corpus_mod.CORPUS_BUILDERS:
        return corpus_mod.CORPUS_BUILDERS[source]()
    try:
        fh = open(source, "r", encoding="utf-8")
    except ValueError as exc:  # a path with a NUL byte or a lone surrogate
        raise OSError(exc) from None
    with fh:
        return parse_context(fh.read())


def _attribute_indices(ctx: FormalContext, spec: str) -> list[int]:
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        raise _QueryError("no attribute names given")
    indices = []
    for name in names:
        try:
            indices.append(ctx.attribute_index(name))
        except KeyError:
            raise _QueryError(f"unknown attribute name: {name!r}") from None
    return indices


def _object_index(ctx: FormalContext, name: str) -> int:
    try:
        return ctx.object_index(name)
    except KeyError:
        raise _QueryError(f"unknown object name: {name!r}") from None


# Concept tuples are sorted and unique, so they skip the checks of ``object_names``.
def _names(names: tuple[str, ...], indices: tuple[int, ...]) -> str:
    return ", ".join(map(names.__getitem__, indices))


def _concept_dict(ctx: FormalContext, lat: ConceptLattice, cid: int) -> dict:
    c = lat.concepts[cid]
    return {
        "id": cid,
        "extent": list(map(ctx.objects.__getitem__, c.extent)),
        "intent": list(map(ctx.attributes.__getitem__, c.intent)),
        "level": lat.level_of(cid),
    }


def _concept_index(ctx: FormalContext):
    return _lazy("_ConceptIndex")(ctx, _lazy("enumerate_concepts")(ctx))


def _print_concept_lines(ctx: FormalContext, extent, intent, prefix: str = "") -> None:
    print(f"{prefix}extent ({len(extent)}): {_names(ctx.objects, extent)}")
    print(f"{prefix}intent ({len(intent)}): {_names(ctx.attributes, intent)}")


_JSON_CONCEPT = '{\n    "id": %d,\n    "extent": %s,\n    "intent": %s\n  }'


def _cmd_concepts(ns) -> int:
    ctx = _load_context(ns.context)
    concepts = _lazy("enumerate_concepts")(ctx)
    if ns.format == "json":
        from json.encoder import encode_basestring_ascii
        _json_list = _lazy("_json_list")

        objects = list(map(encode_basestring_ascii, ctx.objects))
        attributes = list(map(encode_basestring_ascii, ctx.attributes))
        rendered = [
            _JSON_CONCEPT % (
                i,
                _json_list(map(objects.__getitem__, c.extent), "    "),
                _json_list(map(attributes.__getitem__, c.intent), "    "),
            )
            for i, c in enumerate(concepts)
        ]
        print(_json_list(rendered, ""))
    else:
        print(f"{len(concepts)} concepts")
        for i, c in enumerate(concepts):
            print(f"[{i}]")
            _print_concept_lines(ctx, c.extent, c.intent, prefix="  ")
    return EXIT_OK


def _cmd_lattice(ns) -> int:
    ctx = _load_context(ns.context)
    lat = _lazy("build_lattice")(ctx)
    if ns.format == "json":
        print(_lazy("export_json")(lat, ctx))
    elif ns.format == "dot":
        sys.stdout.write(_lazy("export_dot")(lat, ctx))
    else:
        edges = lat.cover_edges()
        print(
            f"{len(ctx.objects)} objects, {len(ctx.attributes)} attributes, "
            f"{len(lat)} concepts, {len(edges)} cover edges, height {lat.height()}"
        )
        print(f"top: [{lat.top_id}]  bottom: [{lat.bottom_id}]")
        for i, c in enumerate(lat.concepts):
            ups = ",".join(map(str, lat.upper_covers(i))) or "-"
            print(f"[{i}] level {lat.level_of(i)} upper-covers {ups}")
            _print_concept_lines(ctx, c.extent, c.intent, prefix="  ")
    return EXIT_OK


def _cmd_query(ns) -> int:
    import json

    ctx = _load_context(ns.context)
    attrs = _attribute_indices(ctx, ns.attributes)
    # The answer's level needs only the concepts above it, not the whole lattice.
    lat = _lazy("_order_on_demand")(_concept_index(ctx))
    cid = _lazy("nearest_concept")(ctx, lat, attrs)
    if ns.format == "json":
        print(json.dumps(_concept_dict(ctx, lat, cid), indent=2))
    else:
        c = lat.concepts[cid]
        print(f"nearest concept [{cid}] at level {lat.level_of(cid)}")
        _print_concept_lines(ctx, c.extent, c.intent, prefix="  ")
    return EXIT_OK


def _jaccard_float(j: Fraction) -> float:
    return j.numerator / j.denominator


def _cmd_similar(ns) -> int:
    import json

    ctx = _load_context(ns.context)
    g = _object_index(ctx, ns.object)
    # Every BFS layer but the last is printed whole, so the search reads the
    # covers of at most k + 1 concepts, and the levels of those it prints.
    lat = _lazy("_order_on_demand")(_concept_index(ctx))
    cid = lat.index_of(_lazy("object_concept")(ctx, g))
    results = _lazy("similar_concepts")(lat, cid, ns.k)
    if ns.format == "json":
        payload = {
            "object": ns.object,
            "concept": _concept_dict(ctx, lat, cid),
            "similar": [
                {
                    "distance": r.lattice_distance,
                    "jaccard": _jaccard_float(r.intent_jaccard),
                    **_concept_dict(ctx, lat, r.concept_id),
                }
                for r in results
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"object {ns.object!r} -> concept [{cid}]")
        for rank, r in enumerate(results, start=1):
            c = lat.concepts[r.concept_id]
            print(
                f"{rank}. [{r.concept_id}] distance {r.lattice_distance} "
                f"jaccard {_jaccard_float(r.intent_jaccard):.3f} "
                f"intent: {_names(ctx.attributes, c.intent)}"
            )
    return EXIT_OK


def _cmd_siblings(ns) -> int:
    import json

    ctx = _load_context(ns.context)
    g = _object_index(ctx, ns.object)
    lat = _lazy("build_lattice")(ctx)
    cid = lat.index_of(_lazy("object_concept")(ctx, g))
    sibs = sorted(_lazy("siblings")(lat, cid))
    if ns.format == "json":
        payload = {
            "object": ns.object,
            "concept": _concept_dict(ctx, lat, cid),
            "siblings": [_concept_dict(ctx, lat, s) for s in sibs],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"object {ns.object!r} -> concept [{cid}]; {len(sibs)} siblings")
        for s in sibs:
            c = lat.concepts[s]
            print(f"[{s}]")
            _print_concept_lines(ctx, c.extent, c.intent, prefix="  ")
    return EXIT_OK


def _cmd_prototype(ns) -> int:
    import json

    ctx = _load_context(ns.context)
    attrs = _attribute_indices(ctx, ns.attributes)
    try:
        g = _lazy("prototype")(ctx, attrs)
    except EmptyCategory as exc:
        raise _QueryError(f"EmptyCategory: {exc}") from None
    if ns.format == "json":
        payload = {"category": list(ctx.attribute_names(attrs)), "prototype": ctx.objects[g]}
        print(json.dumps(payload, indent=2))
    else:
        print(ctx.objects[g])
    return EXIT_OK


def _cmd_corpus(ns) -> int:
    ctx = corpus_mod.corpus_context(ns.name)
    sys.stdout.write(serialize_context(ctx))
    return EXIT_OK


def _case_report_dict(report) -> dict:
    return {
        "case": report.case_id,
        "claim": report.claim,
        "verdict": report.computed_relation,
        "evidence": report.evidence,
    }


def _cmd_verify_cases(ns) -> int:
    import json

    reports = corpus_mod.verify_corpus_cases()
    if ns.format == "json":
        print(json.dumps([_case_report_dict(r) for r in reports], indent=2))
    else:
        for r in reports:
            print(f"Case {r.case_id}: {r.computed_relation}")
            print(f"  claim: {r.claim}")
            print(f"  evidence: {json.dumps(r.evidence)}")
    return EXIT_OK


def _validation_checks(ctx: FormalContext, oracle: bool):
    lat = _lazy("build_lattice")(ctx)
    concepts = lat.concepts

    def closed_pairs() -> bool:
        return all(
            derive_intent(ctx, c.extent) == c.intent_set
            and derive_extent(ctx, c.intent) == c.extent_set
            for c in concepts
        )

    def ordering() -> bool:
        keys = [(-len(c.extent), c.intent) for c in concepts]
        return keys == sorted(keys) and len(set(concepts)) == len(concepts)

    def cover_reduction() -> bool:
        return _lazy("_covers_pass_neighbour_test")(lat)

    def cover_pairwise() -> bool:
        return sorted(lat.cover_edges()) == _lazy("recompute_covers_pairwise")(lat)

    def unique_extremes() -> bool:
        tops = [i for i in range(len(lat)) if not lat.upper_covers(i)]
        bottoms = [i for i in range(len(lat)) if not lat.lower_covers(i)]
        if len(lat) == 1:
            return tops == bottoms == [lat.top_id]
        return tops == [lat.top_id] and bottoms == [lat.bottom_id]

    def levels_longest_path() -> bool:
        for i in range(len(lat)):
            ups = lat.upper_covers(i)
            want = 0 if not ups else max(lat.level_of(j) for j in ups) + 1
            if lat.level_of(i) != want:
                return False
        return lat.level_of(lat.top_id) == 0

    checks: list[tuple[str, Callable[[], bool]]] = [
        ("concepts are closed (extent'' = extent, intent'' = intent)", closed_pairs),
        ("enumeration order: extent size desc, intent lexicographic", ordering),
        ("covers equal pairwise transitive reduction", cover_reduction),
        ("unique top and bottom", unique_extremes),
        ("levels equal longest cover path from top", levels_longest_path),
    ]
    if oracle:
        checks += [
            ("covers equal cubic pairwise recomputation", cover_pairwise),
            (
                "enumeration equals exhaustive subset closure",
                lambda: _lazy("enumerate_concepts")(ctx) == _lazy("brute_force_concepts")(ctx),
            ),
        ]
    return checks


def _cmd_validate(ns) -> int:
    ctx = _load_context(ns.context)
    failed = 0
    for label, check in _validation_checks(ctx, ns.oracle):
        try:
            ok = check()
        except BadArgument as exc:  # oracle refused (too many attributes)
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"{'ok' if ok else 'FAIL'}: {label}")
        if not ok:
            failed += 1
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_format(parser, choices=("table", "json"), default="table") -> None:
    parser.add_argument("--format", choices=list(choices), default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fca",
        description=(
            "Concept-lattice queries over binary contexts. CONTEXT is a CSV "
            "path or a corpus name (ninapro-abc, ninapro-grasp)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("concepts", help="enumerate all formal concepts")
    p.add_argument("context")
    _add_format(p)
    p.set_defaults(func=_cmd_concepts)

    p = sub.add_parser("lattice", help="build and export the concept lattice")
    p.add_argument("context")
    _add_format(p, choices=("table", "json", "dot"))
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("query", help="most specific concept for an attribute cue")
    p.add_argument("context")
    p.add_argument("--attributes", required=True, help="comma-separated attribute names")
    _add_format(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("similar", help="rank concepts nearest to an object's concept")
    p.add_argument("context")
    p.add_argument("--object", required=True, help="object name")
    p.add_argument("-k", type=_positive_int, default=DEFAULT_K)
    _add_format(p)
    p.set_defaults(func=_cmd_similar)

    p = sub.add_parser("siblings", help="concepts sharing an upper cover with an object's concept")
    p.add_argument("context")
    p.add_argument("--object", required=True, help="object name")
    _add_format(p)
    p.set_defaults(func=_cmd_siblings)

    p = sub.add_parser("prototype", help="most representative object of an attribute category")
    p.add_argument("context")
    p.add_argument("--attributes", required=True, help="comma-separated attribute names")
    _add_format(p)
    p.set_defaults(func=_cmd_prototype)

    p = sub.add_parser("corpus", help="emit a bundled context as CSV")
    p.add_argument("name", choices=sorted(corpus_mod.CORPUS_BUILDERS))
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("verify-cases", help="recompute the documented corpus similarity cases")
    _add_format(p)
    p.set_defaults(func=_cmd_verify_cases)

    p = sub.add_parser("validate", help="self-check enumeration and lattice structure")
    p.add_argument("context")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also run the cubic pairwise cover check and the exhaustive subset check",
    )
    p.set_defaults(func=_cmd_validate)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    try:
        return ns.func(ns)
    except _QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUERY
    except ContextError as exc:
        print(f"context error: {exc}", file=sys.stderr)
        return EXIT_CONTEXT
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read context: {exc}", file=sys.stderr)
        return EXIT_CONTEXT
    except FcaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUERY


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
