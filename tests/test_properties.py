import contextlib
import io
import itertools
import json
import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from fca_spaces import (
    ConceptLattice,
    ContextError,
    FormalContext,
    build_lattice,
    closure_attributes,
    corpus_context,
    derive_extent,
    derive_intent,
    enumerate_concepts,
    export_json,
    generalize,
    lattice_distance,
    nearest_concept,
    parse_context,
    serialize_context,
    similar_concepts,
    specialize,
)
from fca_spaces import cli
from fca_spaces.context import _intent_mask, _mask_to_indices
from fca_spaces.lattice import _ConceptIndex, _covers_pass_neighbour_test, _upset_level
from conftest import contexts, make_context, random_context, rows_of
from reference import ref_distances, ref_hasse_edges, ref_levels, ref_intent, ref_sorted_concepts


@st.composite
def context_and_subsets(draw, max_objects=6, max_attributes=6):
    ctx = draw(contexts(max_objects=max_objects, max_attributes=max_attributes))
    objs = frozenset(
        g for g in range(len(ctx.objects)) if draw(st.booleans())
    )
    attrs = frozenset(
        m for m in range(len(ctx.attributes)) if draw(st.booleans())
    )
    return ctx, objs, attrs


@given(context_and_subsets())
def test_galois_connection(case):
    ctx, objs, attrs = case
    lhs = objs <= derive_extent(ctx, attrs)
    rhs = attrs <= derive_intent(ctx, objs)
    assert lhs == rhs


def test_galois_exhaustive_subset_pairs():
    # full biconditional over every (A, B) pair on a few seeded 8x8 contexts
    rng = random.Random(2718)
    for _ in range(3):
        ctx = random_context(rng, max_objects=8, max_attributes=8)
        n_obj, n_attr = len(ctx.objects), len(ctx.attributes)
        extents = {b: derive_extent(ctx, {m for m in range(n_attr) if b >> m & 1})
                   for b in range(1 << n_attr)}
        intents = {a: derive_intent(ctx, {g for g in range(n_obj) if a >> g & 1})
                   for a in range(1 << n_obj)}
        for a in range(1 << n_obj):
            objs = {g for g in range(n_obj) if a >> g & 1}
            for b in range(1 << n_attr):
                attrs = {m for m in range(n_attr) if b >> m & 1}
                assert (objs <= extents[b]) == (attrs <= intents[a])


@given(context_and_subsets())
def test_derivations_antitone(case):
    ctx, objs, attrs = case
    smaller_objs = frozenset(sorted(objs)[1:])
    assert derive_intent(ctx, smaller_objs) >= derive_intent(ctx, objs)
    smaller_attrs = frozenset(sorted(attrs)[1:])
    assert derive_extent(ctx, smaller_attrs) >= derive_extent(ctx, attrs)


@given(context_and_subsets())
def test_closure_operator_laws(case):
    ctx, _, attrs = case
    closed = closure_attributes(ctx, attrs)
    assert attrs <= closed  # extensive
    assert closure_attributes(ctx, closed) == closed  # idempotent


@given(context_and_subsets())
def test_closure_monotone(case):
    ctx, _, attrs = case
    sub = frozenset(list(attrs)[: len(attrs) // 2])
    assert closure_attributes(ctx, sub) <= closure_attributes(ctx, attrs)


@given(context_and_subsets())
def test_triple_prime(case):
    ctx, objs, _ = case
    once = derive_intent(ctx, objs)
    assert derive_intent(ctx, derive_extent(ctx, once)) == once


@given(contexts())
def test_round_trip_identity(ctx):
    assert parse_context(serialize_context(ctx)) == ctx


@given(contexts(max_objects=6, max_attributes=6))
@settings(deadline=None)
def test_enumeration_matches_reference(ctx):
    got = [(c.extent, c.intent) for c in enumerate_concepts(ctx)]
    assert got == ref_sorted_concepts(rows_of(ctx), len(ctx.attributes))


def context_of_row_masks(row_masks, n_attr):
    return make_context([frozenset(m for m in range(n_attr) if row >> m & 1) for row in row_masks], n_attr)


# Wide contexts: extents past 512 bits take the scanning branch of
# _mask_to_indices, and intents of more than 2 * |M| objects the column side
# of _intent_mask.  Rows are drawn as attribute bitmasks to keep examples small.
@st.composite
def wide_contexts(draw):
    n_attr = draw(st.integers(1, 5))
    row_masks = draw(st.lists(st.integers(0, (1 << n_attr) - 1), min_size=513, max_size=640))
    return context_of_row_masks(row_masks, n_attr)


@given(wide_contexts())
@settings(deadline=None, max_examples=10, suppress_health_check=[HealthCheck.data_too_large, HealthCheck.too_slow])
def test_wide_enumeration_matches_reference(ctx):
    got = [(c.extent, c.intent) for c in enumerate_concepts(ctx)]
    assert got == ref_sorted_concepts(rows_of(ctx), len(ctx.attributes))


@given(
    st.one_of(st.sampled_from([511, 512, 513]), st.integers(514, 5000)).flatmap(
        lambda width: st.integers(0, (1 << (width - 1)) - 1).map(lambda low: low | 1 << (width - 1))
    )
)
@settings(max_examples=40)
def test_mask_to_indices_wide_masks(mask):
    assert _mask_to_indices(mask) == tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@pytest.mark.parametrize("not_a_mask", [(0, 2), 5.0, 0.0])
def test_mask_to_indices_rejects_non_int(not_a_mask):
    with pytest.raises(TypeError):
        _mask_to_indices(not_a_mask)


@st.composite
def context_and_object_set_near_threshold(draw):
    n_attr = draw(st.integers(0, 6))
    n_obj = draw(st.integers(2 * n_attr + 1, 2 * n_attr + 10))
    row_masks = draw(st.lists(st.integers(0, (1 << n_attr) - 1), min_size=n_obj, max_size=n_obj))
    ctx = context_of_row_masks(row_masks, n_attr)
    # sizes 2 * |M| and 2 * |M| + 1 sit on either side of the switch to columns
    size = draw(st.one_of(st.sampled_from([2 * n_attr, 2 * n_attr + 1]), st.integers(0, n_obj)))
    objs = draw(st.permutations(range(n_obj)))[:size]
    return ctx, frozenset(objs)


@given(context_and_object_set_near_threshold())
@settings(max_examples=60)
def test_intent_mask_matches_reference_on_both_sides(case):
    ctx, objs = case
    want = ref_intent(rows_of(ctx), len(ctx.attributes), objs)
    assert _intent_mask(ctx, sum(1 << g for g in objs)) == sum(1 << m for m in want)


@given(contexts(max_objects=7, max_attributes=7))
@settings(deadline=None)
def test_covers_and_levels_match_reference(ctx):
    lat = build_lattice(ctx)
    n = len(lat)
    edges = ref_hasse_edges([c.extent_set for c in lat.concepts])
    assert set(lat.cover_edges()) == edges
    assert len(lat.cover_edges()) == len(edges)
    levels = ref_levels(n, edges)
    assert [lat.level_of(i) for i in range(n)] == [levels[i] for i in range(n)]
    for i in range(n):
        ups, lows = lat.upper_covers(i), lat.lower_covers(i)
        assert list(ups) == sorted(set(ups))
        assert list(lows) == sorted(set(lows))
        assert all(i in lat.lower_covers(j) for j in ups)
        assert all(i in lat.upper_covers(j) for j in lows)


@given(contexts(max_objects=7, max_attributes=7))
@settings(deadline=None)
def test_upset_level_matches_full_lattice_and_reference(ctx):
    # ordering only the concepts above one concept gives it the same level
    # as the whole Hasse diagram does, and as the reference's longest path
    lat = build_lattice(ctx)
    n = len(lat)
    index = _ConceptIndex(ctx, enumerate_concepts(ctx))
    levels = ref_levels(n, ref_hasse_edges([c.extent_set for c in lat.concepts]))
    for i in range(n):
        assert _upset_level(index, i) == lat.level_of(i) == levels[i]


@given(contexts(max_objects=7, max_attributes=7), st.randoms(use_true_random=False))
@settings(deadline=None)
def test_neighbour_cover_check_matches_reference(ctx, rnd):
    # the validate check must accept exactly the reference Hasse diagram
    lat = build_lattice(ctx)
    n = len(lat)
    extents = [c.extent_set for c in lat.concepts]
    truth = ref_hasse_edges(extents)

    def relisted(edges, lower_edges=None):
        lower_edges = edges if lower_edges is None else lower_edges
        upper = [tuple(sorted(up for low, up in edges if low == i)) for i in range(n)]
        lower = [tuple(sorted(low for low, up in lower_edges if up == i)) for i in range(n)]
        levels = [lat.level_of(i) for i in range(n)]
        return ConceptLattice(ctx, lat.concepts, upper, lower, levels, lat.top_id, lat.bottom_id)

    def verdict_agrees(mutant):
        ok = _covers_pass_neighbour_test(mutant)
        assert ok == (mutant.cover_edges() == sorted(truth))
        return ok

    assert verdict_agrees(lat)
    edges = sorted(truth)
    if edges:
        dropped = edges[:]
        del dropped[rnd.randrange(len(dropped))]
        assert not verdict_agrees(relisted(dropped))
        assert not verdict_agrees(relisted(edges + [rnd.choice(edges)]))
        # upper lists right, lower lists missing one edge
        assert not _covers_pass_neighbour_test(relisted(edges, dropped))
    transitive = [
        (a, b) for a in range(n) for b in range(n)
        if extents[a] < extents[b] and (a, b) not in truth
    ]
    if transitive:
        assert not verdict_agrees(relisted(edges + [rnd.choice(transitive)]))


def test_contranominal_covers_and_height():
    # every object lacks exactly one attribute: the lattice is Boolean on n atoms
    for n in range(8):
        lat = build_lattice(make_context([frozenset(range(n)) - {g} for g in range(n)], n))
        assert len(lat) == 2**n
        assert len(lat.cover_edges()) == n * 2**n // 2
        assert lat.height() == n


@given(contexts(max_objects=5, max_attributes=5), st.integers(1, 4))
@settings(deadline=None)
def test_generalize_specialize_duality(ctx, steps):
    lat = build_lattice(ctx)
    gen = {a: generalize(lat, a, steps) for a in range(len(lat))}
    spec = {a: specialize(lat, a, steps) for a in range(len(lat))}
    for a in range(len(lat)):
        for b in range(len(lat)):
            assert (b in gen[a]) == (a in spec[b])


@given(context_and_subsets(max_objects=5, max_attributes=5))
@settings(deadline=None)
def test_nearest_concept_has_least_intent(case):
    # the result's intent is the closure: least among all intents containing
    # the cue, so every other matching concept sits below it in the order
    ctx, _, attrs = case
    lat = build_lattice(ctx)
    cid = nearest_concept(ctx, lat, attrs)
    assert attrs <= lat.concepts[cid].intent_set
    for i, c in enumerate(lat.concepts):
        if attrs <= c.intent_set:
            assert lat.leq(i, cid)


@given(contexts(max_objects=5, max_attributes=5))
@settings(deadline=None)
def test_distance_symmetry_and_identity(ctx):
    lat = build_lattice(ctx)
    n = len(lat)
    ids = list(range(n))[:6]
    for a in ids:
        for b in ids:
            d = lattice_distance(lat, a, b)
            assert d == lattice_distance(lat, b, a)
            assert (d == 0) == (a == b)


@given(contexts(max_objects=7, max_attributes=7))
@settings(deadline=None)
def test_similarity_ranking_matches_reference(ctx):
    # the layered search must return the full ranking cut to k
    lat = build_lattice(ctx)
    n = len(lat)
    edges = ref_hasse_edges([c.extent_set for c in lat.concepts])
    intents = [c.intent_set for c in lat.concepts]

    def set_jaccard(x, y):
        return Fraction(len(x & y), len(x | y)) if x | y else Fraction(1)

    for a in range(n):
        dist = ref_distances(n, edges, a)
        assert [lattice_distance(lat, a, b) for b in range(n)] == [dist[b] for b in range(n)]
        ranking = sorted(
            (dist[b], -set_jaccard(intents[a], intents[b]), b) for b in range(n) if b != a
        )
        for k in {1, 2, 5, n}:
            got = [(r.lattice_distance, -r.intent_jaccard, r.concept_id)
                   for r in similar_concepts(lat, a, k)]
            assert got == ranking[:k]


@given(contexts(max_objects=6, max_attributes=6), st.randoms(use_true_random=False))
@settings(deadline=None)
def test_concept_count_permutation_invariant(ctx, rnd):
    base = len(enumerate_concepts(ctx))
    rows = rows_of(ctx)
    perm_obj = list(range(len(ctx.objects)))
    perm_attr = list(range(len(ctx.attributes)))
    rnd.shuffle(perm_obj)
    rnd.shuffle(perm_attr)
    from conftest import make_context

    shuffled = make_context(
        [frozenset(perm_attr[m] for m in rows[g]) for g in perm_obj],
        len(ctx.attributes),
    )
    assert len(enumerate_concepts(shuffled)) == base


# Names that stress JSON escaping: quotes, backslashes, interior tabs and
# NULs, non-ASCII and astral-plane characters.  Commas, line breaks,
# surrounding whitespace and lone surrogates are outside the context name rules.
_NAME_CHARS = st.one_of(
    st.sampled_from(["a", '"', "\\", "\t", "\x00", "\x1f", " ", "é", "☃", "\U0001F600"]),
    st.characters(blacklist_characters=",\n\r", blacklist_categories=("Cs",)),
)
_NAMES = st.text(_NAME_CHARS, min_size=1, max_size=4).filter(lambda s: s == s.strip())


@st.composite
def named_contexts(draw, max_objects=6, max_attributes=6):
    objects = draw(st.lists(_NAMES, max_size=max_objects, unique=True))
    attributes = draw(st.lists(_NAMES, max_size=max_attributes, unique=True))
    rows = st.frozensets(st.integers(0, len(attributes) - 1)) if attributes else st.just(frozenset())
    incidence = frozenset((g, m) for g in range(len(objects)) for m in draw(rows))
    return FormalContext(tuple(objects), tuple(attributes), incidence)


def _concept_payload(ctx, i, c):
    return {
        "id": i,
        "extent": [ctx.objects[g] for g in c.extent],
        "intent": [ctx.attributes[m] for m in c.intent],
    }


@given(named_contexts())
@settings(deadline=None)
def test_export_json_equals_json_dumps(ctx):
    # json.dumps of the documented payload is the oracle for the emitter
    lat = build_lattice(ctx)
    payload = {
        "objects": list(ctx.objects),
        "attributes": list(ctx.attributes),
        "concepts": [
            {**_concept_payload(ctx, i, c), "level": lat.level_of(i)}
            for i, c in enumerate(lat.concepts)
        ],
        "covers": [[low, up] for low, up in sorted(lat.cover_edges())],
        "top": lat.top_id,
        "bottom": lat.bottom_id,
    }
    assert export_json(lat, ctx) == json.dumps(payload, indent=2)


@given(named_contexts())
@settings(deadline=None)
def test_cli_concepts_json_equals_json_dumps(ctx):
    payload = [_concept_payload(ctx, i, c) for i, c in enumerate(enumerate_concepts(ctx))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ctx.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(serialize_context(ctx))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(["concepts", path, "--format", "json"]) == 0
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("corpus", ["ninapro-abc", "ninapro-grasp"])
def test_cli_query_equals_full_lattice_render(corpus):
    # fca query orders only its answer's up-set; the whole lattice is the oracle
    ctx = corpus_context(corpus)
    lat = build_lattice(ctx)
    for pair in itertools.combinations(range(len(ctx.attributes)), 2):
        cid = nearest_concept(ctx, lat, pair)
        payload = {**_concept_payload(ctx, cid, lat.concepts[cid]), "level": lat.level_of(cid)}
        extent, intent = payload["extent"], payload["intent"]
        table = (
            f"nearest concept [{cid}] at level {lat.level_of(cid)}\n"
            f"  extent ({len(extent)}): {', '.join(extent)}\n"
            f"  intent ({len(intent)}): {', '.join(intent)}\n"
        )
        cue = ",".join(ctx.attributes[m] for m in pair)
        for fmt, want in (("table", table), ("json", json.dumps(payload, indent=2) + "\n")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.run(["query", corpus, "--attributes", cue, "--format", fmt]) == 0
            assert out.getvalue() == want


# Fuzzing: arbitrary text, biased toward the characters the CSV format uses.
_CSV_TEXT = st.text(st.one_of(st.sampled_from(list(",01 \t\r\n\ufeffgm")), st.characters()))


@given(_CSV_TEXT)
@settings(deadline=None)
def test_parse_context_returns_context_or_context_error(text):
    try:
        ctx = parse_context(text)
    except ContextError:
        return
    assert isinstance(ctx, FormalContext)


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "ctx.csv"
    path.write_text(",m0,m1,m2\ng0,1,0,1\ng1,1,1,0\ng2,0,1,1\n", encoding="utf-8")
    return str(path)


_COMMANDS = (
    "concepts", "lattice", "query", "similar", "siblings", "prototype", "corpus",
    "verify-cases", "validate",
)
_FLAGS = ("--format", "--attributes", "--object", "-k")
_OPTIONS = (
    ("--format", "json"), ("--format", "dot"), ("--attributes", "m0,m2"),
    ("--attributes", "Wrist,Rotate"), ("--object", "g1"), ("--object", "Ex1 Act1-"),
    ("-k", "2"), ("-k", "0"), ("--oracle",), ("--help",),
)


@st.composite
def cli_argvs(draw, csv_path):
    """A command, a context and up to three options, each known or arbitrary text."""
    command = draw(st.one_of(st.sampled_from(_COMMANDS), st.text()))
    source = draw(st.one_of(st.sampled_from(("ninapro-abc", "ninapro-grasp", csv_path)), st.text()))
    option = st.one_of(
        st.sampled_from(_OPTIONS),
        st.tuples(st.sampled_from(_FLAGS), st.text()),
        st.tuples(st.text()),
    )
    options = draw(st.lists(option, max_size=3))
    return [command, source, *(word for opt in options for word in opt)]


@given(st.data())
@settings(deadline=None)
def test_cli_run_returns_documented_exit_code(small_csv, data):
    argv = data.draw(cli_argvs(small_csv))
    # the exhaustive oracle on ninapro-abc closes 2^17 subsets: too slow per example
    assume(not {"--oracle", "ninapro-abc"} <= set(argv))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in {0, 1, 2, 3}
    out.getvalue().encode("utf-8")  # stdout is written as UTF-8
