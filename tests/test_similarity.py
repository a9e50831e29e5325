import random
from fractions import Fraction

import pytest

from fca_spaces import (
    BadId,
    BadIndex,
    EmptyCategory,
    FcaError,
    FormalContext,
    MixedContext,
    build_lattice,
    derive_intent,
    generalize,
    intent_jaccard,
    lattice_distance,
    nearest_concept,
    object_concept,
    prototype,
    siblings,
    similar_concepts,
    specialize,
)
from fca_spaces.errors import BadArgument
from conftest import make_context, random_context


@pytest.fixture(scope="module")
def identity3():
    ctx = make_context([frozenset({0}), frozenset({1}), frozenset({2})], 3)
    return ctx, build_lattice(ctx)


def oc_id(ctx, lat, name):
    return lat.index_of(object_concept(ctx, ctx.object_index(name)))


def fe_concept_id(abc_ctx, abc_lat):
    fe = frozenset({abc_ctx.attribute_index("Flexion"), abc_ctx.attribute_index("Extension")})
    (cid,) = [i for i, c in enumerate(abc_lat.concepts) if c.intent_set == fe]
    return cid


class TestGeneralizeSpecialize:
    def test_generalize_top_empty(self, abc_lat):
        assert generalize(abc_lat, abc_lat.top_id, 3) == frozenset()

    def test_generalize_one_step(self, abc_ctx, abc_lat):
        got = generalize(abc_lat, oc_id(abc_ctx, abc_lat, "Ex1 Act1-"), 1)
        assert fe_concept_id(abc_ctx, abc_lat) in got
        assert got == frozenset(abc_lat.upper_covers(oc_id(abc_ctx, abc_lat, "Ex1 Act1-")))

    def test_generalize_bottom_full_height(self, abc_lat):
        got = generalize(abc_lat, abc_lat.bottom_id, abc_lat.height())
        assert got == frozenset(range(len(abc_lat))) - {abc_lat.bottom_id}

    def test_specialize_bottom_empty(self, abc_lat):
        assert specialize(abc_lat, abc_lat.bottom_id, 5) == frozenset()

    def test_specialize_flexion_extension(self, abc_ctx, abc_lat):
        got = specialize(abc_lat, fe_concept_id(abc_ctx, abc_lat), 1)
        want = {
            oc_id(abc_ctx, abc_lat, name)
            for name in ("Ex1 Act1-", "Ex1 Act3-", "Ex1 Act5-", "Ex1 Act7-", "Ex1 Act11-", "Ex3 Act5-")
        }
        assert got == frozenset(want)

    def test_duality_exhaustive(self, grasp_lat):
        for steps in (1, 2, 3):
            gen = {a: generalize(grasp_lat, a, steps) for a in range(len(grasp_lat))}
            spec = {a: specialize(grasp_lat, a, steps) for a in range(len(grasp_lat))}
            for a in range(len(grasp_lat)):
                for b in range(len(grasp_lat)):
                    assert (b in gen[a]) == (a in spec[b])

    def test_steps_must_be_positive(self, abc_lat):
        with pytest.raises(ValueError):
            generalize(abc_lat, 0, 0)
        with pytest.raises(ValueError):
            specialize(abc_lat, 0, -1)
        with pytest.raises(BadArgument):
            generalize(abc_lat, 0, 0)
        with pytest.raises(FcaError):
            specialize(abc_lat, 0, -1)
        with pytest.raises(BadArgument):
            generalize(abc_lat, 5, 1.5)

    @pytest.mark.parametrize("steps", [True, False])
    def test_bool_steps_rejected(self, abc_lat, steps):
        # bool is an int subclass, but True is no step count
        with pytest.raises(BadArgument, match="steps"):
            generalize(abc_lat, abc_lat.bottom_id, steps)
        with pytest.raises(BadArgument, match="steps"):
            specialize(abc_lat, abc_lat.top_id, steps)

    def test_bad_id(self, abc_lat):
        with pytest.raises(BadId):
            generalize(abc_lat, len(abc_lat), 1)


class TestSiblings:
    def test_top_has_none(self, abc_lat):
        assert siblings(abc_lat, abc_lat.top_id) == frozenset()

    def test_finger_siblings(self, abc_ctx, abc_lat):
        got = siblings(abc_lat, oc_id(abc_ctx, abc_lat, "Ex1 Act1-"))
        for name in ("Ex1 Act3-", "Ex1 Act5-", "Ex1 Act7-", "Ex1 Act11-"):
            assert oc_id(abc_ctx, abc_lat, name) in got

    def test_identity3_atoms_mutual(self, identity3):
        _, lat = identity3
        atoms = [i for i in range(len(lat)) if lat.level_of(i) == 1]
        for a in atoms:
            assert siblings(lat, a) == frozenset(atoms) - {a}

    def test_excludes_self(self, grasp_lat):
        for i in range(len(grasp_lat)):
            assert i not in siblings(grasp_lat, i)


class TestDistance:
    def test_identity_zero(self, abc_lat):
        for i in range(len(abc_lat)):
            assert lattice_distance(abc_lat, i, i) == 0

    def test_atoms_distance_two(self, identity3):
        _, lat = identity3
        atoms = [i for i in range(len(lat)) if lat.level_of(i) == 1]
        for a in atoms:
            for b in atoms:
                if a != b:
                    assert lattice_distance(lat, a, b) == 2

    def test_distance_one_iff_cover(self, grasp_lat):
        covers = set(grasp_lat.cover_edges())
        for a in range(len(grasp_lat)):
            for b in range(len(grasp_lat)):
                if a != b:
                    adjacent = (a, b) in covers or (b, a) in covers
                    assert (lattice_distance(grasp_lat, a, b) == 1) == adjacent

    def test_symmetry(self, grasp_lat):
        for a in range(0, len(grasp_lat), 3):
            for b in range(0, len(grasp_lat), 2):
                assert lattice_distance(grasp_lat, a, b) == lattice_distance(grasp_lat, b, a)


class TestSimilarConcepts:
    def test_unique_neighbour(self):
        ctx = FormalContext(("g1", "g2"), ("m1", "m2"), frozenset({(0, 0), (1, 0), (1, 1)}))
        lat = build_lattice(ctx)
        (result,) = similar_concepts(lat, lat.top_id, 1)
        assert result.concept_id == lat.bottom_id
        assert result.lattice_distance == 1

    def test_finger_siblings_rank(self, abc_ctx, abc_lat):
        cid = oc_id(abc_ctx, abc_lat, "Ex1 Act1-")
        results = similar_concepts(abc_lat, cid, 8)
        by_id = {r.concept_id: r for r in results}
        for name in ("Ex1 Act3-", "Ex1 Act5-", "Ex1 Act7-", "Ex1 Act11-"):
            r = by_id[oc_id(abc_ctx, abc_lat, name)]
            assert r.lattice_distance == 2
            assert r.intent_jaccard == Fraction(1, 2)

    def test_ranking_order(self, abc_lat):
        results = similar_concepts(abc_lat, 5, len(abc_lat))
        keys = [(r.lattice_distance, -r.intent_jaccard, r.concept_id) for r in results]
        assert keys == sorted(keys)

    def test_excludes_self_and_respects_k(self, grasp_lat):
        results = similar_concepts(grasp_lat, 3, 4)
        assert len(results) == 4
        assert all(r.concept_id != 3 for r in results)

    def test_returns_all_when_k_large(self, grasp_lat):
        results = similar_concepts(grasp_lat, 0, 10_000)
        assert len(results) == len(grasp_lat) - 1
        assert len({r.concept_id for r in results}) == len(results)

    def test_duplicate_rows_one_concept(self, grasp_ctx, grasp_lat):
        dup_ids = {
            oc_id(grasp_ctx, grasp_lat, f"Ex4 Act r{k}") for k in (6, 10, 11, 12, 16)
        }
        assert len(dup_ids) == 1
        results = similar_concepts(grasp_lat, grasp_lat.top_id, len(grasp_lat))
        assert sum(1 for r in results if r.concept_id in dup_ids) == 1

    def test_k_must_be_positive(self, grasp_lat):
        with pytest.raises(ValueError):
            similar_concepts(grasp_lat, 0, 0)
        with pytest.raises(BadArgument):
            similar_concepts(grasp_lat, 0, -3)
        with pytest.raises(FcaError):
            similar_concepts(grasp_lat, 0, 0)
        with pytest.raises(BadArgument):
            similar_concepts(grasp_lat, 0, 2.5)

    @pytest.mark.parametrize("k", [True, False])
    def test_bool_k_rejected(self, grasp_lat, k):
        with pytest.raises(BadArgument, match="k must"):
            similar_concepts(grasp_lat, 0, k)

    def test_jaccard_empty_sets(self):
        assert intent_jaccard(frozenset(), frozenset()) == Fraction(1)
        assert intent_jaccard(frozenset({1}), frozenset()) == Fraction(0)


class TestNearestConcept:
    def test_empty_is_top(self, abc_ctx, abc_lat):
        assert nearest_concept(abc_ctx, abc_lat, frozenset()) == abc_lat.top_id

    def test_wrist_rotate(self, abc_ctx, abc_lat):
        attrs = {abc_ctx.attribute_index("Wrist"), abc_ctx.attribute_index("Rotate")}
        cid = nearest_concept(abc_ctx, abc_lat, attrs)
        assert abc_ctx.object_names(abc_lat.concepts[cid].extent) == ("Ex3 Act1-", "Ex3 Act3-")

    def test_unmatched_cue_is_bottom(self, abc_ctx, abc_lat):
        attrs = {abc_ctx.attribute_index("Point"), abc_ctx.attribute_index("Wrist")}
        assert nearest_concept(abc_ctx, abc_lat, attrs) == abc_lat.bottom_id

    def test_object_intent_maps_to_object_concept(self, abc_ctx, abc_lat):
        for g in range(len(abc_ctx.objects)):
            cid = nearest_concept(abc_ctx, abc_lat, derive_intent(abc_ctx, {g}))
            assert abc_lat.concepts[cid] == object_concept(abc_ctx, g)

    def test_least_intent_among_matches(self, grasp_ctx, grasp_lat):
        # every concept whose intent contains the cue lies below the result
        rng = random.Random(31)
        n_attr = len(grasp_ctx.attributes)
        for _ in range(50):
            attrs = frozenset(rng.sample(range(n_attr), rng.randint(0, 4)))
            cid = nearest_concept(grasp_ctx, grasp_lat, attrs)
            assert attrs <= grasp_lat.concepts[cid].intent_set
            for i, c in enumerate(grasp_lat.concepts):
                if attrs <= c.intent_set:
                    assert grasp_lat.leq(i, cid)

    @pytest.mark.parametrize("index", [0.0, "0"])
    def test_non_int_index(self, abc_ctx, abc_lat, index):
        with pytest.raises(BadIndex):
            nearest_concept(abc_ctx, abc_lat, {index})

    def test_mixed_lattice_rejected(self, abc_ctx, grasp_lat):
        with pytest.raises(MixedContext):
            nearest_concept(abc_ctx, grasp_lat, frozenset())


class TestPrototype:
    def test_own_intent_selects_object(self, abc_ctx):
        for name in ("Ex2 Act7", "Ex3 Act9"):
            g = abc_ctx.object_index(name)
            assert prototype(abc_ctx, derive_intent(abc_ctx, {g})) == g

    def test_power_palm(self, grasp_ctx):
        attrs = {grasp_ctx.attribute_index("Power"), grasp_ctx.attribute_index("Palm")}
        assert grasp_ctx.objects[prototype(grasp_ctx, attrs)] == "Ex4 Act r1"

    def test_flexion_extension_tie(self, abc_ctx):
        attrs = {abc_ctx.attribute_index("Flexion"), abc_ctx.attribute_index("Extension")}
        assert abc_ctx.objects[prototype(abc_ctx, attrs)] == "Ex1 Act1-"

    def test_empty_category(self, abc_ctx):
        attrs = {abc_ctx.attribute_index("Point"), abc_ctx.attribute_index("Wrist")}
        with pytest.raises(EmptyCategory):
            prototype(abc_ctx, attrs)

    @pytest.mark.parametrize("index", [0.0, "0"])
    def test_non_int_index(self, abc_ctx, index):
        with pytest.raises(BadIndex):
            prototype(abc_ctx, {index})

    def test_column_permutation_invariant(self, grasp_ctx):
        rng = random.Random(13)
        category_names = ("Power", "Palm")
        base_winner = grasp_ctx.objects[
            prototype(grasp_ctx, {grasp_ctx.attribute_index(n) for n in category_names})
        ]
        rows = [set() for _ in grasp_ctx.objects]
        for g, m in grasp_ctx.incidence:
            rows[g].add(m)
        for _ in range(5):
            perm = list(range(len(grasp_ctx.attributes)))
            rng.shuffle(perm)
            ctx = FormalContext(
                grasp_ctx.objects,
                tuple(grasp_ctx.attributes[m] for m in perm),
                frozenset((g, perm.index(m)) for g in range(len(rows)) for m in rows[g]),
            )
            winner = ctx.objects[
                prototype(ctx, {ctx.attribute_index(n) for n in category_names})
            ]
            assert winner == base_winner


def test_metric_axioms_random_lattices():
    rng = random.Random(777)
    for _ in range(12):
        ctx = random_context(rng, max_objects=6, max_attributes=6)
        lat = build_lattice(ctx)
        n = len(lat)
        if n > 64:
            continue
        dist = {
            (a, b): lattice_distance(lat, a, b) for a in range(n) for b in range(n)
        }
        for a in range(n):
            assert dist[a, a] == 0
            for b in range(n):
                assert dist[a, b] == dist[b, a]
                assert (dist[a, b] == 0) == (a == b)
                for c in range(0, n, 2):
                    assert dist[a, b] <= dist[a, c] + dist[c, b]
