import random

import pytest

from fca_spaces import (
    BadArgument,
    BadIndex,
    FcaError,
    FormalConcept,
    FormalContext,
    attribute_concept,
    brute_force_concepts,
    corpus_context,
    enumerate_concepts,
    object_concept,
)
from fca_spaces import enumeration
from conftest import make_context, random_context, rows_of
from reference import ref_sorted_concepts

# Frozen via the exhaustive reference oracle over all attribute subsets.
ABC_CONCEPT_COUNT = 51
GRASP_CONCEPT_COUNT = 25


def as_pairs(concepts):
    return [(c.extent, c.intent) for c in concepts]


class TestSmallContexts:
    def test_one_by_one_full(self):
        ctx = FormalContext(("g",), ("m",), frozenset({(0, 0)}))
        assert as_pairs(enumerate_concepts(ctx)) == [((0,), (0,))]

    def test_one_by_one_empty(self):
        ctx = FormalContext(("g",), ("m",), frozenset())
        assert as_pairs(enumerate_concepts(ctx)) == [((0,), ()), ((), (0,))]

    def test_empty_context(self):
        ctx = FormalContext((), (), frozenset())
        assert as_pairs(enumerate_concepts(ctx)) == [((), ())]

    def test_no_objects(self):
        ctx = FormalContext((), ("m1", "m2"), frozenset())
        assert as_pairs(enumerate_concepts(ctx)) == [((), (0, 1))]

    def test_all_ones(self):
        ctx = make_context([frozenset({0, 1}), frozenset({0, 1})], 2)
        assert as_pairs(enumerate_concepts(ctx)) == [((0, 1), (0, 1))]


class TestCorpus:
    def test_concept_counts(self, abc_ctx, grasp_ctx):
        assert len(enumerate_concepts(abc_ctx)) == ABC_CONCEPT_COUNT
        assert len(enumerate_concepts(grasp_ctx)) == GRASP_CONCEPT_COUNT

    def test_matches_reference_oracle(self, grasp_ctx):
        got = as_pairs(enumerate_concepts(grasp_ctx))
        assert got == ref_sorted_concepts(rows_of(grasp_ctx), len(grasp_ctx.attributes))

    def test_matches_brute_force(self, abc_ctx, grasp_ctx):
        assert enumerate_concepts(abc_ctx) == brute_force_concepts(abc_ctx)
        assert enumerate_concepts(grasp_ctx) == brute_force_concepts(grasp_ctx)

    def test_ordering_contract(self, abc_ctx):
        concepts = enumerate_concepts(abc_ctx)
        keys = [(-len(c.extent), c.intent) for c in concepts]
        assert keys == sorted(keys)
        assert len(set(concepts)) == len(concepts)


class TestObjectAttributeConcepts:
    def test_object_concept_point_row(self, abc_ctx):
        c = object_concept(abc_ctx, abc_ctx.object_index("Ex2 Act7"))
        assert abc_ctx.object_names(c.extent) == ("Ex2 Act7",)
        assert abc_ctx.attribute_names(c.intent) == ("Index Finger", "Point")

    def test_object_concept_duplicate_grasp_rows(self, grasp_ctx):
        # the five identical precision-pad rows share this concept; r9 also
        # lands in the extent because its row is a strict superset
        c = object_concept(grasp_ctx, grasp_ctx.object_index("Ex4 Act r6"))
        assert grasp_ctx.object_names(c.extent) == (
            "Ex4 Act r6", "Ex4 Act r9", "Ex4 Act r10", "Ex4 Act r11",
            "Ex4 Act r12", "Ex4 Act r16",
        )
        assert grasp_ctx.attribute_names(c.intent) == (
            "Precision", "Pad", "VF1", "VF2", "Abduction",
        )
        same = {
            object_concept(grasp_ctx, grasp_ctx.object_index(f"Ex4 Act r{k}"))
            for k in (6, 10, 11, 12, 16)
        }
        assert same == {c}

    def test_object_in_own_extent(self, abc_ctx):
        for g in range(len(abc_ctx.objects)):
            assert g in object_concept(abc_ctx, g).extent

    def test_attribute_concept_vf1(self, grasp_ctx):
        c = attribute_concept(grasp_ctx, grasp_ctx.attribute_index("VF1"))
        assert len(c.extent) == 18
        assert grasp_ctx.attribute_names(c.intent) == ("VF1", "VF2")

    def test_attribute_concept_point(self, abc_ctx):
        c = attribute_concept(abc_ctx, abc_ctx.attribute_index("Point"))
        assert abc_ctx.object_names(c.extent) == ("Ex2 Act7",)
        assert abc_ctx.attribute_names(c.intent) == ("Index Finger", "Point")

    def test_attribute_in_own_intent(self, abc_ctx):
        for m in range(len(abc_ctx.attributes)):
            assert m in attribute_concept(abc_ctx, m).intent

    def test_all_present_in_enumeration(self, abc_ctx):
        concepts = set(enumerate_concepts(abc_ctx))
        for g in range(len(abc_ctx.objects)):
            assert object_concept(abc_ctx, g) in concepts
        for m in range(len(abc_ctx.attributes)):
            assert attribute_concept(abc_ctx, m) in concepts

    def test_duplicate_rows_same_concept(self, grasp_ctx):
        ids = {
            object_concept(grasp_ctx, grasp_ctx.object_index(f"Ex4 Act r{k}"))
            for k in (6, 10, 11, 12, 16)
        }
        assert len(ids) == 1

    def test_bad_index(self, abc_ctx):
        with pytest.raises(BadIndex):
            object_concept(abc_ctx, 19)
        with pytest.raises(BadIndex):
            attribute_concept(abc_ctx, -1)
        for index in (0.0, "0"):
            with pytest.raises(BadIndex):
                object_concept(abc_ctx, index)
            with pytest.raises(BadIndex):
                attribute_concept(abc_ctx, index)


class TestOracleEquivalence:
    def test_random_contexts(self):
        rng = random.Random(20240817)
        for _ in range(60):
            ctx = random_context(rng, max_objects=7, max_attributes=7)
            got = as_pairs(enumerate_concepts(ctx))
            assert got == ref_sorted_concepts(rows_of(ctx), len(ctx.attributes))

    def test_permutation_invariance(self):
        rng = random.Random(99)
        base_rows = [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}), frozenset({2})]
        base = make_context(base_rows, 3)
        n = len(enumerate_concepts(base))
        for _ in range(10):
            perm_obj = list(range(4))
            perm_attr = list(range(3))
            rng.shuffle(perm_obj)
            rng.shuffle(perm_attr)
            rows = [frozenset(perm_attr[m] for m in base_rows[g]) for g in perm_obj]
            assert len(enumerate_concepts(make_context(rows, 3))) == n


class TestBruteForce:
    def test_refuses_large_contexts(self):
        ctx = make_context([], 23)
        with pytest.raises(ValueError):
            brute_force_concepts(ctx)
        with pytest.raises(FcaError):
            brute_force_concepts(ctx)
        with pytest.raises(BadArgument):
            brute_force_concepts(ctx)

    def test_small_agreement(self):
        rng = random.Random(7)
        for _ in range(20):
            ctx = random_context(rng, max_objects=6, max_attributes=6)
            assert brute_force_concepts(ctx) == enumerate_concepts(ctx)


def contranominal(n):
    return make_context([frozenset(m for m in range(n) if m != g) for g in range(n)], n)


def test_large_concept_count_no_recursion_limit():
    # Contranominal scale: every subset of objects is an extent, so the
    # concept count is 2^n; enumeration must not push a stack that deep.
    n = 11
    assert len(enumerate_concepts(contranominal(n))) == 2**n


@pytest.mark.parametrize("ctx, closures", [
    (corpus_context("ninapro-abc"), 109),
    (corpus_context("ninapro-grasp"), 44),
    (contranominal(8), 2**8),
], ids=["ninapro-abc", "ninapro-grasp", "contranominal-8"])
def test_closure_count(monkeypatch, ctx, closures):
    # Each closure FCbO computes is one _intent_mask call, the top's
    # included; NextClosure made 413 and 65 on the two corpus tables.  A
    # contranominal context has 2^n concepts and FCbO refuses none of its
    # closures, so it makes exactly 2^n.
    calls = 0
    intent_mask = enumeration._intent_mask

    def counted(ctx, object_mask):
        nonlocal calls
        calls += 1
        return intent_mask(ctx, object_mask)

    monkeypatch.setattr(enumeration, "_intent_mask", counted)
    enumerate_concepts(ctx)
    assert calls == closures


def test_concepts_are_sorted_tuples():
    ctx = make_context([frozenset({2, 0}), frozenset({1, 2})], 3)
    for c in enumerate_concepts(ctx):
        assert list(c.extent) == sorted(c.extent)
        assert list(c.intent) == sorted(c.intent)
        assert isinstance(c, FormalConcept)
        assert c.extent_mask == sum(1 << g for g in c.extent)
        assert c.intent_mask == sum(1 << m for m in c.intent)


def test_repr_of_wide_concept():
    # a 15,000-bit mask has more decimal digits than int-to-str allows,
    # so repr (and every error message quoting a concept) shows tuples only
    n = 15000
    ctx = FormalContext(tuple(f"g{g}" for g in range(n)), ("m",), frozenset((g, 0) for g in range(n)))
    assert repr(attribute_concept(ctx, 0)).startswith("FormalConcept(extent=(0, 1, 2, ")


def test_constructor_takes_masks_not_index_tuples():
    c = FormalConcept(0b101, 0b10)
    assert (c.extent, c.intent) == ((0, 2), (1,))
    assert c == FormalConcept(0b101, 0b10) and hash(c) == hash(FormalConcept(0b101, 0b10))
    with pytest.raises(TypeError):
        FormalConcept((0, 2), (1,))
