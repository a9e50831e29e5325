"""The package surface: value classes, lazily resolved names, the modules a
command imports, and typed errors for arguments of the wrong type."""

import subprocess
import sys
from fractions import Fraction

import pytest

import fca_spaces
from fca_spaces import (
    AttributeMeta,
    BadArgument,
    CaseReport,
    FormalConcept,
    FormalContext,
    MixedContext,
    SimilarityResult,
    build_lattice,
    derive_intent,
    nearest_concept,
    parse_context,
)


def small_context(meta=None):
    return FormalContext(("g1", "g2"), ("a", "b"), frozenset({(0, 0), (1, 0), (1, 1)}), meta)


class TestValueClasses:
    def test_reprs(self):
        ctx = small_context({0: AttributeMeta("Wrist")})
        assert repr(ctx) == (
            f"FormalContext(objects=('g1', 'g2'), attributes=('a', 'b'), "
            f"incidence={ctx.incidence!r}, attribute_meta={{0: AttributeMeta(domain_tag='Wrist')}})"
        )
        assert repr(FormalConcept(0b11, 0b1)) == "FormalConcept(extent=(0, 1), intent=(0,))"
        assert repr(SimilarityResult(1, 2, Fraction(1, 2))) == (
            "SimilarityResult(concept_id=1, lattice_distance=2, intent_jaccard=Fraction(1, 2))"
        )
        assert repr(CaseReport(1, "c", "holds", {"x": 1})) == (
            "CaseReport(case_id=1, claim='c', computed_relation='holds', evidence={'x': 1})"
        )

    def test_keyword_construction(self):
        ctx = FormalContext(
            objects=("g1",), attributes=("a",), incidence=frozenset({(0, 0)}),
            attribute_meta={0: AttributeMeta(domain_tag="Grasp")},
        )
        assert ctx.domain_tag(0) == "Grasp"
        assert FormalConcept(extent_mask=1, intent_mask=1).extent == (0,)
        result = SimilarityResult(concept_id=3, lattice_distance=1, intent_jaccard=Fraction(1))
        assert result.concept_id == 3
        report = CaseReport(case_id=2, claim="c", computed_relation="fails", evidence={})
        assert report.computed_relation == "fails"

    def test_equality_and_hash_skip_meta_and_evidence(self):
        plain, tagged = small_context(), small_context({1: AttributeMeta("Forces")})
        assert plain == tagged and hash(plain) == hash(tagged)
        assert plain != FormalContext(("g1", "g2"), ("a", "b"), frozenset({(0, 0)}))
        a, b = CaseReport(1, "c", "holds", {"x": 1}), CaseReport(1, "c", "holds", {"y": 2})
        assert a == b and hash(a) == hash(b)
        assert a != CaseReport(1, "c", "fails", {"x": 1})
        assert AttributeMeta("Wrist") == AttributeMeta("Wrist") != AttributeMeta("Grasp")
        assert hash(AttributeMeta("Wrist")) == hash(AttributeMeta("Wrist"))
        assert SimilarityResult(1, 2, Fraction(1, 2)) == SimilarityResult(1, 2, Fraction(1, 2))
        assert SimilarityResult(1, 2, Fraction(1, 2)) != SimilarityResult(1, 3, Fraction(1, 2))

    def test_concept_equality_uses_masks(self):
        c = FormalConcept(0b101, 0b10)
        assert c == FormalConcept(0b101, 0b10) and hash(c) == hash(FormalConcept(0b101, 0b10))
        assert c != FormalConcept(0b101, 0b11) and c != FormalConcept(0b100, 0b10)
        assert c.__eq__(((0, 2), (1,))) is NotImplemented

    def test_other_types_are_not_equal(self):
        for value in (small_context(), AttributeMeta("Wrist"), SimilarityResult(1, 1, Fraction(1)),
                      CaseReport(1, "c", "holds", {})):
            assert value.__eq__(object()) is NotImplemented
            assert value != object()

    @pytest.mark.parametrize("value, field", [
        (small_context(), "objects"),
        (AttributeMeta("Wrist"), "domain_tag"),
        (FormalConcept(1, 1), "extent_mask"),
        (SimilarityResult(1, 1, Fraction(1)), "concept_id"),
        (CaseReport(1, "c", "holds", {}), "evidence"),
    ])
    def test_immutable(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.new_field = 1


class TestPackageNames:
    def test_every_public_name_resolves(self):
        for name in fca_spaces.__all__:
            assert getattr(fca_spaces, name) is not None
        namespace = {}
        exec("from fca_spaces import *", namespace)
        assert set(fca_spaces.__all__) <= set(namespace)
        assert set(fca_spaces.__all__) <= set(dir(fca_spaces))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            fca_spaces.no_such_name


def _modules_after(code):
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; sys.stderr.write('\\n'.join(sys.modules))"],
        capture_output=True, text=True, check=True,
    )
    return set(proc.stderr.split("\n"))


def test_corpus_command_imports_no_query_code():
    # Compared with a bare interpreter, so modules the host's site preloads do not count.
    bare = _modules_after("pass")
    loaded = _modules_after("from fca_spaces import cli\ncli.run(['corpus', 'ninapro-abc'])")
    heavy = {"fca_spaces.lattice", "fca_spaces.enumeration", "fca_spaces.similarity",
             "dataclasses", "inspect", "fractions", "json"}
    assert "fca_spaces.corpus" in loaded
    assert (loaded - bare) & heavy == set()


class TestWrongTypedArguments:
    @pytest.mark.parametrize("text, type_name", [(None, "NoneType"), (b",a\ng,1\n", "bytes")])
    def test_parse_context(self, text, type_name):
        with pytest.raises(BadArgument, match=type_name):
            parse_context(text)

    def test_derive_intent(self):
        with pytest.raises(BadArgument, match="NoneType"):
            derive_intent(small_context(), None)

    def test_nearest_concept(self):
        ctx = small_context()
        with pytest.raises(BadArgument, match="NoneType"):
            nearest_concept(ctx, build_lattice(ctx), None)

    def test_object_names(self):
        with pytest.raises(BadArgument, match="NoneType"):
            small_context().object_names(None)

    def test_index_of(self):
        with pytest.raises(MixedContext):
            build_lattice(small_context()).index_of(None)
