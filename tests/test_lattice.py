import hashlib
import json
import random

import pytest

from fca_spaces import (
    BadId,
    ConceptLattice,
    FormalContext,
    MixedContext,
    attribute_concept,
    build_lattice,
    export_dot,
    export_json,
    ninapro_abc,
    ninapro_grasp,
    object_concept,
)
from fca_spaces.lattice import recompute_covers_pairwise
from conftest import make_context, random_context, rows_of
from reference import ref_hasse_edges, ref_levels


@pytest.fixture(scope="module")
def chain_lattice():
    # g1:{m1}, g2:{m1,m2} -> two comparable concepts
    ctx = FormalContext(("g1", "g2"), ("m1", "m2"), frozenset({(0, 0), (1, 0), (1, 1)}))
    return ctx, build_lattice(ctx)


@pytest.fixture(scope="module")
def identity3():
    ctx = make_context([frozenset({0}), frozenset({1}), frozenset({2})], 3)
    return ctx, build_lattice(ctx)


class TestBuild:
    def test_chain(self, chain_lattice):
        ctx, lat = chain_lattice
        assert len(lat) == 2
        assert lat.cover_edges() == [(1, 0)]
        top = lat.concepts[lat.top_id]
        assert ctx.object_names(top.extent) == ("g1", "g2")
        assert ctx.attribute_names(top.intent) == ("m1",)
        bottom = lat.concepts[lat.bottom_id]
        assert ctx.object_names(bottom.extent) == ("g2",)
        assert ctx.attribute_names(bottom.intent) == ("m1", "m2")

    def test_identity3(self, identity3):
        ctx, lat = identity3
        assert len(lat) == 5
        assert len(lat.cover_edges()) == 6
        assert lat.concepts[lat.top_id].intent == ()
        assert lat.concepts[lat.bottom_id].extent == ()

    def test_abc_top(self, abc_ctx, abc_lat):
        top = abc_lat.concepts[abc_lat.top_id]
        assert len(top.extent) == 19
        assert top.intent == ()

    def test_single_concept_lattice(self):
        ctx = FormalContext(("g",), ("m",), frozenset({(0, 0)}))
        lat = build_lattice(ctx)
        assert lat.top_id == lat.bottom_id == 0
        assert lat.cover_edges() == []
        assert lat.height() == 0


class TestOrder:
    def test_bottom_leq_top(self, abc_lat):
        assert abc_lat.leq(abc_lat.bottom_id, abc_lat.top_id)
        assert not abc_lat.leq(abc_lat.top_id, abc_lat.bottom_id)

    def test_reflexive(self, abc_lat):
        for i in range(len(abc_lat)):
            assert abc_lat.leq(i, i)

    def test_object_below_attribute_concept(self, abc_ctx, abc_lat):
        a = object_concept(abc_ctx, abc_ctx.object_index("Ex3 Act9"))
        b = attribute_concept(abc_ctx, abc_ctx.attribute_index("Wrist"))
        assert abc_lat.leq(a, b)

    def test_leq_matches_extent_containment(self, grasp_lat):
        for i in range(len(grasp_lat)):
            for j in range(len(grasp_lat)):
                want = grasp_lat.concepts[i].extent_set <= grasp_lat.concepts[j].extent_set
                assert grasp_lat.leq(i, j) == want

    def test_mixed_context_detected(self, abc_lat, grasp_ctx):
        foreign = object_concept(grasp_ctx, 0)
        with pytest.raises(MixedContext):
            abc_lat.leq(foreign, abc_lat.top_id)
        with pytest.raises(MixedContext):
            abc_lat.index_of(foreign)


class TestCovers:
    def test_top_has_no_upper(self, abc_lat):
        assert abc_lat.upper_covers(abc_lat.top_id) == ()

    def test_bottom_has_no_lower(self, abc_lat):
        assert abc_lat.lower_covers(abc_lat.bottom_id) == ()

    def test_only_top_and_bottom_are_extreme(self, abc_lat):
        tops = [i for i in range(len(abc_lat)) if not abc_lat.upper_covers(i)]
        bottoms = [i for i in range(len(abc_lat)) if not abc_lat.lower_covers(i)]
        assert tops == [abc_lat.top_id]
        assert bottoms == [abc_lat.bottom_id]

    def test_identity3_atoms(self, identity3):
        _, lat = identity3
        assert set(lat.lower_covers(lat.top_id)) == {1, 2, 3}
        assert set(lat.upper_covers(lat.bottom_id)) == {1, 2, 3}

    def test_adjacency_symmetry(self, grasp_lat):
        for a in range(len(grasp_lat)):
            for b in grasp_lat.upper_covers(a):
                assert a in grasp_lat.lower_covers(b)
            for b in grasp_lat.lower_covers(a):
                assert a in grasp_lat.upper_covers(b)

    def test_act1_cover_includes_flexion_extension(self, abc_ctx, abc_lat):
        cid = abc_lat.index_of(object_concept(abc_ctx, abc_ctx.object_index("Ex1 Act1-")))
        fe = {abc_ctx.attribute_index("Flexion"), abc_ctx.attribute_index("Extension")}
        cover_intents = [
            abc_lat.concepts[u].intent_set for u in abc_lat.upper_covers(cid)
        ]
        assert frozenset(fe) in cover_intents

    def test_covers_equal_reference_reduction(self, abc_lat, grasp_lat):
        for lat in (abc_lat, grasp_lat):
            extents = [c.extent_set for c in lat.concepts]
            assert set(lat.cover_edges()) == ref_hasse_edges(extents)

    def test_covers_equal_pairwise_recompute(self, abc_lat):
        assert abc_lat.cover_edges() == recompute_covers_pairwise(abc_lat)

    def test_random_contexts_against_reference(self):
        rng = random.Random(4242)
        for _ in range(30):
            ctx = random_context(rng, max_objects=6, max_attributes=6)
            lat = build_lattice(ctx)
            extents = [c.extent_set for c in lat.concepts]
            assert set(lat.cover_edges()) == ref_hasse_edges(extents)

    def test_bad_id(self, abc_lat):
        with pytest.raises(BadId):
            abc_lat.upper_covers(len(abc_lat))
        with pytest.raises(BadId):
            abc_lat.lower_covers(-1)
        with pytest.raises(BadId):
            abc_lat.level_of(10**6)


class TestLevels:
    def test_top_level_zero(self, abc_lat):
        assert abc_lat.level_of(abc_lat.top_id) == 0

    def test_identity3_levels(self, identity3):
        _, lat = identity3
        assert lat.level_of(lat.top_id) == 0
        assert [lat.level_of(i) for i in (1, 2, 3)] == [1, 1, 1]
        assert lat.level_of(lat.bottom_id) == 2

    def test_chain_levels(self, chain_lattice):
        _, lat = chain_lattice
        assert lat.level_of(lat.top_id) == 0
        assert lat.level_of(lat.bottom_id) == 1

    def test_cover_edges_increase_level(self, abc_lat):
        for low, up in abc_lat.cover_edges():
            assert abc_lat.level_of(low) >= abc_lat.level_of(up) + 1

    def test_levels_equal_reference(self, abc_lat, grasp_lat):
        for lat in (abc_lat, grasp_lat):
            want = ref_levels(len(lat), set(lat.cover_edges()))
            assert {i: lat.level_of(i) for i in range(len(lat))} == want


class TestLatticeLaws:
    def test_meet_join_small(self):
        rng = random.Random(11)
        for _ in range(15):
            ctx = random_context(rng, max_objects=6, max_attributes=6)
            lat = build_lattice(ctx)
            extents = {c.extent_set for c in lat.concepts}
            intents = {c.intent_set for c in lat.concepts}
            for a in lat.concepts:
                for b in lat.concepts:
                    # extents are closed under intersection (meet),
                    # intents under intersection (join)
                    assert a.extent_set & b.extent_set in extents
                    assert a.intent_set & b.intent_set in intents

    def test_row_permutation_isomorphic(self):
        base = ninapro_grasp()
        lat = build_lattice(base)
        rng = random.Random(5)
        perm = list(range(len(base.objects)))
        rng.shuffle(perm)
        rows = rows_of(base)
        permuted = FormalContext(
            tuple(base.objects[g] for g in perm),
            base.attributes,
            frozenset((i, m) for i, g in enumerate(perm) for m in rows[g]),
        )
        plat = build_lattice(permuted)
        assert len(plat) == len(lat)
        assert len(plat.cover_edges()) == len(lat.cover_edges())


class TestExportJson:
    def test_single_concept(self):
        ctx = FormalContext(("g1",), ("m1",), frozenset({(0, 0)}))
        lat = build_lattice(ctx)
        data = json.loads(export_json(lat, ctx))
        assert data["top"] == 0 and data["bottom"] == 0
        assert data["concepts"] == [
            {"id": 0, "extent": ["g1"], "intent": ["m1"], "level": 0}
        ]
        assert data["covers"] == []

    def test_schema(self, grasp_ctx, grasp_lat):
        data = json.loads(export_json(grasp_lat, grasp_ctx))
        assert list(data) == ["objects", "attributes", "concepts", "covers", "top", "bottom"]
        assert data["objects"] == list(grasp_ctx.objects)
        assert data["attributes"] == list(grasp_ctx.attributes)
        assert len(data["concepts"]) == len(grasp_lat)
        assert [c["id"] for c in data["concepts"]] == list(range(len(grasp_lat)))
        assert len(data["covers"]) == len(grasp_lat.cover_edges())
        assert data["covers"] == sorted(data["covers"])

    def test_names_in_context_order(self, abc_ctx, abc_lat):
        data = json.loads(export_json(abc_lat, abc_ctx))
        pos_obj = {n: i for i, n in enumerate(abc_ctx.objects)}
        pos_attr = {n: i for i, n in enumerate(abc_ctx.attributes)}
        for c in data["concepts"]:
            assert c["extent"] == sorted(c["extent"], key=pos_obj.get)
            assert c["intent"] == sorted(c["intent"], key=pos_attr.get)

    def test_round_trip_isomorphic(self, grasp_ctx, grasp_lat):
        data = json.loads(export_json(grasp_lat, grasp_ctx))
        got = {
            (tuple(c["extent"]), tuple(c["intent"]), c["level"]) for c in data["concepts"]
        }
        want = {
            (
                tuple(grasp_ctx.object_names(c.extent)),
                tuple(grasp_ctx.attribute_names(c.intent)),
                grasp_lat.level_of(i),
            )
            for i, c in enumerate(grasp_lat.concepts)
        }
        assert got == want
        assert {tuple(e) for e in data["covers"]} == set(grasp_lat.cover_edges())

    def test_byte_stable(self, grasp_ctx):
        a = export_json(build_lattice(ninapro_grasp()), ninapro_grasp())
        b = export_json(build_lattice(grasp_ctx), grasp_ctx)
        assert a == b

    def test_wrong_context_rejected(self, abc_lat, grasp_ctx):
        with pytest.raises(MixedContext):
            export_json(abc_lat, grasp_ctx)


class TestExportDot:
    def test_single_node_labels(self):
        ctx = FormalContext(("g1",), ("m1",), frozenset({(0, 0)}))
        lat = build_lattice(ctx)
        dot = export_dot(lat, ctx)
        (node_line,) = [l for l in dot.splitlines() if "label=<" in l]
        assert "g1" in node_line and "m1" in node_line
        assert "->" not in dot

    def test_reduced_labeling_point(self, abc_ctx, abc_lat):
        # the attribute Point and the object Ex2 Act7 label the same node
        dot = export_dot(abc_lat, abc_ctx)
        (line,) = [l for l in dot.splitlines() if ">Point<" in l]
        assert ">Ex2 Act7<" in line

    def test_every_name_once(self, abc_ctx, abc_lat):
        # reduced labeling: names sit between '>' and '<' in label cells
        dot = export_dot(abc_lat, abc_ctx)
        joined = "\n".join(l for l in dot.splitlines() if "label=<" in l)
        for name in abc_ctx.attributes:
            assert joined.count(f">{name}<") == 1, name
        for name in abc_ctx.objects:
            assert joined.count(f">{name}<") == 1, name

    def test_edge_count(self, grasp_ctx, grasp_lat):
        dot = export_dot(grasp_lat, grasp_ctx)
        edge_lines = [l for l in dot.splitlines() if "->" in l]
        assert len(edge_lines) == len(grasp_lat.cover_edges())

    def test_digraph_bottom_to_top(self, grasp_ctx, grasp_lat):
        dot = export_dot(grasp_lat, grasp_ctx)
        assert dot.startswith("digraph")
        assert "rankdir=BT" in dot

    @pytest.mark.parametrize("concept_of", [attribute_concept, object_concept])
    def test_lattice_missing_a_labelled_concept_rejected(self, abc_ctx, abc_lat, concept_of):
        # a hand-built lattice without one attribute (or object) concept
        gone = concept_of(abc_ctx, 0)
        kept = [c for c in abc_lat.concepts if c != gone]
        n = len(kept)
        lat = ConceptLattice(abc_ctx, kept, [()] * n, [()] * n, [0] * n, 0, n - 1)
        with pytest.raises(MixedContext):
            export_dot(lat, abc_ctx)


# SHA-256 of the exports of the bundled tables, recorded from the
# json.dumps-based exporter; any byte change in either format fails here.
GOLDEN_EXPORT_SHA256 = {
    ("ninapro-abc", "json"): "347d4aca2dc2d6be61f73900fd7e907ff9f007f4a22159be9d25d69a648e8c07",
    ("ninapro-abc", "dot"): "88bb419d0cc423d01567ebc267ec3d0bd68ac7fb9305cd46748365380cf5b243",
    ("ninapro-grasp", "json"): "e9dcde4b2a48cc6d7069470901653e9cc33efdeffaae87f617d2d4bbbe2be5f9",
    ("ninapro-grasp", "dot"): "17691762a092b9d4ef65d960fdcae5c56e25c6c1293aae8c71b45268919bb4f5",
}


@pytest.mark.parametrize("corpus, fmt", sorted(GOLDEN_EXPORT_SHA256))
def test_golden_export_bytes(corpus, fmt):
    ctx = {"ninapro-abc": ninapro_abc, "ninapro-grasp": ninapro_grasp}[corpus]()
    exporter = {"json": export_json, "dot": export_dot}[fmt]
    text = exporter(build_lattice(ctx), ctx)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_EXPORT_SHA256[corpus, fmt]
