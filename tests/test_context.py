import re

import pytest

from fca_spaces import (
    AttributeMeta,
    BadIndex,
    ContextError,
    DuplicateName,
    FormalContext,
    InvalidName,
    MalformedCell,
    RaggedRow,
    closure_attributes,
    derive_extent,
    derive_intent,
    parse_context,
    serialize_context,
)


def names_to_attrs(ctx, *names):
    return {ctx.attribute_index(n) for n in names}


def names_to_objs(ctx, *names):
    return {ctx.object_index(n) for n in names}


class TestParse:
    def test_minimal(self):
        ctx = parse_context(",m1,m2\ng1,1,0\n")
        assert ctx.objects == ("g1",)
        assert ctx.attributes == ("m1", "m2")
        assert ctx.incidence == frozenset({(0, 0)})

    def test_duplicate_object(self):
        with pytest.raises(DuplicateName):
            parse_context(",m1\ng1,1\ng1,0\n")

    def test_duplicate_attribute(self):
        with pytest.raises(DuplicateName):
            parse_context(",m1,m1\ng1,1,0\n")

    def test_malformed_cell_has_coordinates(self):
        with pytest.raises(MalformedCell) as exc:
            parse_context(",m1,m2\ng1,1,2\n")
        assert exc.value.row == 1
        assert exc.value.column == 2

    def test_ragged_row(self):
        with pytest.raises(RaggedRow) as exc:
            parse_context(",m1,m2\ng1,1\n")
        assert exc.value.row == 1

    def test_corner_must_be_empty(self):
        with pytest.raises(MalformedCell):
            parse_context("x,m1\ng1,1\n")

    def test_byte_order_mark_rejected(self):
        # deviations are never repaired, but the message must name the cause
        with pytest.raises(MalformedCell, match="byte-order mark") as exc:
            parse_context("\ufeff,m1\ng1,1\n")
        assert (exc.value.row, exc.value.column) == (0, 0)

    def test_crlf_and_tab_padding_parse_like_lf(self):
        # CR and tabs are whitespace around cells, so they are trimmed away
        lf = ",m1,m2\ng1,1,0\ng2,0,1\n"
        crlf = lf.replace("\n", "\r\n")
        tabbed = ",\tm1,m2\t\ng1\t,1,\t0\ng2,\t0\t,1\n"
        assert parse_context(crlf) == parse_context(tabbed) == parse_context(lf)
        assert serialize_context(parse_context(crlf)) == lf

    def test_lone_surrogate_name_rejected(self):
        # the name could not be written back as UTF-8
        for text in (",m\ud800\ng1,1\n", ",m\ng\udfff,1\n"):
            with pytest.raises(InvalidName, match="surrogate"):
                parse_context(text)

    def test_empty_attribute_header_rejected(self):
        with pytest.raises(MalformedCell):
            parse_context(",m1,\ng1,1,0\n")

    def test_empty_object_name_rejected(self):
        with pytest.raises(MalformedCell):
            parse_context(",m1\n,1\n")

    def test_empty_input(self):
        with pytest.raises(MalformedCell):
            parse_context("")

    def test_whitespace_trimmed(self):
        ctx = parse_context(", m1 , m2\n g1 , 1 , 0 \n")
        assert ctx.objects == ("g1",)
        assert ctx.attributes == ("m1", "m2")
        assert ctx.incidence == frozenset({(0, 0)})

    def test_no_trailing_newline_ok(self):
        assert parse_context(",m1\ng1,1") == parse_context(",m1\ng1,1\n")

    def test_header_only(self):
        ctx = parse_context(",m1,m2\n")
        assert ctx.objects == ()
        assert len(ctx.attributes) == 2

    def test_no_attributes(self):
        ctx = parse_context("\ng1\ng2\n")
        assert ctx.objects == ("g1", "g2")
        assert ctx.attributes == ()


class TestSerialize:
    def test_one_by_one(self):
        ctx = FormalContext(("g1",), ("m1",), frozenset({(0, 0)}))
        assert serialize_context(ctx) == ",m1\ng1,1\n"

    def test_round_trip_small(self):
        text = ",m1,m2,m3\ng1,1,0,1\ng2,0,0,0\n"
        assert serialize_context(parse_context(text)) == text

    def test_round_trip_identity(self):
        ctx = FormalContext(
            ("a", "b", "c"), ("x", "y"), frozenset({(0, 0), (2, 1), (1, 0)})
        )
        assert parse_context(serialize_context(ctx)) == ctx

    def test_round_trip_empty(self):
        ctx = FormalContext((), (), frozenset())
        assert parse_context(serialize_context(ctx)) == ctx


class TestConstruction:
    def test_comma_in_name_rejected(self):
        with pytest.raises(InvalidName):
            FormalContext(("a,b",), ("m",), frozenset())

    def test_untrimmed_name_rejected(self):
        with pytest.raises(InvalidName):
            FormalContext(("g ",), ("m",), frozenset())

    def test_newline_in_name_rejected(self):
        with pytest.raises(InvalidName):
            FormalContext(("g",), ("m\nx",), frozenset())

    def test_lone_surrogate_name_rejected(self):
        with pytest.raises(InvalidName, match="surrogate"):
            FormalContext(("g\ud800",), ("m",), frozenset())
        with pytest.raises(InvalidName, match="surrogate"):
            FormalContext(("g",), ("\udc80m",), frozenset())
        # an astral character is one code point in a str, not a surrogate pair
        FormalContext(("g\U0001F600",), ("m",), frozenset())

    def test_incidence_out_of_bounds(self):
        with pytest.raises(BadIndex):
            FormalContext(("g",), ("m",), frozenset({(0, 1)}))
        with pytest.raises(BadIndex):
            FormalContext(("g",), ("m",), frozenset({(1, 0)}))

    def test_non_int_index_rejected(self):
        for incidence in ({(0.0, 0)}, {(0, 0.0)}, {("0", 0)}, {(0, None)}):
            with pytest.raises(BadIndex):
                FormalContext(("g",), ("m",), frozenset(incidence))
        with pytest.raises(BadIndex):
            FormalContext(("g",), ("m",), frozenset(), attribute_meta={0.0: AttributeMeta("Wrist")})

    def test_malformed_incidence_item_rejected(self):
        for item in ((0,), 0, (0, 0, 0)):
            with pytest.raises(ContextError, match=re.escape(repr(item))):
                FormalContext(("g",), ("m",), frozenset({item}))

    def test_duplicate_names_rejected(self):
        with pytest.raises(DuplicateName):
            FormalContext(("g", "g"), ("m",), frozenset())

    def test_meta_ignored_by_equality(self):
        plain = FormalContext(("g",), ("m",), frozenset({(0, 0)}))
        tagged = FormalContext(
            ("g",), ("m",), frozenset({(0, 0)}), attribute_meta={0: AttributeMeta("Wrist")}
        )
        assert plain == tagged

    def test_meta_bad_tag(self):
        with pytest.raises(ValueError):
            AttributeMeta("Colour")
        with pytest.raises(ContextError, match="Colour"):
            AttributeMeta("Colour")

    def test_meta_index_out_of_bounds(self):
        with pytest.raises(BadIndex):
            FormalContext(("g",), ("m",), frozenset(), attribute_meta={3: AttributeMeta("Wrist")})


class TestDerivations:
    def test_intent_single_row(self, abc_ctx):
        got = derive_intent(abc_ctx, names_to_objs(abc_ctx, "Ex1 Act1-"))
        assert got == names_to_attrs(abc_ctx, "Index Finger", "Flexion", "Extension")

    def test_intent_empty_is_all(self, abc_ctx):
        assert derive_intent(abc_ctx, set()) == frozenset(range(17))

    def test_intent_two_rows(self, abc_ctx):
        got = derive_intent(abc_ctx, names_to_objs(abc_ctx, "Ex2 Act6", "Ex2 Act8"))
        assert got == names_to_attrs(
            abc_ctx, "Index Finger", "Middle Finger", "Ring Finger", "Little Finger", "Thumb"
        )

    def test_extent_empty_is_all(self, abc_ctx):
        assert derive_extent(abc_ctx, set()) == frozenset(range(19))

    def test_extent_point(self, abc_ctx):
        got = derive_extent(abc_ctx, names_to_attrs(abc_ctx, "Point"))
        assert got == names_to_objs(abc_ctx, "Ex2 Act7")

    def test_extent_flexion_extension(self, abc_ctx):
        got = derive_extent(abc_ctx, names_to_attrs(abc_ctx, "Flexion", "Extension"))
        assert got == names_to_objs(
            abc_ctx, "Ex1 Act1-", "Ex1 Act3-", "Ex1 Act5-", "Ex1 Act7-", "Ex1 Act11-", "Ex3 Act5-"
        )

    def test_closure_index_finger_is_closed(self, abc_ctx):
        attrs = names_to_attrs(abc_ctx, "Index Finger")
        assert closure_attributes(abc_ctx, attrs) == frozenset(attrs)

    def test_closure_empty_abc(self, abc_ctx):
        assert closure_attributes(abc_ctx, set()) == frozenset()

    def test_closure_power_pad(self, grasp_ctx):
        got = closure_attributes(grasp_ctx, names_to_attrs(grasp_ctx, "Power", "Pad"))
        assert got == names_to_attrs(grasp_ctx, "Power", "Pad", "VF1", "VF2", "Abduction")

    def test_bad_index(self, abc_ctx):
        with pytest.raises(BadIndex):
            derive_intent(abc_ctx, {99})
        with pytest.raises(BadIndex):
            derive_extent(abc_ctx, {-1})
        with pytest.raises(BadIndex):
            closure_attributes(abc_ctx, {17})

    @pytest.mark.parametrize("index", [0.0, "0"])
    @pytest.mark.parametrize("derive", [derive_intent, derive_extent, closure_attributes])
    def test_non_int_index(self, abc_ctx, derive, index):
        with pytest.raises(BadIndex):
            derive(abc_ctx, {index})

    def test_empty_context_laws(self):
        no_attrs = FormalContext(("g1", "g2"), (), frozenset())
        assert derive_intent(no_attrs, set()) == frozenset()
        assert derive_extent(no_attrs, set()) == frozenset({0, 1})
        no_objs = FormalContext((), ("m1",), frozenset())
        assert derive_intent(no_objs, set()) == frozenset({0})
        assert derive_extent(no_objs, {0}) == frozenset()
        empty = FormalContext((), (), frozenset())
        assert derive_intent(empty, set()) == frozenset()
        assert derive_extent(empty, set()) == frozenset()


class TestMeta:
    def test_domain_tags(self, abc_ctx, grasp_ctx):
        assert abc_ctx.domain_tag(abc_ctx.attribute_index("Index Finger")) == "Fingers"
        assert abc_ctx.domain_tag(abc_ctx.attribute_index("Wrist")) == "Wrist"
        assert abc_ctx.domain_tag(abc_ctx.attribute_index("Abduction")) == "Forces"
        assert grasp_ctx.domain_tag(grasp_ctx.attribute_index("Power")) == "Grasp"
        assert grasp_ctx.domain_tag(grasp_ctx.attribute_index("Adduction")) == "Forces"

    @pytest.mark.parametrize("index", [-1, 17, 0.0, "0"])
    def test_domain_tag_bad_index(self, abc_ctx, index):
        with pytest.raises(BadIndex):
            abc_ctx.domain_tag(index)

    @pytest.mark.parametrize(
        "indices", [[-1], [19], [0, 99], [0.0], ["0"], ["0", 1], [0, 0.5, 2], [[0]], [0, [1]]]
    )
    def test_names_bad_index(self, abc_ctx, indices):
        with pytest.raises(BadIndex):
            abc_ctx.object_names(indices)
        with pytest.raises(BadIndex):
            abc_ctx.attribute_names(indices)

    def test_unhashable_index_from_an_iterator_is_named(self, abc_ctx):
        # no set of the indices can be built, and the error still names the bad one
        with pytest.raises(BadIndex) as raised:
            abc_ctx.object_names(iter([2, [0]]))
        assert raised.value.index == [0]

    def test_unknown_names(self, abc_ctx):
        with pytest.raises(KeyError):
            abc_ctx.object_index("nope")
        with pytest.raises(KeyError):
            abc_ctx.attribute_index("nope")
