import hashlib
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nbzagreb import (
    AlkaneNameError,
    AlkaneSyntaxError,
    Graph,
    LocantOutOfRangeError,
    MISSING_ISOMER_NAME,
    MultiplierMismatchError,
    ValenceExceededError,
    neighbourhood_zagreb,
    octane_dataset_csv,
    octane_isomers_all,
    octane_table1,
    parse_alkane_name,
    path_graph,
)

from oracle_helpers import tree_canonical_form


_PARENT_WORDS = ("butane", "pentane", "hexane", "heptane", "octane")
_MULTIPLIER_WORDS = ("", "di", "tri", "tetra")


@st.composite
def rendered_names(draw):
    """A grammatical name and the edges of the tree it names.

    Vertices are numbered as the parser numbers them: the chain first,
    then each branch in the order it is named.
    """
    length = draw(st.integers(4, 8))
    edges = [(i, i + 1) for i in range(length - 1)]
    n = length
    parts = [draw(st.sampled_from(["", "n-"]))]
    for _ in range(draw(st.integers(1, 3))):
        locants = draw(st.lists(st.integers(1, length), min_size=1, max_size=4))
        substituent = draw(st.sampled_from(["methyl", "ethyl"]))
        parts.append(",".join(map(str, locants)) + "-"
                     + _MULTIPLIER_WORDS[len(locants) - 1] + substituent)
        parts.append(draw(st.sampled_from(["-", " ", ""])))
        for locant in locants:
            edges.append((locant - 1, n))
            if substituent == "ethyl":
                edges.append((n, n + 1))
                n += 1
            n += 1
    parts.append(_PARENT_WORDS[length - 4])
    name = "".join(parts)
    upper = draw(st.lists(st.booleans(), min_size=len(name), max_size=len(name)))
    name = "".join(c.upper() if u else c for c, u in zip(name, upper))
    pad = st.text(alphabet=" \t\n", max_size=2)
    return draw(pad) + name + draw(pad), n, edges


class TestParser:
    def test_n_octane_is_p8(self):
        assert parse_alkane_name("n-octane") == path_graph(8)

    def test_tetramethyl_butane(self):
        g = parse_alkane_name("2,2,3,3-tetramethyl butane")
        assert neighbourhood_zagreb(g) == 194

    def test_space_optional_before_parent(self):
        a = parse_alkane_name("2-methylheptane")
        b = parse_alkane_name("2-methyl heptane")
        assert a == b

    def test_hyphen_between_groups(self):
        g = parse_alkane_name("3-methyl-3-ethyl pentane")
        assert g.order == 8 and neighbourhood_zagreb(g) == 152

    def test_case_insensitive(self):
        assert parse_alkane_name("N-OCTANE") == path_graph(8)
        assert parse_alkane_name("2,3-Dimethyl Hexane") == parse_alkane_name(
            "2,3-dimethyl hexane"
        )

    def test_surrounding_whitespace_tolerated(self):
        assert parse_alkane_name("  n-octane \n") == path_graph(8)

    def test_ethyl_attaches_two_carbons(self):
        g = parse_alkane_name("3-ethyl hexane")
        assert g.order == 8
        assert sorted(g.degrees()) == [1, 1, 1, 2, 2, 2, 2, 3]

    def test_chain_end_locant_accepted(self):
        # grammatical even though it names the hexane skeleton
        g = parse_alkane_name("5-methylpentane")
        assert g == path_graph(6)

    def test_unsupported_parent_is_syntax_error(self):
        with pytest.raises(AlkaneSyntaxError):
            parse_alkane_name("2-methylpropane")

    def test_syntax_error_position(self):
        with pytest.raises(AlkaneSyntaxError) as exc:
            parse_alkane_name("2-methyl plumbane")
        assert exc.value.position == 9

    def test_missing_substituent(self):
        with pytest.raises(AlkaneSyntaxError):
            parse_alkane_name("2-di butane")

    def test_missing_hyphen_after_locants(self):
        with pytest.raises(AlkaneSyntaxError) as exc:
            parse_alkane_name("2methyl butane")
        assert exc.value.position == 1

    def test_trailing_garbage(self):
        with pytest.raises(AlkaneSyntaxError):
            parse_alkane_name("n-octane!")

    def test_empty_name(self):
        with pytest.raises(AlkaneSyntaxError):
            parse_alkane_name("   ")

    def test_locant_out_of_range(self):
        with pytest.raises(LocantOutOfRangeError):
            parse_alkane_name("9-methyl heptane")
        with pytest.raises(LocantOutOfRangeError):
            parse_alkane_name("0-methyl heptane")

    def test_multiplier_mismatch(self):
        with pytest.raises(MultiplierMismatchError):
            parse_alkane_name("2,3-trimethyl pentane")
        with pytest.raises(MultiplierMismatchError):
            parse_alkane_name("2-dimethyl pentane")
        with pytest.raises(MultiplierMismatchError):
            parse_alkane_name("2,3-methyl hexane")

    def test_valence_exceeded(self):
        with pytest.raises(ValenceExceededError):
            parse_alkane_name("2,2,2-trimethyl butane")

    def test_valence_message_names_the_first_worst_carbon(self):
        # carbons 2 and 3 both get five bonds; the message names the first
        with pytest.raises(
            ValenceExceededError, match=r"^carbon at position 2 would have 5 bonds$"
        ):
            parse_alkane_name("2,2,2-trimethyl-3,3,3-trimethyl hexane")

    @pytest.mark.parametrize("name", [rec.name for rec in octane_isomers_all()])
    def test_trusted_build_equals_validated_graph(self, name):
        # every spelling of the 18 octanes: as tabulated, space-free, capitalised
        for spelling in (name, name.replace(" ", ""), name.upper(), name.title()):
            g = parse_alkane_name(spelling)
            validated = Graph(g.order, g.edges)
            assert g == validated
            assert g.edges == validated.edges
            assert g.degrees() == validated.degrees()
            assert g.adjacency == validated.adjacency

    def test_every_parent_supported(self):
        for name, order in [
            ("n-butane", 4), ("n-pentane", 5), ("n-hexane", 6),
            ("n-heptane", 7), ("n-octane", 8),
        ]:
            assert parse_alkane_name(name) == path_graph(order)


class TestParserPins:
    @pytest.mark.parametrize("name, error, message, position", [
        ("2,-methyl butane", AlkaneSyntaxError, "position 2: expected a locant", 2),
        ("2-di butane", AlkaneSyntaxError, "position 4: expected a substituent name", 4),
        ("2-propyl butane", AlkaneSyntaxError, "position 2: expected a substituent name", 2),
        ("  2-methyl plumbane", AlkaneSyntaxError,
         "position 11: expected a parent chain name", 11),
        ("2-methyl  butane", AlkaneSyntaxError, "position 9: expected a parent chain name", 9),
        ("2methyl butane", AlkaneSyntaxError, "position 1: expected '-' after locants", 1),
        ("n-octane!", AlkaneSyntaxError, "position 8: unexpected trailing text '!'", 8),
        pytest.param("n-octane" + "x" * 5000, AlkaneSyntaxError,
                     f"position 8: unexpected trailing text {'x' * 30!r}... (5000 characters)",
                     8, id="long-trailing-text"),
        ("   ", AlkaneSyntaxError, "position 3: empty name", 3),
        ("2,3-methyl hexane", MultiplierMismatchError,
         "2 locant(s) with a multiplier for 1", None),
    ])
    def test_error_type_message_and_position(self, name, error, message, position):
        with pytest.raises(AlkaneNameError) as exc:
            parse_alkane_name(name)
        assert type(exc.value) is error
        assert str(exc.value) == message
        assert getattr(exc.value, "position", None) == position

    # superscript two and Arabic-Indic two: digits to str.isdigit, not locants
    @pytest.mark.parametrize("name", ["\u00b2-methyl butane", "\u0662-methyl butane"])
    def test_non_ascii_digit_is_a_syntax_error(self, name):
        with pytest.raises(AlkaneSyntaxError) as exc:
            parse_alkane_name(name)
        assert str(exc.value) == "position 0: expected a parent chain name"
        assert exc.value.position == 0

    @pytest.mark.parametrize("name, position", [
        ("1" * 5000 + "-methyl butane", 4300),
        ("2," + "0" * 4301 + "2-dimethyl hexane", 4302),
        ("  " + "1" * 4301 + "-methyl butane", 4302),
    ], ids=["one-locant", "second-locant", "leading-space"])
    def test_locant_longer_than_int_reads_is_a_syntax_error(self, name, position):
        with pytest.raises(AlkaneSyntaxError) as exc:
            parse_alkane_name(name)
        assert str(exc.value) == f"position {position}: locant longer than 4300 digits"
        assert exc.value.position == position

    def test_long_locants_within_int_still_parse(self):
        assert parse_alkane_name("00002-methyl butane") == parse_alkane_name("2-methyl butane")
        assert parse_alkane_name("0" * 4299 + "2-methyl butane") == parse_alkane_name(
            "2-methylbutane")
        with pytest.raises(LocantOutOfRangeError) as exc:
            parse_alkane_name("1" * 4300 + "-methyl butane")
        # the message cuts the locant to its head and its length
        assert str(exc.value) == f"locant {'1' * 30}... (4300 digits) outside chain of length 4"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")
    @pytest.mark.parametrize("name, position", [
        ("1" * 1000 + "-methylhexane", 640),
        ("2," + "0" * 641 + "2-dimethyl hexane", 642),
    ], ids=["one-locant", "second-locant"])
    def test_locant_past_a_lowered_digit_limit(self, name, position):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(AlkaneSyntaxError) as exc:
                parse_alkane_name(name)
            # a locant at the limit is read
            with pytest.raises(LocantOutOfRangeError):
                parse_alkane_name("1" * 640 + "-methyl butane")
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(exc.value) == f"position {position}: locant longer than 640 digits"
        assert exc.value.position == position

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")
    @pytest.mark.parametrize("name, position", [
        ("1" * 300000 + "-methylbutane", 4300),
        ("2," + "0" * 300000 + "2-dimethyl hexane", 4302),
    ], ids=["one-locant", "second-locant"])
    def test_locant_past_the_default_limit_with_the_limit_off(self, name, position):
        # int() would read the locant in quadratic time
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(AlkaneSyntaxError) as exc:
                parse_alkane_name(name)
            # a locant at the default limit is read
            with pytest.raises(LocantOutOfRangeError):
                parse_alkane_name("1" * 4300 + "-methyl butane")
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(exc.value) == f"position {position}: locant longer than 4300 digits"
        assert exc.value.position == position

    @given(rendered_names())
    def test_rendered_names_against_validated_tree(self, case):
        name, n, edges = case
        degrees = [0] * n
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        if max(degrees) > 4:
            with pytest.raises(ValenceExceededError):
                parse_alkane_name(name)
        else:
            assert parse_alkane_name(name) == Graph(n, edges)


class TestOctaneDataset:
    def test_seventeen_rows(self):
        assert len(octane_table1()) == 17

    def test_every_structure_is_an_octane_tree(self):
        for rec in octane_isomers_all():
            g = rec.structure
            assert g.order == 8 and g.size == 7
            assert max(g.degrees()) <= 4

    def test_golden_index_values(self):
        for rec in octane_table1():
            assert neighbourhood_zagreb(rec.structure) == rec.mn_reference, rec.name

    def test_specific_rows(self):
        by_name = {rec.name: rec for rec in octane_table1()}
        rec = by_name["2,3,4-trimethyl pentane"]
        assert (rec.acentric_factor, rec.entropy, rec.mn_reference) == (
            0.317422, 102.39, 144,
        )
        rec = by_name["3-methyl heptane"]
        assert (rec.acentric_factor, rec.entropy, rec.mn_reference) == (
            0.371002, 111.26, 108,
        )

    def test_eighteen_isomers(self):
        records = octane_isomers_all()
        assert len(records) == 18
        assert records[-1].name == MISSING_ISOMER_NAME
        assert records[-1].acentric_factor is None
        assert records[-1].entropy is None
        assert records[-1].mn_reference is None

    def test_missing_isomer_value_distinct(self):
        records = octane_isomers_all()
        extra = neighbourhood_zagreb(records[-1].structure)
        assert extra == 156
        assert extra not in {rec.mn_reference for rec in records[:-1]}

    def test_pairwise_non_isomorphic(self):
        forms = [
            tree_canonical_form(rec.structure.order, rec.structure.edges)
            for rec in octane_isomers_all()
        ]
        assert len(set(forms)) == 18

    def test_csv_export(self):
        text = octane_dataset_csv()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "7c252412746969c381caab09fbd1d4b77fc17a1943ebb5a6ed86e3d15aa42dc0")
        lines = text.splitlines()
        assert lines[0] == "name,acentric,entropy,MN_paper,MN_computed"
        assert len(lines) == 19
        assert lines[-2] == "n-octane,0.397898,111.67,90,90"
        assert lines[-1] == '"2,2,4-trimethyl pentane",,,,156'
