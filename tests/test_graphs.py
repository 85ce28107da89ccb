import copy
import pickle
import random
import re
import sys
import tracemalloc
from itertools import groupby
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nbzagreb import (
    DuplicateEdgeError,
    EdgeListSyntaxError,
    Graph,
    GraphError,
    LoopEdgeError,
    ProductKind,
    VertexOutOfRangeError,
    complete_graph,
    cycle_graph,
    empty_graph,
    first_zagreb,
    forgotten,
    neighbourhood_zagreb,
    parse_edge_list,
    path_graph,
    product,
    random_graph,
    randic,
    second_zagreb,
    serialize_edge_list,
    star_graph,
)
from nbzagreb import families, formulas
from nbzagreb import graphs as graphs_module
from nbzagreb.graphs import DEFAULT_VERTEX_CAP, SizeOverflowError, _echo

from oracle_helpers import adjacency_from_edges


@st.composite
def graphs(draw, max_order=8):
    n = draw(st.integers(min_value=1, max_value=max_order))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, keep in zip(pairs, picks) if keep])


@st.composite
def pair_lists(draw, max_order=6):
    """An order and pairs of ids in ``range(-2, order + 2)``, some of them an
    earlier pair again, as given or flipped."""
    order = draw(st.integers(1, max_order))
    ids = st.integers(-2, order + 1)
    pairs = []
    for _ in range(draw(st.integers(0, 10))):
        if pairs and draw(st.booleans()):
            u, v = draw(st.sampled_from(pairs))
            pairs.append((v, u) if draw(st.booleans()) else (u, v))
        else:
            pairs.append((draw(ids), draw(ids)))
    return order, pairs


def _reference_error(order, pairs):
    """The type and message of the error ``Graph(order, pairs)`` raises, by
    the constructor's rule stated as a plain loop, or ``None`` for no error:
    the first failing pair in input order is named; for one pair, an id out
    of range comes before a loop, and a loop before a duplicate."""
    seen = set()
    for u, v in pairs:
        if not (0 <= u < order and 0 <= v < order):
            return VertexOutOfRangeError, f"edge ({u}, {v}) has a vertex outside 0..{order - 1}"
        if u == v:
            return LoopEdgeError, f"edge ({u}, {v}) is a self-loop"
        if frozenset((u, v)) in seen:
            return DuplicateEdgeError, f"edge ({u}, {v}) appears more than once"
        seen.add(frozenset((u, v)))
    return None


class TestConstruction:
    def test_path_degrees(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.degrees() == (1, 2, 1)

    def test_single_vertex(self):
        g = Graph(1, [])
        assert g.order == 1 and g.size == 0

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError, match=r"\(0, 1\)"):
            Graph(4, [(0, 1), (0, 1)])

    def test_reversed_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            Graph(4, [(0, 1), (1, 0)])

    def test_loop_rejected(self):
        with pytest.raises(LoopEdgeError, match=r"\(2, 2\)"):
            Graph(4, [(2, 2)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError, match=r"\(0, 4\)"):
            Graph(4, [(0, 4)])

    @pytest.mark.parametrize(
        "pairs, error, message",
        [
            ([(0, 1), (2, 2), (1, 0)], LoopEdgeError, "edge (2, 2) is a self-loop"),
            (
                [(1, 0), (0, 5), (0, 1)],
                VertexOutOfRangeError,
                "edge (0, 5) has a vertex outside 0..3",
            ),
            ([(2, 1), (1, 2), (3, 3)], DuplicateEdgeError, "edge (1, 2) appears more than once"),
            # a loop outside the range fails the range check, which comes first
            ([(0, 1), (5, 5)], VertexOutOfRangeError, "edge (5, 5) has a vertex outside 0..3"),
        ],
    )
    def test_first_bad_pair_in_input_order_decides(self, pairs, error, message):
        with pytest.raises(GraphError) as exc:
            Graph(4, pairs)
        assert type(exc.value) is error
        assert str(exc.value) == message

    @given(pair_lists())
    @example((3, [(4, 4)]))
    @example((3, [(-1, -1)]))
    @example((3, [(0, 2), (2, 0)]))
    @example((3, [(0, 1), (1, 0), (5, 0)]))
    @example((4, [(0, 1), (2, 1), (3, 0)]))
    def test_errors_follow_the_reference_rule(self, case):
        order, pairs = case
        expected = _reference_error(order, pairs)
        if expected is None:
            g = Graph(order, pairs)
            assert g.order == order
            assert g.edges == tuple(sorted({(min(p), max(p)) for p in pairs}))
        else:
            with pytest.raises(GraphError) as exc:
                Graph(order, pairs)
            assert (type(exc.value), str(exc.value)) == expected

    @pytest.mark.parametrize("pairs", [[("a", 1)], [(0, None)], [(None, None)], [(0, 1), (1, "x")]])
    def test_non_number_raises_type_error(self, pairs):
        with pytest.raises(TypeError):
            Graph(3, pairs)

    def test_zero_order_rejected(self):
        with pytest.raises(GraphError):
            Graph(0)

    @pytest.mark.parametrize(
        "order, message",
        [
            (10 ** 20, "order 100000000000000000000 exceeds vertex cap 1000000"),
            (DEFAULT_VERTEX_CAP + 1, "order 1000001 exceeds vertex cap 1000000"),
            (10 ** 5000, "order 1" + "0" * 29 + "... (5001 digits) exceeds vertex cap 1000000"),
        ],
        ids=["1e20", "cap+1", "1e5000"],
    )
    def test_order_above_the_cap_refused(self, order, message):
        with pytest.raises(SizeOverflowError) as exc:
            Graph(order, [(0, 1)])
        assert str(exc.value) == message

    # ids past CPython's int-string limit have no str(); the message must not need one
    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: Graph(3, [(0, 10 ** 5000)]), VertexOutOfRangeError,
             "edge (0, 1" + "0" * 29 + "... (5001 digits)) has a vertex outside 0..2"),
            (lambda: Graph(3, [(10 ** 5000, 10 ** 5000)]), VertexOutOfRangeError,
             "edge (1{z}... (5001 digits), 1{z}... (5001 digits)) has a vertex outside 0..2"
             .format(z="0" * 29)),
            (lambda: path_graph(3).degree(10 ** 5000), VertexOutOfRangeError,
             "vertex 1" + "0" * 29 + "... (5001 digits) outside 0..2"),
            (lambda: Graph(-(10 ** 5000)), GraphError,
             "order must be >= 1, got -1" + "0" * 29 + "... (5001 digits)"),
            (lambda: cycle_graph(-(10 ** 5000)), GraphError,
             "cycle needs at least 3 vertices, got -1" + "0" * 29 + "... (5001 digits)"),
        ],
        ids=["edge", "loop", "degree", "order", "cycle"],
    )
    def test_huge_vertex_ids_refused_by_graph_errors(self, build, error, message):
        with pytest.raises(GraphError) as exc:
            build()
        assert type(exc.value) is error and str(exc.value) == message

    def test_adjacency_sorted_and_symmetric(self):
        g = Graph(4, [(2, 0), (3, 0), (0, 1)])
        assert g.neighbors(0) == (1, 2, 3)
        for u in range(4):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    def test_equality_is_structural(self):
        a = Graph(3, [(1, 2), (0, 1)])
        b = Graph(3, [(0, 1), (2, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(3, [(0, 1)])
        assert a != Graph(4, [(0, 1), (1, 2)])

    def test_equality_with_a_non_graph_is_left_to_the_other_side(self):
        g = path_graph(2)
        assert g.__eq__((2, ((0, 1),))) is NotImplemented
        assert g != "P2" and g == mock.ANY

    def test_immutable(self):
        g = path_graph(3)
        with pytest.raises(AttributeError):
            g.order = 5
        with pytest.raises(AttributeError):
            g._sums = None


@st.composite
def scrambled(draw, max_order=8):
    """A graph and its edges as a shuffled list with random orientations."""
    g = draw(graphs(max_order))
    flips = draw(st.lists(st.booleans(), min_size=g.size, max_size=g.size))
    pairs = [(v, u) if flip else (u, v) for (u, v), flip in zip(g.edges, flips)]
    return g, draw(st.permutations(pairs))


class TestCanonicalFill:
    @given(scrambled())
    def test_unsorted_flipped_pairs_give_the_same_graph(self, case):
        g, pairs = case
        h = Graph(g.order, pairs)
        assert h == g and hash(h) == hash(g)
        assert h.edges == g.edges and h.adjacency == g.adjacency

    @given(scrambled())
    def test_stored_degrees_match_adjacency(self, case):
        g, pairs = case
        h = Graph(g.order, pairs)
        adj = h.adjacency
        assert all(list(ns) == sorted(ns) for ns in adj)
        assert h.degrees() == tuple(len(ns) for ns in adj)
        assert h.neighbor_degree_sums() == tuple(
            sum(len(adj[u]) for u in ns) for ns in adj
        )
        assert [h.degree(v) for v in range(h.order)] == list(h.degrees())


#: Rebuilds of one graph, through the int-code constructor (``Graph``, and both
#: edge-list readers) or the trusted fill, then the three products.
REBUILDS = ("Graph", "_from_canonical", "parse_edge_list", "_parse_lines")
BUILDS = (*REBUILDS, *(k.value for k in ProductKind))


def _build(how, g, h):
    """``g`` rebuilt by ``how``, or for a product kind the product of ``g`` and ``h``."""
    if how == "Graph":
        return Graph(g.order, [(v, u) for u, v in reversed(g.edges)])
    if how == "_from_canonical":
        # the first vertices' runs in reverse, each run in its own order,
        # which the trusted contract keeps increasing
        runs = [list(run) for _, run in groupby(g.edges, key=itemgetter(0))]
        return Graph._from_canonical(g.order, [pair for run in reversed(runs) for pair in run])
    if how == "parse_edge_list":
        return parse_edge_list(serialize_edge_list(g))
    if how == "_parse_lines":
        return graphs_module._parse_lines(serialize_edge_list(g))
    return product(g, h, ProductKind(how))


class TestStoredLayout:
    """A graph stores edges and degrees; ``adjacency`` is built on first use."""

    @given(st.sampled_from(BUILDS), graphs(max_order=6), graphs(max_order=4))
    @example("Graph", empty_graph(1), empty_graph(1))
    @example("_from_canonical", Graph(5, [(1, 3)]), empty_graph(1))
    @example("parse_edge_list", Graph(4, [(0, 2)]), empty_graph(1))
    @example("_parse_lines", Graph(4, [(0, 3), (1, 2)]), empty_graph(1))
    @example("cartesian", empty_graph(1), Graph(3, [(0, 2)]))
    @example("tensor", Graph(3, [(0, 1)]), Graph(3, [(1, 2)]))
    @example("wreath", Graph(3, [(1, 2)]), empty_graph(2))
    def test_adjacency_and_sums_match_the_edges(self, how, g, h):
        G = _build(how, g, h)
        # canonical: sorted, distinct pairs of plain ints u < v
        assert list(G.edges) == sorted(set(G.edges))
        assert all(type(u) is type(v) is int and 0 <= u < v < G.order for u, v in G.edges)
        if how in REBUILDS:
            assert G == g and G.edges == g.edges and G.degrees() == g.degrees()
        sums = G.neighbor_degree_sums()
        assert G._adj is None
        oracle = adjacency_from_edges(G.order, G.edges)
        assert G.adjacency == tuple(tuple(sorted(ns)) for ns in oracle)
        assert sums == tuple(sum(len(oracle[u]) for u in ns) for ns in oracle)

    def test_adjacency_is_cached(self):
        g = cycle_graph(5)
        assert g.adjacency is g.adjacency

    @given(graphs())
    def test_equality_and_hash_ignore_the_cache(self, g):
        fresh = Graph(g.order, g.edges)
        before = hash(g)
        g.adjacency
        assert g == fresh and fresh == g
        assert hash(g) == hash(fresh) == before

    @pytest.mark.parametrize("kind", list(ProductKind))
    def test_linear_indices_and_io_build_no_adjacency(self, kind):
        G = product(cycle_graph(5), path_graph(4), kind)
        for index in (first_zagreb, second_zagreb, neighbourhood_zagreb, forgotten, randic):
            index(G)
        assert G._adj is None
        H = parse_edge_list(serialize_edge_list(G))
        serialize_edge_list(H)
        assert H._adj is None

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
        ids=["copy", "deepcopy", "pickle"],
    )
    @pytest.mark.parametrize("read_first", [False, True])
    def test_copy_and_pickle(self, clone, read_first):
        g = Graph(5, [(3, 1), (0, 1), (1, 2)])
        if read_first:
            g.adjacency
            g.neighbor_degree_sums()
        c = clone(g)
        assert c._adj is None and c._sums is None
        assert c == g and hash(c) == hash(g)
        assert c.adjacency == g.adjacency
        assert c.neighbor_degree_sums() == g.neighbor_degree_sums()

    def test_neighbor_degree_sums_are_cached(self):
        g = star_graph(4)
        assert g._sums is None
        sums = g.neighbor_degree_sums()
        assert g.neighbor_degree_sums() is sums and g._sums is sums
        assert g.neighbor_degree_sum(0) == 3 and g._adj is None


class TestNeighborDegreeSum:
    def test_cycle_is_constant_four(self):
        g = cycle_graph(5)
        assert all(g.neighbor_degree_sum(v) == 4 for v in range(5))

    def test_path_center(self):
        assert path_graph(3).neighbor_degree_sum(1) == 2

    def test_star_center_and_leaf(self):
        g = star_graph(4)  # K_{1,3}
        assert g.neighbor_degree_sum(0) == 3
        assert g.neighbor_degree_sum(1) == 3

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            path_graph(3).neighbor_degree_sum(3)

    @given(graphs())
    def test_profile_matches_per_vertex(self, g):
        assert g.neighbor_degree_sums() == tuple(
            g.neighbor_degree_sum(v) for v in range(g.order)
        )


class TestDegreeInvariants:
    @given(graphs())
    def test_handshake(self, g):
        assert sum(g.degrees()) == 2 * g.size

    @given(graphs())
    def test_delta_sum_equals_degree_squares(self, g):
        # both sides count degree(u) once per incident edge endpoint
        assert sum(g.neighbor_degree_sums()) == sum(d * d for d in g.degrees())

    @given(graphs())
    def test_per_vertex_delta_bounds(self, g):
        for d, s in zip(g.degrees(), g.neighbor_degree_sums()):
            assert s <= d * (g.order - 1)
            assert (s == 0) == (d == 0)


class TestEdgeListFormat:
    def test_parse_k2(self):
        assert parse_edge_list("2 1\n0 1\n") == complete_graph(2)

    def test_parse_p3(self):
        assert parse_edge_list("3 2\n0 1\n1 2\n") == path_graph(3)

    def test_parse_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            parse_edge_list("2 1\n0 2\n")

    def test_comments_and_blank_lines(self):
        text = "# a path\n\n3 2\n# first edge\n0 1\n1 2\n"
        assert parse_edge_list(text) == path_graph(3)

    def test_syntax_error_carries_line(self):
        with pytest.raises(EdgeListSyntaxError) as exc:
            parse_edge_list("3 2\n0 1\nnope\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3 -1\n", "line 1: bad header '3 -1'"),
            ("0 2\n", "line 1: bad header '0 2'"),
            ("# only\n\n# comments\n", "line 3: missing 'n m' header"),
            ("", "line 1: missing 'n m' header"),
        ],
    )
    def test_bad_or_missing_header(self, text, message):
        with pytest.raises(EdgeListSyntaxError) as exc:
            parse_edge_list(text)
        assert str(exc.value) == message
        assert exc.value.line == int(message.split()[1].rstrip(":"))

    # int() reads all three; a field is -?[0-9]+ (\u0663 is an Arabic-Indic three)
    @pytest.mark.parametrize(
        "text, message",
        [
            ("1_0 0\n", "line 1: non-integer field in '1_0 0'"),
            ("\u0663 1\n0 2\n", "line 1: non-integer field in '\u0663 1'"),
            ("+2 1\n0 +1\n", "line 1: non-integer field in '+2 1'"),
            ("2 1\n0 +1\n", "line 2: non-integer field in '0 +1'"),
            ("3 1\n0 1_0\n", "line 2: non-integer field in '0 1_0'"),
        ],
    )
    def test_field_is_ascii_digits_with_an_optional_minus(self, text, message):
        with pytest.raises(EdgeListSyntaxError) as exc:
            parse_edge_list(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, line",
        [
            pytest.param("1" * 5000 + " 0\n", 1, id="header"),
            # the edge 0-1 by the grammar
            pytest.param("2 1\n0 " + "0" * 4301 + "1\n", 2, id="edge"),
        ],
    )
    def test_field_past_the_digit_limit_named(self, text, line):
        with pytest.raises(EdgeListSyntaxError) as exc:
            parse_edge_list(text)
        assert str(exc.value) == f"line {line}: field longer than 4300 digits"
        assert exc.value.line == line

    # a wrong field count is named before a non-integer field
    @pytest.mark.parametrize("text, message", [
        ("3\n", "line 1: expected two fields, got 1"),
        ("3 2\n0 1 2\n", "line 2: expected two fields, got 3"),
        ("3 1\n0 x 2\n", "line 2: expected two fields, got 3"),
    ])
    def test_field_count_named(self, text, message):
        with pytest.raises(EdgeListSyntaxError) as exc:
            parse_edge_list(text)
        assert str(exc.value) == message

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")
    def test_field_past_a_lowered_digit_limit_named(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(EdgeListSyntaxError) as exc:
                parse_edge_list("2 1\n0 " + "1" * 641 + "\n")
            # a field at the limit is read
            with pytest.raises(VertexOutOfRangeError, match=r"\(640 digits\)\) has a vertex"):
                parse_edge_list("2 1\n0 " + "1" * 640 + "\n")
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(exc.value) == "line 2: field longer than 640 digits"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")
    @pytest.mark.parametrize(
        "text, line",
        [
            pytest.param("1" * 300000 + " 0\n", 1, id="header"),
            pytest.param("2 1\n0 " + "1" * 300000 + "\n", 2, id="edge"),
            pytest.param("2 1\n0\t-" + "1" * 300000 + "\n", 2, id="edge-tab"),
        ],
    )
    def test_field_past_the_default_limit_named_with_the_limit_off(self, text, line):
        # int() would read the field in quadratic time
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(EdgeListSyntaxError) as exc:
                parse_edge_list(text)
            # a field at the default limit is read
            with pytest.raises(VertexOutOfRangeError, match=r"\(4300 digits\)\) has a vertex"):
                parse_edge_list("2 1\n0 -" + "1" * 4300 + "\n")
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(exc.value) == f"line {line}: field longer than 4300 digits"
        assert exc.value.line == line

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("1_0 " + "1" * 5000 + "\n", EdgeListSyntaxError,
             "line 1: non-integer field in '1_0 " + "1" * 26 + "'... (5004 characters)"),
            ("2 1\n0 -" + "1" * 4300 + "\n", VertexOutOfRangeError,
             "edge (0, -" + "1" * 30 + "... (4300 digits)) has a vertex outside 0..1"),
            ("2 " + "-" * 70 + "\n", EdgeListSyntaxError,
             "line 1: non-integer field in '2 " + "-" * 28 + "'... (72 characters)"),
        ],
    )
    def test_echoed_line_or_id_is_bounded(self, text, error, message):
        with pytest.raises(error) as exc:
            parse_edge_list(text)
        assert type(exc.value) is error and str(exc.value) == message

    # math.log10(10 ** 512) reads 511.99999999999994, low by one digit
    @pytest.mark.parametrize("digits", [61, 512, 4300, 4301, 5000])
    def test_echo_counts_digits_next_to_powers_of_ten(self, digits):
        head = "1" + "0" * 29
        assert _echo(10 ** (digits - 1)) == f"{head}... ({digits} digits)"
        assert _echo(10 ** digits - 1) == f"{'9' * 30}... ({digits} digits)"
        assert _echo(-(10 ** digits)) == f"-{head}... ({digits + 1} digits)"

    @pytest.mark.parametrize("limit", [
        None,
        pytest.param(640, marks=pytest.mark.skipif(
            not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")),
    ])
    @given(st.integers(1, 5000), st.booleans(), st.integers(0, 2 ** 32))
    @example(61, False, 0)
    @example(640, True, 1)
    @example(5000, True, 2)
    def test_echo_shows_head_and_length(self, limit, length, negative, seed):
        rng = random.Random(seed)
        digits = str(rng.randrange(1, 10)) + "".join(rng.choices("0123456789", k=length - 1))
        # read in chunks, which fit under any limit
        value = 0
        for i in range(0, length, 600):
            chunk = digits[i:i + 600]
            value = value * 10 ** len(chunk) + int(chunk)
        sign = "-" if negative else ""
        expected = sign + digits if length <= 60 else f"{sign}{digits[:30]}... ({length} digits)"
        old = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        try:
            shown = _echo(-value if negative else value)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(old)
        assert shown == expected

    def test_echo_keeps_short_values_whole(self):
        assert _echo(10 ** 60 - 1) == "9" * 60 and _echo(-(10 ** 60) + 1) == "-" + "9" * 60
        assert _echo("x" * 60) == repr("x" * 60)

    def test_echo_shows_a_list_by_its_str(self):
        assert _echo([1, 2]) == "[1, 2]"
        sizes = [1] + [10 ** 9] * 10
        assert _echo(sizes) == f"[1, {'1' + '0' * 9}, {'1' + '0' * 9}, 10... (123 characters)"

    @pytest.mark.parametrize("call, message", [
        (families.hamming, "hamming factor sizes must be >= 2, got "),
        (formulas.mn_hamming, "hamming sizes must each be >= 2, got "),
    ])
    def test_echo_shows_a_list_past_the_int_string_limit(self, call, message):
        with pytest.raises(ValueError) as exc:
            call([1, 10 ** 5000])
        assert str(exc.value) == f"{message}[1, {'1' + '0' * 25}... (5006 characters)"
        assert len(str(exc.value)) < 200

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")
    @pytest.mark.parametrize("limit", [640, 4300])
    def test_echo_shows_a_list_as_str_without_the_limit(self, limit):
        items = [-(10 ** 700) + 7, 10 ** 600, 10 ** 600 - 1, 5, "x", 2.5, True]
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            shown = _echo(items)
            # whole, so every item's text is compared
            with mock.patch.object(graphs_module, "_ECHO_LIMIT", 10 ** 4):
                whole = _echo(items)
        finally:
            sys.set_int_max_str_digits(0)
        try:
            text = str(items)
        finally:
            sys.set_int_max_str_digits(old)
        assert whole == text
        assert shown == f"{text[:30]}... ({len(text)} characters)"

    def test_field_of_4300_digits_read(self):
        with pytest.raises(EdgeListSyntaxError, match="^line 1: order 1{4300} exceeds vertex cap"):
            parse_edge_list("1" * 4300 + " 0\n")

    def test_comment_may_hold_any_character(self):
        text = "# 1_0 +2 \u0663 \u00b2\n3 2\n# +1 _\n0 1\n1 2\n"
        assert parse_edge_list(text) == path_graph(3)

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("3 -1\n", EdgeListSyntaxError, "line 1: bad header '3 -1'"),
            ("3 1\n-1 0\n", VertexOutOfRangeError, "edge (-1, 0) has a vertex outside 0..2"),
            # the slow path, for the comment's "_", reads negatives the same way
            ("# _\n3 1\n0 -2\n", VertexOutOfRangeError, "edge (0, -2) has a vertex outside 0..2"),
        ],
    )
    def test_negative_fields_keep_their_errors(self, text, error, message):
        with pytest.raises(error) as exc:
            parse_edge_list(text)
        assert type(exc.value) is error and str(exc.value) == message

    def test_missing_edges_detected(self):
        with pytest.raises(EdgeListSyntaxError):
            parse_edge_list("3 2\n0 1\n")

    def test_extra_edges_detected(self):
        with pytest.raises(EdgeListSyntaxError) as exc:
            parse_edge_list("2 1\n0 1\n1 0\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1000000000000 0\n", 1),
            (f"{DEFAULT_VERTEX_CAP + 1} 0\n", 1),
            (f"# big\n\n{DEFAULT_VERTEX_CAP + 1} 1\n0 1\n", 3),
        ],
    )
    def test_header_order_above_the_cap_rejected(self, text, line):
        with pytest.raises(EdgeListSyntaxError) as exc:
            parse_edge_list(text)
        assert exc.value.line == line
        assert str(exc.value).endswith(f"exceeds vertex cap {DEFAULT_VERTEX_CAP}")

    def test_header_order_at_the_cap_accepted(self):
        g = parse_edge_list(f"{DEFAULT_VERTEX_CAP} 1\n0 {DEFAULT_VERTEX_CAP - 1}\n")
        assert g.order == DEFAULT_VERTEX_CAP and g.size == 1

    def test_serialize_sorted(self):
        g = Graph(3, [(1, 2), (0, 2), (0, 1)])
        assert serialize_edge_list(g) == "3 3\n0 1\n0 2\n1 2\n"

    @staticmethod
    def _line_per_edge(g):
        return f"{g.order} {g.size}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)

    @given(graphs())
    @example(empty_graph(1))
    @example(empty_graph(5))
    def test_serialize_writes_a_line_per_edge(self, g):
        assert serialize_edge_list(g) == self._line_per_edge(g)

    def test_serialize_writes_a_line_per_edge_of_a_large_grid(self):
        g = product(path_graph(224), path_graph(224), ProductKind.CARTESIAN)
        assert g.size == 99904
        assert serialize_edge_list(g) == self._line_per_edge(g)

    def test_round_trip_100_random_graphs(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_graph(rng.randint(1, 12), rng.random(), rng.randrange(10 ** 9))
            assert parse_edge_list(serialize_edge_list(g)) == g

    @given(graphs())
    def test_round_trip_property(self, g):
        assert parse_edge_list(serialize_edge_list(g)) == g


#: Characters that int(), str.split() and str.splitlines() read differently,
#: plus the format's own and "."; \u0663 is an Arabic-Indic three.  \x0c,
#: \x1c and \u2028 end a line for splitlines() and \xa0 is a space for
#: isspace(), which the bulk read's row filter and its resume both read.
HOSTILE = "0123456789-+_ \t\r\x0b\x1f#\n\u0663.\x0c\x1c\u2028\xa0"


def _outcome(parse, text):
    """The graph ``parse`` returns, or the type, message and line it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@st.composite
def mutated_serializations(draw):
    """A random graph's edge list, shuffled and flipped, with comments and
    blank lines, then up to three insertions, deletions or replacements."""
    g = draw(graphs(max_order=8))
    rows = [f"{v} {u}" if draw(st.booleans()) else f"{u} {v}" for u, v in g.edges]
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(("", "   ", "# c"))))
    text = f"{g.order} {g.size}\n" + "".join(row + "\n" for row in rows)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from([*HOSTILE, "", "# c\n", "  ", "-0"]))
        cut = draw(st.integers(0, 1))
        text = text[:at] + piece + text[at + cut:]
    return text


class TestBulkRead:
    """``parse_edge_list`` reads a plain text in bulk and hands anything else to
    the line loop, ``_parse_lines``, which stays the reference."""

    @given(st.text(alphabet=HOSTILE, max_size=30))
    @example("2 1\n0 1\x1f\n")
    @example("2 1\n0\t 1\n")
    @example("2 1\n\t0 1\n")
    @example("2 1\n  # c\n0 1\n")
    @example("2 1\n0 -0\n")
    @example("3 1\n0 1\n1 2\n")
    @example("3 2\n0 1\n")
    @example("0 0\n")
    @example("-1 0\n")
    @example(f"{DEFAULT_VERTEX_CAP + 1} 0\n")
    @example("9 2\n007 1\n1 2\n")
    @example("3 1\n-0 2\n")
    @example("3 1\n00 1\n")
    def test_hostile_text_reads_as_the_line_loop(self, text):
        assert _outcome(parse_edge_list, text) == _outcome(graphs_module._parse_lines, text)

    @given(mutated_serializations())
    # a row of three fields and a row of one hold two spaces between them
    @example("05 4\n   \n1 402 3\n   \n2 4\n3 4\n0")
    @example("2 1\n1 \n 0\n")
    def test_mutated_serialization_reads_as_the_line_loop(self, text):
        assert _outcome(parse_edge_list, text) == _outcome(graphs_module._parse_lines, text)

    @staticmethod
    def _benchmark_shaped(sep):
        """A grid's edges, shuffled and half flipped, with a comment header
        and comment, blank and space-only lines among them."""
        g = product(path_graph(6), path_graph(7), ProductKind.CARTESIAN)
        rng = random.Random(5)
        rows = [f"{v}{sep}{u}" if rng.random() < 0.5 else f"{u}{sep}{v}" for u, v in g.edges]
        rng.shuffle(rows)
        for filler in ("# comment", "", "   ", "# 1_0 +2 \u0663"):
            rows.insert(rng.randrange(len(rows)), filler)
        return g, f"# seeded edge list\n{g.order} {g.size}\n" + "\n".join(rows) + "\n"

    def test_plain_text_never_reaches_the_line_loop(self, monkeypatch):
        def line_loop(text, *state):
            raise AssertionError("line loop reached")

        monkeypatch.setattr(graphs_module, "_parse_lines", line_loop)
        g, text = self._benchmark_shaped(" ")
        assert parse_edge_list(text) == g
        _, tabbed = self._benchmark_shaped("\t")
        with pytest.raises(AssertionError, match="line loop reached"):
            parse_edge_list(tabbed)

    def test_zero_padded_ids_reach_the_line_loop_once(self, monkeypatch):
        # JSON integers have no leading zero, so the bulk read refuses "0007"
        calls = []
        line_loop = graphs_module._parse_lines

        def counted(text, *state):
            calls.append(text)
            return line_loop(text, *state)

        monkeypatch.setattr(graphs_module, "_parse_lines", counted)
        g, text = self._benchmark_shaped(" ")
        padded = re.sub(r"(?m)^([0-9]+) ([0-9]+)$", lambda m: f"{m[1]:0>4} {m[2]:0>4}", text)
        assert padded != text and "0007 " in padded
        assert parse_edge_list(padded) == parse_edge_list(text) == g
        assert calls == [padded]

    @pytest.mark.parametrize("sep", [" ", "\t"])
    def test_both_paths_read_the_benchmark_shape(self, sep):
        g, text = self._benchmark_shaped(sep)
        assert parse_edge_list(text) == graphs_module._parse_lines(text) == g

    #: One bad data row each, written in place of a row: the line loop takes
    #: over at it, but at line 1 for a field past the digit limit, since json
    #: gives no position for a field its reader refuses.
    DEFECTS = {
        "half": lambda row: row + ".5",
        "three-fields": lambda row: row + " 1",
        "zero-padded": lambda row: "0" + row,
        "past-digit-limit": lambda row: row + "1" * graphs_module._int_reader()[1],
        "indented-comment": lambda row: "  # c\n" + row,
        "two-spaces": lambda row: row.replace(" ", "  "),
    }

    @pytest.mark.parametrize(
        "defect, where",
        [(defect, where) for defect in DEFECTS for where in ("first", "middle", "last")]
        + [("bad-header", None), ("count+1", None), ("count-1", None)],
    )
    def test_line_loop_resumes_at_the_first_row_the_bulk_read_refuses(
        self, monkeypatch, defect, where
    ):
        g = product(path_graph(40), path_graph(50), ProductKind.CARTESIAN)
        header, *rows = serialize_edge_list(g).splitlines()
        rng = random.Random(9)
        rng.shuffle(rows)
        for filler in ("# comment", "", "   ") * 20:
            rows.insert(rng.randrange(len(rows)), filler)
        lines = ["# P_40 x P_50", header, *rows]
        data = [i for i, line in enumerate(lines) if line[:1].isdigit()][1:]
        if defect == "bad-header":
            lines[1], start = f"0 {g.size}", 1
        elif defect == "count+1":
            # every row is read, so the line loop starts past the last line
            lines[1], start = f"{g.order} {g.size + 1}", len(lines) + 1
        elif defect == "count-1":
            lines[1], start = f"{g.order} {g.size - 1}", data[-1] + 1
        else:
            at = data[{"first": 0, "middle": len(data) // 2, "last": -1}[where]]
            lines[at] = self.DEFECTS[defect](lines[at])
            start = 1 if defect == "past-digit-limit" else at + 1
        text = "\n".join(lines) + "\n"
        starts = []
        line_loop = graphs_module._parse_lines

        def spied(text, start=1, *state):
            starts.append(start)
            return line_loop(text, start, *state)

        monkeypatch.setattr(graphs_module, "_parse_lines", spied)
        got = _outcome(parse_edge_list, text)
        assert starts == [start]
        monkeypatch.undo()
        assert got == _outcome(graphs_module._parse_lines, text)

    def test_resume_finds_a_repeated_row_at_its_own_line(self, monkeypatch):
        # the row past the count repeats an earlier row that, with the
        # comments before the header, lies at a line index past the row's
        # own index; the resume must name the repeated row's line, not the
        # earlier row's, so equal rows must not be taken for one another
        text = "# a\n# b\n# c\n4 2\n0 1\n1 2\n0 1\n"
        starts = []
        line_loop = graphs_module._parse_lines

        def spied(text, start=1, *state):
            starts.append(start)
            return line_loop(text, start, *state)

        monkeypatch.setattr(graphs_module, "_parse_lines", spied)
        with pytest.raises(EdgeListSyntaxError, match="more than 2 edge lines") as exc:
            parse_edge_list(text)
        assert starts == [7]
        assert exc.value.line == 7

    def test_parse_peaks_near_the_graph_it_keeps(self):
        # P_300 x P_150, 89 550 edges, shuffled and half flipped: the field
        # list and the code set are freed before the divmod pairs are made,
        # so the peak stays under 1.5 times the kept graph (about 1.3 times;
        # 2.3 times when all three were alive together)
        g = families.grid(300, 150)
        rng = random.Random(11)
        rows = [f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}" for u, v in g.edges]
        rng.shuffle(rows)
        text = f"{g.order} {g.size}\n" + "\n".join(rows) + "\n"
        tracemalloc.start()
        try:
            parsed = parse_edge_list(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parsed == g
        assert peak < 1.5 * kept, f"peak {peak} bytes, kept {kept}"


class TestRandomGraph:
    def test_zero_probability_is_edgeless(self):
        assert random_graph(5, 0.0, 3) == empty_graph(5)

    def test_unit_probability_is_complete(self):
        assert random_graph(4, 1.0, 9) == complete_graph(4)

    def test_same_seed_same_graph(self):
        assert random_graph(6, 0.5, 123) == random_graph(6, 0.5, 123)

    def test_probability_validated(self):
        with pytest.raises(GraphError):
            random_graph(5, 1.5, 0)


class TestTrustedBuilders:
    """The elementary builders skip pair validation: their output must be
    what the validating constructor builds from the same pairs."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_builders_equal_validated_construction(self, n):
        cases = [
            (empty_graph, []),
            (path_graph, [(i, i + 1) for i in range(n - 1)]),
            (star_graph, [(0, i) for i in range(1, n)]),
            (complete_graph, [(i, j) for i in range(n) for j in range(i + 1, n)]),
        ]
        if n >= 3:
            cases.append((cycle_graph, [(i, (i + 1) % n) for i in range(n)]))
        for builder, pairs in cases:
            G, H = builder(n), Graph(n, pairs)
            assert G == H and G.degrees() == H.degrees(), builder.__name__

    @given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 2 ** 32))
    def test_random_graph_equals_validated_construction(self, n, p, seed):
        G = random_graph(n, p, seed)
        # Graph() raises on a repeated pair and reorients a flipped one
        H = Graph(n, G.edges)
        assert G == H and G.degrees() == H.degrees()

    @pytest.mark.parametrize(
        "build",
        [empty_graph, path_graph, cycle_graph, star_graph, complete_graph,
         lambda n: random_graph(n, 0.0, 1)],
        ids=["empty", "path", "cycle", "star", "complete", "random"],
    )
    def test_order_above_the_cap_refused_before_any_pair(self, build):
        # each is refused before it builds a pair or draws a variate
        with pytest.raises(SizeOverflowError):
            build(DEFAULT_VERTEX_CAP + 1)
