import collections
import dataclasses
import functools
import importlib
import inspect
import itertools
import pkgutil
import random
import re
import tracemalloc
from itertools import permutations
from math import prod
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nbzagreb
import nbzagreb.graphs
from nbzagreb import (
    FAMILIES,
    EdgeListSyntaxError,
    Graph,
    ProductKind,
    SizeOverflowError,
    cartesian,
    cartesian_n,
    complete_graph,
    cycle_graph,
    delta_law_check,
    empty_graph,
    first_zagreb,
    forgotten,
    neighbourhood_zagreb,
    octane_isomers_all,
    parse_alkane_name,
    path_graph,
    product,
    random_graph,
    second_zagreb,
    star_graph,
    tensor,
    wreath,
)
from nbzagreb import build_family, families, parse_edge_list, products, verify
from nbzagreb.formulas import CATALOG

from oracle_helpers import mn_oracle, small_graphs

from test_graphs import graphs


def _random_pair(rng, max_order=8):
    def one():
        kind = rng.randrange(6)
        if kind == 0:
            return path_graph(rng.randint(1, max_order))
        if kind == 1:
            return cycle_graph(rng.randint(3, max_order))
        if kind == 2:
            return complete_graph(rng.randint(1, max_order))
        if kind == 3:
            return star_graph(rng.randint(2, max_order))
        if kind == 4:
            return empty_graph(rng.randint(1, max_order))
        return random_graph(
            rng.randint(1, max_order), rng.choice((0.3, 0.5, 0.8)),
            rng.randrange(10 ** 6),
        )

    return one(), one()


class TestConstructions:
    def test_cartesian_k2_p3_is_ladder(self):
        g = cartesian(complete_graph(2), path_graph(3))
        assert (g.order, g.size) == (6, 7)
        assert neighbourhood_zagreb(g) == 198

    def test_tensor_k2_k2_is_two_disjoint_edges(self):
        g = tensor(complete_graph(2), complete_graph(2))
        assert (g.order, g.size) == (4, 2)
        assert g.degrees() == (1, 1, 1, 1)

    def test_wreath_c3_p2_is_five_regular(self):
        g = wreath(cycle_graph(3), path_graph(2))
        assert g.order == 6
        assert set(g.degrees()) == {5}

    def test_vertex_encoding(self):
        # (u, v) -> u * |V2| + v; in K2 x P3, vertex (1,2) = 5 is adjacent
        # to (0,2) = 2 (first factor edge) and (1,1) = 4 (second factor edge)
        g = cartesian(complete_graph(2), path_graph(3))
        assert g.neighbors(5) == (2, 4)

    def test_wreath_not_commutative(self):
        a = wreath(path_graph(3), complete_graph(2))
        b = wreath(complete_graph(2), path_graph(3))
        assert a.size != b.size

    def test_product_dispatch(self):
        g1, g2 = path_graph(3), cycle_graph(4)
        assert product(g1, g2, ProductKind.CARTESIAN) == cartesian(g1, g2)
        assert product(g1, g2, ProductKind.TENSOR) == tensor(g1, g2)
        assert product(g1, g2, ProductKind.WREATH) == wreath(g1, g2)

    def test_size_overflow(self, monkeypatch):
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 10 ** 4)
        with pytest.raises(SizeOverflowError):
            cartesian(path_graph(100), path_graph(200))
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 10 ** 5)
        with pytest.raises(SizeOverflowError):
            cartesian_n([path_graph(30)] * 4)


def _refuse_construction(monkeypatch):
    """Fail the product pair lists and both graph constructors."""

    def refuse(*args):
        raise AssertionError("a pair list or a graph was built")

    monkeypatch.setattr(products, "_blocks", refuse)
    monkeypatch.setattr(Graph, "_from_canonical", refuse)
    monkeypatch.setattr(Graph, "__init__", refuse)


class TestCaps:
    """Both caps are constants of ``nbzagreb.graphs``, read at call time."""

    def test_lowering_the_vertex_cap_moves_every_refusal(self, monkeypatch):
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 11)
        g1, g2 = path_graph(3), path_graph(4)
        for kind in ProductKind:
            with pytest.raises(SizeOverflowError) as exc:
                product(g1, g2, kind)
            assert str(exc.value) == "product order 12 exceeds vertex cap 11"
        for name, params, message in [
            ("path", {"n": 12}, "order 12"),
            ("grid", {"m": 3, "n": 4}, "product order 12"),
            ("hypercube", {"m": 4}, "product order >= 2**4"),
        ]:
            with pytest.raises(SizeOverflowError) as exc:
                build_family(name, **params)
            assert str(exc.value) == f"{message} exceeds vertex cap 11"
        report = verify("EX_GRID", m_values=[4], n_values=[4])
        assert report.summary() == "EX_GRID: UNVERIFIED (1 points, 1 skipped)"
        with pytest.raises(EdgeListSyntaxError) as exc:
            parse_edge_list("12 0\n")
        assert str(exc.value) == "line 1: order 12 exceeds vertex cap 11"
        assert build_family("path", n=11).order == parse_edge_list("11 0\n").order == 11

    def test_no_public_callable_takes_a_cap(self):
        modules = [
            importlib.import_module(f"nbzagreb.{info.name}")
            for info in pkgutil.iter_modules(nbzagreb.__path__)
            if not info.name.startswith("_")
        ]
        callables = []
        for module in modules:
            for name, value in vars(module).items():
                if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    callables.append(value)
                elif inspect.isclass(value):
                    callables += [
                        attr for key, attr in vars(value).items()
                        if inspect.isfunction(attr) and (key == "__init__" or not key.startswith("_"))
                    ]
        assert len(callables) > 50
        for fn in callables:
            assert "vertex_cap" not in inspect.signature(fn).parameters, fn.__qualname__
        # records and families take exactly their parameters, no leading cap
        for record in CATALOG.values():
            if record.grid is not None:
                assert tuple(inspect.signature(record.oracle).parameters) == record.params
        for params, builder in FAMILIES.values():
            assert tuple(inspect.signature(builder).parameters) == params

    @pytest.mark.parametrize(
        "kind, size",
        [(ProductKind.CARTESIAN, 17), (ProductKind.TENSOR, 12), (ProductKind.WREATH, 41)],
    )
    def test_product_over_the_edge_cap_refused_before_any_pair(self, monkeypatch, kind, size):
        g1, g2 = path_graph(3), path_graph(4)
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_EDGE_CAP", size - 1)
        _refuse_construction(monkeypatch)
        with pytest.raises(SizeOverflowError) as exc:
            product(g1, g2, kind)
        assert str(exc.value) == f"product size {size} exceeds edge cap {size - 1}"

    def test_complete_graph_over_the_edge_cap_refused_before_any_pair(self, monkeypatch):
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_EDGE_CAP", 45)
        assert complete_graph(10).size == 45
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_EDGE_CAP", 44)
        _refuse_construction(monkeypatch)
        with pytest.raises(SizeOverflowError) as exc:
            complete_graph(10)
        assert str(exc.value) == "size 45 exceeds edge cap 44"
        # the size is checked before the order: K_-10 would have 55 edges
        with pytest.raises(SizeOverflowError) as exc:
            complete_graph(-10)
        assert str(exc.value) == "size 55 exceeds edge cap 44"

    def test_product_sizes_are_worked_out_exactly(self, monkeypatch):
        rng = random.Random(23)
        pairs = [_random_pair(rng) for _ in range(60)]
        for g1, g2 in pairs:
            for kind in ProductKind:
                monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_EDGE_CAP", 10 ** 7)
                size = product(g1, g2, kind).size
                monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_EDGE_CAP", size)
                assert product(g1, g2, kind).size == size
                monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_EDGE_CAP", size - 1)
                with pytest.raises(SizeOverflowError):
                    product(g1, g2, kind)

    @pytest.mark.parametrize(
        "build, size",
        [
            pytest.param(lambda: build_family("rook", m=1000, n=1000), 999000000, id="rook"),
            pytest.param(lambda: build_family("hamming", sizes=[1000, 1000]), 999000000,
                         id="hamming"),
            # K_100 x K_100 (990000 edges) passes; the fold refuses its next product
            pytest.param(lambda: build_family("hamming", sizes=[100, 100, 100]), 148500000,
                         id="hamming3"),
            pytest.param(lambda: CATALOG["EX_TENSOR_KK"].oracle(1000, 1000), 499000500000,
                         id="EX_TENSOR_KK"),
            pytest.param(lambda: CATALOG["EX_TENSOR_PK"].oracle(200, 1000), 198801000,
                         id="EX_TENSOR_PK"),
            pytest.param(lambda: CATALOG["EX_TENSOR_CK"].oracle(200, 1000), 199800000,
                         id="EX_TENSOR_CK"),
        ],
    )
    def test_complete_products_refused_before_any_factor(self, build, size):
        # each K_1000 factor (499500 edges) is under the edge cap; building
        # it would trace about 100 MB
        tracemalloc.start()
        try:
            with pytest.raises(SizeOverflowError) as exc:
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"product size {size} exceeds edge cap 10000000"
        assert peak < 1 << 20

    def test_complete_products_refuse_as_building_in_order_would(self, monkeypatch):
        """Under lowered caps, every product family and tensor line gives the
        graph or the first refusal that building every factor in order and
        then each product of the fold would give."""

        def outcome(build, *args):
            try:
                return build(*args)
            except ValueError as exc:
                return type(exc), str(exc)

        P, C, K = path_graph, cycle_graph, complete_graph

        def built(fold, *factors):
            families._check_order(*[n for _, n in factors])
            return functools.reduce(fold, [build(n) for build, n in factors])

        def hamming_built(sizes):
            families._check_factor_count(len(sizes))
            return built(cartesian, *[(K, s) for s in sizes])

        def hypercube_built(m):
            if m < 1:
                raise ValueError(f"hypercube dimension must be >= 1, got {m}")
            return hamming_built([2] * m)

        # (family, the same built in order) for family(n) and for family(m, n)
        one_parameter = [
            (families.ladder, lambda n: built(cartesian, (P, 2), (P, n + 1))),
            (families.prism, lambda n: built(cartesian, (K, 2), (C, n))),
            (families.hypercube, hypercube_built),
            (families.fence, lambda n: built(wreath, (P, n), (P, 2))),
            (families.closed_fence, lambda n: built(wreath, (C, n), (P, 2))),
        ]
        two_parameters = [
            (families.rook, lambda m, n: built(cartesian, (K, m), (K, n))),
            (families.grid, lambda m, n: built(cartesian, (P, m), (P, n))),
            (families.nanotube, lambda m, n: built(cartesian, (P, n), (C, m))),
            (families.nanotorus, lambda m, n: built(cartesian, (C, m), (C, n))),
            # the complete factor first: it is sized before the path is built
            (lambda n, m: families._product(ProductKind.TENSOR, (K, n), (P, m)),
             lambda n, m: built(tensor, (K, n), (P, m))),
        ]
        factors = {"P": P, "C": C, "K": K}
        for line in ("PP", "CC", "KK", "PC", "PK", "CK"):
            left, right = factors[line[0]], factors[line[1]]
            two_parameters.append((
                CATALOG[f"EX_TENSOR_{line}"].oracle,
                lambda n, m, left=left, right=right: built(tensor, (left, n), (right, m)),
            ))
        size_lists = [
            list(sizes) for k in (1, 2, 3) for sizes in itertools.product(range(2, 6), repeat=k)
        ]
        seen = set()
        for vertex_cap, edge_cap in [(30, 8), (30, 60), (60, 40), (100, 300)]:
            monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", vertex_cap)
            monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_EDGE_CAP", edge_cap)
            for m in range(-4, 9):
                for family, reference in one_parameter:
                    assert outcome(family, m) == outcome(reference, m), (family, m)
                for n in range(-4, 9):
                    for family, reference in two_parameters:
                        assert outcome(family, m, n) == outcome(reference, m, n), (family, m, n)
                    got = outcome(families.rook, m, n)
                    seen.add(re.sub(r"-?\d+", "N", got[1]) if isinstance(got, tuple) else "built")
            for sizes in size_lists:
                assert outcome(families.hamming, sizes) == outcome(hamming_built, sizes), sizes
        # rook alone reaches built graphs and every refusal on the way
        assert seen == {
            "built",
            "product order N exceeds vertex cap N",
            "size N exceeds edge cap N",
            "order must be >= N, got N",
            "product size N exceeds edge cap N",
        }

    def test_verify_skips_a_point_over_the_edge_cap(self, monkeypatch):
        # K8 x K3 has 2 * 28 * 3 = 168 edges, K8 x K8 has 1568
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_EDGE_CAP", 1000)
        report = verify("EX_TENSOR_KK", n_values=[8], m_values=[3, 8])
        assert report.summary() == "EX_TENSOR_KK: CONSISTENT (2 points, 1 skipped)"
        assert [p.skipped for p in report.points] == [False, True]


def _by_definition(G1, G2, kind):
    """The product through the validated constructor, pair by pair from the
    adjacency rules in the ``products`` module docstring."""
    n2 = G2.order
    e1, e2 = set(G1.edges), set(G2.edges)

    def adjacent(x, y):
        (u1, v1), (u2, v2) = divmod(x, n2), divmod(y, n2)
        in_g1 = (min(u1, u2), max(u1, u2)) in e1
        in_g2 = (min(v1, v2), max(v1, v2)) in e2
        if kind is ProductKind.CARTESIAN:
            return (u1 == u2 and in_g2) or (v1 == v2 and in_g1)
        if kind is ProductKind.TENSOR:
            return in_g1 and in_g2
        return in_g1 or (u1 == u2 and in_g2)

    n = G1.order * n2
    return Graph(n, [(x, y) for x in range(n) for y in range(x + 1, n) if adjacent(x, y)])


class TestTrustedConstruction:
    @pytest.mark.parametrize("kind", list(ProductKind))
    @given(graphs(max_order=5), graphs(max_order=5))
    @example(empty_graph(1), complete_graph(4))
    @example(cycle_graph(4), empty_graph(1))
    @example(empty_graph(3), path_graph(3))
    @example(star_graph(4), empty_graph(2))
    @example(empty_graph(1), empty_graph(1))
    def test_product_matches_definition(self, kind, g1, g2):
        built = product(g1, g2, kind)
        expected = _by_definition(g1, g2, kind)
        assert built.order == expected.order
        assert built.edges == expected.edges
        assert built.adjacency == expected.adjacency
        assert built.degrees() == expected.degrees()
        assert built.neighbor_degree_sums() == expected.neighbor_degree_sums()
        assert built == expected and hash(built) == hash(expected)

    @given(graphs(), st.randoms(use_true_random=False))
    def test_from_canonical_on_shuffled_keys(self, g, rnd):
        # whole first-vertex runs are shuffled, each kept in its increasing
        # order, as the trusted contract asks
        runs = [list(run) for _, run in itertools.groupby(g.edges, key=lambda e: e[0])]
        rnd.shuffle(runs)
        keys = list(itertools.chain.from_iterable(runs))
        trusted = Graph._from_canonical(g.order, list(keys))
        validated = Graph(g.order, keys)
        assert trusted.edges == validated.edges == g.edges
        assert trusted.adjacency == validated.adjacency
        assert trusted.degrees() == validated.degrees()
        assert trusted == validated and hash(trusted) == hash(validated)


def _trusted_keys(build):
    """Each ``(order, keys)`` that ``build()`` hands to ``Graph._from_canonical``,
    the keys copied before the trusted build sorts them."""
    calls = []
    trusted = Graph._from_canonical

    def record(order, keys):
        calls.append((order, list(keys)))
        return trusted(order, keys)

    with mock.patch.object(Graph, "_from_canonical", record):
        build()
    return calls


def _assert_contract(calls, count=1):
    """There are ``count`` calls, and each meets the trusted contract: pairs
    ``u < v < order``, each first vertex's pairs strictly increasing in
    ``v``, hence distinct."""
    assert len(calls) == count
    for order, keys in calls:
        last: dict[int, int] = {}
        for u, v in keys:
            assert 0 <= u < v < order, (u, v)
            assert last.get(u, -1) < v, (u, last[u], v)
            last[u] = v


class TestTrustedBuilders:
    """Every trusted builder emits each first vertex's pairs in increasing
    order, which a stable sort on the first vertex alone makes canonical."""

    @pytest.mark.parametrize("kind", list(ProductKind))
    @given(graphs(max_order=6), graphs(max_order=6))
    @example(empty_graph(1), complete_graph(4))
    @example(complete_graph(4), empty_graph(1))
    @example(empty_graph(3), cycle_graph(5))
    @example(cycle_graph(5), empty_graph(3))
    @example(complete_graph(6), complete_graph(6))
    def test_products(self, kind, g1, g2):
        _assert_contract(_trusted_keys(lambda: product(g1, g2, kind)))

    @given(st.lists(graphs(max_order=4), min_size=1, max_size=4))
    @example([complete_graph(4), path_graph(2), empty_graph(1)])
    @example([complete_graph(2)] * 4)
    @example([cycle_graph(4), empty_graph(1), complete_graph(3), path_graph(4)])
    def test_cartesian_n(self, factors):
        # one factor is returned as it is, with nothing built
        calls = _trusted_keys(lambda: cartesian_n(factors))
        _assert_contract(calls, count=int(len(factors) > 1))

    @pytest.mark.parametrize("build, n", [
        (build, n)
        for build in (path_graph, cycle_graph, complete_graph, star_graph, empty_graph)
        for n in range(3 if build is cycle_graph else 1, 13)
    ])
    def test_elementary_families(self, build, n):
        _assert_contract(_trusted_keys(lambda: build(n)))

    @given(st.integers(1, 12), st.floats(0, 1), st.integers(0, 2 ** 32))
    def test_random_graph(self, order, p, seed):
        _assert_contract(_trusted_keys(lambda: random_graph(order, p, seed)))

    @pytest.mark.parametrize("name", [rec.name for rec in octane_isomers_all()])
    def test_octane_trees(self, name):
        _assert_contract(_trusted_keys(lambda: parse_alkane_name(name)))


class TestCartesianN:
    def test_hypercube_q3(self):
        g = cartesian_n([complete_graph(2)] * 3)
        assert (g.order, g.size) == (8, 12)

    def test_single_factor_identity(self):
        assert cartesian_n([complete_graph(2)]) == complete_graph(2)

    def test_rook_3x3(self):
        g = cartesian_n([complete_graph(3), complete_graph(3)])
        assert (g.order, g.size) == (9, 18)

    def test_nary_edge_count_law(self):
        # |E| = |V| * sum(|E_i| / |V_i|) over the factors
        rng = random.Random(31)
        for _ in range(30):
            k = rng.randint(2, 4)
            factors = [_random_pair(rng, 5)[0] for _ in range(k)]
            g = cartesian_n(factors)
            v = prod(f.order for f in factors)
            expected = sum(v // f.order * f.size for f in factors)
            assert g.size == expected

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            cartesian_n([])

    def test_empty_iterable_rejected(self):
        with pytest.raises(ValueError, match="^cartesian_n needs at least one factor$"):
            cartesian_n(iter([]))

    @given(st.lists(st.one_of(graphs(max_order=4), st.just(empty_graph(1)),
                              st.integers(1, 4).map(empty_graph)), min_size=1, max_size=4))
    @example([empty_graph(1)] * 4)
    @example([complete_graph(2), empty_graph(1), cycle_graph(3)])
    @example([empty_graph(2), complete_graph(3), complete_graph(2)])
    def test_matches_the_binary_fold_and_the_definition(self, factors):
        g = cartesian_n(iter(factors))
        assert g == functools.reduce(cartesian, factors)
        # (x1..xk) ~ (y1..yk) iff they differ in one coordinate i, where
        # x_i y_i is an edge of factor i; ids are mixed-radix, last fastest
        tuples = list(itertools.product(*(range(f.order) for f in factors)))
        expected = {
            (tuples.index(x), tuples.index(y))
            for x, y in itertools.combinations(tuples, 2)
            if sum(a != b for a, b in zip(x, y)) == 1
            and all(f.has_edge(a, b) for f, a, b in zip(factors, x, y) if a != b)
        }
        assert g.order == len(tuples) and set(g.edges) == expected

    @pytest.mark.parametrize("factors", [
        [complete_graph(2)] * 8,
        [complete_graph(3), path_graph(40), complete_graph(2), cycle_graph(5)],
        [path_graph(5), complete_graph(2), complete_graph(2), complete_graph(4), empty_graph(1)],
    ], ids=["Q8", "mixed", "K1-last"])
    def test_larger_tuples_match_the_binary_fold(self, factors):
        assert cartesian_n(factors) == functools.reduce(cartesian, factors)

    @pytest.mark.parametrize("factors, cap, edges", [
        ([path_graph(30)] * 4, 10 ** 5, False),
        ([complete_graph(2)] * 12, 2 ** 11, False),
        ([complete_graph(40), complete_graph(40), complete_graph(3)], 10 ** 5, True),
    ])
    def test_refuses_as_the_binary_fold_does(self, monkeypatch, factors, cap, edges):
        name = "DEFAULT_EDGE_CAP" if edges else "DEFAULT_VERTEX_CAP"
        monkeypatch.setattr(nbzagreb.graphs, name, cap)
        with pytest.raises(SizeOverflowError) as folded:
            functools.reduce(cartesian, factors)
        _refuse_construction(monkeypatch)
        with pytest.raises(SizeOverflowError) as built:
            cartesian_n(factors)
        assert str(built.value) == str(folded.value)

    @pytest.mark.parametrize("m", [1, 2, 5, 9])
    def test_hypercube_is_the_binary_fold(self, m):
        assert families.hypercube(m) == functools.reduce(cartesian, [complete_graph(2)] * m)

    @pytest.mark.parametrize("sizes", [[2], [3, 4], [2, 3, 4], [4, 2, 3, 2]])
    def test_hamming_is_the_binary_fold(self, sizes):
        fold = functools.reduce(cartesian, map(complete_graph, sizes))
        assert families.hamming(sizes) == fold


class TestEdgeCountLaws:
    @given(graphs(max_order=6), graphs(max_order=6))
    def test_cartesian(self, g1, g2):
        assert cartesian(g1, g2).size == g2.order * g1.size + g1.order * g2.size

    @given(graphs(max_order=6), graphs(max_order=6))
    def test_tensor(self, g1, g2):
        assert tensor(g1, g2).size == 2 * g1.size * g2.size

    @given(graphs(max_order=6), graphs(max_order=6))
    def test_wreath(self, g1, g2):
        assert wreath(g1, g2).size == g2.order ** 2 * g1.size + g1.order * g2.size


class TestCommutativity:
    @given(graphs(max_order=5), graphs(max_order=5))
    @settings(max_examples=40)
    def test_cartesian_and_tensor_index_values(self, g1, g2):
        for make in (cartesian, tensor):
            a, b = make(g1, g2), make(g2, g1)
            for index in (first_zagreb, second_zagreb, neighbourhood_zagreb, forgotten):
                assert index(a) == index(b)


class TestDeltaLaws:
    def test_wreath_c3_p2_all_25(self):
        g1, g2 = cycle_graph(3), path_graph(2)
        assert delta_law_check(g1, g2, ProductKind.WREATH)
        w = wreath(g1, g2)
        assert set(w.neighbor_degree_sums()) == {25}

    def test_tensor_with_edgeless_factor(self):
        g1 = random_graph(5, 0.6, 1)
        g2 = empty_graph(4)
        assert delta_law_check(g1, g2, ProductKind.TENSOR)
        assert set(tensor(g1, g2).neighbor_degree_sums()) == {0}

    def test_cartesian_p4_c5(self):
        assert delta_law_check(path_graph(4), cycle_graph(5), ProductKind.CARTESIAN)

    def test_200_random_pairs_all_kinds(self):
        rng = random.Random(99)
        for _ in range(200):
            g1, g2 = _random_pair(rng, 8)
            for kind in ProductKind:
                assert delta_law_check(g1, g2, kind), (g1.edges, g2.edges, kind)

    @pytest.mark.parametrize(
        "kind, wrong",
        [
            # each drops or changes one term that is nonzero on P3 and C4
            (ProductKind.CARTESIAN, lambda s1, d1, s2, d2, n2, e2: s1 + s2),
            (ProductKind.TENSOR, lambda s1, d1, s2, d2, n2, e2: s1 + s2),
            (ProductKind.WREATH,
             lambda s1, d1, s2, d2, n2, e2: n2 * n2 * s1 + s2 + n2 * d1 * d2),
        ],
    )
    def test_wrong_law_fails(self, monkeypatch, kind, wrong):
        g1, g2 = path_graph(3), cycle_graph(4)
        assert delta_law_check(g1, g2, kind)
        record = dataclasses.replace(products._KINDS[kind], law=wrong)
        monkeypatch.setitem(products._KINDS, kind, record)
        assert not delta_law_check(g1, g2, kind)


def _corpus(max_order):
    return [Graph(order, edges) for order, edges in small_graphs(max_order)]


def check_product_corpus(max_order):
    """Check every kind's size rule and vertex law on every ordered pair of
    graphs of order 1 to ``max_order``, one per isomorphism class; return
    the number of pairs.  Tier-1 runs it at order 5 and CI at order 6."""
    pairs = list(itertools.product(_corpus(max_order), repeat=2))
    for kind in ProductKind:
        for g1, g2 in pairs:
            built = product(g1, g2, kind)
            dims = [(g1.order, g1.size), (g2.order, g2.size)]
            assert products._check_product(kind, dims) == (built.order, built.size), \
                (kind, g1, g2)
            assert delta_law_check(g1, g2, kind), (kind, g1, g2)
    return len(pairs)


class TestSmallGraphCorpus:
    """Each product kind's record against every small graph, up to isomorphism."""

    def test_class_counts(self):
        counts = collections.Counter(order for order, _ in small_graphs(5))
        assert [counts[order] for order in range(1, 6)] == [1, 2, 4, 11, 34]

    def test_size_rules_and_laws(self):
        assert check_product_corpus(5) == 2704

    @pytest.mark.parametrize("kind", list(ProductKind))
    def test_builders_match_definition(self, kind):
        pairs = list(itertools.product(_corpus(4), repeat=2))
        assert len(pairs) == 324
        for g1, g2 in pairs:
            assert product(g1, g2, kind) == _by_definition(g1, g2, kind), (g1, g2)

    def test_cartesian_n_on_triples(self):
        triples = list(itertools.product(_corpus(3), repeat=3))
        assert len(triples) == 343
        for triple in triples:
            built = cartesian_n(triple)
            assert built == functools.reduce(cartesian, triple), triple
            dims = [(g.order, g.size) for g in triple]
            folded = products._check_product(ProductKind.CARTESIAN, dims)
            assert folded == (built.order, built.size), triple

    @pytest.mark.parametrize(
        "kind, wrong",
        [
            # each changes one term that is nonzero on P3 and C4
            (ProductKind.CARTESIAN, lambda n1, m1, n2, m2: n1 * m2 + m1),
            (ProductKind.TENSOR, lambda n1, m1, n2, m2: m1 * m2),
            (ProductKind.WREATH, lambda n1, m1, n2, m2: m1 * n2 + n1 * m2),
        ],
    )
    def test_wrong_size_rule_fails(self, monkeypatch, kind, wrong):
        factors = (path_graph, 3), (cycle_graph, 4)
        built = families._product(kind, *factors)
        assert families._plan(kind, *factors) == (built.order, built.size)
        record = dataclasses.replace(products._KINDS[kind], size=wrong)
        monkeypatch.setitem(products._KINDS, kind, record)
        with pytest.raises(AssertionError):
            check_product_corpus(3)
        built = families._product(kind, *factors)
        assert families._plan(kind, *factors) != (built.order, built.size)


class TestNaryZagrebLaws:
    """M1 and M2 of n-ary cartesian products against the tuple-sum formulas."""

    @staticmethod
    def _m1_formula(factors):
        v = [f.order for f in factors]
        e = [f.size for f in factors]
        V = prod(v)
        idx = range(len(factors))
        total = sum(V // v[i] * first_zagreb(factors[i]) for i in idx)
        total += 4 * sum(
            V // (v[i] * v[j]) * e[i] * e[j] for i, j in permutations(idx, 2)
        )
        return total

    @staticmethod
    def _m2_formula(factors):
        v = [f.order for f in factors]
        e = [f.size for f in factors]
        V = prod(v)
        idx = range(len(factors))
        total = sum(V // v[i] * second_zagreb(factors[i]) for i in idx)
        # M1_i * (|E|/v_i - |V| E_i / v_i^2) telescopes to a sum over j != i
        total += 3 * sum(
            first_zagreb(factors[i]) * (V // (v[i] * v[j])) * e[j]
            for i, j in permutations(idx, 2)
        )
        total += 4 * sum(
            V // (v[i] * v[j] * v[k]) * e[i] * e[j] * e[k]
            for i, j, k in permutations(idx, 3)
        )
        return total

    def test_formulas_on_random_tuples(self):
        rng = random.Random(17)
        for _ in range(40):
            k = rng.randint(2, 4)
            factors = [_random_pair(rng, 5)[0] for _ in range(k)]
            g = cartesian_n(factors)
            assert first_zagreb(g) == self._m1_formula(factors)
            assert second_zagreb(g) == self._m2_formula(factors)


class TestOracleAgreement:
    @given(graphs(max_order=6), graphs(max_order=6))
    @settings(max_examples=40)
    def test_mn_of_products_matches_definition(self, g1, g2):
        for kind in ProductKind:
            p = product(g1, g2, kind)
            assert neighbourhood_zagreb(p) == mn_oracle(p.order, p.edges)
