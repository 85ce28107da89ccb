import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nbzagreb import (
    Graph,
    TooLargeError,
    compute_index,
    complete_graph,
    cycle_graph,
    empty_graph,
    first_zagreb,
    forgotten,
    harary,
    hosoya,
    merrifield_simmons,
    neighbourhood_zagreb,
    path_graph,
    random_graph,
    randic,
    second_zagreb,
    star_graph,
)
from nbzagreb import families, indices

from oracle_helpers import count_independent_sets, count_matchings, floyd_warshall

from test_graphs import graphs


class TestNeighbourhoodZagreb:
    def test_octane_skeleton(self):
        assert neighbourhood_zagreb(path_graph(8)) == 90

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycles(self, n):
        # 2-regular: every neighbour-degree sum is 4
        assert neighbourhood_zagreb(cycle_graph(n)) == 16 * n

    def test_p4(self):
        assert neighbourhood_zagreb(path_graph(4)) == 26

    def test_edgeless_is_zero(self):
        assert neighbourhood_zagreb(empty_graph(5)) == 0

    @given(graphs(max_order=7), st.randoms(use_true_random=False))
    def test_adding_edge_strictly_increases(self, g, rng):
        absent = [
            (u, v)
            for u in range(g.order)
            for v in range(u + 1, g.order)
            if not g.has_edge(u, v)
        ]
        if not absent:
            return
        extra = absent[rng.randrange(len(absent))]
        bigger = Graph(g.order, list(g.edges) + [extra])
        assert neighbourhood_zagreb(bigger) > neighbourhood_zagreb(g)


class TestClassicDegreeIndices:
    def test_p4_zagrebs(self):
        assert first_zagreb(path_graph(4)) == 10
        assert second_zagreb(path_graph(4)) == 8

    def test_randic_p3(self):
        assert randic(path_graph(3)) == pytest.approx(math.sqrt(2), rel=1e-12)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_forgotten_cycles(self, n):
        assert forgotten(cycle_graph(n)) == 8 * n

    @pytest.mark.parametrize("n", range(3, 7))
    def test_regular_graph_identities(self, n):
        # r-regular on n vertices: M1 = n r^2, F = n r^3, MN = n r^4
        g = complete_graph(n)
        r = n - 1
        assert first_zagreb(g) == n * r ** 2
        assert forgotten(g) == n * r ** 3
        assert neighbourhood_zagreb(g) == n * r ** 4

    @given(graphs())
    def test_delta_sum_is_m1(self, g):
        assert sum(g.neighbor_degree_sums()) == first_zagreb(g)

    @given(graphs())
    def test_degree_weighted_delta_sum_is_twice_m2(self, g):
        total = sum(
            d * s for d, s in zip(g.degrees(), g.neighbor_degree_sums())
        )
        assert total == 2 * second_zagreb(g)


def _harary_oracle(g):
    """Harary index from Floyd-Warshall distances."""
    dist = floyd_warshall(g.order, g.edges)
    return sum(
        (Fraction(1, int(dist[u][v]))
         for u in range(g.order) for v in range(u + 1, g.order)
         if dist[u][v] != math.inf),
        Fraction(0),
    )


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@st.composite
def sparse_graphs(draw, max_order=9, max_size=12):
    """Any graph with few enough edges for ``count_matchings``: forests,
    disconnected and edgeless graphs and order 1 included."""
    n = draw(st.integers(min_value=1, max_value=max_order))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=max_size, unique=True)) if pairs else []
    return Graph(n, edges)


class TestCountingIndices:
    def test_p4_matchings(self):
        assert hosoya(path_graph(4)) == 5

    def test_p4_independent_sets(self):
        assert merrifield_simmons(path_graph(4)) == 8

    def test_k1_conventions(self):
        assert hosoya(empty_graph(1)) == 1
        assert merrifield_simmons(empty_graph(1)) == 2

    def test_against_subset_enumeration(self):
        rng = random.Random(5)
        samples = [
            path_graph(6), cycle_graph(6), complete_graph(5), star_graph(6),
            empty_graph(4),
        ]
        samples += [
            random_graph(rng.randint(1, 6), rng.choice((0.3, 0.5, 0.8)),
                         rng.randrange(10 ** 6))
            for _ in range(40)
        ]
        for g in samples:
            assert hosoya(g) == count_matchings(g.order, g.edges)
            assert merrifield_simmons(g) == count_independent_sets(g.order, g.edges)

    @given(sparse_graphs())
    @example(empty_graph(1))
    @example(empty_graph(7))
    @example(Graph(9, [(0, 1), (1, 2), (3, 4), (3, 5), (3, 6)]))  # a forest
    @example(Graph(9, [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6), (6, 7), (7, 8), (5, 8)]))
    @example(Graph(8, [(0, 7), (7, 1), (1, 6), (6, 0), (2, 5), (3, 4)]))  # labels interleaved
    def test_hypothesis_against_subset_enumeration(self, g):
        assert hosoya(g) == count_matchings(g.order, g.edges)
        assert merrifield_simmons(g) == count_independent_sets(g.order, g.edges)

    def test_path_closed_forms(self):
        for n in range(1, 301):
            g = path_graph(n)
            assert hosoya(g) == _fibonacci(n + 1)
            assert merrifield_simmons(g) == _fibonacci(n + 2)

    def test_cycle_closed_forms(self):
        for n in range(3, 301):
            g = cycle_graph(n)
            assert hosoya(g) == merrifield_simmons(g) == _lucas(n)

    def test_products_over_components(self):
        # C_5 + P_4 + K_1, in interleaved labels
        g = Graph(10, [(0, 2), (2, 4), (4, 6), (6, 8), (0, 8), (1, 3), (3, 5), (5, 7)])
        assert hosoya(g) == _lucas(5) * _fibonacci(5)
        assert merrifield_simmons(g) == _lucas(5) * _fibonacci(6) * 2

    @pytest.mark.parametrize("count", [hosoya, merrifield_simmons])
    def test_long_path_in_linear_memory(self, count):
        # holding every vertex's count would take about 10 MB here
        g = path_graph(10000)
        g.adjacency
        tracemalloc.start()
        try:
            count(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10 ** 6

    def test_long_cycle_without_recursion(self, monkeypatch):
        # the recursion is deeper than the interpreter's frame limit
        monkeypatch.setattr(indices, "COUNTING_STATE_BUDGET", 1 << 24)
        n = 3000
        assert n > sys.getrecursionlimit()
        assert hosoya(cycle_graph(n)) == _lucas(n)
        assert merrifield_simmons(cycle_graph(n)) == _lucas(n)


def _relabelled(g, rng):
    perm = list(range(g.order))
    rng.shuffle(perm)
    return Graph(g.order, [(perm[u], perm[v]) for u, v in g.edges])


def _order_cost(g, order):
    """Sum of 2**b_i by definition: b_i counts the vertices at positions
    >= i with a neighbour before i."""
    pos = {v: i for i, v in enumerate(order)}
    return sum(
        2 ** sum(1 for v in order[i:] if any(pos[u] < i for u in g.neighbors(v)))
        for i in range(len(order))
    )


def _bfs(g, root):
    order = [root]
    for v in order:
        order += [u for u in g.neighbors(v) if u not in order]
    return order


def _cyclic_orders(g):
    """``(BFS order, chosen order, its masks)`` per component with a cycle."""
    mark, components = indices._components(g.adjacency)
    return [
        (order, *indices._ordered_masks(g.adjacency, order, up, mark))
        # a component has a cycle iff its degrees sum to more than 2 (k - 1)
        for order, up in components if sum(map(g.degree, order)) > 2 * len(order) - 2
    ]


class TestCountingOrder:
    @given(st.one_of(graphs(max_order=14), sparse_graphs(max_order=14, max_size=20)),
           st.randoms(use_true_random=False))
    @example(families.hypercube(4), random.Random(0))
    @example(cycle_graph(14), random.Random(1))
    def test_values_independent_of_labels(self, g, rng):
        h = _relabelled(g, rng)
        assert hosoya(h) == hosoya(g)
        assert merrifield_simmons(h) == merrifield_simmons(g)

    @given(st.one_of(graphs(max_order=10), sparse_graphs(max_order=12, max_size=16)),
           st.randoms(use_true_random=False))
    @example(families.grid(4, 5), random.Random(0))
    @example(families.prism(7), random.Random(0))
    def test_cheapest_of_three_candidates(self, g, rng):
        g = _relabelled(g, rng)
        for bfs, chosen, masks in _cyclic_orders(g):
            pos = {v: i for i, v in enumerate(chosen)}
            assert masks == [sum(1 << pos[u] for u in g.neighbors(v)) for v in chosen]
            by_vertex = sorted(bfs)
            costs = [_order_cost(g, o) for o in (by_vertex, bfs, _bfs(g, bfs[-1]))]
            assert _order_cost(g, chosen) == min(costs) <= costs[0]
            if costs[0] == min(costs):
                assert chosen == by_vertex

    @pytest.mark.parametrize("graph", [complete_graph(12), cycle_graph(60)], ids=["K12", "C60"])
    def test_vertex_order_kept_on_a_tie(self, graph):
        [(bfs, chosen, _)] = _cyclic_orders(graph)
        assert chosen == sorted(bfs) == list(range(graph.order))


class TestCountingBudget:
    @pytest.mark.parametrize("count", [hosoya, merrifield_simmons])
    def test_trees_never_refused(self, monkeypatch, count):
        monkeypatch.setattr(indices, "COUNTING_STATE_BUDGET", 0)
        assert count(path_graph(200)) == (
            _fibonacci(201) if count is hosoya else _fibonacci(202)
        )
        assert count(Graph(5, [(0, 1), (2, 3)])) > 1

    def test_order_above_the_old_guard_answered(self):
        n = indices.COUNTING_ORDER_LIMIT + 8
        assert hosoya(path_graph(n)) == 165580141
        assert merrifield_simmons(complete_graph(n)) == n + 1
        assert hosoya(cycle_graph(n)) == _lucas(n)

    def test_states_refused(self, monkeypatch):
        monkeypatch.setattr(indices, "COUNTING_STATE_BUDGET", 100)
        with pytest.raises(TooLargeError) as exc:
            hosoya(complete_graph(12))
        assert str(exc.value) == (
            "Z exceeds the counting budget of 100 mask words "
            "on a component with a cycle and at least 12 vertices"
        )
        assert isinstance(exc.value, ValueError)
        # answered under the real budget: Z(K_12) is the involution number
        monkeypatch.undo()
        assert hosoya(complete_graph(12)) == 140152

    @pytest.mark.parametrize(
        "graph, z_budget, sigma_budget",
        [
            pytest.param(complete_graph(12), 382, 24, id="K12"),
            pytest.param(cycle_graph(60), 176, 177, id="C60"),
            pytest.param(families.hypercube(4), 327, 102, id="Q4"),
            pytest.param(families.grid(4, 5), 121, 79, id="grid4x5"),
            pytest.param(families.prism(7), 88, 58, id="prism7"),
        ],
    )
    @pytest.mark.parametrize("count, index_id", [(hosoya, "Z"), (merrifield_simmons, "SIGMA")])
    def test_budget_boundary(self, monkeypatch, graph, z_budget, sigma_budget, count, index_id):
        # the smallest budget that answers: masks plus memoised states, exactly
        budget = z_budget if index_id == "Z" else sigma_budget
        value = count(graph)
        monkeypatch.setattr(indices, "COUNTING_STATE_BUDGET", budget)
        assert count(graph) == value
        monkeypatch.setattr(indices, "COUNTING_STATE_BUDGET", budget - 1)
        with pytest.raises(TooLargeError) as exc:
            count(graph)
        assert str(exc.value) == (
            f"{index_id} exceeds the counting budget of {budget - 1} mask words "
            f"on a component with a cycle and at least {graph.order} vertices"
        )

    @pytest.mark.parametrize("count, index_id", [(hosoya, "Z"), (merrifield_simmons, "SIGMA")])
    def test_masks_refused_before_they_exist(self, monkeypatch, count, index_id):
        # 130 vertices in a cycle need 130 * 3 mask words; the forest
        # beside it is not charged
        g = Graph(140, [(i, i + 1) for i in range(129)] + [(0, 129)]
                  + [(130 + i, 131 + i) for i in range(9)])
        monkeypatch.setattr(indices, "COUNTING_STATE_BUDGET", 130 * 3 - 1)

        def never(*args):
            raise AssertionError("recursion started")

        monkeypatch.setattr(indices, "_matching_split", never)
        monkeypatch.setattr(indices, "_independent_split", never)
        with pytest.raises(TooLargeError, match=f"^{index_id} exceeds .* 130 vertices$"):
            count(g)

    def test_large_cyclic_graph_refused_before_adjacency(self, monkeypatch):
        # the order alone exceeds the budget, so the edges are checked first
        monkeypatch.setattr(indices, "COUNTING_STATE_BUDGET", 50)
        g = cycle_graph(60)
        with pytest.raises(TooLargeError, match="at least 60 vertices$"):
            hosoya(g)
        assert g._adj is None
        # a triangle with a long tail: refused once the tail reaches 51
        # vertices, before the rest of the edges are read
        g = Graph(60, [(0, 1), (0, 2), (1, 2)] + [(i, i + 1) for i in range(2, 59)])
        with pytest.raises(TooLargeError, match="at least 51 vertices$"):
            merrifield_simmons(g)
        assert g._adj is None

    def test_large_forest_with_small_cycles_answered(self, monkeypatch):
        # order 60 passes the edge check: every cycle sits in a triangle
        monkeypatch.setattr(indices, "COUNTING_STATE_BUDGET", 50)
        edges = [(i, i + 1) for i in range(50)] + [(51, 52), (52, 53), (51, 53)]
        g = Graph(60, edges)
        assert merrifield_simmons(g) == _fibonacci(53) * 4 * 2 ** 6
        assert hosoya(g) == _fibonacci(52) * 4


class TestHarary:
    def test_p3(self):
        assert harary(path_graph(3)) == Fraction(5, 2)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_complete(self, n):
        assert harary(complete_graph(n)) == Fraction(n * (n - 1), 2)

    def test_disconnected_pairs_contribute_zero(self):
        assert harary(Graph(4, [(0, 1), (2, 3)])) == 2

    def test_k1_and_edgeless(self):
        assert harary(empty_graph(1)) == 0
        assert harary(empty_graph(5)) == 0

    def test_path_against_floyd_warshall(self):
        g = path_graph(3)
        assert harary(g) == _harary_oracle(g) == 1 + 1 + Fraction(1, 2)

    def test_unreachable_pairs_against_floyd_warshall(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert harary(g) == _harary_oracle(g) == 2

    def test_cycle_diameter_against_floyd_warshall(self):
        # C_4: four pairs at distance 1, two at the diameter 2
        g = cycle_graph(4)
        assert harary(g) == _harary_oracle(g) == 4 + 2 * Fraction(1, 2)

    def test_against_floyd_warshall(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 8)
            g = random_graph(n, rng.choice((0.2, 0.5, 0.8)), rng.randrange(10 ** 6))
            assert harary(g) == _harary_oracle(g)

    @given(graphs(max_order=12))
    def test_hypothesis_against_floyd_warshall(self, g):
        assert harary(g) == _harary_oracle(g)

    def test_path_closed_form(self):
        n = 250
        expected = sum((Fraction(n - d, d) for d in range(1, n)), Fraction(0))
        assert harary(path_graph(n)) == expected

    def test_refused_before_any_bfs(self, monkeypatch):
        g = cycle_graph(10)
        monkeypatch.setattr(indices, "HARARY_WORK_BUDGET", 10 * 20 - 1)

        def never(G):
            raise AssertionError("a BFS ran")

        monkeypatch.setattr(indices, "_distance_histogram", never)
        with pytest.raises(TooLargeError) as exc:
            harary(g)
        assert str(exc.value) == (
            "HARARY needs 200 BFS steps (order x (order + size)), over the budget of 199"
        )
        assert g._adj is None

    def test_at_the_budget_answered(self, monkeypatch):
        monkeypatch.setattr(indices, "HARARY_WORK_BUDGET", 10 * 20)
        assert harary(cycle_graph(10)) == _harary_oracle(cycle_graph(10))


def _spider(legs, length):
    """``legs`` paths of ``length`` edges joined at vertex 0."""
    edges = []
    for leg in range(legs):
        prev = 0
        for v in range(1 + leg * length, 1 + (leg + 1) * length):
            edges.append((prev, v))
            prev = v
    return Graph(1 + legs * length, edges)


def _random_connected(n, seed):
    """A random spanning tree plus n // 2 random chords."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 2:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph(n, sorted(edges))


def _refuse_kernel(monkeypatch, name):
    def never(G):
        raise AssertionError(f"{name} ran")

    monkeypatch.setattr(indices, name, never)


class TestHararyKernels:
    """The bitset kernel and per-source BFS fill the same histogram; the
    double-sweep diameter estimate L picks bitsets iff 4 * L < order."""

    @staticmethod
    def _fw_histogram(g):
        dist = floyd_warshall(g.order, g.edges)
        finite = [int(d) for row in dist for d in row if d != math.inf and d]
        hist = [0] * (max(finite, default=0) + 1)
        for d in finite:
            hist[d] += 1
        return hist

    @given(st.one_of(graphs(max_order=14), sparse_graphs(max_order=14, max_size=20)))
    @example(empty_graph(1))
    @example(empty_graph(6))
    @example(Graph(7, [(0, 1), (2, 3), (3, 4), (5, 6)]))
    def test_kernels_agree_with_floyd_warshall(self, g):
        hist = indices._bitset_histogram(g)
        assert hist == indices._per_source_histogram(g) == self._fw_histogram(g)
        total = sum((Fraction(count, 2 * d) for d, count in enumerate(hist) if d), Fraction(0))
        assert total == _harary_oracle(g)

    @pytest.mark.parametrize(
        "g",
        [
            pytest.param(path_graph(40), id="path40"),
            pytest.param(cycle_graph(40), id="cycle40"),
            pytest.param(families.ladder(30), id="ladder30"),
            # from its centre, vertex 0, the spider is only 25 deep and
            # 4 * 25 < 101; the second sweep finds the diameter 50
            pytest.param(_spider(4, 25), id="spider101"),
            pytest.param(complete_graph(4), id="K4"),
            pytest.param(families.hypercube(4), id="Q4"),
            pytest.param(families.grid(4, 4), id="grid4x4"),
            pytest.param(
                Graph(45, [(i, i + 1) for i in range(39)] + [(40, 41), (41, 42)]),
                id="path40+path3+2K1",
            ),
        ],
    )
    def test_long_graphs_take_per_source_bfs(self, monkeypatch, g):
        expected = indices._bitset_histogram(g)
        _refuse_kernel(monkeypatch, "_bitset_histogram")
        assert indices._distance_histogram(g) == expected

    @pytest.mark.parametrize(
        "g",
        [
            pytest.param(families.grid(10, 12), id="grid10x12"),
            pytest.param(complete_graph(5), id="K5"),
            pytest.param(complete_graph(20), id="K20"),
            pytest.param(families.hypercube(5), id="Q5"),
            pytest.param(families.hypercube(7), id="Q7"),
            pytest.param(_random_connected(60, 1), id="connected60"),
            pytest.param(_random_connected(200, 2), id="connected200"),
            pytest.param(empty_graph(1), id="K1"),
            pytest.param(empty_graph(9), id="edgeless9"),
            pytest.param(Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)]), id="4K2"),
        ],
    )
    def test_short_graphs_take_bitsets(self, monkeypatch, g):
        expected = indices._per_source_histogram(g)
        _refuse_kernel(monkeypatch, "_per_source_histogram")
        assert indices._distance_histogram(g) == expected

    def test_complete_closed_form_on_bitsets(self, monkeypatch):
        _refuse_kernel(monkeypatch, "_per_source_histogram")
        assert harary(complete_graph(300)) == 300 * 299 // 2

    def test_hypercube_closed_form_on_bitsets(self, monkeypatch):
        _refuse_kernel(monkeypatch, "_per_source_histogram")
        expected = sum((Fraction(2 ** 9 * math.comb(10, d), d) for d in range(1, 11)), Fraction(0))
        assert harary(families.hypercube(10)) == expected


class TestTraversal:
    """The one BFS of ``indices`` and its double sweep, against Floyd-Warshall."""

    @given(st.one_of(graphs(max_order=14), sparse_graphs(max_order=14, max_size=20)),
           st.randoms(use_true_random=False))
    @example(empty_graph(1), random.Random(0))
    @example(empty_graph(6), random.Random(0))
    @example(Graph(7, [(0, 1), (2, 3), (3, 4), (5, 6)]), random.Random(2))
    def test_bfs_against_floyd_warshall(self, g, rng):
        root = rng.randrange(g.order)
        dist = floyd_warshall(g.order, g.edges)[root]
        mark = [-1] * g.order
        order, up = indices._bfs(g.adjacency, root, mark, 5)
        component = [v for v in range(g.order) if dist[v] != math.inf]
        assert sorted(order) == component
        assert [v for v in range(g.order) if mark[v] == 5] == component
        assert len(up) == len(order) and up[0] == 0
        assert all(up[j] < j for j in range(1, len(up)))
        assert up == sorted(up)
        assert all(g.has_edge(order[up[j]], order[j]) for j in range(1, len(up)))
        for j, v in enumerate(order):
            depth = 0
            while j:
                j = up[j]
                depth += 1
            assert depth == dist[v]

    @given(st.one_of(graphs(max_order=14), sparse_graphs(max_order=14, max_size=20)))
    @example(empty_graph(6))
    @example(_spider(4, 25))
    def test_diameter_estimate_bound(self, g):
        # the estimate is at least half and at most all of the largest
        # component diameter
        dist = floyd_warshall(g.order, g.edges)
        diameter = max(int(d) for row in dist for d in row if d != math.inf)
        assert -(-diameter // 2) <= indices._diameter_estimate(g) <= diameter

    def test_second_sweep_finds_the_spider_diameter(self):
        # from its centre, vertex 0, the spider is only 25 deep
        assert indices._diameter_estimate(_spider(4, 25)) == 50


class TestComputeIndex:
    def test_value_types(self):
        g = path_graph(4)
        assert compute_index(g, "MN") == 26
        assert isinstance(compute_index(g, "HARARY"), Fraction)
        assert isinstance(compute_index(g, "CHI"), float)
        assert isinstance(compute_index(g, "Z"), int)

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown index id"):
            compute_index(path_graph(2), "WIENER")
