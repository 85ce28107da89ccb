import functools
import itertools
import re

import pytest

import nbzagreb.graphs
from nbzagreb import (
    FAMILIES,
    Graph,
    ProductKind,
    SizeOverflowError,
    build_family,
    complete_graph,
    cycle_graph,
    families,
    path_graph,
    plan_family,
)
from nbzagreb.formulas import CATALOG


@pytest.fixture
def no_factor_builds(monkeypatch):
    """Fail any family that builds a factor before checking its order."""

    def refuse(n):
        raise AssertionError(f"a factor of order {n} was built")

    for name in ("path_graph", "cycle_graph", "complete_graph"):
        monkeypatch.setattr(families, name, refuse)


class TestOrderCheckedBeforeBuilding:
    @pytest.mark.parametrize(
        "name, args, order",
        [
            ("ladder", (5,), 12),
            ("grid", (3, 4), 12),
            ("grid", (2, 20_000_000), 40_000_000),
            ("nanotube", (3, 4), 12),
            ("nanotorus", (3, 4), 12),
            ("prism", (6,), 12),
            ("rook", (3, 4), 12),
            ("hamming", ([3, 4],), 12),
            ("fence", (6,), 12),
            ("closed_fence", (6,), 12),
        ],
    )
    def test_product_families(self, no_factor_builds, monkeypatch, name, args, order):
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 10)
        with pytest.raises(SizeOverflowError) as exc:
            getattr(families, name)(*args)
        assert str(exc.value) == f"product order {order} exceeds vertex cap 10"

    def test_empty_factor_does_not_hide_its_partner(self, no_factor_builds, monkeypatch):
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 10)
        with pytest.raises(SizeOverflowError) as exc:
            families.grid(0, 10 ** 12)
        assert str(exc.value) == f"factor order {10 ** 12} exceeds vertex cap 10"

    @pytest.mark.parametrize(
        "name, arg", [("hypercube", 4), ("hypercube", 64), ("hamming", [2] * 64)]
    )
    def test_factor_count_refused_without_the_power(
        self, no_factor_builds, monkeypatch, name, arg
    ):
        # 10 has bit length 4: four or more factors of order >= 2 are over it
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 10)
        with pytest.raises(SizeOverflowError) as exc:
            getattr(families, name)(arg)
        count = arg if name == "hypercube" else len(arg)
        assert str(exc.value) == f"product order >= 2**{count} exceeds vertex cap 10"

    @pytest.mark.parametrize("name", ["path", "cycle", "complete"])
    def test_elementary_families_take_the_cap(self, no_factor_builds, monkeypatch, name):
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 10)
        with pytest.raises(SizeOverflowError) as exc:
            build_family(name, n=11)
        assert str(exc.value) == "order 11 exceeds vertex cap 10"

    def test_at_the_cap_still_builds(self, monkeypatch):
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 10)
        assert families.grid(2, 5).order == 10
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 8)
        assert families.hypercube(3).order == 8
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 10)
        assert build_family("path", n=10).order == 10


def test_wrapped_builders_still_plan_and_build(monkeypatch):
    """A tracer or profiler may wrap the factor builders that families read."""
    expected = [families.grid(3, 4), families.prism(5), families.rook(3, 3)]
    calls = []

    def wrap(builder):
        @functools.wraps(builder)
        def wrapped(n):
            calls.append(builder.__name__)
            return builder(n)

        return wrapped

    for name in ("path_graph", "cycle_graph", "complete_graph"):
        monkeypatch.setattr(families, name, wrap(getattr(families, name)))
    assert [families.grid(3, 4), families.prism(5), families.rook(3, 3)] == expected
    assert plan_family("grid", m=3, n=4) == (12, 17)
    assert calls == ["path_graph"] * 2 + ["complete_graph", "cycle_graph"] + ["complete_graph"] * 2


class TestRegistry:
    def test_build_family_reads_the_registry(self):
        for name, (params, recipe) in FAMILIES.items():
            values = {"m": 3, "n": 4, "sizes": [2, 3]}
            g = build_family(name, **{p: values[p] for p in params})
            assert g == families._product(*recipe(*(values[p] for p in params)))

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ([], "hamming needs at least one factor size"),
            ([1, 2], "hamming factor sizes must be >= 2, got [1, 2]"),
        ],
    )
    def test_hamming_rejects_bad_sizes(self, sizes, message):
        with pytest.raises(ValueError) as exc:
            families.hamming(sizes)
        assert str(exc.value) == message

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="needs parameter --m"):
            build_family("grid", n=4)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            build_family("moebius", n=4)


def _outcome(build, *args):
    """What ``build(*args)`` gives: ``(order, size)`` or the error it raises."""
    try:
        result = build(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return (result.order, result.size) if isinstance(result, Graph) else result


def _refuse_graphs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(Graph, "__init__", refuse)
    monkeypatch.setattr(Graph, "_from_canonical", refuse)


def _has_cycle(graph):
    """Union-find over the edges: an edge inside one tree closes a cycle."""
    root = list(range(graph.order))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in graph.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return True
        root[ru] = rv
    return False


def _connected(graph):
    seen, stack = {0}, [0]
    while stack:
        for u in graph.adjacency[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == graph.order


#: (vertex cap, edge cap) pairs under which the plan and the build are compared
CAPS = [(30, 8), (30, 60), (60, 40), (100, 300)]

#: Every EX_TENSOR_* oracle with its factor builders, read off its id
TENSOR_LINES = {
    fid: tuple({"P": path_graph, "C": cycle_graph, "K": complete_graph}[c] for c in fid[-2:])
    for fid in CATALOG if fid.startswith("EX_TENSOR_")
}


class TestPlanMatchesBuild:
    """The plan gives the built member's (order, size) or the build's first
    refusal, type and message, and builds no graph."""

    @staticmethod
    def _family_points():
        values = {"m": [*range(-2, 8), 40, 120], "n": [*range(-2, 8), 40, 120]}
        sizes = [list(s) for k in range(4) for s in itertools.product(range(1, 6), repeat=k)]
        for name, (params, _) in FAMILIES.items():
            axes = [sizes if p == "sizes" else values[p] for p in params]
            for point in itertools.product(*axes):
                yield name, dict(zip(params, point))

    def test_every_family(self, monkeypatch):
        outcomes = set()
        for vertex_cap, edge_cap in CAPS:
            monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", vertex_cap)
            monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_EDGE_CAP", edge_cap)
            points = list(self._family_points())
            built = [_outcome(lambda: build_family(name, **params)) for name, params in points]
            with monkeypatch.context() as patch:
                _refuse_graphs(patch)
                for (name, params), expected in zip(points, built):
                    planned = _outcome(lambda: plan_family(name, **params))
                    assert planned == expected, (vertex_cap, edge_cap, name, params)
                    outcomes.add(re.sub(r"-?\d+", "N", planned[1])
                                 if isinstance(planned[0], type) else "planned")
        # across the caps, the grid reaches admitted members and every refusal
        assert outcomes == {
            "planned",
            "order N exceeds vertex cap N",
            "product order N exceeds vertex cap N",
            "factor order N exceeds vertex cap N",
            "product order >= N**N exceeds vertex cap N",
            "size N exceeds edge cap N",
            "product size N exceeds edge cap N",
            "order must be >= N, got N",
            "cycle needs at least N vertices, got N",
            "hypercube dimension must be >= N, got N",
            "hamming needs at least one factor size",
            "hamming factor sizes must be >= N, got [N]",
            "hamming factor sizes must be >= N, got [N, N]",
            "hamming factor sizes must be >= N, got [N, N, N]",
        }

    @pytest.mark.parametrize("vertex_cap, edge_cap", CAPS)
    def test_every_tensor_line(self, monkeypatch, vertex_cap, edge_cap):
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", vertex_cap)
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_EDGE_CAP", edge_cap)
        points = list(itertools.product(TENSOR_LINES, range(-2, 8), range(-2, 8)))
        built = [_outcome(CATALOG[fid].oracle, n, m) for fid, n, m in points]
        _refuse_graphs(monkeypatch)
        for (fid, n, m), expected in zip(points, built):
            left, right = TENSOR_LINES[fid]
            planned = _outcome(families._plan, ProductKind.TENSOR, (left, n), (right, m))
            assert planned == expected, (fid, n, m)

    def test_every_member_is_connected_with_a_cycle_iff_size_reaches_order(self):
        members = 0
        for name, params in self._family_points():
            try:
                graph = build_family(name, **params)
            except ValueError:
                continue
            members += 1
            assert _connected(graph), (name, params)
            assert _has_cycle(graph) == (graph.size >= graph.order), (name, params)
        assert members > 250
