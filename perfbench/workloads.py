"""The four benchmark workloads: seeded inputs, the timed operation, output checks.

A workload turns the run seed into passes.  A pass is a list of items and
one item is one operation.  The worker times ``run(item)`` and, outside
the timed interval, calls ``check(item, result)``, which returns ``OK``,
``REFUSED`` (a documented refusal that still counts as an error, such as
the order guard on a trivially countable input) or ``FAILED``.

Every library call goes through a module attribute (``graphs.Graph``,
``indices.hosoya``) looked up at call time, so the tracer in
``tracing.py`` sees it when it has wrapped that attribute.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import deque
from fractions import Fraction

from nbzagreb import alkanes, families, formulas, graphs, indices, products, qspr, verification

OK, REFUSED, FAILED = "ok", "refused", "failed"


class Item:
    """One operation's input plus what the check needs to judge its result."""

    __slots__ = ("kind", "label", "args", "expect", "work")

    def __init__(self, kind, label, args, expect=None, work=1):
        self.kind = kind
        self.label = label
        self.args = args
        self.expect = expect
        self.work = work


class Workload:
    """Base: ``passes`` distinct passes generated from the seed, cycled."""

    name = ""
    unit = ""
    #: Whether ``end_pass`` needs the pass's results (held until the pass ends).
    collects_results = False

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self._checked: dict[int, object] = {}

    def pass_items(self, index: int) -> list[Item]:
        return self.passes[index % len(self.passes)]

    def end_pass(self, results) -> object:
        """Timed pass-level step after the pass's operations (default: none)."""
        return None

    def check_pass(self, results, pass_output) -> bool:
        return True

    def final_check(self) -> bool:
        return True

    def check(self, item: Item, result) -> str:
        """Judge ``result``; full oracles run once per item, repeats must match."""
        key = id(item)
        if key in self._checked:
            verdict, first = self._checked[key]
            return verdict if _same(first, result) else FAILED
        verdict = self.judge(item, result)
        if verdict != FAILED:
            self._checked[key] = verdict, result
        return verdict

    def work_done(self, item: Item, result) -> int:
        return item.work

    def describe(self) -> dict:
        """Input statistics of the generated passes."""
        items = [item for p in self.passes for item in p]
        kinds: dict[str, int] = {}
        for item in items:
            kinds[item.kind] = kinds.get(item.kind, 0) + 1
        return {
            "passes": len(self.passes),
            "ops_per_pass": [len(p) for p in self.passes],
            "work_per_pass": [sum(i.work for i in p) for p in self.passes],
            "ops_by_kind": kinds,
            "inputs": [[f"{i.label} work={i.work}" for i in p] for p in self.passes],
        }


def _same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b)
    return a == b


# ---------------------------------------------------------------------------
# verify-catalog

#: SHA-256 of ``reports_to_csv(verify_all(seed=42))`` at the commit that
#: introduced this benchmark: the byte-identity pin of the verify CSV.
VERIFY_CSV_SHA256_SEED42 = "942cb6e06eeaee92a5e078fbff0d101960bf7d0f25c53ebcfd18a5c22a59efe1"


class VerifyCatalog(Workload):
    """``nbzagreb verify --formula all --seed S``: one op is one formula."""

    name = "verify-catalog"
    unit = "points"
    collects_results = True

    PASSES = 8

    def __init__(self, seed):
        super().__init__(seed)
        self.errata = verification.known_errata()
        # each pass verifies the whole catalog with its own verify seed
        self.passes = [
            [Item("verify", fid, (fid, s)) for fid in formulas.FORMULA_IDS]
            for s in (self.rng.randrange(2 ** 31) for _ in range(self.PASSES))
        ]

    def run(self, item):
        fid, s = item.args
        return verification.verify(fid, seed=s)

    def work_done(self, item, result):
        return len(result.points) if isinstance(result, verification.DiscrepancyReport) else 0

    def check(self, item, result):
        if not isinstance(result, verification.DiscrepancyReport):
            return FAILED
        fid = item.args[0]
        expected = verification.ERRATUM if fid in self.errata else verification.CONSISTENT
        if result.formula_id != fid or not result.points or result.skipped_points:
            return FAILED
        return OK if result.status == expected else FAILED

    def end_pass(self, results):
        return verification.reports_to_csv(results)

    def check_pass(self, results, pass_output):
        reports = [r for r in results if isinstance(r, verification.DiscrepancyReport)]
        erratum = {r.formula_id for r in reports if r.status == verification.ERRATUM}
        rows = sum(len(r.points) for r in reports)
        return erratum == self.errata and pass_output.count("\n") == rows + 1

    def final_check(self):
        reports = [self.run(Item("verify", fid, (fid, 42))) for fid in formulas.FORMULA_IDS]
        digest = hashlib.sha256(self.end_pass(reports).encode()).hexdigest()
        return digest == VERIFY_CSV_SHA256_SEED42

    def describe(self):
        sizes = [len(self.run(item).points) for item in self.pass_items(0)]
        return {"passes": self.PASSES, "ops_per_pass": len(sizes), "points_per_pass": sum(sizes),
                "verify_seeds": [p[0].args[1] for p in self.passes],
                "points_by_formula": dict(zip(formulas.FORMULA_IDS, sizes))}


# ---------------------------------------------------------------------------
# product-index

def _factor(kind: str, n: int):
    return {"P": graphs.path_graph, "C": graphs.cycle_graph, "K": graphs.complete_graph}[kind](n)


def _degree_data(kind: str, n: int):
    """Degrees and neighbour-degree sums of P_n, C_n or K_n, computed here."""
    if kind == "K":
        return [n - 1] * n, [(n - 1) ** 2] * n
    if kind == "C":
        return [2] * n, [4] * n
    if n == 1:
        return [0], [0]
    deg = [1] + [2] * (n - 2) + [1]
    nds = [deg[1]] + [deg[i - 1] + deg[i + 1] for i in range(1, n - 1)] + [deg[n - 2]]
    return deg, nds


def _edges_of(kind: str, n: int) -> int:
    return {"P": n - 1, "C": n, "K": n * (n - 1) // 2}[kind]


class ProductIndex(Workload):
    """Build one product-family graph, then its five linear indices."""

    name = "product-index"
    unit = "edges"
    KINDS = ("grid", "nanotube", "nanotorus", "prism", "rook", "hypercube", "hamming",
             "tensor_PP", "tensor_CC", "tensor_KK", "tensor_PC", "tensor_PK", "tensor_CK",
             "fence", "closed_fence")
    #: Product edges of the three size bands; every kind is built once per band,
    #: so the median and the tail each fall inside one band of similar ops.
    BANDS = (1e4, 2.5e4, 7e4)
    #: One prism of order about 2.5*10^5 per pass, whose adjacency outgrows the L3.
    LARGE_PRISM = 125_000

    def __init__(self, seed):
        super().__init__(seed)
        self.passes = [self._make_pass()]
        self._stats: dict[tuple, object] = {}

    def _split(self, order: float) -> tuple[int, int]:
        """Two factor orders with product about ``order``, aspect ratio 1:2 to 2:1."""
        a = max(3, round(math.sqrt(order) * self.rng.uniform(0.7, 1.4)))
        return a, max(3, round(order / a))

    def _make_pass(self) -> list[Item]:
        r = self.rng
        items = [
            self._item(kind, band * (1 if kind == "hypercube" else r.uniform(0.95, 1.05)))
            for band in self.BANDS for kind in self.KINDS
        ]
        n = round(self.LARGE_PRISM * r.uniform(0.98, 1.02))
        items.append(self._add("prism", ("prism", n), (("K", 2), ("C", n)), "cartesian", 3))
        return items

    def _item(self, kind: str, edges: float) -> Item:
        r = self.rng
        if kind == "hypercube":
            m = min(range(10, 17), key=lambda m: abs(math.log(m * 2 ** (m - 1) / edges)))
            size = m * 2 ** (m - 1)
            return Item(kind, f"Q{m}", ("hypercube", m), (None, "regular", m, 2 ** m, size), size)
        if kind == "hamming":
            base = (2 * edges / 3) ** 0.25
            best = None
            for _ in range(20):
                sizes = [max(2, round(base * r.uniform(0.7, 1.3))) for _ in range(3)]
                size = math.prod(sizes) * sum(s - 1 for s in sizes) // 2
                if best is None or abs(math.log(size / edges)) < abs(math.log(best[1] / edges)):
                    best = sizes, size
            sizes, size = best
            d = sum(s - 1 for s in sizes)
            return Item(kind, "H" + "x".join(map(str, sizes)), ("hamming", sizes),
                        (None, "regular", d, math.prod(sizes), size), size)
        if kind in ("grid", "nanotube", "nanotorus"):
            m, n = self._split(edges / 2)
            factors = {"grid": (("P", m), ("P", n)), "nanotube": (("P", n), ("C", m)),
                       "nanotorus": (("C", m), ("C", n))}[kind]
            return self._add(kind, (kind, m, n), factors, "cartesian",
                             4 if kind == "nanotorus" else None)
        if kind == "prism":
            n = round(edges / 3)
            return self._add(kind, (kind, n), (("K", 2), ("C", n)), "cartesian", 3)
        if kind == "rook":
            ratio = r.uniform(0.9, 1.1)
            n = max(2, round((2 * edges / (ratio * (1 + ratio))) ** (1 / 3)))
            m = max(2, round(n * ratio))
            return self._add(kind, (kind, m, n), (("K", m), ("K", n)), "cartesian", m + n - 2)
        if kind in ("fence", "closed_fence"):
            n = round(edges / 5)
            first = ("P", n) if kind == "fence" else ("C", n)
            return self._add(kind, (kind, n), (first, ("P", 2)), "wreath",
                             None if kind == "fence" else 5)
        k1, k2 = kind[-2], kind[-1]
        if kind == "tensor_KK":
            a, b = self._split(math.sqrt(2 * edges))
        elif k2 == "K":
            b = r.randint(8, 10)
            a = max(3, round(edges / (b * (b - 1))))
        else:
            a, b = self._split(edges / 2)
        regular = {"CC": 4, "KK": (a - 1) * (b - 1), "CK": 2 * (b - 1)}.get(k1 + k2)
        return self._add(kind, ("tensor", k1, a, k2, b), ((k1, a), (k2, b)), "tensor", regular)

    def _add(self, kind, build, factors, law, regular=None) -> Item:
        (k1, n1), (k2, n2) = factors
        e1, e2 = _edges_of(k1, n1), _edges_of(k2, n2)
        order = n1 * n2
        size = {"cartesian": n1 * e2 + n2 * e1, "tensor": 2 * e1 * e2,
                "wreath": n1 * e2 + e1 * n2 * n2}[law]
        label = kind + "(" + ",".join(map(str, build[1:])) + ")"
        return Item(kind, label, build, (factors, law, regular, order, size), size)

    def run(self, item):
        spec = item.args
        if spec[0] == "tensor":
            _, k1, a, k2, b = spec
            G = products.tensor(_factor(k1, a), _factor(k2, b))
        else:
            G = getattr(families, spec[0])(*spec[1:])
        values = (
            indices.first_zagreb(G),
            indices.second_zagreb(G),
            indices.neighbourhood_zagreb(G),
            indices.forgotten(G),
            indices.randic(G),
        )
        return G.order, G.size, values

    def work_done(self, item, result):
        return result[1]

    def _graph_stats(self, kind, n):
        key = (kind, n)
        if key not in self._stats:
            self._stats[key] = formulas.GraphStats.from_graph(_factor(kind, n))
        return self._stats[key]

    def judge(self, item, result):
        if not isinstance(result, tuple):
            return FAILED
        factors, law, regular, order, size = item.expect
        got_order, got_size, (m1, m2, mn, f, chi) = result
        if (got_order, got_size) != (order, size):
            return FAILED
        if law == "cartesian":
            (k1, n1), (k2, n2) = factors
            ok = mn == formulas.mn_cartesian(self._graph_stats(k1, n1), self._graph_stats(k2, n2))
        elif law == "tensor":
            (k1, n1), (k2, n2) = factors
            ok = mn == formulas.mn_tensor(self._graph_stats(k1, n1).mn, self._graph_stats(k2, n2).mn)
        elif law == "wreath":
            ok = mn == _wreath_mn(*factors)
        else:  # n-ary cartesian of complete graphs: only the degree identities
            ok = True
        if regular is not None:
            d = regular
            ok = ok and (m1, m2, mn, f) == (order * d * d, size * d * d, order * d ** 4, order * d ** 3)
            ok = ok and math.isclose(chi, size / d, rel_tol=1e-9)
        return OK if ok else FAILED


def _wreath_mn(first, second) -> int:
    """MN of G1[G2] from the per-vertex wreath law on factor degree data."""
    (k1, n1), (k2, n2) = first, second
    deg1, nds1 = _degree_data(k1, n1)
    deg2, nds2 = _degree_data(k2, n2)
    e2 = _edges_of(k2, n2)
    total = 0
    for du, su in zip(deg1, nds1):
        for dv, sv in zip(deg2, nds2):
            delta = n2 * n2 * su + sv + 2 * e2 * du + n2 * du * dv
            total += delta * delta
    return total


# ---------------------------------------------------------------------------
# counting-distance

#: The 18 constitutional octane isomers, as named in the shipped table.
OCTANE_NAMES = (
    "2,2,3,3-tetramethyl butane", "2,3,4-trimethyl pentane", "2,3,3-trimethyl pentane",
    "2,2,3-trimethyl pentane", "3-methyl-3-ethyl pentane", "2-methyl-3-ethyl pentane",
    "3,4-dimethyl hexane", "3,3-dimethyl hexane", "2,5-dimethyl hexane",
    "2,4-dimethyl hexane", "2,3-dimethyl hexane", "2,2-dimethyl hexane",
    "3-ethyl hexane", "4-methyl heptane", "3-methyl heptane", "2-methyl heptane",
    "n-octane", "2,2,4-trimethyl pentane",
)

#: Mean isomer degeneracy rows over the 18 octanes, as the README prints them.
README_DEGENERACY = {"M1": "3.000", "M2": "1.385", "F": "2.571", "Z": "1.286",
                     "SIGMA": "1.200", "CHI": "1.125", "HARARY": "1.059", "MN": "1.000"}

#: ``octane_regression`` at the commit that introduced this benchmark (n, r, slope).
REGRESSION_PINS = {
    "acentric": (17, -0.99429721080861, -0.0013680911673440844),
    "entropy": (17, -0.9616446528204837, -0.1721559372405052),
}

#: G(n, p) orders for Z and SIGMA, with p lowered at the top so that one
#: op stays well under a second while the cost still grows with n.
GNP_LADDER = ((16, 0.3), (18, 0.25), (20, 0.2), (22, 0.15), (24, 0.12), (26, 0.1), (28, 0.08))

_COUNTERS = {"Z": "hosoya", "SIGMA": "merrifield_simmons"}


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    return [(rng.randrange(i), i) for i in range(1, n)]


def _tree_counts(n: int, edges) -> tuple[int, int]:
    """(matchings, independent sets) of a tree by the linear tree DP."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order, parent = [0], [-1] * n
    for v in order:
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    free, matched, inc, exc = [1] * n, [0] * n, [1] * n, [1] * n
    for v in reversed(order):
        kids = [u for u in adj[v] if u != parent[v]]
        prod_all = 1
        for c in kids:
            prod_all *= free[c] + matched[c]
        free[v] = prod_all
        matched[v] = sum(free[c] * prod_all // (free[c] + matched[c]) for c in kids)
        inc[v] = math.prod(exc[c] for c in kids)
        exc[v] = math.prod(inc[c] + exc[c] for c in kids)
    return free[0] + matched[0], inc[0] + exc[0]


def _harary_bfs(n: int, adj) -> Fraction:
    """Harary index from a per-distance histogram of BFS distances."""
    hist: dict[int, int] = {}
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        for d in dist[s + 1:]:
            if d > 0:
                hist[d] = hist.get(d, 0) + 1
    return sum((Fraction(c, d) for d, c in hist.items()), Fraction(0))


def _without(G, drop: set[int], edge=None):
    """G minus the vertices in ``drop`` (relabelled) and minus ``edge``."""
    keep = [v for v in range(G.order) if v not in drop]
    if not keep:
        return None
    new = {v: i for i, v in enumerate(keep)}
    edges = [(new[u], new[v]) for u, v in G.edges
             if u in new and v in new and (u, v) != edge]
    return graphs.Graph(len(keep), edges)


def _count(index_id: str, G) -> int:
    return 1 if G is None else getattr(indices, _COUNTERS[index_id])(G)


class CountingDistance(Workload):
    """Z, SIGMA and HARARY evaluations; one op is one index evaluation."""

    name = "counting-distance"
    unit = "ops"
    PASSES = 2

    def __init__(self, seed):
        super().__init__(seed)
        self.passes = [self._make_pass(p) for p in range(self.PASSES)]

    def _make_pass(self, index: int) -> list[Item]:
        r = self.rng
        items = []

        def counting(label, G, expect):
            for index_id in ("Z", "SIGMA"):
                items.append(Item(index_id, label, (index_id, G), expect))

        def countable(lo, hi):
            # one order per stratum of lo..hi, the strata shared out over
            # shapes and passes: the cheap ops sit at the median, where a
            # seeded order would move it
            for k, shape in enumerate(("path", "cycle", "tree", "tree")):
                n = lo + int((hi - lo + 1) * (k * self.PASSES + index + 0.5) / (4 * self.PASSES))
                edges = _random_tree_edges(n, r) if shape == "tree" else None
                G = graphs.Graph(n, edges) if edges else getattr(graphs, f"{shape}_graph")(n)
                counting(f"{shape}{n}", G, (shape, n, edges))

        for n, p in GNP_LADDER:
            # keep samples with the expected edge count: memo sizes, and with
            # them time and peak memory, then vary far less from seed to seed
            expected = round(p * n * (n - 1) / 2)
            while (G := graphs.random_graph(n, p, r.randrange(2 ** 31))).size != expected:
                pass
            counting(f"gnp{n}", G, ("gnp",))
        countable(10, 28)
        # the seed picks which names are spelled without spaces and which in
        # capitals, the same number of each in every pass; every variant is
        # in the grammar
        joined = set(r.sample(OCTANE_NAMES, len(OCTANE_NAMES) // 2))
        capitals = set(r.sample(OCTANE_NAMES, len(OCTANE_NAMES) * 3 // 10))
        for name in OCTANE_NAMES:
            spelled = name.replace(" ", "") if name in joined else name
            spelled = spelled.upper() if name in capitals else spelled
            for index_id in ("Z", "SIGMA"):
                items.append(Item("octane", name, (index_id, spelled)))
        n = r.randint(100, 250)
        items.append(Item("HARARY", f"path{n}", ("HARARY", graphs.path_graph(n)), ("path", n)))
        # the largest HARARY inputs (four grids and four connected graphs of
        # about 320 vertices per pass) form the latency tail on their own
        for _ in range(4):
            a = r.randint(14, 18)
            b = round(r.uniform(310, 330) / a)
            grid_edges = [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
            grid_edges += [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
            items.append(Item("HARARY", f"grid{a}x{b}",
                              ("HARARY", graphs.Graph(a * b, grid_edges)), ("bfs",)))
        for lo, hi in ((150, 250), *[(315, 325)] * 4):
            n = r.randint(lo, hi)
            items.append(Item("HARARY", f"connected{n}", ("HARARY", self._connected(n)), ("bfs",)))
        items.append(Item("degeneracy", "degeneracy_table", ()))
        items.append(Item("regression", "octane_regression", (r.choice(sorted(REGRESSION_PINS)),)))
        # trivially countable, but above the order guard: refused today
        countable(indices.COUNTING_ORDER_LIMIT + 1, 60)
        return items

    def _connected(self, n: int):
        r = self.rng
        edges = {(r.randrange(i), i) for i in range(1, n)}
        while len(edges) < n - 1 + n // 2:
            u, v = sorted(r.sample(range(n), 2))
            edges.add((u, v))
        return graphs.Graph(n, sorted(edges))

    def run(self, item):
        kind = item.kind
        if kind in ("Z", "SIGMA"):
            return getattr(indices, _COUNTERS[kind])(item.args[1])
        if kind == "octane":
            index_id, name = item.args
            return getattr(indices, _COUNTERS[index_id])(alkanes.parse_alkane_name(name))
        if kind == "HARARY":
            return indices.harary(item.args[1])
        if kind == "degeneracy":
            return [(r.index_id, r.d_rendered) for r in qspr.degeneracy_table()]
        return qspr.octane_regression(item.args[0])

    def judge(self, item, result):
        kind = item.kind
        if isinstance(result, indices.TooLargeError):
            above_guard = kind in ("Z", "SIGMA") and item.args[1].order > indices.COUNTING_ORDER_LIMIT
            return REFUSED if above_guard else FAILED
        if isinstance(result, BaseException):
            return FAILED
        if kind in ("Z", "SIGMA"):
            return OK if result == self._expected_count(item) else FAILED
        if kind == "octane":
            index_id, name = item.args
            tree = alkanes.parse_alkane_name(name)
            z, sigma = _tree_counts(tree.order, tree.edges)
            return OK if result == (z if index_id == "Z" else sigma) else FAILED
        if kind == "HARARY":
            G = item.args[1]
            if item.expect[0] == "path":
                n = item.expect[1]
                expected = sum((Fraction(n - d, d) for d in range(1, n)), Fraction(0))
            else:
                expected = _harary_bfs(G.order, G.adjacency)
            return OK if result == expected else FAILED
        if kind == "degeneracy":
            return OK if dict(result) == README_DEGENERACY else FAILED
        n, r, slope = REGRESSION_PINS[item.args[0]]
        ok = result.n == n and math.isclose(result.r, r, rel_tol=1e-12)
        return OK if ok and math.isclose(result.slope, slope, rel_tol=1e-12) else FAILED

    def _expected_count(self, item):
        index_id, G = item.args
        shape = item.expect[0]
        if shape == "path":
            return _fib(G.order + 1) if index_id == "Z" else _fib(G.order + 2)
        if shape == "cycle":
            return _lucas(G.order)
        if shape == "tree":
            z, sigma = _tree_counts(G.order, item.expect[2])
            return z if index_id == "Z" else sigma
        # G(n, p): Hosoya's edge recurrence and the vertex recurrence for SIGMA
        if index_id == "Z":
            if not G.edges:
                return 1
            u, v = G.edges[0]
            return _count("Z", _without(G, set(), (u, v))) + _count("Z", _without(G, {u, v}))
        closed = {0, *G.neighbors(0)}
        return _count("SIGMA", _without(G, {0})) + _count("SIGMA", _without(G, closed))


# ---------------------------------------------------------------------------
# edge-list-io

#: Malformations, each with the error class ``parse_edge_list`` must raise.
MALFORMATIONS = (
    ("reversed-duplicate", graphs.DuplicateEdgeError),
    ("loop", graphs.LoopEdgeError),
    ("out-of-range", graphs.VertexOutOfRangeError),
    ("count-mismatch", graphs.EdgeListSyntaxError),
    ("non-integer", graphs.EdgeListSyntaxError),
)


class EdgeListIO(Workload):
    """``parse_edge_list`` then ``serialize_edge_list`` on user-style texts."""

    name = "edge-list-io"
    unit = "lines"
    PASSES = 2
    TEXTS_PER_PASS = 25
    #: (pass, text) of the malformed texts, one per malformation: one text in ten
    MALFORMED_AT = ((0, 4), (1, 9), (0, 14), (1, 19), (0, 23))

    def __init__(self, seed):
        super().__init__(seed)
        k = self.TEXTS_PER_PASS
        bad = dict(zip(self.MALFORMED_AT, MALFORMATIONS))
        # edge counts at the midpoints of log-uniform strata over 10^3 .. 10^5,
        # the same for every seed and both passes: the median and the tail
        # fall between steep neighbouring sizes, so a seeded size would move them
        targets = [10 ** (3 + 2 * (i + 0.5) / k) for i in range(k)]
        self.passes = [
            [self._text(i, targets[i], bad.get((p, i))) for i in range(k)]
            for p in range(self.PASSES)
        ]

    def _graph(self, shape: int, target: float) -> tuple[int, list[tuple[int, int]]]:
        r = self.rng
        if shape == 0:  # random graph, mean degree 6
            n = max(8, round(target / 3))
            edges = set()
            rand = r.random
            while len(edges) < round(target):
                u, v = int(rand() * n), int(rand() * n)
                if u != v:
                    edges.add((u, v) if u < v else (v, u))
            return n, list(edges)
        a = max(3, round(math.sqrt(target / 2) * r.uniform(0.7, 1.4)))
        b = max(3, round(target / (2 * a)))
        if shape == 1:  # grid P_a x P_b
            edges = [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
            edges += [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
        elif shape == 2:  # torus C_a x C_b
            edges = [(i * b + j, i * b + (j + 1) % b) for i in range(a) for j in range(b)]
            edges += [(i * b + j, ((i + 1) % a) * b + j) for i in range(a) for j in range(b)]
        else:  # tensor C_a x C_b
            edges = []
            for i in range(a):
                i2 = (i + 1) % a
                for j in range(b):
                    j2 = (j + 1) % b
                    edges.append((i * b + j, i2 * b + j2))
                    edges.append((i * b + j2, i2 * b + j))
        return a * b, edges

    def _text(self, index: int, target: float, malformation) -> Item:
        r = self.rng
        order, edges = self._graph(index % 4, target)
        m = len(edges)
        # shuffle by a seeded affine permutation and flip about half the pairs
        step = r.randrange(1, m)
        while math.gcd(step, m) != 1:
            step += 1
        offset, salt = r.randrange(m), r.randrange(1 << 30)
        lines = [f"{v} {u}" if (u * 40503 + v + salt) & 64 else f"{u} {v}"
                 for u, v in (edges[(step * i + offset) % m] for i in range(m))]
        count = lines_read = m
        expect = None
        if malformation is not None:
            kind, expect = malformation
            # the offending line falls in the last tenth of the text, so a
            # rejection costs about as much from seed to seed
            at = r.randrange(m - max(1, m // 10), m)
            u, v = lines[at].split()
            if kind == "reversed-duplicate":
                lines.insert(r.randrange(at, m + 1), f"{v} {u}")
                count = lines_read = m + 1
            elif kind == "loop":
                lines[at] = f"{u} {u}"
            elif kind == "out-of-range":
                lines[at] = f"{u} {order + r.randrange(1, 10)}"
            elif kind == "count-mismatch":
                count += 1
            else:
                lines[at] = f"{u} {v}.5"
                lines_read = at + 1
        # interleave comments and blank lines, about one line in forty
        chunks, prev, at = [], 0, r.randrange(80)
        while at < len(lines):
            chunks += lines[prev:at]
            chunks.append(r.choice(("", "# comment", "   ")))
            prev, at = at, at + r.randrange(1, 80)
        chunks += lines[prev:]
        text = f"# seeded edge list\n{order} {count}\n" + "\n".join(chunks) + "\n"
        work = lines_read if expect else lines_read + m + 1
        label = malformation[0] if malformation else f"n{order}m{m}"
        return Item("malformed" if expect else "valid", label, text, expect, work)

    def run(self, item):
        G = graphs.parse_edge_list(item.args)
        return G, graphs.serialize_edge_list(G)

    def check(self, item, result):
        if item.expect is not None:
            return OK if type(result) is item.expect else FAILED
        if not isinstance(result, tuple):
            return FAILED
        G, text = result
        digest = hashlib.sha256(text.encode()).digest()
        key = id(item)
        if key not in self._checked:
            if text != _canonical_text(item.args) or graphs.parse_edge_list(text) != G:
                return FAILED
            self._checked[key] = digest
        return OK if self._checked[key] == digest else FAILED


def _canonical_text(text: str) -> str:
    """The sorted serialization of a well-formed edge-list text, parsed here."""
    rows = [line.split() for line in text.splitlines()]
    rows = [row for row in rows if row and not row[0].startswith("#")]
    order, size = rows[0]
    pairs = sorted((min(u, v), max(u, v)) for u, v in ((int(a), int(b)) for a, b in rows[1:]))
    return f"{order} {size}\n" + "".join(f"{u} {v}\n" for u, v in pairs)


WORKLOADS = {w.name: w for w in (VerifyCatalog, ProductIndex, CountingDistance, EdgeListIO)}
