"""The catalog of closed-form expressions for the neighbourhood Zagreb index.

Every entry reproduces one catalogued closed form *verbatim*, including
the entries that turn out to be wrong: the catalog is a hard contract,
and discrepancies against direct computation are findings reported by the
verification engine (:mod:`nbzagreb.verification`), never silently fixed
here.  All arithmetic is exact integer arithmetic.

The catalog is :data:`CATALOG`, one frozen :class:`Formula` record per
formula id, in the order of :data:`FORMULA_IDS`.  A record holds its
closed form, its oracle (the construction the closed form describes),
its stated parameter range, and either the default parameter grid (the
chemical families and HAMMING, whose one parameter is the size list) or
the seeded factor sampler (the random-trial rules PROP1 to
PROP4_PRINTED).  A new formula is a new record, not a new code path.
The family and tensor-line oracles build through the one product plan of
:mod:`nbzagreb.families`, which checks an oversized point against the one
size rule of :mod:`nbzagreb.products` before it builds a complete factor.

Multi-index sums written over ``i != j``, ``i != j != k`` etc. are sums
over ordered tuples of *pairwise distinct* indices, evaluated literally
by iterating those tuples.

Known errata in the catalog (confirmed constructively, see the
verification engine): ``EX_LADDER``, ``EX_GRID``, ``EX_FENCE``,
``EX_CLOSED_FENCE`` and ``PROP4_PRINTED``.  The wreath-product rule
``PROP4_PRINTED`` is inconsistent with the per-vertex wreath law that the
constructed graphs obey, and the fence examples inherit its values.  The
list of errata is data (``data/known_errata.json``), not a record field.
"""

from __future__ import annotations

import random
import warnings
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from itertools import permutations
from math import prod

from . import families
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    random_graph,
    star_graph,
)
from .indices import first_zagreb, neighbourhood_zagreb, second_zagreb
from .products import ProductKind, cartesian, cartesian_n, tensor, wreath


class ParamOutOfStatedRangeWarning(UserWarning):
    """Formula evaluated outside its catalogued parameter range."""


@dataclass(frozen=True)
class GraphStats:
    """The factor-graph quantities consumed by the product rules."""

    order: int
    size: int
    m1: int
    m2: int
    mn: int

    @classmethod
    def from_graph(cls, G: Graph) -> "GraphStats":
        return cls(
            order=G.order,
            size=G.size,
            m1=first_zagreb(G),
            m2=second_zagreb(G),
            mn=neighbourhood_zagreb(G),
        )


# ---------------------------------------------------------------------------
# Product rules

def mn_cartesian(s1: GraphStats, s2: GraphStats) -> int:
    """Binary cartesian rule PROP1."""
    return (
        6 * s1.m1 * s2.m1
        + s2.order * s1.mn
        + s1.order * s2.mn
        + 16 * (s2.size * s1.m2 + s1.size * s2.m2)
    )


def mn_cartesian_nary(stats: Sequence[GraphStats]) -> int:
    """n-ary cartesian rule PROP2 (ordered distinct-tuple reading).

    Every term carries a factor |V| / (v_i * v_j * ...) over pairwise
    distinct indices, which is an exact integer because the denominator
    is a product of distinct factor orders.
    """
    if len(stats) < 2:
        raise ValueError("the n-ary cartesian rule needs at least 2 factors")
    v = [s.order for s in stats]
    e = [s.size for s in stats]
    m1 = [s.m1 for s in stats]
    m2 = [s.m2 for s in stats]
    mn = [s.mn for s in stats]
    V = prod(v)
    idx = range(len(stats))

    total = sum(V // v[i] * mn[i] for i in idx)
    total += 3 * sum(
        V // (v[i] * v[j]) * m1[i] * m1[j] for i, j in permutations(idx, 2)
    )
    total += 24 * sum(
        V // (v[i] * v[j] * v[k]) * m1[i] * e[j] * e[k]
        for i, j, k in permutations(idx, 3)
    )
    total += 16 * sum(
        V // (v[i] * v[j]) * m2[i] * e[j] for i, j in permutations(idx, 2)
    )
    total += 16 * sum(
        V // (v[i] * v[j] * v[k] * v[l]) * e[i] * e[j] * e[k] * e[l]
        for i, j, k, l in permutations(idx, 4)
    )
    return total


def mn_tensor(mn1: int, mn2: int) -> int:
    """Tensor rule PROP3: the index is multiplicative."""
    return mn1 * mn2


def mn_wreath_printed(s1: GraphStats, s2: GraphStats) -> int:
    """Wreath rule PROP4_PRINTED, evaluated verbatim as catalogued.

    This expression is a documented erratum: it disagrees with direct
    computation on the constructed wreath product (which follows the
    per-vertex wreath law).  It exists so the discrepancy can be measured
    and reported; do not use it as a source of truth.
    """
    v2, e1, e2 = s2.order, s1.size, s2.size
    return (
        v2 ** 4 * s1.mn
        + s2.mn
        + 12 * v2 * e2 ** 2 * s1.m1
        + 8 * e1 * e2 * s2.m1
        + 8 * v2 ** 2 * e2 * (v2 + 1) * s1.m2
        + 8 * v2 * e1 * s2.m2
        + 3 * v2 ** 2 * s1.m1 * s2.m1
    )


def mn_hamming(sizes: Sequence[int]) -> int:
    """Hamming rule: the catalogued multinomial expansion, literally.

    Sums run over ordered tuples of pairwise distinct indices.  Equals
    :func:`mn_hamming_compact` for every size list (the Hamming graph is
    regular of degree ``sum(sizes) - len(sizes)``).
    """
    if any(s < 2 for s in sizes):
        raise ValueError(f"hamming sizes must each be >= 2, got {list(sizes)}")
    a = [s - 1 for s in sizes]
    idx = range(len(a))
    bracket = sum(x ** 4 for x in a)
    bracket += 3 * sum(a[i] ** 2 * a[j] ** 2 for i, j in permutations(idx, 2))
    bracket += 6 * sum(
        a[i] ** 2 * a[j] * a[k] for i, j, k in permutations(idx, 3)
    )
    bracket += 4 * sum(a[i] ** 3 * a[j] for i, j in permutations(idx, 2))
    bracket += sum(
        a[i] * a[j] * a[k] * a[l] for i, j, k, l in permutations(idx, 4)
    )
    return prod(sizes) * bracket


def mn_hamming_compact(sizes: Sequence[int]) -> int:
    """Regular-graph value of the Hamming graph: (prod sizes) * degree^4."""
    return prod(sizes) * sum(s - 1 for s in sizes) ** 4




# ---------------------------------------------------------------------------
# Seeded factor corpus of the random-trial rules

_SHAPES = ("gnp", "gnp", "gnp", "path", "cycle", "complete", "star", "edgeless")
_GNP_PROBS = (0.2, 0.35, 0.5, 0.7, 0.9)


def _random_factor(rng: random.Random, max_order: int) -> Graph:
    shape = _SHAPES[rng.randrange(len(_SHAPES))]
    if shape == "gnp":
        n = rng.randint(1, max_order)
        p = _GNP_PROBS[rng.randrange(len(_GNP_PROBS))]
        return random_graph(n, p, rng.randrange(2 ** 32))
    if shape == "path":
        return path_graph(rng.randint(1, max_order))
    if shape == "cycle":
        return cycle_graph(rng.randint(3, max_order))
    if shape == "complete":
        return complete_graph(rng.randint(1, max_order))
    if shape == "star":
        return star_graph(rng.randint(2, max_order))
    return empty_graph(rng.randint(1, max_order))


def _factor_pair(rng: random.Random):
    """Two factors of order <= 8 and their CSV labels."""
    g1, g2 = _random_factor(rng, 8), _random_factor(rng, 8)
    return (g1, g2), (("n1", g1.order), ("m1", g1.size), ("n2", g2.order), ("m2", g2.size))


def _factor_tuple(rng: random.Random):
    """2..4 factors of order <= 5, so n-ary products stay desk-sized, and their label."""
    factors = [_random_factor(rng, 5) for _ in range(rng.randint(2, 4))]
    return factors, (("orders", "x".join(str(g.order) for g in factors)),)


# ---------------------------------------------------------------------------
# The catalog: one record per formula id, verbatim

@dataclass(frozen=True)
class Formula:
    """One catalogued closed form and everything that checks it.

    A grid formula has ``grid``: its parameter names, in the order that
    ``closed``, ``stated`` and ``oracle`` take them, mapped to their
    default values.  A random-trial rule has ``sample`` instead, which
    draws one factor tuple and its CSV labels from a seeded
    ``random.Random``; its ``closed`` takes the factors' :class:`GraphStats`.
    ``oracle(*args)`` builds the graph the closed form describes, from the
    parameter values or the factors, under the caps of
    :mod:`nbzagreb.graphs`; over a cap it raises
    :class:`~nbzagreb.graphs.SizeOverflowError`.  ``stated`` is
    the catalogued parameter range, ``None`` when unconstrained.
    """

    id: str
    closed: Callable[..., int]
    oracle: Callable[..., Graph]
    grid: Mapping[str, Sequence] | None = None
    sample: Callable[[random.Random], tuple] | None = None
    stated: Callable[..., bool] | None = None

    @property
    def params(self) -> tuple[str, ...]:
        """Parameter names; empty for a random-trial rule."""
        return tuple(self.grid or ())


# Rules and families are looked up by name when a record is evaluated, so
# wrappers installed on their modules (perfbench's tracer) see the calls.
_RECORDS = (
    Formula(
        "PROP1",
        closed=lambda s1, s2: mn_cartesian(s1, s2),
        oracle=lambda g1, g2: cartesian(g1, g2),
        sample=_factor_pair,
    ),
    Formula(
        "PROP2",
        closed=lambda *stats: mn_cartesian_nary(stats),
        oracle=lambda *factors: cartesian_n(factors),
        sample=_factor_tuple,
    ),
    Formula(
        "PROP3",
        closed=lambda s1, s2: mn_tensor(s1.mn, s2.mn),
        oracle=lambda g1, g2: tensor(g1, g2),
        sample=_factor_pair,
    ),
    Formula(
        "PROP4_PRINTED",
        closed=lambda s1, s2: mn_wreath_printed(s1, s2),
        oracle=lambda g1, g2: wreath(g1, g2),
        sample=_factor_pair,
    ),
    Formula(
        "HAMMING",
        closed=lambda sizes: mn_hamming(sizes),
        oracle=lambda sizes: families.hamming(sizes),
        grid={"sizes": (
            (2,), (3,), (6,),
            (2, 2), (2, 3), (2, 4), (3, 3), (4, 5),
            (2, 2, 2), (2, 2, 3), (2, 3, 4), (3, 3, 3),
            (2, 2, 2, 2), (2, 2, 3, 3), (2, 3, 4, 5),
            (2, 2, 2, 2, 2),
        )},
    ),
    Formula(
        "EX_LADDER",
        closed=lambda n: 162 * n - 132,
        oracle=lambda n: families.ladder(n),
        grid={"n": range(3, 11)},
    ),
    Formula(
        "EX_NANOTORUS",
        closed=lambda m, n: 256 * m * n,
        oracle=lambda m, n: families.nanotorus(m, n),
        grid={"m": range(3, 11), "n": range(3, 11)},
    ),
    Formula(
        "EX_NANOTUBE",
        closed=lambda m, n: 256 * m * n - 374 * m,
        oracle=lambda m, n: families.nanotube(m, n),
        grid={"m": range(3, 11), "n": range(4, 11)},
        stated=lambda m, n: n >= 4,
    ),
    Formula(
        "EX_GRID",
        closed=lambda m, n: 256 * m * n - 310 * m - 310 * n + 216,
        oracle=lambda m, n: families.grid(m, n),
        grid={"m": range(4, 11), "n": range(4, 11)},
        stated=lambda m, n: m >= 4 and n >= 4,
    ),
    Formula(
        "EX_PRISM",
        closed=lambda n: 162 * n,
        oracle=lambda n: families.prism(n),
        grid={"n": range(3, 13)},
    ),
    Formula(
        "EX_ROOK",
        closed=lambda m, n: m * n * (
            6 * (m - 1) ** 2 * (n - 1) ** 2
            + (n - 1) ** 4
            + (m - 1) ** 4
            + 4 * (m - 1) * (n - 1) * ((m - 1) ** 2 + (n - 1) ** 2)
        ),
        oracle=lambda m, n: families.rook(m, n),
        grid={"m": range(2, 7), "n": range(2, 7)},
    ),
    Formula(
        "EX_HYPERCUBE",
        closed=lambda m: 2 ** m * m ** 4,
        oracle=lambda m: families.hypercube(m),
        grid={"m": range(1, 7)},
    ),
    Formula(
        "EX_TENSOR_PP",
        closed=lambda n, m: (16 * n - 38) * (16 * m - 38),
        oracle=lambda n, m: families._product(
            ProductKind.TENSOR, (path_graph, n), (path_graph, m)
        ),
        grid={"n": range(4, 9), "m": range(4, 9)},
        stated=lambda n, m: n >= 4 and m >= 4,
    ),
    Formula(
        "EX_TENSOR_CC",
        closed=lambda n, m: 256 * m * n,
        oracle=lambda n, m: families._product(
            ProductKind.TENSOR, (cycle_graph, n), (cycle_graph, m)
        ),
        grid={"n": range(3, 9), "m": range(3, 9)},
    ),
    Formula(
        "EX_TENSOR_KK",
        closed=lambda n, m: m * n * (m - 1) ** 4 * (n - 1) ** 4,
        oracle=lambda n, m: families._product(
            ProductKind.TENSOR, (complete_graph, n), (complete_graph, m)
        ),
        grid={"n": range(3, 9), "m": range(3, 9)},
    ),
    Formula(
        "EX_TENSOR_PC",
        closed=lambda n, m: 16 * m * (16 * n - 38),
        oracle=lambda n, m: families._product(
            ProductKind.TENSOR, (path_graph, n), (cycle_graph, m)
        ),
        grid={"n": range(4, 9), "m": range(3, 9)},
        stated=lambda n, m: n >= 4,
    ),
    Formula(
        "EX_TENSOR_PK",
        closed=lambda n, m: m * (m - 1) ** 4 * (16 * n - 38),
        oracle=lambda n, m: families._product(
            ProductKind.TENSOR, (path_graph, n), (complete_graph, m)
        ),
        grid={"n": range(4, 9), "m": range(3, 9)},
        stated=lambda n, m: n >= 4,
    ),
    Formula(
        "EX_TENSOR_CK",
        closed=lambda n, m: 16 * m * n * (m - 1) ** 4,
        oracle=lambda n, m: families._product(
            ProductKind.TENSOR, (cycle_graph, n), (complete_graph, m)
        ),
        grid={"n": range(3, 9), "m": range(3, 9)},
    ),
    Formula(
        "EX_FENCE",
        closed=lambda n: 864 * n - 1694,
        oracle=lambda n: families.fence(n),
        grid={"n": range(4, 11)},
        stated=lambda n: n >= 4,
    ),
    Formula(
        "EX_CLOSED_FENCE",
        closed=lambda n: 816 * n + 2,
        oracle=lambda n: families.closed_fence(n),
        grid={"n": range(3, 11)},
        stated=lambda n: n >= 3,
    ),
)

#: The catalog: formula id -> record, in the canonical order.
CATALOG: dict[str, Formula] = {record.id: record for record in _RECORDS}
FORMULA_IDS = tuple(CATALOG)


def _grid_record(formula_id: str) -> Formula:
    record = CATALOG.get(formula_id)
    if record is None or record.grid is None:
        grid_ids = [fid for fid, r in CATALOG.items() if r.grid is not None]
        raise ValueError(f"{formula_id!r} is not a grid formula; expected one of {grid_ids}")
    return record


def in_stated_range(formula_id: str, **params) -> bool:
    """Whether the parameters satisfy the formula's catalogued constraint."""
    record = _grid_record(formula_id)
    return record.stated is None or record.stated(*(params[p] for p in record.params))


def example_formula(formula_id: str, **params) -> int:
    """Evaluate a catalogued grid formula verbatim.

    Out-of-range parameters are a warning, not an error: evaluation
    proceeds and the verification engine carries the flag in its report.
    """
    record = _grid_record(formula_id)
    missing = [p for p in record.params if p not in params]
    if missing:
        raise ValueError(f"{formula_id} needs parameters {record.params}, missing {missing}")
    values = {p: params[p] for p in record.params}
    if not in_stated_range(formula_id, **values):
        warnings.warn(
            f"{formula_id} evaluated outside its stated parameter range: {values}",
            ParamOutOfStatedRangeWarning,
            stacklevel=2,
        )
    return record.closed(*values.values())
