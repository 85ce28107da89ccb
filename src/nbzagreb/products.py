"""Cartesian, tensor and wreath graph products.

Every product of factors ``G1`` (order n1) and ``G2`` (order n2) lives on
vertex set ``{0 .. n1*n2 - 1}`` with the fixed encoding

    (u, v)  ->  u * n2 + v

which is part of the public contract so callers can address individual
product vertices.  Adjacency rules:

* cartesian:  (u1,v1) ~ (u2,v2)  iff  u1 == u2 and v1v2 is an edge of G2,
  or v1 == v2 and u1u2 is an edge of G1.
* tensor:     (u1,v1) ~ (u2,v2)  iff  u1u2 is an edge of G1 and v1v2 is an
  edge of G2.
* wreath (composition, G1[G2]):  (u1,v1) ~ (u2,v2)  iff  u1u2 is an edge
  of G1, or u1 == u2 and v1v2 is an edge of G2.  Not commutative.

Every kind hands its pairs to the trusted ``Graph._from_canonical``, whose
contract is distinct pairs ``(x, y)`` with ``0 <= x < y < n1*n2``.  With
``u1 < u2`` and ``v1 < v2`` the canonical factor edges, each kind meets it:

* pairs inside one block ``u`` are ``(u*n2 + v1, u*n2 + v2)``, increasing
  because ``v1 < v2``; blocks differ in ``u`` and factor edges are distinct;
* pairs between blocks run from block ``u1`` to block ``u2 > u1``, so the
  first vertex is smaller whatever the second coordinates are.  Cartesian
  pairs ``(u1, v)-(u2, v)`` differ in ``(u1, u2, v)``; tensor pairs
  ``(u1, a)-(u2, b)`` take each orientation ``(a, b)`` of each edge of
  ``G2`` once, and the two orientations differ because ``v1 != v2``;
  wreath pairs ``(u1, a)-(u2, b)`` take each of the ``n2 * n2`` pairs
  ``(a, b)`` once per edge of ``G1``;
* no pair is both inside one block and between two blocks.

Before it builds any pair, each kind passes its factors' orders and sizes
to ``_check_product``, the one copy of each kind's edge count.  It refuses
an order over :data:`~nbzagreb.graphs.DEFAULT_VERTEX_CAP` or a size over
:data:`~nbzagreb.graphs.DEFAULT_EDGE_CAP` with :class:`SizeOverflowError`,
order first.  The product families of :mod:`nbzagreb.families` call it on
sizes worked out from their parameters, so they refuse a product of
complete graphs before any factor is built.

Each product kind obeys a per-vertex law for the neighbour-degree sum of
the constructed graph, ``_DELTA_LAWS[kind]``, stated on factor data alone;
:func:`delta_law_check` verifies it exhaustively.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from functools import reduce

# SizeOverflowError is re-exported: products.SizeOverflowError is the same class
from .graphs import Graph, SizeOverflowError, _check_cap


class ProductKind(enum.Enum):
    CARTESIAN = "cartesian"
    TENSOR = "tensor"
    WREATH = "wreath"


def _check_product(kind: ProductKind, n1: int, m1: int, n2: int, m2: int) -> tuple[int, int]:
    """Refuse the ``kind`` product of factors of orders n1, n2 and sizes m1, m2
    as building it would; return its order and size."""
    if kind is ProductKind.CARTESIAN:
        size = n1 * m2 + n2 * m1
    elif kind is ProductKind.TENSOR:
        size = 2 * m1 * m2
    else:
        size = m1 * n2 * n2 + n1 * m2
    _check_cap("product order", n1 * n2)
    _check_cap("product size", size, edges=True)
    return n1 * n2, size


def _blocks(n1: int, n2: int) -> list[list[int]]:
    """Product vertex ids block by block: ``blocks[u][v] == u * n2 + v``.

    Pairs are built from these lists, so every product vertex is one int
    object shared by all its pairs and neighbour lists.
    """
    return [list(range(base, base + n2)) for base in range(0, n1 * n2, n2)]


def cartesian(G1: Graph, G2: Graph) -> Graph:
    n1, n2 = G1.order, G2.order
    _check_product(ProductKind.CARTESIAN, n1, G1.size, n2, G2.size)
    blocks = _blocks(n1, n2)
    edges = [(row[v1], row[v2]) for row in blocks for v1, v2 in G2.edges]
    edges += [pair for u1, u2 in G1.edges for pair in zip(blocks[u1], blocks[u2])]
    return Graph._from_canonical(n1 * n2, edges)


def tensor(G1: Graph, G2: Graph) -> Graph:
    n1, n2 = G1.order, G2.order
    _check_product(ProductKind.TENSOR, n1, G1.size, n2, G2.size)
    blocks = _blocks(n1, n2)
    arcs = [*G2.edges, *[(v2, v1) for v1, v2 in G2.edges]]
    edges = [
        (row1[a], row2[b])
        for row1, row2 in [(blocks[u1], blocks[u2]) for u1, u2 in G1.edges]
        for a, b in arcs
    ]
    return Graph._from_canonical(n1 * n2, edges)


def wreath(G1: Graph, G2: Graph) -> Graph:
    n1, n2 = G1.order, G2.order
    _check_product(ProductKind.WREATH, n1, G1.size, n2, G2.size)
    blocks = _blocks(n1, n2)
    edges = [(x, y) for u1, u2 in G1.edges for x in blocks[u1] for y in blocks[u2]]
    edges += [(row[v1], row[v2]) for row in blocks for v1, v2 in G2.edges]
    return Graph._from_canonical(n1 * n2, edges)


_CONSTRUCTORS = {
    ProductKind.CARTESIAN: cartesian,
    ProductKind.TENSOR: tensor,
    ProductKind.WREATH: wreath,
}


def product(G1: Graph, G2: Graph, kind: ProductKind) -> Graph:
    """Construct the product of the given kind (argument order preserved)."""
    return _CONSTRUCTORS[kind](G1, G2)


def cartesian_n(graphs: Sequence[Graph]) -> Graph:
    """Left fold of the binary cartesian product over a non-empty list."""
    if not graphs:
        raise ValueError("cartesian_n needs at least one factor")
    return reduce(cartesian, graphs)


# ---------------------------------------------------------------------------
# Per-vertex neighbour-degree-sum laws on factor data: the sum of product
# vertex (u, v) from u's sum s1 and degree d1 in G1, v's s2 and d2 in G2,
# and G2's order n2 and size e2.

_DELTA_LAWS = {
    ProductKind.CARTESIAN: lambda s1, d1, s2, d2, n2, e2: s1 + s2 + 2 * d1 * d2,
    ProductKind.TENSOR: lambda s1, d1, s2, d2, n2, e2: s1 * s2,
    ProductKind.WREATH: lambda s1, d1, s2, d2, n2, e2: (
        n2 * n2 * s1 + s2 + 2 * e2 * d1 + n2 * d1 * d2
    ),
}


def delta_law_check(G1: Graph, G2: Graph, kind: ProductKind) -> bool:
    """True iff the constructed product graph realizes the per-vertex law.

    Builds the product first, so an oversized one is refused before any law
    is evaluated, then compares its neighbour-degree sums in encoding order
    with the law on each factor's degrees and neighbour-degree sums.
    """
    law = _DELTA_LAWS[kind]
    P = product(G1, G2, kind)
    n2, e2 = G2.order, G2.size
    right = list(zip(G2.neighbor_degree_sums(), G2.degrees()))
    return P.neighbor_degree_sums() == tuple(
        law(s1, d1, s2, d2, n2, e2)
        for s1, d1 in zip(G1.neighbor_degree_sums(), G1.degrees())
        for s2, d2 in right
    )
