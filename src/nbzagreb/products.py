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

Before it builds any pair, each kind works out its order and its size
(edge count) from the factors, with ``m1``, ``m2`` the factor sizes:
cartesian ``n1*m2 + n2*m1``, tensor ``2*m1*m2``, wreath ``m1*n2**2 + n1*m2``.
It refuses an order over :data:`~nbzagreb.graphs.DEFAULT_VERTEX_CAP` or a
size over :data:`~nbzagreb.graphs.DEFAULT_EDGE_CAP` with
:class:`SizeOverflowError`.

Each product kind obeys a per-vertex law for the neighbour-degree sum of
the constructed graph; :func:`delta_law_check` verifies it exhaustively.
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


def _check_product(order: int, size: int) -> None:
    _check_cap("product order", order)
    _check_cap("product size", size, edges=True)


def _check_cartesian(n1: int, m1: int, n2: int, m2: int) -> tuple[int, int]:
    """Refuse the cartesian product of factors of orders n1, n2 and sizes
    m1, m2 as :func:`cartesian` would; return its order and size."""
    order, size = n1 * n2, n1 * m2 + n2 * m1
    _check_product(order, size)
    return order, size


def _check_tensor(n1: int, m1: int, n2: int, m2: int) -> None:
    """Refuse the tensor product of such factors as :func:`tensor` would."""
    _check_product(n1 * n2, 2 * m1 * m2)


def _blocks(n1: int, n2: int) -> list[list[int]]:
    """Product vertex ids block by block: ``blocks[u][v] == u * n2 + v``.

    Pairs are built from these lists, so every product vertex is one int
    object shared by all its pairs and neighbour lists.
    """
    return [list(range(base, base + n2)) for base in range(0, n1 * n2, n2)]


def cartesian(G1: Graph, G2: Graph) -> Graph:
    n1, n2 = G1.order, G2.order
    _check_cartesian(n1, G1.size, n2, G2.size)
    blocks = _blocks(n1, n2)
    edges = [(row[v1], row[v2]) for row in blocks for v1, v2 in G2.edges]
    edges += [pair for u1, u2 in G1.edges for pair in zip(blocks[u1], blocks[u2])]
    return Graph._from_canonical(n1 * n2, edges)


def tensor(G1: Graph, G2: Graph) -> Graph:
    n1, n2 = G1.order, G2.order
    _check_tensor(n1, G1.size, n2, G2.size)
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
    _check_product(n1 * n2, G1.size * n2 * n2 + n1 * G2.size)
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
# Per-vertex neighbour-degree-sum laws

def _cartesian_delta(G1, G2, u, v):
    return (
        G1.neighbor_degree_sum(u)
        + G2.neighbor_degree_sum(v)
        + 2 * G1.degree(u) * G2.degree(v)
    )


def _tensor_delta(G1, G2, u, v):
    return G1.neighbor_degree_sum(u) * G2.neighbor_degree_sum(v)


def _wreath_delta(G1, G2, u, v):
    n2 = G2.order
    e2 = G2.size
    return (
        n2 * n2 * G1.neighbor_degree_sum(u)
        + G2.neighbor_degree_sum(v)
        + 2 * e2 * G1.degree(u)
        + n2 * G1.degree(u) * G2.degree(v)
    )


_DELTA_LAWS = {
    ProductKind.CARTESIAN: _cartesian_delta,
    ProductKind.TENSOR: _tensor_delta,
    ProductKind.WREATH: _wreath_delta,
}


def delta_law_check(G1: Graph, G2: Graph, kind: ProductKind) -> bool:
    """True iff the constructed product graph realizes the per-vertex law.

    Builds the product, computes the neighbour-degree sum of every product
    vertex directly, and compares it against the kind's formula evaluated
    on factor data.
    """
    law = _DELTA_LAWS[kind]
    P = product(G1, G2, kind)
    n2 = G2.order
    deltas = P.neighbor_degree_sums()
    for u in range(G1.order):
        for v in range(n2):
            if deltas[u * n2 + v] != law(G1, G2, u, v):
                return False
    return True
