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
contract is distinct pairs ``(x, y)`` with ``0 <= x < y < n1*n2``, the
pairs of each first vertex ``x`` in increasing order of ``y``.  With
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
* no pair is both inside one block and between two blocks;
* each kind emits a vertex's pairs inside its block, if any, before its
  pairs between blocks, whose second vertices lie in later blocks.  Inside
  a block they follow ``G2``'s edges, so ``v2`` increases.  Between blocks
  they follow ``G1``'s edges, so ``u2`` increases, and in one block ``u2``
  the second coordinate increases: the cartesian kind has one, the tensor
  kind walks its arcs ``(a, b)`` sorted, and the wreath kind walks the
  whole block in order.

The cartesian product of any number of factors ``G1 .. Gk`` (orders
``n1 .. nk``) is built in one pass by :func:`cartesian_n`, and
``cartesian(G1, G2)`` is its two-factor case (Hammack, Imrich and
Klavzar, *Handbook of Product Graphs*, 2nd ed., 2011, ch. 5).  Vertex
``(x1 .. xk)`` has the mixed-radix id ``(..(x1 * n2 + x2) * n3 ..) * nk + xk``,
the left fold of the binary encoding.  Factor ``i`` has *stride*
``s = n(i+1) * .. * nk``, and its edge ``ab`` joins ids ``q + a*s + r`` and
``q + b*s + r`` for every offset ``r < s`` and every ``q`` a multiple of
``ni * s``:

* the last factor (stride 1) goes block row by block row, as in the
  binary case;
* each earlier factor zips runs of the shared ids: blocks of ``s``
  consecutive ids (one zip per block and edge) or progressions of step
  ``ni * s`` (one zip per offset and edge), whichever makes fewer zips.
  With two factors the blocks are the rows; with more, one tuple of all
  the ids is cut.

No intermediate product is built, and every pair is one of the binary
fold's, so the pairs are distinct and increasing as the fold's are.  The
factors are emitted by increasing stride, the last factor first.  A pair
of the factor with stride ``s`` joins ``x`` to ``x + (b - a) * s``, at
least ``s`` above ``x``, while every pair of a factor with a smaller stride
stays inside ``x``'s aligned span of ``s`` ids; and one factor's pairs
from ``x`` follow its edges ``ab`` with ``a`` fixed, ``b`` increasing.  So
each vertex's pairs come in increasing order, as the contract asks.

Each kind is one frozen record in ``_KINDS``: its edge count ``size``,
its builder ``build`` and its per-vertex law ``law`` for the
neighbour-degree sum, on factor data alone (:func:`delta_law_check`
verifies it).  ``_check_product`` folds a kind's ``size`` over factors'
orders and sizes, refusing at each step, order first, an order over
:data:`~nbzagreb.graphs.DEFAULT_VERTEX_CAP` or a size over
:data:`~nbzagreb.graphs.DEFAULT_EDGE_CAP` with :class:`SizeOverflowError`.
Each builder runs it before it builds any pair, and the plan of
:mod:`nbzagreb.families` before it builds any factor.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import chain

# SizeOverflowError is re-exported: products.SizeOverflowError is the same class
from .graphs import Graph, SizeOverflowError, _check_cap


class ProductKind(enum.Enum):
    CARTESIAN = "cartesian"
    TENSOR = "tensor"
    WREATH = "wreath"


# a member read goes through the enum class's slow attribute path (about
# 0.2 us on CPython 3.11), so per-call code reads these names instead
_CARTESIAN, _TENSOR, _WREATH = ProductKind.CARTESIAN, ProductKind.TENSOR, ProductKind.WREATH


def _check_product(kind: ProductKind | None, dims: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Order and size of the ``kind`` product of factors with these ``(order,
    size)`` pairs, refused as building would; a lone factor may pass None."""
    order, size = dims[0]
    for n, m in dims[1:]:
        order, size = order * n, _KINDS[kind].size(order, size, n, m)
        _check_cap("product order", order)
        _check_cap("product size", size, edges=True)
    return order, size


def _blocks(n1: int, n2: int) -> list[tuple[int, ...]]:
    """Product vertex ids block by block: ``blocks[u][v] == u * n2 + v``.

    Pairs are built from these tuples, so every product vertex is one int
    object shared by all its pairs.  They are tuples because a tuple of
    ints leaves the cyclic garbage collector's passes at its first
    collection, where a list of ints stays tracked for as long as it lives.
    """
    return [tuple(range(base, base + n2)) for base in range(0, n1 * n2, n2)]


def cartesian(G1: Graph, G2: Graph) -> Graph:
    """The two-factor case of :func:`cartesian_n`."""
    return cartesian_n((G1, G2))


def tensor(G1: Graph, G2: Graph) -> Graph:
    n1, n2 = G1.order, G2.order
    _check_product(_TENSOR, ((n1, G1.size), (n2, G2.size)))
    blocks = _blocks(n1, n2)
    # sorted, so each vertex's pairs into one block come in increasing order
    arcs = sorted([*G2.edges, *[(v2, v1) for v1, v2 in G2.edges]])
    edges = [
        (row1[a], row2[b])
        for row1, row2 in [(blocks[u1], blocks[u2]) for u1, u2 in G1.edges]
        for a, b in arcs
    ]
    return Graph._from_canonical(n1 * n2, edges)


def wreath(G1: Graph, G2: Graph) -> Graph:
    n1, n2 = G1.order, G2.order
    _check_product(_WREATH, ((n1, G1.size), (n2, G2.size)))
    blocks = _blocks(n1, n2)
    # the pairs inside blocks first: each vertex's go below its pairs to later blocks
    edges = [(row[v1], row[v2]) for row in blocks for v1, v2 in G2.edges]
    edges += [(x, y) for u1, u2 in G1.edges for x in blocks[u1] for y in blocks[u2]]
    return Graph._from_canonical(n1 * n2, edges)


def product(G1: Graph, G2: Graph, kind: ProductKind) -> Graph:
    """Construct the product of the given kind (argument order preserved)."""
    return _KINDS[kind].build((G1, G2))


def cartesian_n(graphs: Iterable[Graph]) -> Graph:
    """The cartesian product of one or more factors, built in one pass.

    Equal to ``functools.reduce(cartesian, graphs)`` and refused as that
    fold would refuse, but no intermediate product is built (see the
    module docstring).
    """
    graphs = tuple(graphs)
    if not graphs:
        raise ValueError("cartesian_n needs at least one factor")
    order, _ = _check_product(_CARTESIAN, [(G.order, G.size) for G in graphs])
    *firsts, last = graphs
    if not firsts:
        return last
    stride = last.order
    blocks = _blocks(order // stride, stride)
    edges = [(row[v1], row[v2]) for row in blocks for v1, v2 in last.edges]
    # the first factor's step is the whole order, so it takes the block
    # branch below, and with two factors its blocks are the rows above;
    # the ids are cut only for a factor between the first and the last,
    # since with two factors they would add 8 bytes per vertex to the peak
    ids = tuple(chain.from_iterable(blocks)) if len(firsts) > 1 else ()
    for G in reversed(firsts):
        n, step = G.order, G.order * stride
        if order // step > stride:
            # one run of order // step pairs per offset below `stride` and edge of G
            for r in range(stride):
                for a, b in G.edges:
                    edges += zip(ids[a * stride + r::step], ids[b * stride + r::step])
        else:
            # one run of `stride` pairs per span of `step` ids and edge of G
            if len(blocks[0]) != stride:
                blocks = [ids[x:x + stride] for x in range(0, order, stride)]
            for p in range(0, len(blocks), n):
                for a, b in G.edges:
                    edges += zip(blocks[p + a], blocks[p + b])
        stride = step
    return Graph._from_canonical(order, edges)


@dataclass(frozen=True)
class _Kind:
    """The rules of one product kind, on factors G1, G2 of orders n1, n2."""

    # the product's edge count from n1, n2 and the factors' sizes m1, m2
    size: Callable[[int, int, int, int], int]
    # the product of a sequence of factors: two, or any number if cartesian
    build: Callable[[Sequence[Graph]], Graph]
    # the neighbour-degree sum of product vertex (u, v) from u's sum s1 and
    # degree d1 in G1, v's s2 and d2 in G2, and G2's order n2 and size e2
    law: Callable[[int, int, int, int, int, int], int]


# Builders are looked up by name when a record builds, so wrappers installed
# on this module (perfbench's tracer) see the calls.
_KINDS = {
    _CARTESIAN: _Kind(
        size=lambda n1, m1, n2, m2: n1 * m2 + n2 * m1,
        build=lambda graphs: cartesian_n(graphs),
        law=lambda s1, d1, s2, d2, n2, e2: s1 + s2 + 2 * d1 * d2,
    ),
    _TENSOR: _Kind(
        size=lambda n1, m1, n2, m2: 2 * m1 * m2,
        build=lambda graphs: tensor(*graphs),
        law=lambda s1, d1, s2, d2, n2, e2: s1 * s2,
    ),
    _WREATH: _Kind(
        size=lambda n1, m1, n2, m2: m1 * n2 * n2 + n1 * m2,
        build=lambda graphs: wreath(*graphs),
        law=lambda s1, d1, s2, d2, n2, e2: n2 * n2 * s1 + s2 + 2 * e2 * d1 + n2 * d1 * d2,
    ),
}


def delta_law_check(G1: Graph, G2: Graph, kind: ProductKind) -> bool:
    """True iff the constructed product graph realizes the per-vertex law.

    Builds the product first, so an oversized one is refused before any law
    is evaluated, then compares its neighbour-degree sums in encoding order
    with the law on each factor's degrees and neighbour-degree sums.
    """
    law = _KINDS[kind].law
    P = product(G1, G2, kind)
    n2, e2 = G2.order, G2.size
    right = list(zip(G2.neighbor_degree_sums(), G2.degrees()))
    return P.neighbor_degree_sums() == tuple(
        law(s1, d1, s2, d2, n2, e2)
        for s1, d1 in zip(G1.neighbor_degree_sums(), G1.degrees())
        for s2, d2 in right
    )
