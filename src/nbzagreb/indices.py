"""Degree- and distance-based topological indices.

Covers the eight indices used throughout the package:

==========  =============================================  ==========
id          definition                                     value type
==========  =============================================  ==========
``M1``      sum of squared vertex degrees                  int
``M2``      sum over edges of deg(u)*deg(v)                int
``MN``      sum of squared neighbour-degree sums           int
``F``       sum of cubed vertex degrees                    int
``Z``       number of matchings (incl. the empty one)      int
``SIGMA``   number of independent sets (incl. the empty)   int
``CHI``     sum over edges of 1/sqrt(deg(u)*deg(v))        float
``HARARY``  sum over vertex pairs of 1/distance            Fraction
==========  =============================================  ==========

Integer indices are exact (arbitrary precision), ``HARARY`` is an exact
rational, and ``CHI`` is the single floating-point index.  Unreachable
vertex pairs contribute 0 to ``HARARY``, so disconnected graphs are legal
everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, distance_matrix

INDEX_IDS = ("M1", "M2", "MN", "F", "Z", "SIGMA", "CHI", "HARARY")

#: Order guard for the exponential-time counting indices Z and SIGMA.
COUNTING_ORDER_LIMIT = 32


class TooLargeError(ValueError):
    """A counting index was requested for a graph above the order guard."""


@dataclass(frozen=True)
class IndexValue:
    """A named index value; the value type depends on the index."""

    index_id: str
    value: int | Fraction | float


def neighbourhood_zagreb(G: Graph) -> int:
    """Sum of squared neighbour-degree sums over all vertices."""
    return sum(d * d for d in G.neighbor_degree_sums())


def first_zagreb(G: Graph) -> int:
    return sum(d * d for d in G.degrees())


def second_zagreb(G: Graph) -> int:
    deg = G.degrees()
    return sum(deg[u] * deg[v] for u, v in G.edges)


def forgotten(G: Graph) -> int:
    return sum(d ** 3 for d in G.degrees())


def randic(G: Graph) -> float:
    deg = G.degrees()
    return sum(1.0 / math.sqrt(deg[u] * deg[v]) for u, v in G.edges)


def harary(G: Graph) -> Fraction:
    """Sum of reciprocal distances over unordered reachable pairs, exact."""
    dist = distance_matrix(G)
    total = Fraction(0)
    for u in range(G.order):
        row = dist[u]
        for v in range(u + 1, G.order):
            if row[v] != math.inf:
                total += Fraction(1, int(row[v]))
    return total


def _check_counting_guard(G: Graph) -> None:
    if G.order > COUNTING_ORDER_LIMIT:
        raise TooLargeError(
            f"order {G.order} exceeds the counting guard of {COUNTING_ORDER_LIMIT}"
        )


def _adjacency_masks(G: Graph) -> list[int]:
    """Per-vertex neighbour sets as bitmasks over the vertex ids."""
    masks = [0] * G.order
    for u, v in G.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def hosoya(G: Graph) -> int:
    """Number of matchings, including the empty matching.

    Vertex-elimination recursion: fix a vertex v, then every matching
    either leaves v unmatched or pairs it with one neighbour.  Memoized
    on the bitmask of surviving vertices.
    """
    _check_counting_guard(G)
    adj_masks = _adjacency_masks(G)
    memo: dict[int, int] = {}

    def count(mask: int) -> int:
        # find a vertex in `mask` with at least one surviving neighbour
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            if adj_masks[v] & mask:
                break
            rest &= rest - 1
        else:
            return 1  # no surviving edges: only the empty matching
        cached = memo.get(mask)
        if cached is not None:
            return cached
        without_v = mask & ~(1 << v)
        total = count(without_v)
        nbrs = adj_masks[v] & mask
        while nbrs:
            u_bit = nbrs & -nbrs
            total += count(without_v & ~u_bit)
            nbrs &= nbrs - 1
        memo[mask] = total
        return total

    return count((1 << G.order) - 1)


def merrifield_simmons(G: Graph) -> int:
    """Number of independent vertex sets, including the empty set.

    Vertex-elimination recursion: a set either omits v, or contains v and
    omits the whole closed neighbourhood of v.
    """
    _check_counting_guard(G)
    adj_masks = _adjacency_masks(G)
    memo: dict[int, int] = {}

    def count(mask: int) -> int:
        if mask == 0:
            return 1
        cached = memo.get(mask)
        if cached is not None:
            return cached
        v = (mask & -mask).bit_length() - 1
        total = count(mask & ~(1 << v)) + count(mask & ~(1 << v) & ~adj_masks[v])
        memo[mask] = total
        return total

    return count((1 << G.order) - 1)


_DISPATCH = {
    "M1": first_zagreb,
    "M2": second_zagreb,
    "MN": neighbourhood_zagreb,
    "F": forgotten,
    "Z": hosoya,
    "SIGMA": merrifield_simmons,
    "CHI": randic,
    "HARARY": harary,
}


def compute_index(G: Graph, index_id: str) -> IndexValue:
    """Compute any supported index by id; see :data:`INDEX_IDS`."""
    try:
        fn = _DISPATCH[index_id]
    except KeyError:
        raise ValueError(f"unknown index id {index_id!r}; expected one of {INDEX_IDS}") from None
    return IndexValue(index_id, fn(G))
