"""Named graph families, all built constructively via products.

Families backing the CLI ``--family`` flag and the verification oracle.
Product families are always constructed with the product operators, never
from closed-form expressions: the constructions are the ground truth the
closed forms get checked against.

Every family function works out the order of the member from its
parameters and compares it with :data:`~nbzagreb.graphs.DEFAULT_VERTEX_CAP`
before it builds any factor, so an oversized request costs nothing and
raises :class:`~nbzagreb.graphs.SizeOverflowError`.  Edge counts are
checked against the edge cap where edges are made: in ``complete_graph``
and in the products.  The rook and Hamming families also work out their
factors' and products' edge counts from the parameters, so they refuse
before a complete factor is built, with the refusal that building would
raise first.  :data:`FAMILIES` is the one registry of family names:
``name -> (parameter names, builder)``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from math import prod

from .graphs import Graph, _check_cap, _complete_size, complete_graph, cycle_graph, path_graph
from .products import _check_cartesian, cartesian, cartesian_n, wreath


def _check_order(*factor_orders: int) -> None:
    """Refuse a product of factors of these orders before any is built."""
    _check_cap("product order", prod(factor_orders))
    # an empty factor makes the product small but its partner is still built
    _check_cap("factor order", max(factor_orders))


def _check_factor_count(count: int) -> None:
    """Refuse ``count`` factors of order >= 2 without computing a huge ``2**count``.

    The power stops at ``2**64``, over any cap a graph could be built under.
    """
    _check_cap("product order >=", 2 ** min(count, 64), shown=f"2**{count}")


def _check_complete_cartesian(*orders: int) -> None:
    """Refuse the cartesian product of complete graphs of these orders
    before any is built, with the refusal that building them in order and
    folding :func:`cartesian` over them would raise first."""
    sizes = [_complete_size(k) for k in orders]
    order, size = orders[0], sizes[0]
    for k, s in zip(orders[1:], sizes[1:]):
        order, size = _check_cartesian(order, size, k, s)


def ladder(n: int) -> Graph:
    """L_n = P_2 x P_{n+1}: the ladder with n rungs plus the two ends."""
    _check_order(2, n + 1)
    return cartesian(path_graph(2), path_graph(n + 1))


def grid(m: int, n: int) -> Graph:
    """P_m x P_n rectangular grid."""
    _check_order(m, n)
    return cartesian(path_graph(m), path_graph(n))


def nanotube(m: int, n: int) -> Graph:
    """TUC4(m, n) = P_n x C_m: a C4 tube with n rings of girth m."""
    _check_order(n, m)
    return cartesian(path_graph(n), cycle_graph(m))


def nanotorus(m: int, n: int) -> Graph:
    """TC4(m, n) = C_m x C_n: a C4 torus."""
    _check_order(m, n)
    return cartesian(cycle_graph(m), cycle_graph(n))


def prism(n: int) -> Graph:
    """n-prism K_2 x C_n."""
    _check_order(2, n)
    return cartesian(complete_graph(2), cycle_graph(n))


def rook(m: int, n: int) -> Graph:
    """Rook's graph K_m x K_n."""
    _check_order(m, n)
    _check_complete_cartesian(m, n)
    return cartesian(complete_graph(m), complete_graph(n))


def hamming(sizes: Sequence[int]) -> Graph:
    """Hamming graph H(sizes): n-ary cartesian product of complete graphs."""
    if not sizes:
        raise ValueError("hamming needs at least one factor size")
    if any(s < 2 for s in sizes):
        raise ValueError(f"hamming factor sizes must be >= 2, got {list(sizes)}")
    _check_factor_count(len(sizes))
    _check_order(*sizes)
    _check_complete_cartesian(*sizes)
    return cartesian_n([complete_graph(s) for s in sizes])


def hypercube(m: int) -> Graph:
    """Q_m: the m-dimensional hypercube, the all-2 Hamming graph."""
    if m < 1:
        raise ValueError(f"hypercube dimension must be >= 1, got {m}")
    _check_factor_count(m)
    return hamming([2] * m)


def fence(n: int) -> Graph:
    """Fence graph P_n[P_2] (wreath product)."""
    _check_order(n, 2)
    return wreath(path_graph(n), path_graph(2))


def closed_fence(n: int) -> Graph:
    """Closed fence graph C_n[P_2] (wreath product)."""
    _check_order(n, 2)
    return wreath(cycle_graph(n), path_graph(2))


def _elementary(build: Callable[[int], Graph]) -> Callable[[int], Graph]:
    """A one-factor family under the same cap as the product families."""

    def member(n: int) -> Graph:
        _check_cap("order", n)
        return build(n)

    return member


#: The family registry: name -> (parameter names, builder).  A builder
#: takes the parameters positionally, in this order.
FAMILIES: dict[str, tuple[tuple[str, ...], Callable[..., Graph]]] = {
    "path": (("n",), _elementary(path_graph)),
    "cycle": (("n",), _elementary(cycle_graph)),
    "complete": (("n",), _elementary(complete_graph)),
    "ladder": (("n",), ladder),
    "grid": (("m", "n"), grid),
    "nanotube": (("m", "n"), nanotube),
    "nanotorus": (("m", "n"), nanotorus),
    "prism": (("n",), prism),
    "rook": (("m", "n"), rook),
    "hamming": (("sizes",), hamming),
    "hypercube": (("m",), hypercube),
    "fence": (("n",), fence),
    "closed-fence": (("n",), closed_fence),
}


def build_family(name: str, **params) -> Graph:
    """Build a named family member from its parameters, e.g. ``m=4, n=5``."""
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; expected one of {sorted(FAMILIES)}")
    names, builder = FAMILIES[name]
    for p in names:
        if params.get(p) is None:
            raise ValueError(f"family {name!r} needs parameter --{p}")
    return builder(*(params[p] for p in names))
