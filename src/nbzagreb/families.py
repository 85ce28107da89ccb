"""Named graph families, all built constructively via products.

Families backing the CLI ``--family`` flag and the verification oracle.
Product families are always constructed with the product operators, never
from closed-form expressions: the constructions are the ground truth the
closed forms get checked against.

Every family function works out the order of the member from its
parameters and compares it with ``vertex_cap`` before it builds any
factor, so an oversized request costs nothing and raises
:class:`~nbzagreb.products.SizeOverflowError`.  :data:`FAMILIES` is the
one registry of family names: ``name -> (parameter names, builder)``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from math import prod

from .graphs import Graph, complete_graph, cycle_graph, path_graph
from .products import DEFAULT_VERTEX_CAP, SizeOverflowError, cartesian, cartesian_n, wreath


def _check_order(vertex_cap: int, *factor_orders: int) -> None:
    """Refuse a product of factors of these orders before any is built."""
    order = prod(factor_orders)
    if order > vertex_cap:
        raise SizeOverflowError(f"product order {order} exceeds vertex cap {vertex_cap}")
    # an empty factor makes the product small but its partner is still built
    if max(factor_orders) > vertex_cap:
        raise SizeOverflowError(
            f"factor order {max(factor_orders)} exceeds vertex cap {vertex_cap}"
        )


def _check_factor_count(count: int, vertex_cap: int) -> None:
    """Refuse ``count`` factors of order >= 2 without computing ``2**count``."""
    if count >= vertex_cap.bit_length():
        raise SizeOverflowError(
            f"product order >= 2**{count} exceeds vertex cap {vertex_cap}"
        )


def ladder(n: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """L_n = P_2 x P_{n+1}: the ladder with n rungs plus the two ends."""
    _check_order(vertex_cap, 2, n + 1)
    return cartesian(path_graph(2), path_graph(n + 1), vertex_cap=vertex_cap)


def grid(m: int, n: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """P_m x P_n rectangular grid."""
    _check_order(vertex_cap, m, n)
    return cartesian(path_graph(m), path_graph(n), vertex_cap=vertex_cap)


def nanotube(m: int, n: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """TUC4(m, n) = P_n x C_m: a C4 tube with n rings of girth m."""
    _check_order(vertex_cap, n, m)
    return cartesian(path_graph(n), cycle_graph(m), vertex_cap=vertex_cap)


def nanotorus(m: int, n: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """TC4(m, n) = C_m x C_n: a C4 torus."""
    _check_order(vertex_cap, m, n)
    return cartesian(cycle_graph(m), cycle_graph(n), vertex_cap=vertex_cap)


def prism(n: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """n-prism K_2 x C_n."""
    _check_order(vertex_cap, 2, n)
    return cartesian(complete_graph(2), cycle_graph(n), vertex_cap=vertex_cap)


def rook(m: int, n: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Rook's graph K_m x K_n."""
    _check_order(vertex_cap, m, n)
    return cartesian(complete_graph(m), complete_graph(n), vertex_cap=vertex_cap)


def hamming(sizes: Sequence[int], *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Hamming graph H(sizes): n-ary cartesian product of complete graphs."""
    if not sizes:
        raise ValueError("hamming needs at least one factor size")
    if any(s < 2 for s in sizes):
        raise ValueError(f"hamming factor sizes must be >= 2, got {list(sizes)}")
    _check_factor_count(len(sizes), vertex_cap)
    _check_order(vertex_cap, *sizes)
    return cartesian_n([complete_graph(s) for s in sizes], vertex_cap=vertex_cap)


def hypercube(m: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Q_m: the m-dimensional hypercube, the all-2 Hamming graph."""
    if m < 1:
        raise ValueError(f"hypercube dimension must be >= 1, got {m}")
    _check_factor_count(m, vertex_cap)
    return hamming([2] * m, vertex_cap=vertex_cap)


def fence(n: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Fence graph P_n[P_2] (wreath product)."""
    _check_order(vertex_cap, n, 2)
    return wreath(path_graph(n), path_graph(2), vertex_cap=vertex_cap)


def closed_fence(n: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Closed fence graph C_n[P_2] (wreath product)."""
    _check_order(vertex_cap, n, 2)
    return wreath(cycle_graph(n), path_graph(2), vertex_cap=vertex_cap)


def _elementary(build: Callable[[int], Graph]) -> Callable[..., Graph]:
    """A one-factor family under the same cap as the product families."""

    def member(n: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
        if n > vertex_cap:
            raise SizeOverflowError(f"order {n} exceeds vertex cap {vertex_cap}")
        return build(n)

    return member


#: The family registry: name -> (parameter names, builder).  A builder
#: takes the parameters positionally, in this order, and ``vertex_cap``.
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


def build_family(
    name: str, *, vertex_cap: int = DEFAULT_VERTEX_CAP, **params
) -> Graph:
    """Build a named family member from its parameters, e.g. ``m=4, n=5``."""
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; expected one of {sorted(FAMILIES)}")
    names, builder = FAMILIES[name]
    for p in names:
        if params.get(p) is None:
            raise ValueError(f"family {name!r} needs parameter --{p}")
    return builder(*(params[p] for p in names), vertex_cap=vertex_cap)
