"""Named graph families, all built constructively via products.

Families backing the CLI ``--family`` flag and the verification oracle.
Product families are always constructed with the product operators, never
from closed-form expressions: the constructions are the ground truth the
closed forms get checked against.

A family's recipe maps its parameters to ``(kind, (builder, n), ...)``: a
product kind and its factors, or ``None`` and one elementary graph.
:func:`_plan` checks the order against the vertex cap, sizes each factor
by its builder's size function and folds the size rule of the kind's
record in :mod:`nbzagreb.products`, whose ``build`` then makes the member:
the plan raises what building would raise first, and builds nothing.  The
one registry, :data:`FAMILIES` (``name -> (parameter names, recipe)``),
serves the named builders, :func:`build_family` and :func:`plan_family`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from math import prod

from .graphs import _SIZES, Graph, _check_cap, _echo, complete_graph, cycle_graph, path_graph
from .products import _CARTESIAN, _KINDS, _WREATH, ProductKind, _check_product


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


def _plan(kind: ProductKind | None, *factors: tuple[Callable, int]) -> tuple[int, int]:
    """Order and size of the ``kind`` fold over ``(builder, n)`` factors."""
    if kind is None:
        _check_cap("order", factors[0][1])
    else:
        _check_order(*[n for _, n in factors])
    return _check_product(kind, [(n, _SIZES[build.__name__](n)) for build, n in factors])


def _product(kind: ProductKind | None, *factors: tuple[Callable, int]) -> Graph:
    """The member that :func:`_plan` admits: its factors, then its kind's build.

    The factors are built one at a time as the build reads them, and
    nothing here holds them, so the build owns them: the cartesian kind
    drops each once its pairs are emitted, before the pairs are sorted.
    """
    _plan(kind, *factors)
    graphs = (build(n) for build, n in factors)
    return next(graphs) if kind is None else _KINDS[kind].build(graphs)


def _build(name: str, *params) -> Graph:
    return _product(*FAMILIES[name][1](*params))


def ladder(n: int) -> Graph:
    """L_n = P_2 x P_{n+1}: the ladder with n rungs plus the two ends."""
    return _build("ladder", n)


def grid(m: int, n: int) -> Graph:
    """P_m x P_n rectangular grid."""
    return _build("grid", m, n)


def nanotube(m: int, n: int) -> Graph:
    """TUC4(m, n) = P_n x C_m: a C4 tube with n rings of girth m."""
    return _build("nanotube", m, n)


def nanotorus(m: int, n: int) -> Graph:
    """TC4(m, n) = C_m x C_n: a C4 torus."""
    return _build("nanotorus", m, n)


def prism(n: int) -> Graph:
    """n-prism K_2 x C_n."""
    return _build("prism", n)


def rook(m: int, n: int) -> Graph:
    """Rook's graph K_m x K_n."""
    return _build("rook", m, n)


def hamming(sizes: Sequence[int]) -> Graph:
    """Hamming graph H(sizes): n-ary cartesian product of complete graphs."""
    return _build("hamming", sizes)


def hypercube(m: int) -> Graph:
    """Q_m: the m-dimensional hypercube, the all-2 Hamming graph."""
    return _build("hypercube", m)


def fence(n: int) -> Graph:
    """Fence graph P_n[P_2] (wreath product)."""
    return _build("fence", n)


def closed_fence(n: int) -> Graph:
    """Closed fence graph C_n[P_2] (wreath product)."""
    return _build("closed-fence", n)


def _hamming(sizes: Sequence[int]) -> tuple:
    if not sizes:
        raise ValueError("hamming needs at least one factor size")
    if any(s < 2 for s in sizes):
        raise ValueError(f"hamming factor sizes must be >= 2, got {_echo(list(sizes))}")
    _check_factor_count(len(sizes))
    return (_CARTESIAN, *[(complete_graph, s) for s in sizes])


def _hypercube(m: int) -> tuple:
    if m < 1:
        raise ValueError(f"hypercube dimension must be >= 1, got {_echo(m)}")
    _check_factor_count(m)
    return (_CARTESIAN, *[(complete_graph, 2)] * m)


#: The family registry: name -> (parameter names, recipe).  A recipe takes
#: the parameters positionally, in this order.
FAMILIES: dict[str, tuple[tuple[str, ...], Callable[..., tuple]]] = {
    "path": (("n",), lambda n: (None, (path_graph, n))),
    "cycle": (("n",), lambda n: (None, (cycle_graph, n))),
    "complete": (("n",), lambda n: (None, (complete_graph, n))),
    "ladder": (("n",), lambda n: (_CARTESIAN, (path_graph, 2), (path_graph, n + 1))),
    "grid": (("m", "n"), lambda m, n: (_CARTESIAN, (path_graph, m), (path_graph, n))),
    "nanotube": (("m", "n"), lambda m, n: (_CARTESIAN, (path_graph, n), (cycle_graph, m))),
    "nanotorus": (("m", "n"), lambda m, n: (_CARTESIAN, (cycle_graph, m), (cycle_graph, n))),
    "prism": (("n",), lambda n: (_CARTESIAN, (complete_graph, 2), (cycle_graph, n))),
    "rook": (("m", "n"), lambda m, n: (_CARTESIAN, (complete_graph, m), (complete_graph, n))),
    "hamming": (("sizes",), _hamming),
    "hypercube": (("m",), _hypercube),
    "fence": (("n",), lambda n: (_WREATH, (path_graph, n), (path_graph, 2))),
    "closed-fence": (("n",), lambda n: (_WREATH, (cycle_graph, n), (path_graph, 2))),
}


def _recipe(name: str, params) -> tuple:
    """The recipe of a named family member, applied to its parameters."""
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; expected one of {sorted(FAMILIES)}")
    names, recipe = FAMILIES[name]
    for p in names:
        if params.get(p) is None:
            raise ValueError(f"family {name!r} needs parameter --{p}")
    return recipe(*(params[p] for p in names))


def build_family(name: str, **params) -> Graph:
    """Build a named family member from its parameters, e.g. ``m=4, n=5``."""
    return _product(*_recipe(name, params))


def plan_family(name: str, **params) -> tuple[int, int]:
    """A named member's (order, size), refused as it would be built."""
    return _plan(*_recipe(name, params))
