"""Brute-force verification of the closed-form catalog.

For every catalogued formula this module builds the corresponding product
graphs vertex by vertex, computes the neighbourhood Zagreb index directly
from the definition, and compares it against the closed form evaluated
verbatim.  The result is a deterministic :class:`DiscrepancyReport`:
``UNVERIFIED`` when no point was checked (zero trials, or every point
skipped over the vertex cap), ``CONSISTENT`` when every checked delta is
zero, ``ERRATUM`` otherwise.  The constructions are the oracle; the closed
forms are only ever compared, never trusted.

Random-factor rules (PROP1, PROP2, PROP3, PROP4_PRINTED) are checked on a
seeded corpus that mixes G(n, p) samples with degenerate shapes (paths,
cycles, stars, complete and edgeless graphs), so reports are reproducible
given ``(seed, trials)``.
"""

from __future__ import annotations

import csv
import io
import json
import random
import warnings
from dataclasses import dataclass
from importlib.resources import files

from . import families
from .formulas import (
    FORMULA_IDS,
    GraphStats,
    example_formula,
    formula_params,
    in_stated_range,
    mn_cartesian,
    mn_cartesian_nary,
    mn_hamming,
    mn_tensor,
    mn_wreath_printed,
)
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    random_graph,
    star_graph,
)
from .indices import neighbourhood_zagreb
from .products import (
    DEFAULT_VERTEX_CAP,
    SizeOverflowError,
    cartesian,
    cartesian_n,
    tensor,
    wreath,
)

CONSISTENT = "CONSISTENT"
ERRATUM = "ERRATUM"
UNVERIFIED = "UNVERIFIED"

#: Formula ids checked on seeded random factor tuples instead of a grid.
RANDOM_FORMULA_IDS = ("PROP1", "PROP2", "PROP3", "PROP4_PRINTED")

DEFAULT_TRIALS = 200
DEFAULT_MAX_FACTOR_ORDER = 8
_NARY_MAX_FACTOR_ORDER = 5  # PROP2 tuples of 2..4 factors stay desk-sized


@dataclass(frozen=True)
class GridPoint:
    """One verified parameter point: catalogued value vs. direct value."""

    params: tuple[tuple[str, int | str], ...]
    closed: int
    oracle: int | None
    skipped: bool = False
    in_stated_range: bool = True

    @property
    def delta(self) -> int | None:
        """Exact ``closed - oracle``; ``None`` for skipped points."""
        if self.oracle is None:
            return None
        return self.closed - self.oracle


@dataclass(frozen=True)
class DiscrepancyReport:
    """Deterministic per-formula verification record."""

    formula_id: str
    points: tuple[GridPoint, ...]

    @property
    def status(self) -> str:
        checked = [p for p in self.points if not p.skipped]
        if not checked:
            return UNVERIFIED
        if any(p.delta for p in checked):
            return ERRATUM
        return CONSISTENT

    @property
    def nonzero_deltas(self) -> int:
        return sum(1 for p in self.points if not p.skipped and p.delta != 0)

    @property
    def skipped_points(self) -> int:
        return sum(1 for p in self.points if p.skipped)

    def summary(self) -> str:
        n = len(self.points)
        parts = [f"{self.formula_id}: {self.status} ({n} points"]
        if self.nonzero_deltas:
            deltas = [abs(p.delta) for p in self.points if not p.skipped and p.delta]
            parts.append(
                f", {self.nonzero_deltas} nonzero deltas, max |delta| = {max(deltas)}"
            )
        if self.skipped_points:
            parts.append(f", {self.skipped_points} skipped")
        out_of_range = sum(1 for p in self.points if not p.in_stated_range)
        if out_of_range:
            parts.append(f", {out_of_range} outside stated range")
        return "".join(parts) + ")"


# ---------------------------------------------------------------------------
# Default parameter grids

_FAMILY_GRIDS: dict[str, dict[str, range]] = {
    "EX_LADDER": {"n": range(3, 11)},
    "EX_NANOTORUS": {"m": range(3, 11), "n": range(3, 11)},
    "EX_NANOTUBE": {"m": range(3, 11), "n": range(4, 11)},
    "EX_GRID": {"m": range(4, 11), "n": range(4, 11)},
    "EX_PRISM": {"n": range(3, 13)},
    "EX_ROOK": {"m": range(2, 7), "n": range(2, 7)},
    "EX_HYPERCUBE": {"m": range(1, 7)},
    "EX_TENSOR_PP": {"n": range(4, 9), "m": range(4, 9)},
    "EX_TENSOR_CC": {"n": range(3, 9), "m": range(3, 9)},
    "EX_TENSOR_KK": {"n": range(3, 9), "m": range(3, 9)},
    "EX_TENSOR_PC": {"n": range(4, 9), "m": range(3, 9)},
    "EX_TENSOR_PK": {"n": range(4, 9), "m": range(3, 9)},
    "EX_TENSOR_CK": {"n": range(3, 9), "m": range(3, 9)},
    "EX_FENCE": {"n": range(4, 11)},
    "EX_CLOSED_FENCE": {"n": range(3, 11)},
}

_DEFAULT_HAMMING_SIZES: tuple[tuple[int, ...], ...] = (
    (2,), (3,), (6,),
    (2, 2), (2, 3), (3, 3), (2, 4), (4, 5),
    (2, 2, 2), (2, 2, 3), (2, 3, 4), (3, 3, 3),
    (2, 2, 2, 2), (2, 2, 3, 3), (2, 3, 4, 5),
    (2, 2, 2, 2, 2),
)

# Family oracle constructions, one per grid formula.
_FAMILY_ORACLES = {
    "EX_LADDER": lambda cap, n: families.ladder(n, vertex_cap=cap),
    "EX_NANOTORUS": lambda cap, m, n: families.nanotorus(m, n, vertex_cap=cap),
    "EX_NANOTUBE": lambda cap, m, n: families.nanotube(m, n, vertex_cap=cap),
    "EX_GRID": lambda cap, m, n: families.grid(m, n, vertex_cap=cap),
    "EX_PRISM": lambda cap, n: families.prism(n, vertex_cap=cap),
    "EX_ROOK": lambda cap, m, n: families.rook(m, n, vertex_cap=cap),
    "EX_HYPERCUBE": lambda cap, m: families.hypercube(m, vertex_cap=cap),
    "EX_TENSOR_PP": lambda cap, n, m: tensor(path_graph(n), path_graph(m), vertex_cap=cap),
    "EX_TENSOR_CC": lambda cap, n, m: tensor(cycle_graph(n), cycle_graph(m), vertex_cap=cap),
    "EX_TENSOR_KK": lambda cap, n, m: tensor(complete_graph(n), complete_graph(m), vertex_cap=cap),
    "EX_TENSOR_PC": lambda cap, n, m: tensor(path_graph(n), cycle_graph(m), vertex_cap=cap),
    "EX_TENSOR_PK": lambda cap, n, m: tensor(path_graph(n), complete_graph(m), vertex_cap=cap),
    "EX_TENSOR_CK": lambda cap, n, m: tensor(cycle_graph(n), complete_graph(m), vertex_cap=cap),
    "EX_FENCE": lambda cap, n: families.fence(n, vertex_cap=cap),
    "EX_CLOSED_FENCE": lambda cap, n: families.closed_fence(n, vertex_cap=cap),
}


# ---------------------------------------------------------------------------
# Seeded factor corpus

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


def _formula_rng(formula_id: str, seed: int) -> random.Random:
    # string seeds are version-stable, and tying the id in decouples streams
    return random.Random(f"{seed}:{formula_id}")


# ---------------------------------------------------------------------------
# Verification engine

def verify(
    formula_id: str,
    *,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
    max_factor_order: int = DEFAULT_MAX_FACTOR_ORDER,
    m_values=None,
    n_values=None,
    sizes=None,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> DiscrepancyReport:
    """Check one catalogued formula against direct computation.

    Family formulas run over their default parameter grid unless
    ``m_values`` / ``n_values`` (iterables of ints) or ``sizes`` (list of
    size lists, HAMMING only) override it.  Random-factor rules run
    ``trials`` seeded trials.  Points whose product would exceed
    ``vertex_cap`` are recorded as skipped rather than failing the run.
    """
    if formula_id not in FORMULA_IDS:
        raise ValueError(
            f"unknown formula id {formula_id!r}; expected one of {FORMULA_IDS}"
        )
    if formula_id in RANDOM_FORMULA_IDS:
        points = _verify_random(
            formula_id, seed, trials, max_factor_order, vertex_cap
        )
    elif formula_id == "HAMMING":
        points = _verify_hamming(sizes, vertex_cap)
    else:
        points = _verify_family(formula_id, m_values, n_values, vertex_cap)
    return DiscrepancyReport(formula_id, tuple(points))


def verify_all(
    *,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> list[DiscrepancyReport]:
    """Verify the whole catalog in its canonical order."""
    return [
        verify(fid, seed=seed, trials=trials, vertex_cap=vertex_cap)
        for fid in FORMULA_IDS
    ]


def _verify_family(formula_id, m_values, n_values, vertex_cap):
    names = formula_params(formula_id)
    grid = _FAMILY_GRIDS[formula_id]
    values = {}
    for name in names:
        override = {"m": m_values, "n": n_values}[name]
        values[name] = sorted(override) if override is not None else list(grid[name])
    combos = [()]
    for name in names:
        combos = [c + (v,) for c in combos for v in values[name]]
    points = []
    for combo in sorted(combos):
        params = dict(zip(names, combo))
        closed = _closed_value_quiet(formula_id, params)
        stated = in_stated_range(formula_id, **params)
        try:
            graph = _FAMILY_ORACLES[formula_id](vertex_cap, **params)
            oracle = neighbourhood_zagreb(graph)
            skipped = False
        except SizeOverflowError:
            oracle = None
            skipped = True
        points.append(
            GridPoint(
                params=tuple(params.items()),
                closed=closed,
                oracle=oracle,
                skipped=skipped,
                in_stated_range=stated,
            )
        )
    return points


def _closed_value_quiet(formula_id, params):
    # the report carries the range flag; no need for the warning here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return example_formula(formula_id, **params)


def _verify_hamming(sizes, vertex_cap):
    size_lists = (
        [tuple(s) for s in sizes] if sizes is not None else list(_DEFAULT_HAMMING_SIZES)
    )
    points = []
    for size_list in sorted(size_lists, key=lambda s: (len(s), s)):
        closed = mn_hamming(size_list)
        try:
            graph = families.hamming(size_list, vertex_cap=vertex_cap)
            oracle = neighbourhood_zagreb(graph)
            skipped = False
        except SizeOverflowError:
            oracle = None
            skipped = True
        label = "x".join(str(s) for s in size_list)
        points.append(
            GridPoint(
                params=(("sizes", label),),
                closed=closed,
                oracle=oracle,
                skipped=skipped,
            )
        )
    return points


def _verify_random(formula_id, seed, trials, max_factor_order, vertex_cap):
    rng = _formula_rng(formula_id, seed)
    points = []
    for trial in range(trials):
        if formula_id == "PROP2":
            k = rng.randint(2, 4)
            factors = [
                _random_factor(rng, _NARY_MAX_FACTOR_ORDER) for _ in range(k)
            ]
            closed = mn_cartesian_nary([GraphStats.from_graph(g) for g in factors])
            params = (
                ("trial", trial),
                ("orders", "x".join(str(g.order) for g in factors)),
            )
            build = lambda: cartesian_n(factors, vertex_cap=vertex_cap)
        else:
            g1 = _random_factor(rng, max_factor_order)
            g2 = _random_factor(rng, max_factor_order)
            s1, s2 = GraphStats.from_graph(g1), GraphStats.from_graph(g2)
            if formula_id == "PROP1":
                closed = mn_cartesian(s1, s2)
                build = lambda: cartesian(g1, g2, vertex_cap=vertex_cap)
            elif formula_id == "PROP3":
                closed = mn_tensor(s1.mn, s2.mn)
                build = lambda: tensor(g1, g2, vertex_cap=vertex_cap)
            else:  # PROP4_PRINTED
                closed = mn_wreath_printed(s1, s2)
                build = lambda: wreath(g1, g2, vertex_cap=vertex_cap)
            params = (
                ("trial", trial),
                ("n1", g1.order),
                ("m1", g1.size),
                ("n2", g2.order),
                ("m2", g2.size),
            )
        try:
            oracle = neighbourhood_zagreb(build())
            skipped = False
        except SizeOverflowError:
            oracle = None
            skipped = True
        points.append(
            GridPoint(params=params, closed=closed, oracle=oracle, skipped=skipped)
        )
    return points


# ---------------------------------------------------------------------------
# Serialization

CSV_HEADER = ("formula", "params", "closed", "oracle", "delta")


def reports_to_csv(reports) -> str:
    """Render reports as CSV; byte-stable for fixed inputs and seed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for report in reports:
        for p in report.points:
            params = ";".join(f"{k}={v}" for k, v in p.params)
            oracle = "" if p.oracle is None else str(p.oracle)
            delta = "" if p.delta is None else str(p.delta)
            writer.writerow([report.formula_id, params, str(p.closed), oracle, delta])
    return buf.getvalue()


def known_errata() -> frozenset[str]:
    """Formula ids documented as errata (checked-in data, not code)."""
    text = files("nbzagreb").joinpath("data/known_errata.json").read_text("utf-8")
    return frozenset(json.loads(text)["known_errata"])
