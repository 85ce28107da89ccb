"""Structure-property statistics over the octane catalog.

Two views: least-squares regression of a measured property on the
neighbourhood Zagreb index (the property is the response, the index the
predictor), and mean isomer degeneracy ``d = n / t`` where ``t`` counts
the distinct values an index takes across the isomers.  ``t`` is exact
for the integer- and rational-valued indices; only the connectivity
index is grouped with a relative tolerance, it being the single
floating-point index.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from .alkanes import octane_isomers_all, octane_table1
from .graphs import Graph, _csv_text
from .indices import compute_index, neighbourhood_zagreb

#: Relative tolerance used to group connectivity-index values.
CHI_GROUP_TOLERANCE = 1e-9

#: Degeneracy-table row order.
DEGENERACY_INDEX_ORDER = ("M1", "M2", "F", "Z", "SIGMA", "CHI", "HARARY", "MN")

PROPERTY_NAMES = ("acentric", "entropy")


class DegenerateInputError(ValueError):
    """Too few samples or zero variance; correlation is undefined."""


@dataclass(frozen=True)
class RegressionResult:
    n: int
    r: float
    r_squared: float
    slope: float
    intercept: float


def _check_samples(xs, ys) -> None:
    if len(xs) != len(ys):
        raise DegenerateInputError(
            f"sample length mismatch: {len(xs)} vs {len(ys)}"
        )
    if len(xs) < 3:
        raise DegenerateInputError(f"need at least 3 samples, got {len(xs)}")
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        raise DegenerateInputError("zero variance in a sample")


def pearson(xs, ys) -> float:
    """Product-moment correlation coefficient."""
    _check_samples(xs, ys)
    return statistics.correlation(xs, ys)


def linear_fit(xs, ys) -> RegressionResult:
    """Least-squares line of ``ys`` on ``xs`` plus its correlation."""
    _check_samples(xs, ys)
    slope, intercept = statistics.linear_regression(xs, ys)
    r = statistics.correlation(xs, ys)
    return RegressionResult(
        n=len(xs), r=r, r_squared=r * r, slope=slope, intercept=intercept
    )


# ---------------------------------------------------------------------------
# Mean isomer degeneracy

@dataclass(frozen=True)
class DegeneracyReport:
    """Mean isomer degeneracy of one index over an isomer set."""

    index_id: str
    n: int
    t: int

    @property
    def d(self) -> Fraction:
        return Fraction(self.n, self.t)

    @property
    def d_rendered(self) -> str:
        return render_ratio(self.d)


def render_ratio(value: Fraction) -> str:
    """Three-decimal rendering, rounding halves away from zero."""
    dec = Decimal(value.numerator) / Decimal(value.denominator)
    return str(dec.quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def _distinct_count(values, rel_tolerance: float | None) -> int:
    if rel_tolerance is None:
        return len(set(values))
    ordered = sorted(values)
    count = 1
    for a, b in zip(ordered, ordered[1:]):
        if abs(b - a) > rel_tolerance * max(abs(a), abs(b)):
            count += 1
    return count


def mean_isomer_degeneracy(index_id: str, graphs: list[Graph]) -> DegeneracyReport:
    """Compute ``d = n / t`` for one index over the given isomer graphs."""
    if not graphs:
        raise ValueError("need at least one graph")
    values = [compute_index(g, index_id) for g in graphs]
    tolerance = CHI_GROUP_TOLERANCE if index_id == "CHI" else None
    t = _distinct_count(values, tolerance)
    return DegeneracyReport(index_id=index_id, n=len(graphs), t=t)


def degeneracy_table(graphs: list[Graph] | None = None) -> list[DegeneracyReport]:
    """Degeneracy of all eight indices, by default over all 18 octanes."""
    if graphs is None:
        graphs = [rec.structure for rec in octane_isomers_all()]
    return [mean_isomer_degeneracy(idx, graphs) for idx in DEGENERACY_INDEX_ORDER]


# ---------------------------------------------------------------------------
# Octane property regression

def _octane_samples(property_name: str) -> tuple[list[int], list[float]]:
    """The (MN, property) samples of the tabulated isomers, as two lists."""
    if property_name not in PROPERTY_NAMES:
        raise ValueError(
            f"unknown property {property_name!r}; expected one of {PROPERTY_NAMES}"
        )
    attr = "acentric_factor" if property_name == "acentric" else "entropy"
    records = octane_table1()
    xs = [neighbourhood_zagreb(rec.structure) for rec in records]
    return xs, [getattr(rec, attr) for rec in records]


def octane_regression(property_name: str) -> RegressionResult:
    """Regress a tabulated property on the computed index values.

    Uses the rows that carry property values (the 17 tabulated isomers).
    """
    return linear_fit(*_octane_samples(property_name))


def octane_pairs_csv(property_name: str) -> str:
    """CSV of (index value, property) pairs, ready for external plotting."""
    return _csv_text(("MN", property_name), zip(*_octane_samples(property_name)))
