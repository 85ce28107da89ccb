"""Brute-force verification of the closed-form catalog.

:func:`verify` reads one :class:`~nbzagreb.formulas.Formula` record and
runs one loop for every kind of record.  The points come from the
record's default grid (or the caller's ``m`` / ``n`` / ``sizes``
override) or, for a random-trial rule, from its sampler on a seeded
``random.Random``.  For each point the record's oracle builds the product
graph vertex by vertex and the neighbourhood Zagreb index is computed
directly from the definition; only then is the closed form evaluated
verbatim.  A point whose graph would exceed the vertex cap or the edge
cap of :mod:`nbzagreb.graphs` is skipped, and neither side is evaluated.
The constructions are the oracle; the closed forms are only ever
compared, never trusted.

The result is a deterministic :class:`DiscrepancyReport`: ``UNVERIFIED``
when no point was checked (zero trials, or every point skipped),
``CONSISTENT`` when every checked delta is zero, ``ERRATUM`` otherwise.
The random-trial rules (PROP1, PROP2, PROP3, PROP4_PRINTED) draw from a
corpus that mixes G(n, p) samples with degenerate shapes (paths, cycles,
stars, complete and edgeless graphs), so reports are reproducible given
``(seed, trials)``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from importlib.resources import files

from .formulas import CATALOG, FORMULA_IDS, Formula, GraphStats
from .graphs import SizeOverflowError, _csv_text
from .indices import neighbourhood_zagreb

CONSISTENT = "CONSISTENT"
ERRATUM = "ERRATUM"
UNVERIFIED = "UNVERIFIED"

#: Formula ids checked on seeded random factor tuples instead of a grid.
RANDOM_FORMULA_IDS = tuple(fid for fid, r in CATALOG.items() if r.sample is not None)

DEFAULT_TRIALS = 200


@dataclass(frozen=True)
class GridPoint:
    """One verified parameter point: catalogued value vs. direct value.

    A skipped point evaluated neither side: ``closed`` and ``oracle`` are
    ``None``.
    """

    params: tuple[tuple[str, int | str], ...]
    closed: int | None
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
# Verification engine

def _trials(record: Formula, seed: int, trials: int):
    """A rule's seeded factor tuples, each labelled with its trial number."""
    # string seeds are version-stable, and tying the id in decouples streams
    rng = random.Random(f"{seed}:{record.id}")
    for trial in range(trials):
        factors, labels = record.sample(rng)
        yield factors, (("trial", trial), *labels)


def _grid(record: Formula, overrides: dict):
    """A grid formula's parameter tuples in sorted order, with their labels."""
    axes = [
        record.grid[p] if overrides[p] is None else sorted(overrides[p])
        for p in record.params
    ]
    for args in itertools.product(*axes):
        labels = tuple(
            (p, v if isinstance(v, int) else "x".join(map(str, v)))
            for p, v in zip(record.params, args)
        )
        yield args, labels


def verify(
    formula_id: str,
    *,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
    m_values=None,
    n_values=None,
    sizes=None,
) -> DiscrepancyReport:
    """Check one catalogued formula against direct computation.

    Grid formulas run over their record's default grid unless
    ``m_values`` / ``n_values`` (iterables of ints) or ``sizes`` (list of
    size lists, HAMMING only) override it; overrides are checked in
    sorted order.  Random-factor rules run ``trials`` seeded trials.
    Each point builds its oracle first: a point whose graph would exceed
    a cap is recorded as skipped, and neither side is evaluated.
    """
    if formula_id not in CATALOG:
        raise ValueError(
            f"unknown formula id {formula_id!r}; expected one of {FORMULA_IDS}"
        )
    record = CATALOG[formula_id]
    if record.sample is not None:
        cases = _trials(record, seed, trials)
    else:
        cases = _grid(record, {"m": m_values, "n": n_values, "sizes": sizes})
    points = []
    for args, labels in cases:
        stated = record.stated is None or record.stated(*args)
        try:
            graph = record.oracle(*args)
        except SizeOverflowError:
            points.append(GridPoint(labels, None, None, skipped=True, in_stated_range=stated))
            continue
        oracle = neighbourhood_zagreb(graph)
        inputs = map(GraphStats.from_graph, args) if record.sample else args
        points.append(GridPoint(labels, record.closed(*inputs), oracle, in_stated_range=stated))
    return DiscrepancyReport(formula_id, tuple(points))


def verify_all(*, seed: int = 0, trials: int = DEFAULT_TRIALS) -> list[DiscrepancyReport]:
    """Verify the whole catalog in its canonical order."""
    return [verify(fid, seed=seed, trials=trials) for fid in FORMULA_IDS]


# ---------------------------------------------------------------------------
# Serialization

CSV_HEADER = ("formula", "params", "closed", "oracle", "delta")


def reports_to_csv(reports) -> str:
    """Render reports as CSV; byte-stable for fixed inputs and seed."""
    return _csv_text(CSV_HEADER, (
        (report.formula_id, ";".join(f"{k}={v}" for k, v in p.params),
         p.closed, p.oracle, p.delta)
        for report in reports for p in report.points
    ))


def known_errata() -> frozenset[str]:
    """Formula ids documented as errata (checked-in data, not code)."""
    text = files("nbzagreb").joinpath("data/known_errata.json").read_text("utf-8")
    return frozenset(json.loads(text)["known_errata"])
