"""Restricted alkane-name parser and the embedded octane dataset.

The parser covers exactly the nomenclature needed for the octane work
(hydrogen-suppressed carbon skeletons):

    name        := ["n-"] group (("-" | " ")? group)* (" ")? parent
    group       := locants "-" multiplier? substituent
    locants     := int ("," int)*
    int         := 1 to the interpreter's int-string limit, 4300 by
                   default and where the limit is off, of ASCII digits
    multiplier  := "di" | "tri" | "tetra"
    substituent := "methyl" | "ethyl"
    parent      := "butane" | "pentane" | "hexane" | "heptane" | "octane"

Names are case-insensitive.  Locants are grammar-checked against the
parent chain length only (1..length is accepted, so a chain-end locant
such as "5-methylpentane" parses to the hexane skeleton); no IUPAC
lowest-locant canonicalization is attempted, since distinct strings may
legally name isomorphic trees.  Every parsed structure must satisfy the
carbon valence bound (degree <= 4).

Error messages show trailing text or a locant whole up to 60 characters
or digits, and cut a longer one to its head and its length.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graphs import Graph, _csv_text, _echo, _int_reader
from .indices import neighbourhood_zagreb


class AlkaneNameError(ValueError):
    """Base class for alkane-name parsing errors."""


class AlkaneSyntaxError(AlkaneNameError):
    """Ungrammatical name; ``position`` is the 0-based offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


class LocantOutOfRangeError(AlkaneNameError):
    """A locant falls outside the parent chain."""


class MultiplierMismatchError(AlkaneNameError):
    """Locant count does not match the multiplier prefix."""


class ValenceExceededError(AlkaneNameError):
    """The named structure would give some carbon more than 4 bonds."""


_PARENTS = {
    "butane": 4,
    "pentane": 5,
    "hexane": 6,
    "heptane": 7,
    "octane": 8,
}
_MULTIPLIERS = {"di": 2, "tri": 3, "tetra": 4}
_SUBSTITUENTS = ("methyl", "ethyl")


#: One group and the separator after it.  Every part after the locants may
#: match empty, so a group that starts with a digit always matches, and the
#: first empty part names the syntax error.  ``[0-9]``, since ``\d`` also
#: matches non-ASCII digits.
_GROUP = re.compile(
    rf"([0-9]+(?:,[0-9]+)*)(,?)(-?)({'|'.join(_MULTIPLIERS)}|)"
    rf"({'|'.join(_SUBSTITUENTS)}|)[- ]?"
)
_PARENT = re.compile("|".join(_PARENTS))


def parse_alkane_name(text: str) -> Graph:
    """Parse an alkane name into its hydrogen-suppressed carbon tree."""
    offset = len(text) - len(text.lstrip())
    s = text.strip().lower()
    if not s:
        raise AlkaneSyntaxError("empty name", offset)

    pos = 2 if s.startswith("n-") else 0
    read, cap = _int_reader()
    groups: list[tuple[list[int], str]] = []
    while match := _GROUP.match(s, pos):
        digits, comma, hyphen, multiplier, substituent = match.groups()
        runs = digits.split(",")
        try:
            locants = list(map(read, runs))
        except ValueError:
            # the reader refuses a run of ASCII digits only past its cap;
            # the position is that of the first digit past it
            start = offset + match.start(1)
            for run in runs:
                if len(run) > cap:
                    raise AlkaneSyntaxError(f"locant longer than {cap} digits", start + cap) from None
                start += len(run) + 1
        if comma:
            raise AlkaneSyntaxError("expected a locant", offset + match.end(2))
        if not hyphen:
            raise AlkaneSyntaxError("expected '-' after locants", offset + match.end(1))
        if not substituent:
            raise AlkaneSyntaxError("expected a substituent name", offset + match.end(4))
        expected = _MULTIPLIERS.get(multiplier, 1)
        if len(locants) != expected:
            raise MultiplierMismatchError(
                f"{len(locants)} locant(s) with a multiplier for {expected}"
            )
        groups.append((locants, substituent))
        pos = match.end()
    parent = _PARENT.match(s, pos)
    if parent is None:
        raise AlkaneSyntaxError("expected a parent chain name", offset + pos)
    pos = parent.end()
    if pos != len(s):
        raise AlkaneSyntaxError(f"unexpected trailing text {_echo(s[pos:])}", offset + pos)

    return _build_tree(_PARENTS[parent.group()], groups)


def _build_tree(parent_len: int, groups) -> Graph:
    edges = [(i, i + 1) for i in range(parent_len - 1)]
    n = parent_len
    for locants, substituent in groups:
        for locant in locants:
            if not 1 <= locant <= parent_len:
                raise LocantOutOfRangeError(
                    f"locant {_echo(locant)} outside chain of length {parent_len}"
                )
            attach = locant - 1
            edges.append((attach, n))
            if substituent == "ethyl":
                edges.append((n, n + 1))
                n += 2
            else:
                n += 1
    # trusted: the chain pairs (i, i + 1), each branch's (attach, n) and an
    # ethyl's (n, n + 1) are distinct, since every branch adds new vertices,
    # and satisfy u < v < order, since attach < parent_len <= n; each
    # vertex's pairs come in increasing order, since n only grows
    graph = Graph._from_canonical(n, edges)
    degrees = graph.degrees()
    worst = max(range(n), key=degrees.__getitem__)
    if degrees[worst] > 4:
        raise ValenceExceededError(
            f"carbon at position {worst + 1} would have {degrees[worst]} bonds"
        )
    return graph


# ---------------------------------------------------------------------------
# Octane dataset

@dataclass(frozen=True)
class OctaneRecord:
    """One octane isomer: tabulated properties plus the parsed skeleton.

    The acentric factor, entropy and reference index value are ``None``
    for the catalog-completing isomer that the property table omits.
    """

    name: str
    acentric_factor: float | None
    entropy: float | None
    mn_reference: int | None
    structure: Graph


# (name, acentric factor, entropy, tabulated neighbourhood Zagreb value)
_TABLE1_ROWS = (
    ("2,2,3,3-tetramethyl butane", 0.255294, 93.06, 194),
    ("2,3,4-trimethyl pentane", 0.317422, 102.39, 144),
    ("2,3,3-trimethyl pentane", 0.293177, 102.06, 164),
    ("2,2,3-trimethyl pentane", 0.300816, 101.31, 162),
    ("3-methyl-3-ethyl pentane", 0.306899, 101.48, 152),
    ("2-methyl-3-ethyl pentane", 0.332433, 106.06, 132),
    ("3,4-dimethyl hexane", 0.340345, 106.59, 130),
    ("3,3-dimethyl hexane", 0.322596, 104.74, 146),
    ("2,5-dimethyl hexane", 0.35683, 105.72, 118),
    ("2,4-dimethyl hexane", 0.344223, 106.98, 124),
    ("2,3-dimethyl hexane", 0.348247, 108.02, 126),
    ("2,2-dimethyl hexane", 0.339426, 103.42, 138),
    ("3-ethyl hexane", 0.362472, 109.43, 114),
    ("4-methyl heptane", 0.371504, 109.32, 110),
    ("3-methyl heptane", 0.371002, 111.26, 108),
    ("2-methyl heptane", 0.377916, 109.84, 104),
    ("n-octane", 0.397898, 111.67, 90),
)

#: The single constitutional octane isomer absent from the property table.
MISSING_ISOMER_NAME = "2,2,4-trimethyl pentane"


def octane_table1() -> list[OctaneRecord]:
    """The 17 tabulated octane isomers with their property values."""
    return [
        OctaneRecord(name, acentric, entropy, mn, parse_alkane_name(name))
        for name, acentric, entropy, mn in _TABLE1_ROWS
    ]


def octane_isomers_all() -> list[OctaneRecord]:
    """All 18 constitutional octane isomers.

    The 17 tabulated records come first; the table-omitted isomer
    (2,2,4-trimethylpentane) closes the list with no property values, and
    participates only in degeneracy analysis.
    """
    records = octane_table1()
    records.append(
        OctaneRecord(
            MISSING_ISOMER_NAME, None, None, None,
            parse_alkane_name(MISSING_ISOMER_NAME),
        )
    )
    return records


def octane_dataset_csv() -> str:
    """CSV export of the octane catalog.

    Columns: ``name,acentric,entropy,MN_paper,MN_computed``.  The isomer
    missing from the property table is flagged by its empty property
    fields.
    """
    return _csv_text(
        ("name", "acentric", "entropy", "MN_paper", "MN_computed"),
        ((rec.name, rec.acentric_factor, rec.entropy, rec.mn_reference,
          neighbourhood_zagreb(rec.structure)) for rec in octane_isomers_all()),
    )
