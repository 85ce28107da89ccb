"""Command-line front end.

Subcommands: ``compute``, ``product``, ``verify``, ``qspr``,
``degeneracy``, ``parse-alkane``.  Every command is deterministic given
its flags (``verify`` requires an explicit ``--seed`` whenever a
random-trial rule is selected).  Exit codes: 0 success, 1 usage error
(including an ``--m``, ``--n`` or ``--sizes`` that no selected formula or
family takes), 2 data error (including running out of memory).  Numeric
output: integers verbatim, rationals as ``p/q``, floats with 6
significant digits (``--precision`` widens).  Every integer flag is read
as edge-list fields are.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .alkanes import parse_alkane_name
from .families import FAMILIES, build_family, plan_family
from .formulas import CATALOG, FORMULA_IDS
from .graphs import _csv_text, _decimal, _echo, _int_reader, parse_edge_list, serialize_edge_list
from .indices import INDEX_IDS, _check_budget, compute_index, neighbourhood_zagreb
from .products import ProductKind, product
from .qspr import (
    PROPERTY_NAMES,
    degeneracy_table,
    octane_pairs_csv,
    octane_regression,
)
from .verification import (
    DEFAULT_TRIALS,
    ERRATUM,
    RANDOM_FORMULA_IDS,
    UNVERIFIED,
    reports_to_csv,
    known_errata,
    verify,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


def _usage(message: str) -> int:
    """Report a usage error that argparse cannot see; returns ``EXIT_USAGE``."""
    print(f"nbzagreb: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _write(path: str, text: str) -> None:
    """Write an output file: UTF-8, line endings exactly as in ``text``."""
    Path(path).write_text(text, encoding="utf-8", newline="")


def _format_number(value, precision: int) -> str:
    if isinstance(value, int):
        return _decimal(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return _decimal(value.numerator)
        return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"
    return f"{value:.{precision}g}"


def _int(text: str) -> int:
    """argparse type: an integer read as an edge-list field; argparse's ``int`` wording."""
    read, _ = _int_reader()
    try:
        return read(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_echo(text)}") from None


def _parse_int_range(text: str) -> list[int]:
    """Either one integer or an inclusive range ``A..B``."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            values = list(range(_int(lo), _int(hi) + 1))
        except OverflowError:
            raise argparse.ArgumentTypeError(f"range {_echo(text)} is too long") from None
        if not values:
            raise argparse.ArgumentTypeError(f"empty range {_echo(text)}")
        return values
    return [_int(text)]


def _parse_sizes(text: str) -> list[int]:
    sizes = [_int(tok.strip()) for tok in text.split(",") if tok.strip()]
    if not sizes:
        raise argparse.ArgumentTypeError(f"no sizes in {_echo(text)}")
    return sizes


def _bounded_int(minimum: int, maximum: int | None = None):
    """argparse type: an integer no smaller than ``minimum`` and, if
    ``maximum`` is given, no larger than it."""

    def parse(text: str) -> int:
        value = _int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {_echo(value)}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {_echo(value)}")
        return value

    return parse


#: argparse type of ``--precision``: float formatting takes a precision
#: up to the largest C ``int``
_precision = _bounded_int(0, 2**31 - 1)


def _untaken_param(args, taken) -> str | None:
    """The first of ``--m``, ``--n``, ``--sizes`` given but not in ``taken``."""
    given = [p for p in ("m", "n", "sizes") if getattr(args, p) is not None]
    return next((f"--{p}" for p in given if p not in taken), None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nbzagreb", description=__doc__)
    # each subparser registers its handler as ``run``; ``dest`` only names
    # the missing command in argparse's error
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute a topological index")
    p_compute.set_defaults(run=_cmd_compute)
    p_compute.add_argument("--family", choices=sorted(FAMILIES))
    p_compute.add_argument("--n", type=_int)
    p_compute.add_argument("--m", type=_int)
    p_compute.add_argument("--sizes", type=_parse_sizes, metavar="N1,N2,...")
    p_compute.add_argument("--input", metavar="FILE", help="edge-list file")
    p_compute.add_argument("--index", required=True, choices=INDEX_IDS)
    p_compute.add_argument("--precision", type=_precision, default=6)

    p_product = sub.add_parser("product", help="construct a product of two graphs")
    p_product.set_defaults(run=_cmd_product)
    p_product.add_argument(
        "--kind", required=True, choices=[k.value for k in ProductKind]
    )
    p_product.add_argument(
        "--input",
        action="append",
        metavar="FILE",
        help="edge-list file; give exactly twice (left and right factor)",
    )

    p_verify = sub.add_parser(
        "verify", help="check catalogued closed forms against construction"
    )
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("--formula", required=True, metavar="ID|all")
    p_verify.add_argument("--seed", type=_int)
    p_verify.add_argument("--trials", type=_bounded_int(1), default=DEFAULT_TRIALS)
    p_verify.add_argument("--m", type=_parse_int_range, metavar="INT|A..B")
    p_verify.add_argument("--n", type=_parse_int_range, metavar="INT|A..B")
    p_verify.add_argument("--sizes", type=_parse_sizes, metavar="N1,N2,...")
    p_verify.add_argument("--csv", metavar="PATH")
    p_verify.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero if a formula outside the known-errata list reports "
        "ERRATUM, or if a formula checked no point (UNVERIFIED)",
    )

    p_qspr = sub.add_parser("qspr", help="octane property regression")
    p_qspr.set_defaults(run=_cmd_qspr)
    p_qspr.add_argument("--property", required=True, choices=PROPERTY_NAMES)
    p_qspr.add_argument("--csv", metavar="PATH")
    p_qspr.add_argument("--precision", type=_precision, default=6)

    p_degen = sub.add_parser("degeneracy", help="mean isomer degeneracy table")
    p_degen.set_defaults(run=_cmd_degeneracy)
    p_degen.add_argument("--csv", metavar="PATH")

    p_alkane = sub.add_parser("parse-alkane", help="parse an alkane name")
    p_alkane.set_defaults(run=_cmd_parse_alkane)
    p_alkane.add_argument("name", help="e.g. '2,3-dimethyl hexane'")

    return parser


def _load_graph(path: str):
    # "utf-8-sig" drops a byte-order mark, which some editors write first
    return parse_edge_list(Path(path).read_text(encoding="utf-8-sig"))


def _cmd_compute(args) -> int:
    if (args.family is None) == (args.input is None):
        return _usage("compute needs exactly one of --family / --input")
    source = f"family {args.family!r}" if args.family else "--input"
    names = FAMILIES[args.family][0] if args.family else ()
    untaken = _untaken_param(args, names)
    if untaken:
        return _usage(f"{source} takes no {untaken}")
    missing = [p for p in names if getattr(args, p) is None]
    if missing:
        return _usage(f"{source} needs --{' --'.join(missing)}")
    if args.family:
        params = {p: getattr(args, p) for p in names}
        order, size = plan_family(args.family, **params)
        # every family member is connected, as the plan check assumes
        _check_budget(args.index, order, size)
        graph = build_family(args.family, **params)
    else:
        graph = _load_graph(args.input)
    value = compute_index(graph, args.index)
    print(_format_number(value, args.precision))
    return EXIT_OK


def _cmd_product(args) -> int:
    if not args.input or len(args.input) != 2:
        return _usage("product needs --input given exactly twice")
    left = _load_graph(args.input[0])
    right = _load_graph(args.input[1])
    result = product(left, right, ProductKind(args.kind))
    sys.stdout.write(serialize_edge_list(result))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.formula == "all":
        selected = list(FORMULA_IDS)
    elif args.formula in FORMULA_IDS:
        selected = [args.formula]
    else:
        return _usage(
            f"unknown formula {_echo(args.formula)}; expected 'all' or one of {', '.join(FORMULA_IDS)}"
        )
    untaken = _untaken_param(args, {p for f in selected for p in CATALOG[f].params})
    if untaken:
        return _usage(f"{args.formula} takes no {untaken}")
    if args.seed is None and any(f in RANDOM_FORMULA_IDS for f in selected):
        return _usage("--seed is required when verifying random-trial rules")
    seed = args.seed if args.seed is not None else 0
    sizes = [args.sizes] if args.sizes is not None else None
    reports = [
        verify(fid, seed=seed, trials=args.trials, m_values=args.m, n_values=args.n,
               sizes=sizes)
        for fid in selected
    ]
    for report in reports:
        print(report.summary())
    if args.csv:
        _write(args.csv, reports_to_csv(reports))
    if args.strict:
        exempt = known_errata()
        # an unexpected ERRATUM is reported before an unchecked formula
        for message, failing in (
            ("unexpected ERRATUM in",
             [r.formula_id for r in reports if r.status == ERRATUM and r.formula_id not in exempt]),
            ("no point checked in", [r.formula_id for r in reports if r.status == UNVERIFIED]),
        ):
            if failing:
                print(f"strict mode: {message} {', '.join(failing)}", file=sys.stderr)
                return EXIT_DATA
    return EXIT_OK


def _cmd_qspr(args) -> int:
    result = octane_regression(args.property)
    print(f"property = {args.property}")
    print(f"n = {result.n}")
    for label, value in (("r", result.r), ("r^2", result.r_squared),
                         ("slope", result.slope), ("intercept", result.intercept)):
        print(f"{label} = {_format_number(value, args.precision)}")
    if args.csv:
        _write(args.csv, octane_pairs_csv(args.property))
    return EXIT_OK


def _cmd_degeneracy(args) -> int:
    rows = degeneracy_table()
    for row in rows:
        print(f"{row.index_id} n={row.n} t={row.t} d={row.d_rendered}")
    if args.csv:
        _write(args.csv, _csv_text(("index", "n", "t", "d"), (
            (row.index_id, row.n, row.t, row.d_rendered) for row in rows)))
    return EXIT_OK


def _cmd_parse_alkane(args) -> int:
    graph = parse_alkane_name(args.name)
    print(f"# {args.name}")
    print(f"# MN = {neighbourhood_zagreb(graph)}")
    sys.stdout.write(serialize_edge_list(graph))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which is 1 here
        return EXIT_USAGE if exc.code else EXIT_OK
    except (OSError, ValueError) as exc:
        # every data error of the library (GraphError, AlkaneNameError,
        # TooLargeError, SizeOverflowError, ...) is a ValueError
        print(f"nbzagreb: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:
        print("nbzagreb: out of memory", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
