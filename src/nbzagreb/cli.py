"""Command-line front end.

Subcommands: ``compute``, ``product``, ``verify``, ``qspr``,
``degeneracy``, ``parse-alkane``.  Every command is deterministic given
its flags (``verify`` requires an explicit ``--seed`` whenever a
random-trial rule is selected).  Exit codes: 0 success, 1 usage error
(including an ``--m``, ``--n`` or ``--sizes`` that no selected formula or
family takes), 2 data error (including running out of memory).  Numeric
output: integers verbatim, rationals as ``p/q``, floats with 6
significant digits (``--precision`` widens).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .alkanes import parse_alkane_name
from .families import FAMILIES, build_family
from .formulas import CATALOG, FORMULA_IDS
from .graphs import parse_edge_list, serialize_edge_list
from .indices import INDEX_IDS, compute_index, neighbourhood_zagreb
from .products import ProductKind, product
from .qspr import (
    PROPERTY_NAMES,
    degeneracy_table,
    octane_pairs_csv,
    octane_regression,
)
from .verification import (
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


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage-error exit code (1, not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._usage_exit(message))

    def _usage_exit(self, message) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return EXIT_USAGE


def _format_number(value, precision: int) -> str:
    if isinstance(value, int):
        return _decimal(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return _decimal(value.numerator)
        return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"
    return f"{value:.{precision}g}"


#: Digits per ``str`` call in :func:`_decimal`: under 640, the lowest
#: limit on int-to-string conversion that CPython lets anyone set.
_DECIMAL_CHUNK = 600


def _decimal(value: int) -> str:
    """``str(value)`` for any length, without changing the interpreter-wide
    limit on int-to-string conversion: halves are split off by ``divmod``
    until each fits one ``str`` call."""
    if value < 0:
        return "-" + _decimal(-value)
    if value < 10 ** _DECIMAL_CHUNK:
        return str(value)
    # the low half gets about half the digits (log10(2) > 0.3)
    digits = value.bit_length() * 3 // 20
    high, low = divmod(value, 10 ** digits)
    return _decimal(high) + _decimal(low).zfill(digits)


def _int(text: str) -> int:
    """argparse type: an integer; a bad one gets argparse's own ``int`` wording."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_int_range(text: str) -> list[int]:
    """Either one integer or an inclusive range ``A..B``."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            values = list(range(_int(lo), _int(hi) + 1))
        except OverflowError:
            raise argparse.ArgumentTypeError(f"range {text!r} is too long") from None
        if not values:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return values
    return [_int(text)]


def _parse_sizes(text: str) -> list[int]:
    sizes = [_int(tok.strip()) for tok in text.split(",") if tok.strip()]
    if not sizes:
        raise argparse.ArgumentTypeError(f"no sizes in {text!r}")
    return sizes


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = _int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _untaken_param(args, taken) -> str | None:
    """The first of ``--m``, ``--n``, ``--sizes`` given but not in ``taken``."""
    given = [p for p in ("m", "n", "sizes") if getattr(args, p) is not None]
    return next((f"--{p}" for p in given if p not in taken), None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nbzagreb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute a topological index")
    p_compute.add_argument("--family", choices=sorted(FAMILIES))
    p_compute.add_argument("--n", type=int)
    p_compute.add_argument("--m", type=int)
    p_compute.add_argument("--sizes", type=_parse_sizes, metavar="N1,N2,...")
    p_compute.add_argument("--input", metavar="FILE", help="edge-list file")
    p_compute.add_argument("--index", required=True, choices=INDEX_IDS)
    p_compute.add_argument("--precision", type=_int_at_least(0), default=6)

    p_product = sub.add_parser("product", help="construct a product of two graphs")
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
    p_verify.add_argument("--formula", required=True, metavar="ID|all")
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--trials", type=_int_at_least(1), default=200)
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
    p_qspr.add_argument("--property", required=True, choices=PROPERTY_NAMES)
    p_qspr.add_argument("--csv", metavar="PATH")
    p_qspr.add_argument("--precision", type=_int_at_least(0), default=6)

    p_degen = sub.add_parser("degeneracy", help="mean isomer degeneracy table")
    p_degen.add_argument("--csv", metavar="PATH")

    p_alkane = sub.add_parser("parse-alkane", help="parse an alkane name")
    p_alkane.add_argument("name", help="e.g. '2,3-dimethyl hexane'")

    return parser


def _load_graph(path: str):
    with open(path, "r", encoding="utf-8") as f:
        return parse_edge_list(f.read())


def _cmd_compute(parser, args) -> int:
    if (args.family is None) == (args.input is None):
        return parser._usage_exit("compute needs exactly one of --family / --input")
    source = f"family {args.family!r}" if args.family else "--input"
    names = FAMILIES[args.family][0] if args.family else ()
    untaken = _untaken_param(args, names)
    if untaken:
        return parser._usage_exit(f"{source} takes no {untaken}")
    missing = [p for p in names if getattr(args, p) is None]
    if missing:
        return parser._usage_exit(f"{source} needs --{' --'.join(missing)}")
    if args.family:
        graph = build_family(args.family, **{p: getattr(args, p) for p in names})
    else:
        graph = _load_graph(args.input)
    value = compute_index(graph, args.index)
    print(_format_number(value, args.precision))
    return EXIT_OK


def _cmd_product(parser, args) -> int:
    if not args.input or len(args.input) != 2:
        return parser._usage_exit("product needs --input given exactly twice")
    left = _load_graph(args.input[0])
    right = _load_graph(args.input[1])
    result = product(left, right, ProductKind(args.kind))
    sys.stdout.write(serialize_edge_list(result))
    return EXIT_OK


def _cmd_verify(parser, args) -> int:
    if args.formula == "all":
        selected = list(FORMULA_IDS)
    elif args.formula in FORMULA_IDS:
        selected = [args.formula]
    else:
        return parser._usage_exit(
            f"unknown formula {args.formula!r}; expected 'all' or one of {', '.join(FORMULA_IDS)}"
        )
    untaken = _untaken_param(args, {p for f in selected for p in CATALOG[f].params})
    if untaken:
        return parser._usage_exit(f"{args.formula} takes no {untaken}")
    if args.seed is None and any(f in RANDOM_FORMULA_IDS for f in selected):
        return parser._usage_exit(
            "--seed is required when verifying random-trial rules"
        )
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
        with open(args.csv, "w", encoding="utf-8", newline="") as f:
            f.write(reports_to_csv(reports))
    if args.strict:
        exempt = known_errata()
        regressions = [
            r.formula_id
            for r in reports
            if r.status == ERRATUM and r.formula_id not in exempt
        ]
        if regressions:
            print(
                f"strict mode: unexpected ERRATUM in {', '.join(regressions)}",
                file=sys.stderr,
            )
            return EXIT_DATA
        unverified = [r.formula_id for r in reports if r.status == UNVERIFIED]
        if unverified:
            print(
                f"strict mode: no point checked in {', '.join(unverified)}",
                file=sys.stderr,
            )
            return EXIT_DATA
    return EXIT_OK


def _cmd_qspr(parser, args) -> int:
    result = octane_regression(args.property)
    p = args.precision
    print(f"property = {args.property}")
    print(f"n = {result.n}")
    print(f"r = {_format_number(result.r, p)}")
    print(f"r^2 = {_format_number(result.r_squared, p)}")
    print(f"slope = {_format_number(result.slope, p)}")
    print(f"intercept = {_format_number(result.intercept, p)}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as f:
            f.write(octane_pairs_csv(args.property))
    return EXIT_OK


def _cmd_degeneracy(parser, args) -> int:
    rows = degeneracy_table()
    for row in rows:
        print(f"{row.index_id} n={row.n} t={row.t} d={row.d_rendered}")
    if args.csv:
        lines = ["index,n,t,d"]
        lines.extend(
            f"{row.index_id},{row.n},{row.t},{row.d_rendered}" for row in rows
        )
        with open(args.csv, "w", encoding="utf-8", newline="") as f:
            f.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_parse_alkane(parser, args) -> int:
    graph = parse_alkane_name(args.name)
    print(f"# {args.name}")
    print(f"# MN = {neighbourhood_zagreb(graph)}")
    sys.stdout.write(serialize_edge_list(graph))
    return EXIT_OK


_HANDLERS = {
    "compute": _cmd_compute,
    "product": _cmd_product,
    "verify": _cmd_verify,
    "qspr": _cmd_qspr,
    "degeneracy": _cmd_degeneracy,
    "parse-alkane": _cmd_parse_alkane,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
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
