import hashlib
import re
import resource
import shlex
import sys
import tracemalloc
from pathlib import Path

import pytest

from nbzagreb import (
    Graph,
    cartesian,
    neighbourhood_zagreb,
    parse_edge_list,
    path_graph,
    serialize_edge_list,
)
from nbzagreb import cli, families
from nbzagreb.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def bounded_memory():
    """Cap this process's address space at its current size plus 1 GiB for
    the test, so that a refusal which regressed into building its graph
    ends in MemoryError (``nbzagreb: out of memory``) within seconds
    instead of filling the machine.  Without ``/proc`` the test runs
    unbounded."""
    try:
        with open("/proc/self/statm", encoding="ascii") as f:
            size = int(f.read().split()[0]) * resource.getpagesize()
    except OSError:
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = size + (1 << 30)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


class TestCompute:
    def test_prism_mn(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "prism", "--n", "6", "--index", "MN")
        assert code == 0 and out == "972\n"

    def test_hamming_sizes(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "hamming", "--sizes", "2,3", "--index", "MN"
        )
        assert code == 0 and out == "486\n"

    def test_input_file(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text(serialize_edge_list(path_graph(4)))
        code, out, _ = run(capsys, "compute", "--input", str(f), "--index", "M1")
        assert code == 0 and out == "10\n"

    @pytest.mark.parametrize("command", [
        ("compute", "--index", "MN"),
        ("product", "--kind", "cartesian"),
    ])
    def test_byte_order_mark_ignored(self, capsys, tmp_path, command):
        text = "# P3\n3 2\n0 1\n1 2\n"
        outputs = []
        for name, data in (("plain.txt", text.encode()), ("bom.txt", b"\xef\xbb\xbf" + text.encode())):
            f = tmp_path / name
            f.write_bytes(data)
            inputs = ["--input", str(f)] * (2 if command[0] == "product" else 1)
            outputs.append(run(capsys, command[0], *inputs, *command[1:]))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and outputs[0][1]

    def test_rational_output(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "path", "--n", "3", "--index", "HARARY")
        assert code == 0 and out == "5/2\n"

    def test_integral_fraction_prints_as_an_integer(self, capsys):
        # HARARY of K2 is Fraction(1), denominator 1
        code, out, _ = run(capsys, "compute", "--family", "complete", "--n", "2",
                           "--index", "HARARY")
        assert code == 0 and out == "1\n"

    def test_float_precision(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "path", "--n", "3", "--index", "CHI")
        assert code == 0 and out == "1.41421\n"
        code, out, _ = run(
            capsys, "compute", "--family", "path", "--n", "3", "--index", "CHI",
            "--precision", "12",
        )
        assert code == 0 and out == "1.41421356237\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--family", "path", "--n", "5", "--index", "CHI"),
            ("qspr", "--property", "acentric"),
        ],
    )
    def test_negative_precision_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--precision", "-3")
        assert code == 1 and out == ""
        assert "--precision: must be >= 0, got -3" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--family", "path", "--n", "5", "--index", "CHI"),
            ("qspr", "--property", "acentric"),
        ],
    )
    def test_precision_bounded_by_float_formatting(self, capsys, argv):
        # 17 significant digits are the most that a float's repr needs
        code, out, _ = run(capsys, *argv, "--precision", "17")
        assert code == 0 and out
        code, out, err = run(capsys, *argv, "--precision", "18")
        assert code == 1 and out == ""
        assert err.splitlines()[-1] == (
            f"nbzagreb {argv[0]}: error: argument --precision: must be <= 17, got 18"
        )

    def test_family_and_input_conflict(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("2 1\n0 1\n")
        code, _, err = run(
            capsys, "compute", "--family", "path", "--n", "3", "--input", str(f),
            "--index", "MN",
        )
        assert code == 1 and "exactly one" in err

    def test_bad_hamming_sizes_are_data_error(self, capsys):
        code, out, err = run(capsys, "compute", "--family", "hamming", "--sizes", "1,2",
                             "--index", "MN")
        assert code == 2 and out == ""
        assert err == "nbzagreb: hamming factor sizes must be >= 2, got [1, 2]\n"

    def test_missing_family_param_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "grid", "--n", "4", "--index", "MN")
        assert code == 1 and "--m" in err

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "compute", "--input", str(tmp_path / "absent.txt"), "--index", "MN"
        )
        assert code == 2

    def test_malformed_file_is_data_error(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("3 2\n0 1\nbogus line\n")
        code, _, err = run(capsys, "compute", "--input", str(f), "--index", "MN")
        assert code == 2 and "line 3" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ("--family", "complete", "--n", "40", "--index", "Z"),
                "Z exceeds the counting budget of 65536 mask words "
                "on a component with a cycle and at least 40 vertices",
                id="complete-40-Z-budget",
            ),
            (
                ("--family", "grid", "--m", "1001", "--n", "1000", "--index", "MN"),
                "product order 1001000 exceeds vertex cap 1000000",
            ),
            (
                ("--family", "grid", "--m", "100", "--n", "100", "--index", "HARARY"),
                "HARARY needs 298000000 BFS steps (order x (order + size)), "
                "over the budget of 50000000",
            ),
            (
                ("--family", "ladder", "--n", "2000", "--index", "Z"),
                "Z exceeds the counting budget of 65536 mask words "
                "on a component with a cycle and at least 4002 vertices",
            ),
            # a long value in a family's message is echoed cut
            (
                ("--family", "hamming", "--sizes", f"1,{'9' * 100}", "--index", "MN"),
                f"hamming factor sizes must be >= 2, got [1, {'9' * 26}... (105 characters)",
            ),
            (
                ("--family", "hypercube", "--m", f"-{'9' * 100}", "--index", "MN"),
                f"hypercube dimension must be >= 1, got -{'9' * 30}... (100 digits)",
            ),
        ],
    )
    def test_library_data_errors_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, "compute", *argv)
        assert code == 2 and out == ""
        assert err == f"nbzagreb: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("grid", "--m", "1000", "--n", "1000", "--index", "Z"),
             "Z exceeds the counting budget of 65536 mask words "
             "on a component with a cycle and at least 1000000 vertices"),
            (("grid", "--m", "1000", "--n", "1000", "--index", "SIGMA"),
             "SIGMA exceeds the counting budget of 65536 mask words "
             "on a component with a cycle and at least 1000000 vertices"),
            (("grid", "--m", "1000", "--n", "1000", "--index", "HARARY"),
             "HARARY needs 2998000000000 BFS steps (order x (order + size)), "
             "over the budget of 50000000"),
            # size == order: the smallest cyclic member
            (("cycle", "--n", "3000", "--index", "Z"),
             "Z exceeds the counting budget of 65536 mask words "
             "on a component with a cycle and at least 3000 vertices"),
        ],
        ids=["grid-Z", "grid-SIGMA", "grid-HARARY", "cycle-Z"],
    )
    def test_family_over_a_budget_refused_from_its_plan(self, capsys, monkeypatch, argv,
                                                        message):
        """The member's planned order and size decide, so no graph is built:
        not a factor, not the 10**6-vertex grid, nor anything else."""

        def refuse(*args, **kwargs):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(Graph, "__init__", refuse)
        monkeypatch.setattr(Graph, "_from_canonical", refuse)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "compute", "--family", *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err == f"nbzagreb: {message}\n"
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "family, n, index, value",
        [("path", "40", "Z", "165580141"), ("complete", "40", "SIGMA", "41")],
    )
    def test_counting_above_the_old_order_guard(self, capsys, family, n, index, value):
        code, out, _ = run(capsys, "compute", "--family", family, "--n", n, "--index", index)
        assert code == 0 and out == value + "\n"

    def test_values_longer_than_the_int_string_limit(self, capsys):
        # the limit exists from CPython 3.10.7 and 3.11 on
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "compute", "--family", "path", "--n", "30000", "--index", "Z")
        assert code == 0 and err == ""
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        digits = out.rstrip("\n")
        assert len(digits) == 6270 and digits.isdigit()
        # Z(P_30000) = F(30001), read back in chunks under any limit
        value = 0
        for i in range(0, len(digits), 500):
            chunk = digits[i:i + 500]
            value = value * 10 ** len(chunk) + int(chunk)
        a, b = 0, 1
        for _ in range(30001):
            a, b = b, a + b
        assert value == a

    def test_header_order_above_cap_is_data_error(self, capsys, tmp_path):
        f = tmp_path / "huge.txt"
        f.write_text("1000000000000 0\n")
        code, out, err = run(capsys, "compute", "--input", str(f), "--index", "MN")
        assert code == 2 and out == ""
        assert err == "nbzagreb: line 1: order 1000000000000 exceeds vertex cap 1000000\n"

    @pytest.mark.parametrize(
        "family,params",
        [
            ("path", ["--n", "5"]),
            ("cycle", ["--n", "5"]),
            ("complete", ["--n", "4"]),
            ("ladder", ["--n", "3"]),
            ("grid", ["--m", "4", "--n", "4"]),
            ("nanotube", ["--m", "4", "--n", "4"]),
            ("nanotorus", ["--m", "3", "--n", "4"]),
            ("prism", ["--n", "5"]),
            ("rook", ["--m", "3", "--n", "3"]),
            ("hamming", ["--sizes", "2,3"]),
            ("hypercube", ["--m", "3"]),
            ("fence", ["--n", "4"]),
            ("closed-fence", ["--n", "4"]),
        ],
    )
    def test_every_family_flag_accepted(self, capsys, family, params):
        code, out, _ = run(
            capsys, "compute", "--family", family, *params, "--index", "MN"
        )
        assert code == 0 and int(out) >= 0

    def test_complete_over_the_edge_cap_is_refused_before_building(
        self, capsys, bounded_memory
    ):
        # K_100000 has about 5*10^9 edges; refused from n alone
        code, out, err = run(
            capsys, "compute", "--family", "complete", "--n", "100000", "--index", "MN"
        )
        assert code == 2 and out == ""
        assert err == "nbzagreb: size 4999950000 exceeds edge cap 10000000\n"

    def test_path_over_the_vertex_cap_is_data_error(self, capsys):
        code, out, err = run(
            capsys, "compute", "--family", "path", "--n", "1000001", "--index", "MN"
        )
        assert code == 2 and out == ""
        assert err == "nbzagreb: order 1000001 exceeds vertex cap 1000000\n"

    @pytest.mark.parametrize(
        "params, message",
        [
            (("grid", "--m", "2", "--n", "20000000"), "product order 40000000"),
            (("hypercube", "--m", "64"), "product order >= 2**64"),
        ],
    )
    def test_family_refused_before_any_factor_is_built(
        self, capsys, monkeypatch, params, message
    ):
        def refuse(n):
            raise AssertionError(f"a factor of order {n} was built")

        monkeypatch.setattr(families, "path_graph", refuse)
        monkeypatch.setattr(families, "complete_graph", refuse)
        code, out, err = run(capsys, "compute", "--family", *params, "--index", "MN")
        assert code == 2 and out == ""
        assert err == f"nbzagreb: {message} exceeds vertex cap 1000000\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--family", "path", "--n", "5", "--m", "3"), "family 'path' takes no --m"),
            (("--family", "grid", "--m", "4", "--n", "4", "--sizes", "2"),
             "family 'grid' takes no --sizes"),
        ],
    )
    def test_parameter_the_family_does_not_take(self, capsys, argv, message):
        code, out, err = run(capsys, "compute", *argv, "--index", "MN")
        assert code == 1 and out == ""
        assert err == f"nbzagreb: error: {message}\n"

    def test_parameter_with_input_file(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("2 1\n0 1\n")
        code, out, err = run(capsys, "compute", "--input", str(f), "--n", "5", "--index", "MN")
        assert code == 1 and out == ""
        assert err == "nbzagreb: error: --input takes no --n\n"

    def test_memory_error_is_data_error(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "build_family", exhausted)
        code, out, err = run(capsys, "compute", "--family", "path", "--n", "3", "--index", "MN")
        assert code == 2 and out == ""
        assert err == "nbzagreb: out of memory\n"


class TestProduct:
    def test_cartesian_of_files(self, capsys, tmp_path):
        left, right = tmp_path / "a.txt", tmp_path / "b.txt"
        left.write_text(serialize_edge_list(path_graph(2)))
        right.write_text(serialize_edge_list(path_graph(3)))
        code, out, _ = run(
            capsys, "product", "--kind", "cartesian",
            "--input", str(left), "--input", str(right),
        )
        assert code == 0
        assert parse_edge_list(out) == cartesian(path_graph(2), path_graph(3))

    def test_single_input_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "a.txt"
        f.write_text("2 1\n0 1\n")
        code, _, err = run(capsys, "product", "--kind", "tensor", "--input", str(f))
        assert code == 1 and "exactly twice" in err


class TestVerify:
    def test_grid_erratum_summary(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--formula", "EX_GRID", "--m", "4..6", "--n", "4..6"
        )
        assert code == 0
        assert "EX_GRID: ERRATUM" in out

    def test_prism_consistent(self, capsys):
        code, out, _ = run(capsys, "verify", "--formula", "EX_PRISM", "--n", "3..6")
        assert code == 0 and "EX_PRISM: CONSISTENT (4 points)" in out

    def test_seed_required_for_random_rules(self, capsys):
        code, _, err = run(capsys, "verify", "--formula", "PROP1")
        assert code == 1 and "--seed" in err

    def test_unknown_formula(self, capsys):
        code, _, err = run(capsys, "verify", "--formula", "EX_UNKNOWN")
        assert code == 1

    def test_csv_written_and_deterministic(self, capsys, tmp_path):
        args = (
            "verify", "--formula", "PROP4_PRINTED", "--seed", "11", "--trials", "25",
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *args, "--csv", str(a))[0] == 0
        assert run(capsys, *args, "--csv", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "formula,params,closed,oracle,delta"

    def test_strict_passes_with_known_errata_exempt(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--formula", "all", "--seed", "3", "--trials", "10",
            "--strict",
        )
        assert code == 0
        assert "PROP4_PRINTED: ERRATUM" in out
        assert "PROP1: CONSISTENT" in out


    @pytest.mark.parametrize("trials", ["-5", "0"])
    def test_trials_below_one_is_usage_error(self, capsys, trials):
        code, out, err = run(
            capsys, "verify", "--formula", "PROP1", "--trials", trials, "--seed", "1",
            "--strict",
        )
        assert code == 1 and out == ""
        assert f"--trials: must be >= 1, got {trials}" in err

    def test_strict_fails_when_no_point_checked(self, capsys):
        # 1000 x 2000 is over the default vertex cap, so the one point is skipped
        argv = ("verify", "--formula", "EX_GRID", "--m", "1000", "--n", "2000")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == "EX_GRID: UNVERIFIED (1 points, 1 skipped)\n"
        code, out, err = run(capsys, *argv, "--strict")
        assert code == 2 and "EX_GRID: UNVERIFIED" in out
        assert "no point checked in EX_GRID" in err

    _STRICT_BOTH = (
        "verify", "--formula", "all", "--seed", "42", "--trials", "1",
        "--m", "1000", "--n", "2000", "--strict",
    )

    def test_strict_reports_unexpected_erratum_first(self, capsys, monkeypatch):
        # with no known errata, the four expected ERRATUM formulas are
        # unexpected; the unchecked formulas of the same run go unreported
        monkeypatch.setattr(cli, "known_errata", lambda: frozenset())
        code, _, err = run(capsys, *self._STRICT_BOTH)
        assert code == 2
        assert err == (
            "strict mode: unexpected ERRATUM in "
            "PROP4_PRINTED, EX_LADDER, EX_FENCE, EX_CLOSED_FENCE\n"
        )

    def test_strict_reports_every_unchecked_formula(self, capsys):
        code, _, err = run(capsys, *self._STRICT_BOTH)
        assert code == 2
        assert err == (
            "strict mode: no point checked in EX_NANOTORUS, EX_NANOTUBE, EX_GRID, "
            "EX_ROOK, EX_HYPERCUBE, EX_TENSOR_PP, EX_TENSOR_CC, EX_TENSOR_KK, "
            "EX_TENSOR_PC, EX_TENSOR_PK, EX_TENSOR_CK\n"
        )

    def test_ladder_over_the_vertex_cap_is_skipped(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError(f"a factor of order {n} was built")

        monkeypatch.setattr(families, "path_graph", refuse)
        code, out, _ = run(capsys, "verify", "--formula", "EX_LADDER", "--n", "20000000")
        assert code == 0 and out == "EX_LADDER: UNVERIFIED (1 points, 1 skipped)\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("EX_LADDER", "--m", "5", "--n", "3"), "EX_LADDER takes no --m"),
            (("HAMMING", "--sizes", "2,3", "--n", "4"), "HAMMING takes no --n"),
            (("PROP1", "--seed", "1", "--m", "4"), "PROP1 takes no --m"),
            (("EX_GRID", "--sizes", "2,3"), "EX_GRID takes no --sizes"),
        ],
    )
    def test_parameter_no_selected_formula_takes(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", "--formula", *argv)
        assert code == 1 and out == ""
        assert err == f"nbzagreb: error: {message}\n"

    def test_parameter_some_selected_formula_takes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--formula", "all", "--seed", "1", "--trials", "1",
            "--m", "4..6",
        )
        assert code == 0
        assert "EX_HYPERCUBE: CONSISTENT (3 points)" in out
        assert "EX_LADDER: ERRATUM (8 points" in out

    def test_memory_error_while_parsing_is_data_error(self, capsys, monkeypatch):
        def exhausted(text):
            raise MemoryError

        monkeypatch.setattr(cli, "_parse_int_range", exhausted)
        code, out, err = run(
            capsys, "verify", "--formula", "EX_LADDER", "--n", "1..10000000000"
        )
        assert code == 2 and out == ""
        assert err == "nbzagreb: out of memory\n"


class TestQspr:
    def test_acentric_report(self, capsys):
        code, out, _ = run(capsys, "qspr", "--property", "acentric")
        assert code == 0
        assert "n = 17" in out
        assert "r = -0.994297" in out

    def test_csv(self, capsys, tmp_path):
        f = tmp_path / "pairs.csv"
        code, _, _ = run(capsys, "qspr", "--property", "entropy", "--csv", str(f))
        assert code == 0
        lines = f.read_text().splitlines()
        assert lines[0] == "MN,entropy"
        assert len(lines) == 18


class TestDegeneracy:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "degeneracy")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 8
        assert lines[0] == "M1 n=18 t=6 d=3.000"
        assert lines[-1] == "MN n=18 t=18 d=1.000"

    def test_csv(self, capsys, tmp_path):
        f = tmp_path / "d.csv"
        code, _, _ = run(capsys, "degeneracy", "--csv", str(f))
        assert code == 0
        assert hashlib.sha256(f.read_bytes()).hexdigest() == (
            "757334e00278ad31af1566db7ef5a71f672f7ba5df0d31ad93de352b2051cc7f")
        lines = f.read_text().splitlines()
        assert lines[0] == "index,n,t,d"
        assert len(lines) == 9


class TestParseAlkane:
    def test_output_round_trips(self, capsys):
        code, out, _ = run(capsys, "parse-alkane", "2,3-dimethyl hexane")
        assert code == 0
        assert "# MN = 126" in out
        graph = parse_edge_list(out)
        assert graph.order == 8 and neighbourhood_zagreb(graph) == 126

    def test_bad_name_is_data_error(self, capsys):
        code, _, err = run(capsys, "parse-alkane", "2-methylpropane")
        assert code == 2 and "position" in err

    @pytest.mark.parametrize("name", ["\u00b2-methyl butane", "\u0662-methyl butane"])
    def test_non_ascii_digit_is_data_error(self, capsys, name):
        code, out, err = run(capsys, "parse-alkane", name)
        assert code == 2 and out == ""
        assert err == "nbzagreb: position 0: expected a parent chain name\n"

    def test_locant_too_long_is_data_error(self, capsys):
        code, out, err = run(capsys, "parse-alkane", "1" * 5000 + "-methyl butane")
        assert code == 2 and out == ""
        assert err == "nbzagreb: position 4300: locant longer than 4300 digits\n"

    def test_valence_violation_is_data_error(self, capsys):
        code, _, err = run(capsys, "parse-alkane", "2,2,2-trimethyl butane")
        assert code == 2 and "bonds" in err


#: A flag value past the int-string limit, and its echo in an error message.
_LONG = "1" * 5000
_LONG_ECHO = f"'{'1' * 30}'... (5000 characters)"


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_command(self, capsys):
        assert run(capsys, "foobar")[0] == 1

    def test_missing_index(self, capsys):
        assert run(capsys, "compute", "--family", "path", "--n", "3")[0] == 1

    @pytest.mark.parametrize("sizes", [",", "", " , "])
    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--family", "hamming", "--index", "MN"),
            # an empty list must not fall back to the default grid
            ("verify", "--formula", "HAMMING"),
        ],
    )
    def test_empty_sizes_is_usage_error(self, capsys, argv, sizes):
        code, out, err = run(capsys, *argv, "--sizes", sizes)
        assert code == 1 and out == ""
        assert err.endswith(f"error: argument --sizes: no sizes in {sizes!r}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify", "--formula", "HAMMING", "--sizes", "2,x"),
             "argument --sizes: invalid int value: 'x'"),
            (("compute", "--family", "hamming", "--index", "MN", "--sizes", "3, 4.5"),
             "argument --sizes: invalid int value: '4.5'"),
            (("verify", "--formula", "EX_GRID", "--m", "x"),
             "argument --m: invalid int value: 'x'"),
            (("verify", "--formula", "EX_LADDER", "--n", "3..x"),
             "argument --n: invalid int value: 'x'"),
            (("verify", "--formula", "EX_LADDER", "--n", "5..3"),
             "argument --n: empty range '5..3'"),
            # a range longer than any list is refused, not a traceback
            (("verify", "--formula", "EX_LADDER", "--n", f"1..{10 ** 20}"),
             f"argument --n: range '1..{10 ** 20}' is too long"),
            # a value past the int-string limit is echoed cut, on every reader
            (("compute", "--family", "path", "--n", _LONG, "--index", "MN"),
             f"argument --n: invalid int value: {_LONG_ECHO}"),
            (("verify", "--formula", "all", "--seed", _LONG),
             f"argument --seed: invalid int value: {_LONG_ECHO}"),
            (("verify", "--formula", "HAMMING", "--sizes", f"2,{_LONG}"),
             f"argument --sizes: invalid int value: {_LONG_ECHO}"),
            (("verify", "--formula", "EX_LADDER", "--n", f"1..{_LONG}"),
             f"argument --n: invalid int value: {_LONG_ECHO}"),
            # and so is every other long value a usage error quotes
            (("verify", "--formula", "EX_LADDER", "--n", f"1..{'9' * 4000}"),
             f"argument --n: range '1..{'9' * 27}'... (4003 characters) is too long"),
            (("verify", "--formula", "EX_LADDER", "--n", f"1..-{'9' * 100}"),
             f"argument --n: empty range '1..-{'9' * 26}'... (104 characters)"),
            (("verify", "--formula", "HAMMING", "--sizes", "," * 100),
             f"argument --sizes: no sizes in '{',' * 30}'... (100 characters)"),
            (("verify", "--formula", "all", "--trials", f"-{'9' * 100}"),
             f"argument --trials: must be >= 1, got -{'9' * 30}... (100 digits)"),
            (("verify", "--formula", "x" * 100),
             f"unknown formula '{'x' * 30}'... (100 characters); expected 'all' or one of "
             f"{', '.join(cli.FORMULA_IDS)}"),
        ],
        ids=["sizes", "sizes-float", "int", "range-end", "empty-range", "long-range",
             "long-n", "long-seed", "long-sizes", "long-range-end", "long-range-too-long",
             "long-empty-range", "long-no-sizes", "long-trials", "long-formula"],
    )
    def test_bad_value_names_itself(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.endswith(f"error: {message}\n")
        assert "_parse" not in err

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")
    def test_long_value_refused_with_the_limit_off(self, capsys):
        # int() would read it, in time quadratic in its digits
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, out, err = run(capsys, "compute", "--family", "path", "--n", _LONG,
                                 "--index", "MN")
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 1 and out == ""
        assert err.endswith(f"error: argument --n: invalid int value: {_LONG_ECHO}\n")

    @pytest.mark.parametrize(
        "argv, line",
        [
            (("compute", "--family", "path", "--n", "5", "--index", "CHI",
              "--precision", "-3"),
             "nbzagreb compute: error: argument --precision: must be >= 0, got -3"),
            (("verify", "--formula", "all", "--trials", "0"),
             "nbzagreb verify: error: argument --trials: must be >= 1, got 0"),
        ],
        ids=["compute", "verify"],
    )
    def test_argparse_error_names_the_subcommand(self, capsys, argv, line):
        # only the last line: the usage block above it wraps differently
        # across Python versions
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.splitlines()[-1] == line


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_code_blocks() -> list[list[str]]:
    blocks: list[list[str]] = []
    block = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            if block is None:
                block = []
            else:
                blocks.append(block)
                block = None
        elif block is not None:
            block.append(line)
    return blocks


def _readme_commands() -> list[tuple[str, list[str]]]:
    """Every ``$ nbzagreb ...`` line of the README with the lines under it."""
    commands = []
    for block in _readme_code_blocks():
        current = None
        for line in block:
            if line.startswith("$ "):
                current = (line[2:], [])
                commands.append(current)
            elif current is not None:
                current[1].append(line)
    return commands


_BARE_VALUE = re.compile(r"^(nbzagreb .+?)\s+# (\S+)$")


def _readme_values() -> list[tuple[str, str]]:
    """Every ``nbzagreb ... # <value>`` line whose comment is one bare value."""
    return [
        match.groups()
        for block in _readme_code_blocks()
        for match in map(_BARE_VALUE.match, block)
        if match
    ]


def _argv(command: str) -> list[str]:
    program, *argv = shlex.split(command)
    assert program == "nbzagreb"
    return argv


class TestReadme:
    """The CLI outputs the README shows, run in-process."""

    def test_examples_found(self):
        assert len(_readme_commands()) == 8
        assert [value for _, value in _readme_values()] == ["972", "165580141", "41"]

    @pytest.mark.parametrize(
        "command, lines", _readme_commands(), ids=[c for c, _ in _readme_commands()]
    )
    def test_command(self, capsys, bounded_memory, command, lines):
        # a "nbzagreb: ..." line is the one stderr line of an error;
        # "nbzagreb: error: ..." is a usage error (exit 1), any other a data error
        errors = [line for line in lines if line.startswith("nbzagreb: ")]
        output = [line for line in lines if not line.startswith("nbzagreb: ")]
        expected_code = 0 if not errors else 1 if errors[0].startswith("nbzagreb: error:") else 2
        code, out, err = run(capsys, *_argv(command))
        assert out == "".join(line + "\n" for line in output)
        assert err == "".join(line + "\n" for line in errors)
        assert code == expected_code

    @pytest.mark.parametrize(
        "command, value", _readme_values(), ids=[c for c, _ in _readme_values()]
    )
    def test_bare_value(self, capsys, bounded_memory, command, value):
        code, out, err = run(capsys, *_argv(command))
        assert (code, out, err) == (0, value + "\n", "")
