import hashlib
import random

import pytest

import nbzagreb.graphs
import nbzagreb.products
from nbzagreb import (
    CONSISTENT,
    ERRATUM,
    FORMULA_IDS,
    UNVERIFIED,
    GraphStats,
    ParamOutOfStatedRangeWarning,
    complete_graph,
    cycle_graph,
    empty_graph,
    example_formula,
    in_stated_range,
    known_errata,
    mn_cartesian,
    mn_cartesian_nary,
    mn_hamming,
    mn_hamming_compact,
    mn_tensor,
    mn_wreath_printed,
    neighbourhood_zagreb,
    path_graph,
    random_graph,
    reports_to_csv,
    verify,
    verify_all,
    wreath,
)
from nbzagreb import formulas
from nbzagreb.formulas import CATALOG
from nbzagreb.verification import RANDOM_FORMULA_IDS

#: SHA-256 of ``reports_to_csv(verify_all(seed=42))``; the benchmark's
#: verify-catalog workload checks the same value.
VERIFY_CSV_SHA256_SEED42 = "942cb6e06eeaee92a5e078fbff0d101960bf7d0f25c53ebcfd18a5c22a59efe1"


def stats(g):
    return GraphStats.from_graph(g)


class TestCartesianRule:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_prism(self, n):
        assert mn_cartesian(stats(complete_graph(2)), stats(cycle_graph(n))) == 162 * n

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 7), (6, 5)])
    def test_nanotorus(self, m, n):
        assert mn_cartesian(stats(cycle_graph(m)), stats(cycle_graph(n))) == 256 * m * n

    def test_ladder_cell(self):
        assert mn_cartesian(stats(complete_graph(2)), stats(path_graph(3))) == 198


class TestCartesianNaryRule:
    @pytest.mark.parametrize("m", range(2, 7))
    def test_hypercube(self, m):
        value = mn_cartesian_nary([stats(complete_graph(2))] * m)
        assert value == 2 ** m * m ** 4

    def test_two_factors_match_binary_rule(self):
        rng = random.Random(3)
        for _ in range(30):
            g1 = random_graph(rng.randint(1, 7), 0.5, rng.randrange(10 ** 6))
            g2 = random_graph(rng.randint(1, 7), 0.5, rng.randrange(10 ** 6))
            assert mn_cartesian_nary([stats(g1), stats(g2)]) == mn_cartesian(
                stats(g1), stats(g2)
            )

    def test_rook_3x3(self):
        assert mn_cartesian_nary([stats(complete_graph(3))] * 2) == 2304

    def test_needs_two_factors(self):
        with pytest.raises(ValueError):
            mn_cartesian_nary([stats(path_graph(3))])


class TestTensorRule:
    def test_cycles(self):
        for m, n in [(3, 3), (4, 6), (5, 8)]:
            assert mn_tensor(16 * n, 16 * m) == 256 * m * n

    def test_two_disjoint_edges(self):
        g = complete_graph(2)
        assert mn_tensor(neighbourhood_zagreb(g), neighbourhood_zagreb(g)) == 4

    def test_complete_graphs(self):
        for n, m in [(3, 4), (5, 5)]:
            value = mn_tensor(
                neighbourhood_zagreb(complete_graph(n)),
                neighbourhood_zagreb(complete_graph(m)),
            )
            assert value == m * n * (m - 1) ** 4 * (n - 1) ** 4


class TestWreathRulePrinted:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_fence_values(self, n):
        value = mn_wreath_printed(stats(path_graph(n)), stats(path_graph(2)))
        assert value == 864 * n - 1694

    def test_c3_p2_documented_erratum(self):
        printed = mn_wreath_printed(stats(cycle_graph(3)), stats(path_graph(2)))
        oracle = neighbourhood_zagreb(wreath(cycle_graph(3), path_graph(2)))
        assert printed == 2594
        assert oracle == 3750  # every product vertex has neighbour-degree sum 25

    def test_k1_left_factor_agrees_with_oracle(self):
        # with K_1 on the left every G1-dependent term vanishes and the
        # rule collapses to the identity wreath K_1[G] = G
        for g in (path_graph(5), cycle_graph(4), complete_graph(4)):
            printed = mn_wreath_printed(stats(empty_graph(1)), stats(g))
            oracle = neighbourhood_zagreb(wreath(empty_graph(1), g))
            assert printed == oracle == neighbourhood_zagreb(g)


class TestHammingRule:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_all_twos(self, m):
        assert mn_hamming([2] * m) == 2 ** m * m ** 4

    @pytest.mark.parametrize("n", range(2, 7))
    def test_single_factor(self, n):
        assert mn_hamming([n]) == n * (n - 1) ** 4

    def test_2x3(self):
        assert mn_hamming([2, 3]) == 486

    def test_expansion_equals_compact_form(self):
        rng = random.Random(8)
        lists = [[2], [2, 2], [2, 3, 4], [5, 5], [3, 3, 3, 3], [2, 2, 2, 3, 4]]
        lists += [
            [rng.randint(2, 9) for _ in range(rng.randint(1, 6))] for _ in range(50)
        ]
        for sizes in lists:
            assert mn_hamming(sizes) == mn_hamming_compact(sizes)

    def test_sizes_validated(self):
        with pytest.raises(ValueError):
            mn_hamming([2, 1])


class TestFamilyPolynomials:
    def test_printed_values(self):
        assert example_formula("EX_LADDER", n=3) == 354
        assert example_formula("EX_HYPERCUBE", m=4) == 4096
        assert example_formula("EX_NANOTORUS", m=5, n=7) == 256 * 35
        assert example_formula("EX_PRISM", n=6) == 972
        assert example_formula("EX_FENCE", n=5) == 864 * 5 - 1694
        assert example_formula("EX_CLOSED_FENCE", n=5) == 816 * 5 + 2

    def test_rook_bracket(self):
        # the catalogued bracket is the expanded fourth power of the degree
        for m, n in [(2, 2), (3, 5), (6, 4)]:
            assert example_formula("EX_ROOK", m=m, n=n) == m * n * (m + n - 2) ** 4

    def test_out_of_range_warns_but_evaluates(self):
        with pytest.warns(ParamOutOfStatedRangeWarning):
            value = example_formula("EX_GRID", m=3, n=5)
        assert value == 256 * 15 - 310 * 3 - 310 * 5 + 216

    def test_in_range_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            example_formula("EX_GRID", m=4, n=4)

    def test_stated_ranges(self):
        assert in_stated_range("EX_GRID", m=4, n=4)
        assert not in_stated_range("EX_GRID", m=3, n=4)
        assert not in_stated_range("EX_TENSOR_PP", n=3, m=5)
        assert in_stated_range("EX_LADDER", n=2)

    def test_unknown_and_missing(self):
        with pytest.raises(ValueError):
            example_formula("PROP1", n=3)
        with pytest.raises(ValueError):
            example_formula("EX_GRID", m=4)


class TestVerify:
    def test_prop1_consistent(self):
        report = verify("PROP1", seed=42, trials=200)
        assert report.status == CONSISTENT
        assert all(p.delta == 0 for p in report.points)

    def test_prop3_consistent_delta_identically_zero(self):
        report = verify("PROP3", seed=42, trials=200)
        assert report.status == CONSISTENT
        assert {p.delta for p in report.points} == {0}

    def test_prop2_consistent_under_tuple_reading(self):
        # empirical status of the n-ary rule, recorded by the report
        report = verify("PROP2", seed=42, trials=200)
        assert report.status == CONSISTENT
        assert all(p.delta == 0 for p in report.points)

    def test_hamming_consistent_with_sizes_override(self):
        report = verify("HAMMING", sizes=[[2, 3, 4], [5, 5]])
        assert report.status == CONSISTENT
        assert len(report.points) == 2
        labels = {dict(p.params)["sizes"] for p in report.points}
        assert labels == {"2x3x4", "5x5"}

    def test_grid_erratum_every_point(self):
        report = verify("EX_GRID", m_values=range(4, 9), n_values=range(4, 9))
        assert report.status == ERRATUM
        assert all(p.delta != 0 for p in report.points)
        first = report.points[0]
        assert dict(first.params) == {"m": 4, "n": 4}
        assert (first.closed, first.oracle) == (1832, 1576)

    def test_summary_counts_points_outside_the_stated_range(self):
        report = verify("EX_GRID", m_values=[3], n_values=[4])
        assert report.summary() == (
            "EX_GRID: ERRATUM (1 points, 1 nonzero deltas, max |delta| = 184, "
            "1 outside stated range)"
        )

    def test_ladder_erratum_value(self):
        report = verify("EX_LADDER", n_values=[3])
        (point,) = report.points
        assert (point.closed, point.oracle, point.delta) == (354, 356, -2)

    def test_reports_deterministic(self):
        a = verify("PROP4_PRINTED", seed=7, trials=50)
        b = verify("PROP4_PRINTED", seed=7, trials=50)
        assert a == b

    def test_skip_marker_on_overflow(self, monkeypatch):
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 500)
        report = verify("EX_GRID", m_values=[4, 50], n_values=[50])
        by_m = {dict(p.params)["m"]: p for p in report.points}
        assert not by_m[4].skipped
        assert by_m[50].skipped and by_m[50].oracle is None and by_m[50].delta is None

    def test_zero_trials_unverified(self):
        report = verify("PROP1", seed=1, trials=0)
        assert report.points == ()
        assert report.status == UNVERIFIED
        assert report.summary() == "PROP1: UNVERIFIED (0 points)"

    def test_all_points_skipped_unverified(self, monkeypatch):
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 500)
        report = verify("EX_GRID", m_values=[50], n_values=[50, 60])
        assert report.skipped_points == 2
        assert report.status == UNVERIFIED

    def test_partly_skipped_report_keeps_its_verdict(self, monkeypatch):
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 500)
        report = verify("EX_PRISM", n_values=[3, 400])
        assert report.skipped_points == 1
        assert report.status == CONSISTENT

    def test_out_of_range_flag_carried(self):
        report = verify("EX_NANOTUBE", m_values=[3], n_values=[3, 4])
        flags = {dict(p.params)["n"]: p.in_stated_range for p in report.points}
        assert flags == {3: False, 4: True}

    def test_unknown_formula(self):
        with pytest.raises(ValueError):
            verify("EX_MOEBIUS")

    def test_csv_shape(self):
        report = verify("EX_PRISM", n_values=[3, 4])
        text = reports_to_csv([report])
        lines = text.splitlines()
        assert lines[0] == "formula,params,closed,oracle,delta"
        assert lines[1] == "EX_PRISM,n=3,486,486,0"
        assert len(lines) == 3

    def test_skipped_point_evaluates_neither_side(self, monkeypatch):
        def refuse(sizes):
            raise AssertionError("closed form evaluated for a skipped point")

        monkeypatch.setattr(formulas, "mn_hamming", refuse)
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 10)
        report = verify("HAMMING", sizes=[[2] * 6])
        (point,) = report.points
        assert point.skipped and point.closed is None and point.oracle is None
        assert reports_to_csv([report]).splitlines()[1] == "HAMMING,sizes=2x2x2x2x2x2,,,"

    def test_skipped_trials_evaluate_neither_side(self, monkeypatch):
        # the factors are graphs too, so the cap is lowered for the product
        # only: a cap below their order would refuse the factors as well
        def refuse(subject, count, **kwargs):
            raise nbzagreb.graphs.SizeOverflowError(f"{subject} {count} exceeds vertex cap 0")

        def evaluated(*stats):
            raise AssertionError("closed form evaluated for a skipped point")

        monkeypatch.setattr(nbzagreb.products, "_check_cap", refuse)
        monkeypatch.setattr(formulas, "mn_cartesian", evaluated)
        report = verify("PROP1", seed=1, trials=5)
        assert report.skipped_points == 5
        assert all(p.closed is None for p in report.points)

    def test_seed42_csv_pin(self):
        text = reports_to_csv(verify_all(seed=42))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == VERIFY_CSV_SHA256_SEED42


class TestCatalog:
    def test_one_record_per_id_in_canonical_order(self):
        assert FORMULA_IDS == tuple(CATALOG) == tuple(r.id for r in CATALOG.values())
        assert FORMULA_IDS[:5] == ("PROP1", "PROP2", "PROP3", "PROP4_PRINTED", "HAMMING")
        assert len(FORMULA_IDS) == 20

    def test_each_record_has_a_grid_or_a_sampler(self):
        for record in CATALOG.values():
            assert (record.grid is None) != (record.sample is None), record.id
        assert RANDOM_FORMULA_IDS == ("PROP1", "PROP2", "PROP3", "PROP4_PRINTED")
        assert all(CATALOG[fid].params == () for fid in RANDOM_FORMULA_IDS)
        assert CATALOG["HAMMING"].params == ("sizes",)
        assert CATALOG["EX_TENSOR_PP"].params == ("n", "m")

    def test_hamming_is_a_grid_formula(self):
        assert example_formula("HAMMING", sizes=[2, 3, 4]) == mn_hamming([2, 3, 4])
        assert in_stated_range("HAMMING", sizes=[2])


class TestKnownErrata:
    def test_contents(self):
        assert known_errata() == {
            "PROP4_PRINTED",
            "EX_LADDER",
            "EX_GRID",
            "EX_FENCE",
            "EX_CLOSED_FENCE",
        }

    def test_subset_of_catalog(self):
        assert known_errata() <= set(FORMULA_IDS)
