import hashlib
from fractions import Fraction

import pytest

from nbzagreb import (
    DEGENERACY_INDEX_ORDER,
    DegenerateInputError,
    complete_graph,
    cycle_graph,
    degeneracy_table,
    linear_fit,
    mean_isomer_degeneracy,
    neighbourhood_zagreb,
    octane_pairs_csv,
    octane_regression,
    octane_table1,
    path_graph,
    pearson,
    render_ratio,
)

from oracle_helpers import pearson_oracle


class TestPearson:
    def test_exact_positive_line(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)

    def test_exact_negative_line(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)

    def test_against_direct_formula(self):
        records = octane_table1()
        xs = [float(neighbourhood_zagreb(rec.structure)) for rec in records]
        for ys in ([rec.acentric_factor for rec in records],
                   [rec.entropy for rec in records]):
            assert pearson(xs, ys) == pytest.approx(pearson_oracle(xs, ys), abs=1e-12)

    def test_affine_invariance_and_sign_flip(self):
        xs = [1.0, 4.0, 2.0, 8.0, 5.0]
        ys = [3.0, 1.0, 4.0, 1.0, 5.0]
        base = pearson(xs, ys)
        assert pearson([3 * x + 7 for x in xs], ys) == pytest.approx(base)
        assert pearson(xs, [0.5 * y - 2 for y in ys]) == pytest.approx(base)
        assert pearson([-x for x in xs], ys) == pytest.approx(-base)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])


class TestLinearFit:
    def test_perfect_line(self):
        xs = [0.0, 1.0, 2.0, 3.0]
        fit = linear_fit(xs, [5 - 2 * x for x in xs])
        assert fit.slope == pytest.approx(-2.0)
        assert fit.intercept == pytest.approx(5.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_r_squared_consistent_with_pearson(self):
        records = octane_table1()
        xs = [float(neighbourhood_zagreb(rec.structure)) for rec in records]
        ys = [rec.acentric_factor for rec in records]
        fit = linear_fit(xs, ys)
        assert abs(fit.r_squared - pearson(xs, ys) ** 2) < 1e-12

    def test_least_squares_is_minimal(self):
        records = octane_table1()
        xs = [float(neighbourhood_zagreb(rec.structure)) for rec in records]
        ys = [rec.entropy for rec in records]
        fit = linear_fit(xs, ys)

        def rss(slope, intercept):
            return sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))

        best = rss(fit.slope, fit.intercept)
        for ds in (-1e-6, 1e-6):
            assert rss(fit.slope + ds, fit.intercept) >= best
            assert rss(fit.slope, fit.intercept + ds) >= best


class TestOctaneRegression:
    def test_acentric(self):
        fit = octane_regression("acentric")
        assert fit.n == 17
        # reproduces the reference coefficient well inside its tolerance
        assert fit.r == pytest.approx(-0.99456, abs=0.005)
        assert fit.r_squared == pytest.approx(0.98915, abs=0.01)

    def test_entropy_computed_honestly(self):
        # value computed from the 17 property-carrying rows; the printed
        # coefficient (-0.95261) is an 18-isomer fit that also needs the
        # table-omitted isomer's property values, which acceptance
        # criterion 2 supplies and checks
        fit = octane_regression("entropy")
        assert fit.n == 17
        assert fit.r == pytest.approx(-0.96164, abs=0.0005)

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            octane_regression("boiling-point")

    def test_pairs_csv(self):
        lines = octane_pairs_csv("acentric").splitlines()
        assert lines[0] == "MN,acentric"
        assert len(lines) == 18
        assert lines[-1] == "90,0.397898"
        for name, digest in (
            ("acentric", "6491b78949fc72ecf7061e191894065a2c045bf3ab05dd00d93eb28064b4db85"),
            ("entropy", "97e008c2cc6f8f1d7bd31e49df833d58fa7192d4f9fffcc7bfa2327b2eaff3cb"),
        ):
            text = octane_pairs_csv(name)
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestRenderRatio:
    @pytest.mark.parametrize(
        "fraction,expected",
        [
            (Fraction(18, 7), "2.571"),
            (Fraction(18, 14), "1.286"),
            (Fraction(18, 17), "1.059"),
            (Fraction(1), "1.000"),
            (Fraction(5, 16), "0.313"),  # half rounds away from zero
            (Fraction(1, 8), "0.125"),
        ],
    )
    def test_rendering(self, fraction, expected):
        assert render_ratio(fraction) == expected


class TestMeanIsomerDegeneracy:
    def test_single_graph(self):
        report = mean_isomer_degeneracy("M1", [path_graph(4)])
        assert report.d == 1

    def test_all_distinct(self):
        graphs = [path_graph(n) for n in range(2, 7)]
        report = mean_isomer_degeneracy("MN", graphs)
        assert report.t == 5 and report.d == 1

    def test_one_duplicate_value(self):
        graphs = [path_graph(n) for n in range(2, 7)] + [path_graph(6)]
        report = mean_isomer_degeneracy("MN", graphs)
        assert report.d == Fraction(6, 5)

    def test_octane_mn_separates_everything(self):
        report = mean_isomer_degeneracy(
            "MN", [r.structure for r in _all_octanes()]
        )
        assert (report.n, report.t, report.d_rendered) == (18, 18, "1.000")

    def test_octane_m1(self):
        report = mean_isomer_degeneracy(
            "M1", [r.structure for r in _all_octanes()]
        )
        assert (report.t, report.d_rendered) == (6, "3.000")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_isomer_degeneracy("M1", [])


def _all_octanes():
    from nbzagreb import octane_isomers_all

    return octane_isomers_all()


class TestDegeneracyTable:
    def test_row_order(self):
        table = degeneracy_table()
        assert tuple(row.index_id for row in table) == DEGENERACY_INDEX_ORDER

    def test_values_over_octanes(self):
        # t values verified against exhaustive enumeration of all 23
        # eight-vertex trees (18 with max degree <= 4) and subset-counting
        # oracles; M2 genuinely takes 13 distinct values (five collisions),
        # so its directly computed ratio is 18/13 = 1.385
        expected = {
            "M1": (6, "3.000"),
            "M2": (13, "1.385"),
            "F": (7, "2.571"),
            "Z": (14, "1.286"),
            "SIGMA": (15, "1.200"),
            "CHI": (16, "1.125"),
            "HARARY": (17, "1.059"),
            "MN": (18, "1.000"),
        }
        for row in degeneracy_table():
            assert (row.t, row.d_rendered) == expected[row.index_id], row.index_id
            assert row.n == 18

    def test_custom_graph_list(self):
        graphs = [cycle_graph(4), complete_graph(3), path_graph(4)]
        table = degeneracy_table(graphs)
        assert all(row.n == 3 for row in table)
