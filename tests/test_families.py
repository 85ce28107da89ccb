import pytest

import nbzagreb.graphs
from nbzagreb import FAMILIES, SizeOverflowError, build_family, families


@pytest.fixture
def no_factor_builds(monkeypatch):
    """Fail any family that builds a factor before checking its order."""

    def refuse(n):
        raise AssertionError(f"a factor of order {n} was built")

    for name in ("path_graph", "cycle_graph", "complete_graph"):
        monkeypatch.setattr(families, name, refuse)


class TestOrderCheckedBeforeBuilding:
    @pytest.mark.parametrize(
        "name, args, order",
        [
            ("ladder", (5,), 12),
            ("grid", (3, 4), 12),
            ("grid", (2, 20_000_000), 40_000_000),
            ("nanotube", (3, 4), 12),
            ("nanotorus", (3, 4), 12),
            ("prism", (6,), 12),
            ("rook", (3, 4), 12),
            ("hamming", ([3, 4],), 12),
            ("fence", (6,), 12),
            ("closed_fence", (6,), 12),
        ],
    )
    def test_product_families(self, no_factor_builds, monkeypatch, name, args, order):
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 10)
        with pytest.raises(SizeOverflowError) as exc:
            getattr(families, name)(*args)
        assert str(exc.value) == f"product order {order} exceeds vertex cap 10"

    def test_empty_factor_does_not_hide_its_partner(self, no_factor_builds, monkeypatch):
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 10)
        with pytest.raises(SizeOverflowError) as exc:
            families.grid(0, 10 ** 12)
        assert str(exc.value) == f"factor order {10 ** 12} exceeds vertex cap 10"

    @pytest.mark.parametrize(
        "name, arg", [("hypercube", 4), ("hypercube", 64), ("hamming", [2] * 64)]
    )
    def test_factor_count_refused_without_the_power(
        self, no_factor_builds, monkeypatch, name, arg
    ):
        # 10 has bit length 4: four or more factors of order >= 2 are over it
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 10)
        with pytest.raises(SizeOverflowError) as exc:
            getattr(families, name)(arg)
        count = arg if name == "hypercube" else len(arg)
        assert str(exc.value) == f"product order >= 2**{count} exceeds vertex cap 10"

    @pytest.mark.parametrize("name", ["path", "cycle", "complete"])
    def test_elementary_families_take_the_cap(self, no_factor_builds, monkeypatch, name):
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 10)
        with pytest.raises(SizeOverflowError) as exc:
            build_family(name, n=11)
        assert str(exc.value) == "order 11 exceeds vertex cap 10"

    def test_at_the_cap_still_builds(self, monkeypatch):
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 10)
        assert families.grid(2, 5).order == 10
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 8)
        assert families.hypercube(3).order == 8
        monkeypatch.setattr(nbzagreb.graphs, "DEFAULT_VERTEX_CAP", 10)
        assert build_family("path", n=10).order == 10


class TestRegistry:
    def test_build_family_reads_the_registry(self):
        for name, (params, builder) in FAMILIES.items():
            values = {"m": 3, "n": 4, "sizes": [2, 3]}
            g = build_family(name, **{p: values[p] for p in params})
            assert g == builder(*(values[p] for p in params))

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ([], "hamming needs at least one factor size"),
            ([1, 2], "hamming factor sizes must be >= 2, got [1, 2]"),
        ],
    )
    def test_hamming_rejects_bad_sizes(self, sizes, message):
        with pytest.raises(ValueError) as exc:
            families.hamming(sizes)
        assert str(exc.value) == message

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="needs parameter --m"):
            build_family("grid", n=4)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            build_family("moebius", n=4)
