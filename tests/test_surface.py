from fractions import Fraction

import numpy as np
import pytest

from sigmacell.lattice import RationalUnitVector
from sigmacell.surface import (
    PolyFacet,
    PolyInterface,
    SigmaTable,
    convexity_check,
    interface_energy,
    polygonal_approximation,
)

F = Fraction
E1 = RationalUnitVector((F(1), F(0)))
E2 = RationalUnitVector((F(0), F(1)))
ME1 = RationalUnitVector((F(-1), F(0)))
ME2 = RationalUnitVector((F(0), F(-1)))


def unit_square(side=1.0):
    return PolyInterface(
        (PolyFacet(E1, side), PolyFacet(ME1, side), PolyFacet(E2, side), PolyFacet(ME2, side))
    )


def iso_table(value=1.0, err=0.0):
    return SigmaTable([((1, 0), value, err), ((0, 1), value, err), ((-1, 0), value, err), ((0, -1), value, err)])


def test_square_isotropic_energy():
    assert interface_energy(unit_square(), iso_table(2.5)) == pytest.approx(10.0)


def test_square_mixed_energy():
    table = SigmaTable([((1, 0), 1.0, 0.0), ((0, 1), 2.0, 0.0), ((-1, 0), 1.0, 0.0), ((0, -1), 2.0, 0.0)])
    assert interface_energy(unit_square(), table) == pytest.approx(6.0)


def test_regular_16gon_perimeter():
    th = np.arange(16) * 2 * np.pi / 16
    poly = polygonal_approximation(np.stack([np.cos(th), np.sin(th)], axis=1), 1e-2)
    expected = 32 * np.sin(np.pi / 16)
    assert poly.perimeter() == pytest.approx(expected, rel=1e-9)
    table = SigmaTable([(f.normal.as_float(), 1.0, 0.0) for f in poly.facets])
    energy = interface_energy(poly, table)
    assert energy == pytest.approx(expected, rel=1e-9)
    assert abs(energy - 2 * np.pi) / (2 * np.pi) < 0.007


def test_polygonal_square_is_exact():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    poly = polygonal_approximation(v, 1e-3)
    normals = {f.normal.components for f in poly.facets}
    assert normals == {(F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))}
    assert poly.perimeter() == pytest.approx(4.0, abs=1e-12)


def test_polygonal_circle_64_points():
    th = np.arange(64) * 2 * np.pi / 64
    poly = polygonal_approximation(np.stack([np.cos(th), np.sin(th)], axis=1), 1e-2)
    assert abs(poly.perimeter() - 2 * np.pi) / (2 * np.pi) <= 0.01
    for f in poly.facets:
        assert sum(c * c for c in f.normal.components) == 1  # exact rational normals
    assert np.linalg.norm(poly.resultant()) <= 1e-10 * poly.perimeter()


def test_polygonal_rejects_degenerate_input():
    with pytest.raises(ValueError):
        polygonal_approximation(np.array([[0.0, 0.0], [1.0, 1.0]]), 1e-2)


def test_polygonal_rejects_self_intersection():
    bow = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="self-intersect"):
        polygonal_approximation(bow, 1e-2)


def test_closed_interface_validation():
    with pytest.raises(ValueError, match="closure"):
        PolyInterface((PolyFacet(E1, 1.0), PolyFacet(E2, 1.0)))


def test_convexity_isotropic_clean():
    table = SigmaTable(
        [((np.cos(t), np.sin(t)), 1.7, 0.0) for t in np.arange(8) * 2 * np.pi / 8]
    )
    assert convexity_check(table) == []


def test_convexity_flags_corrupted_table():
    s = np.sqrt(0.5)
    table = SigmaTable([((1, 0), 1.0, 0.0), ((0, 1), 1.0, 0.0), ((s, s), np.sqrt(2) * 1.01, 0.0)])
    violations = convexity_check(table)
    assert len(violations) == 1
    v = violations[0]
    assert v.lhs == pytest.approx(2.02)
    assert v.rhs == pytest.approx(2.0)


def test_convexity_respects_error_bars():
    s = np.sqrt(0.5)
    table = SigmaTable([((1, 0), 1.0, 0.05), ((0, 1), 1.0, 0.05), ((s, s), np.sqrt(2) * 1.01, 0.0)])
    assert convexity_check(table) == []  # slack covers the corruption


def test_convexity_needs_three_directions():
    with pytest.raises(ValueError):
        convexity_check(SigmaTable([((1, 0), 1.0, 0.0), ((0, 1), 1.0, 0.0)]))


def test_interpolation_reach_guard():
    # table covering only a quarter circle: opposite directions are out of reach
    table = SigmaTable([((1, 0), 1.0, 0.0), ((np.cos(0.5), np.sin(0.5)), 1.0, 0.0), ((0, 1), 1.0, 0.0)])
    square = unit_square()
    with pytest.raises(KeyError):
        interface_energy(square, table)


def test_dilation_scaling():
    table = iso_table(1.3)
    sq = unit_square()
    e1 = interface_energy(sq, table)
    for lam in (0.5, 2.0, 3.7):
        assert interface_energy(sq.dilated(lam), table) == pytest.approx(lam * e1)


def test_rescaled_table_preserves_ordering():
    th = np.arange(16) * 2 * np.pi / 16
    gon = polygonal_approximation(np.stack([np.cos(th), np.sin(th)], axis=1), 1e-2)
    area_gon = 0.5 * 16 * np.sin(2 * np.pi / 16)
    square = unit_square(side=np.sqrt(area_gon))
    dirs = [(np.cos(t), np.sin(t)) for t in np.arange(16) * 2 * np.pi / 16]
    table = SigmaTable([(d, 1.0, 0.0) for d in dirs])
    tripled = SigmaTable([(d, 3.0, 0.0) for d in dirs])
    e_square, e_gon = interface_energy(square, table), interface_energy(gon, table)
    assert e_gon < e_square  # equal-area round shape beats the square isotropically
    assert interface_energy(gon, tripled) < interface_energy(square, tripled)
    assert interface_energy(square, tripled) == pytest.approx(3.0 * e_square)


def test_anisotropic_table_prefers_square():
    # axis directions cheap, diagonals expensive
    th = np.arange(16) * 2 * np.pi / 16
    gon = polygonal_approximation(np.stack([np.cos(th), np.sin(th)], axis=1), 1e-2)
    area_gon = 0.5 * 16 * np.sin(2 * np.pi / 16)
    square = unit_square(side=np.sqrt(area_gon))
    vals = [1.0 + 1.5 * np.sin(2 * t) ** 2 for t in th]
    table = SigmaTable([((np.cos(t), np.sin(t)), v, 0.0) for t, v in zip(th, vals)])
    assert interface_energy(square, table) < interface_energy(gon, table)


def test_json_round_trip():
    table = SigmaTable(
        [((1, 0), 1.5, 0.01), ((0, 1), 1.7, 0.02), ((-1, 0), 1.5, 0.01), ((0, -1), 1.7, 0.02)],
        potential_info={"kind": "striped"},
    )
    text = table.to_json()
    back = SigmaTable.from_json(text)
    assert back.to_json() == text
    assert back.sigma_at((0.0, 1.0)) == pytest.approx(1.7)
    assert '"dimension": 2' in text
    with pytest.raises(ValueError, match="dimension 2"):
        SigmaTable.from_json(text.replace('"dimension": 2', '"dimension": 3'))


@pytest.mark.parametrize(
    "entry, match",
    [
        (((1, 0), float("nan"), 0.0), "finite and nonnegative"),
        (((1, 0), float("inf"), 0.0), "finite and nonnegative"),
        (((1, 0), -1.0, 0.0), "finite and nonnegative"),
        (((1, 0), 1.0, float("nan")), "finite and nonnegative"),
        (((1, 0), 1.0, float("inf")), "finite and nonnegative"),
        (((1, 0), 1.0, -0.1), "finite and nonnegative"),
        ((1.0, 1.0, 0.0), "unit 2-vectors"),
        (((1, 0, 0), 1.0, 0.0), "unit 2-vectors"),
        (((float("nan"), 1), 1.0, 0.0), "unit 2-vectors"),
        (((0.6, 0.6), 1.0, 0.0), "unit 2-vectors"),
    ],
)
def test_table_rejects_malformed_entries(entry, match):
    with pytest.raises(ValueError, match=match):
        SigmaTable([entry, ((0, 1), 1.0, 0.0)])


@pytest.mark.parametrize(
    "text", ["[]", "5", '"table"', "{}", '{"entries": 5}', '{"entries": {"nu": [1, 0]}}', '{"entries": [5]}']
)
def test_from_json_rejects_malformed_documents(text):
    with pytest.raises(ValueError, match="JSON object whose entries are a list of objects"):
        SigmaTable.from_json(text)


def test_facet_validation():
    with pytest.raises(ValueError):
        PolyFacet(E1, 0.0)
