"""Spherical maps, their double covers, and the hyperelliptic classification."""

import pytest

from wptrans.platonic import (
    AM_PRESENTATION,
    BranchLocus,
    CoverResult,
    accola_maclachlan,
    catalog,
    dihedron,
    double_cover,
    dual,
    enumerate_transitive_hyperelliptic,
    hosohedron,
    star_map,
)
from wptrans.platonic import _SOLIDS

from oracles import brute_coset_enumeration


def test_solid_data():
    tetra = _SOLIDS["tetrahedron"]
    assert (tetra.V, tetra.E, tetra.F) == (4, 6, 4)
    assert tetra.type_pair == (3, 3)
    assert tetra.rotation_order == 12
    cube = _SOLIDS["cube"]
    assert (cube.V, cube.E, cube.F) == (8, 12, 6)
    icosa = _SOLIDS["icosahedron"]
    assert (icosa.V, icosa.E, icosa.F) == (12, 30, 20)
    assert icosa.rotation_order == 60


def test_catalog_families():
    base = catalog()
    assert len(base) == 5
    extended = catalog(params=(6,))
    assert len(extended) == 8
    labels = {m.label for m in extended}
    assert {"dihedron(6)", "hosohedron(6)", "star(6)"} <= labels


def test_parametrized_maps():
    d = dihedron(6)
    assert (d.V, d.E, d.F) == (6, 6, 2)
    assert d.type_pair == (6, 2)
    h = hosohedron(6)
    assert (h.V, h.E, h.F) == (2, 6, 6)
    s = star_map(4)
    assert (s.V, s.E, s.F) == (1, 4, 1)
    assert s.type_pair is None
    for bad in (1, 0, -3, 2.5):
        with pytest.raises(ValueError):
            dihedron(bad)


def test_dual_involution():
    for name, solid in _SOLIDS.items():
        twice = dual(dual(solid))
        assert twice == solid
    assert dual(_SOLIDS["cube"]) == _SOLIDS["octahedron"]
    assert dual(dihedron(7)) == hosohedron(7)
    assert dual(hosohedron(7)) == dihedron(7)
    with pytest.raises(ValueError):
        dual(star_map(4))


def test_vertex_cover_table():
    expected = {
        "tetrahedron": (1, (3, 6), "C2 x A4", 24),
        "octahedron": (2, (3, 8), "GL(2,3)", 48),
        "cube": (3, (4, 6), "C2 x S4", 48),
        "dodecahedron": (9, (5, 6), "C2 x A5", 120),
        "icosahedron": (5, (3, 10), "C2 x A5", 120),
    }
    for name, (genus, cover_type, group, order) in expected.items():
        cover = double_cover(_SOLIDS[name], BranchLocus.VERTICES)
        assert cover.genus == genus
        assert cover.cover_type == cover_type
        assert cover.aut.name == group
        assert cover.aut.order == order
        assert cover.V == _SOLIDS[name].V
        assert cover.E == 2 * _SOLIDS[name].E
        assert cover.F == 2 * _SOLIDS[name].F
        if genus >= 1:
            assert cover.transitive_on_wp is True


def test_hosohedron_vertex_cover_is_genus_zero():
    cover = double_cover(hosohedron(6), BranchLocus.VERTICES)
    assert cover.genus == 0
    assert cover.transitive_on_wp is None
    assert cover.aut.name == "D_12"
    odd = double_cover(hosohedron(7), BranchLocus.VERTICES)
    assert odd.aut.name == "C2 x D_7"


def test_dihedron_vertex_cover_is_accola_maclachlan():
    cover = double_cover(dihedron(8), BranchLocus.VERTICES)
    assert cover.genus == 3
    assert cover.aut.name == "AM"
    assert cover.aut.order == 32
    assert cover.aut.presentation == AM_PRESENTATION
    with pytest.raises(ValueError):
        double_cover(dihedron(5), BranchLocus.VERTICES)  # odd branch count


def test_edge_covers():
    assert double_cover(_SOLIDS["tetrahedron"], BranchLocus.EDGE_CENTRES).genus == 2
    cube_e = double_cover(_SOLIDS["cube"], BranchLocus.EDGE_CENTRES)
    assert cube_e.genus == 5
    assert cube_e.cover_type is None and cube_e.aut is None
    assert cube_e.transitive_on_wp is True
    assert any("genus-5" in note for note in cube_e.notes)
    icosa_e = double_cover(_SOLIDS["icosahedron"], BranchLocus.EDGE_CENTRES)
    assert icosa_e.genus == 14
    tetra_e = double_cover(_SOLIDS["tetrahedron"], BranchLocus.EDGE_CENTRES)
    assert any("octahedron" in note for note in tetra_e.notes)


def test_dual_solids_share_edge_cover_genus():
    for a, b in (("cube", "octahedron"), ("dodecahedron", "icosahedron")):
        ga = double_cover(_SOLIDS[a], BranchLocus.EDGE_CENTRES).genus
        gb = double_cover(_SOLIDS[b], BranchLocus.EDGE_CENTRES).genus
        assert ga == gb


def test_star_edge_cover():
    cover = double_cover(star_map(8), BranchLocus.EDGE_CENTRES)
    assert cover.genus == 3
    assert any("Accola-Maclachlan" in note for note in cover.notes)
    with pytest.raises(ValueError):
        double_cover(star_map(7), BranchLocus.EDGE_CENTRES)  # odd branch count
    with pytest.raises(ValueError):
        double_cover(star_map(8), BranchLocus.VERTICES)


def test_face_centre_cover_delegates_to_dual():
    via_face = double_cover(_SOLIDS["cube"], BranchLocus.FACE_CENTRES)
    via_dual = double_cover(_SOLIDS["octahedron"], BranchLocus.VERTICES)
    assert via_face.genus == via_dual.genus == 2
    assert via_face.cover_type == via_dual.cover_type
    assert via_face.aut == via_dual.aut
    assert via_face.locus is BranchLocus.FACE_CENTRES
    assert any("dual" in note for note in via_face.notes)


def test_accola_maclachlan_series():
    for g in range(1, 21):
        cover = accola_maclachlan(g)
        assert cover.genus == g
        assert cover.cover_type == (2 * g + 2, 4)
        assert cover.aut.order == 8 * (g + 1)
        assert "r^4" in cover.aut.presentation
    with pytest.raises(ValueError):
        accola_maclachlan(0)


def test_accola_maclachlan_presentation_has_the_printed_order():
    # the presentation printed for AM, with n = 2g + 2, defines a group of
    # order 8(g + 1), the order the package records
    for g in range(1, 11):
        aut = accola_maclachlan(g).aut
        assert aut.presentation == AM_PRESENTATION
        assert brute_coset_enumeration(AM_PRESENTATION, n=2 * g + 2) == aut.order == 8 * (g + 1)


def test_enumerate_counts():
    assert len(enumerate_transitive_hyperelliptic(14)) == 14 + 7
    four = enumerate_transitive_hyperelliptic(4)
    assert len(four) == 4 + 3
    assert sorted(c.genus for c in four[4:]) == [1, 2, 3]
    one = enumerate_transitive_hyperelliptic(1)
    assert len(one) == 1 + 1
    with pytest.raises(ValueError):
        enumerate_transitive_hyperelliptic(0)


def test_cover_result_validates_map_data():
    base = _SOLIDS["octahedron"]
    with pytest.raises(AssertionError):
        CoverResult(base, BranchLocus.VERTICES, 2,
                    cover_type=(3, 8), V=6, E=23, F=16)
