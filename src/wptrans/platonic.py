"""Spherical maps and their branched double covers.

The catalog holds the five Platonic solids plus three parameterized
families: dihedra {n,2}, hosohedra {2,n} and star maps (one vertex, one
face, e free edges).  Branched double covers over vertices follow the
Jones-Surowski results: the cover of a map of type {n,m} has type
{n,2m} with V vertices, 2F faces and 2E edges, and the surface
automorphism group is C2 x G when the vertex valency is odd.  Covers
over edge-centres only have their genus recorded, (E-2)/2; covers over
face-centres are the vertex covers of the dual solid.

The complete classification of hyperelliptic surfaces with a
transitive action on their Weierstrass points consists of the
Accola-Maclachlan surface in every genus plus seven sporadic covers
with genus multiset {1, 2, 3, 5, 5, 9, 14}.
"""

import enum

from .surfacecore import (
    RegularMapDescriptor,
    _is_int,
    _require_int,
    check,
    double_cover_genus,
    record,
    replace,
    validate_map,
)

__all__ = [
    "SphericalMap",
    "BranchLocus",
    "GroupDescriptor",
    "CoverResult",
    "catalog",
    "dihedron",
    "hosohedron",
    "star_map",
    "dual",
    "double_cover",
    "accola_maclachlan",
    "enumerate_transitive_hyperelliptic",
]

AM_PRESENTATION = "<r,s | r^4 = s^n = (rs)^2 = (r^-1 s)^2 = 1>"


class BranchLocus(enum.Enum):
    VERTICES = "vertices"
    FACE_CENTRES = "face-centres"
    EDGE_CENTRES = "edge-centres"


@record
class GroupDescriptor:
    """Symbolic group identity: a name and an order, optionally more.

    These are reporting handles, not computed groups; orders suffice
    for every arithmetic check downstream.
    """

    name: str
    order: int
    family: str = ""
    presentation: str = ""
    note: str = ""


@record
class SphericalMap:
    """A regular map on the sphere.

    type_pair is (face valency n, vertex valency m), or None for star
    maps, whose free edges (one vertex, one face, e dangling edges) do
    not fit the closed-map dart count.  rotation_order is the order of
    the orientation-preserving automorphism group of the solid.
    """

    family: str
    V: int
    E: int
    F: int
    type_pair: tuple
    rotation_order: int
    param: int = 0

    def __post_init__(self):
        if self.family == "star":
            # free-edge convention: V=1, F=1, E=param; Euler and dart
            # identities do not apply naively.
            check(self.V == 1 and self.F == 1 and self.E == self.param,
                  "star map must have V = F = 1 and E = %d" % self.param)
            return
        check(self.V - self.E + self.F == 2, "spherical map must have Euler characteristic 2")
        n, m = self.type_pair
        check(m * self.V == 2 * self.E and n * self.F == 2 * self.E, "dart identities fail")

    @property
    def label(self):
        if self.param:
            return "%s(%d)" % (self.family, self.param)
        return self.family


_SOLIDS = {
    "tetrahedron": SphericalMap("tetrahedron", 4, 6, 4, (3, 3), 12),
    "cube": SphericalMap("cube", 8, 12, 6, (4, 3), 24),
    "octahedron": SphericalMap("octahedron", 6, 12, 8, (3, 4), 24),
    "dodecahedron": SphericalMap("dodecahedron", 20, 30, 12, (5, 3), 60),
    "icosahedron": SphericalMap("icosahedron", 12, 30, 20, (3, 5), 60),
}

_DUAL = {
    "tetrahedron": "tetrahedron",
    "cube": "octahedron",
    "octahedron": "cube",
    "dodecahedron": "icosahedron",
    "icosahedron": "dodecahedron",
    "dihedron": "hosohedron",
    "hosohedron": "dihedron",
}

# C2 x (rotation group) labels for the odd-vertex-valency doubling.
_DOUBLED_GROUP = {
    "tetrahedron": "C2 x A4",
    "cube": "C2 x S4",
    "dodecahedron": "C2 x A5",
    "icosahedron": "C2 x A5",
}


def _require_param(n):
    if not _is_int(n) or n < 2:
        raise ValueError("family parameter must be an integer >= 2, got %r" % (n,))
    return n


def dihedron(n):
    """The dihedron {n,2}: n equatorial vertices, n edges, two faces."""
    _require_param(n)
    return SphericalMap("dihedron", n, n, 2, (n, 2), 2 * n, param=n)


def hosohedron(n):
    """The hosohedron {2,n}, dual of the dihedron: 2 vertices, n edges, n faces."""
    _require_param(n)
    return SphericalMap("hosohedron", 2, n, n, (2, n), 2 * n, param=n)


def star_map(e):
    """The star map S_e: one vertex, one face, e free edges, rotation group C_e."""
    _require_param(e)
    return SphericalMap("star", 1, e, 1, None, e, param=e)


def catalog(params=()):
    """The five solids, plus one dihedron/hosohedron/star triple per parameter."""
    maps = list(_SOLIDS.values())
    for n in params:
        maps.append(dihedron(n))
        maps.append(hosohedron(n))
        maps.append(star_map(n))
    return maps


def dual(base):
    """Dual map: V and F swap, the type pair reverses."""
    if base.family == "star":
        raise ValueError("star maps have no dual in this catalog")
    name = _DUAL[base.family]
    if base.param:
        return dihedron(base.param) if name == "dihedron" else hosohedron(base.param)
    return _SOLIDS[name]


@record
class CoverResult:
    """A branched double cover of a spherical map.

    Vertex covers carry full map data (cover_type, V, E, F) and a group
    descriptor.  Edge-centre covers record the genus only: cover_type,
    counts and aut are None, since no map or group is claimed for that
    locus.  transitive_on_wp says whether the surface automorphism
    group acts transitively on the Weierstrass points (None when the
    question is void, e.g. genus 0).
    """

    base: SphericalMap
    locus: BranchLocus
    genus: int
    cover_type: tuple = None
    V: int = None
    E: int = None
    F: int = None
    aut: GroupDescriptor = None
    transitive_on_wp: bool = None
    notes: tuple = ()

    def __post_init__(self):
        if self.cover_type is not None:
            n, m = self.cover_type
            report = validate_map(RegularMapDescriptor(n, m, self.V, self.E, self.F, self.genus))
            check(report.status == "valid",
                  "cover of %s fails map validation: %s" % (self.base.label, report.problems))


def _vertex_cover(base):
    notes = []
    n, m = base.type_pair
    genus = double_cover_genus(base.V)
    cover_type = (n, 2 * m)

    if base.family == "octahedron":
        # vertex valency 4 is even, so the doubling result does not apply;
        # order 48 in genus 2 pins the group down uniquely.
        aut = GroupDescriptor(
            "GL(2,3)", 48,
            note="the only automorphism group of order 48 in genus 2")
    elif base.family == "dihedron":
        aut = GroupDescriptor(
            "AM", 4 * base.param, family="accola-maclachlan",
            presentation=AM_PRESENTATION,
            note="order 8(g+1); Accola-Maclachlan surface")
        notes.append("Accola-Maclachlan surface of genus %d" % genus)
    elif base.family == "hosohedron":
        p = base.param
        name = "D_%d" % (2 * p) if p % 2 == 0 else "C2 x D_%d" % p
        aut = GroupDescriptor(name, 4 * p)
        notes.append("genus 0: below the Weierstrass threshold, no transitivity claim")
    else:
        aut = GroupDescriptor(_DOUBLED_GROUP[base.family], 2 * base.rotation_order,
                              note="C2 x G doubling, vertex valency odd (Jones-Surowski)")

    transitive = True
    if genus == 0:
        transitive = None
    elif genus == 1:
        notes.append("genus 1: Weierstrass theory degenerate, the 4 branch "
                     "points play the role of the Weierstrass points")
    if genus >= 1:
        notes.append("the %d branch points are the 2g+2 Weierstrass points, "
                     "permuted transitively by the rotation group" % base.V)
    return CoverResult(
        base, BranchLocus.VERTICES, genus,
        cover_type=cover_type, V=base.V, E=2 * base.E, F=2 * base.F,
        aut=aut, transitive_on_wp=transitive, notes=tuple(notes),
    )


# Edge-centre covers of the solids, with the coincidences that fold the
# dual pairs together (dual solids share edge-centres; the tetrahedron's
# edge midpoints are the octahedron's vertices).
_EDGE_NOTES = {
    "tetrahedron": "same surface as the octahedron vertex cover "
                   "(the 6 edge midpoints form the octahedron)",
    "cube": "second genus-5 surface, distinct from the icosahedron vertex cover",
    "octahedron": "same surface as the cube edge-centre cover (dual solids share edge-centres)",
    "dodecahedron": "same surface as the icosahedron edge-centre cover "
                    "(dual solids share edge-centres)",
    "icosahedron": "the genus-14 member of the classification",
}


def _edge_cover(base):
    genus = double_cover_genus(base.E)
    notes = []
    transitive = None
    if base.family in _EDGE_NOTES:
        notes.append(_EDGE_NOTES[base.family])
        transitive = True
    elif base.family == "star":
        notes.append("same Riemann surface as the Accola-Maclachlan surface of this "
                     "genus; the lifted map group has order 2e (D_e for even e; the "
                     "odd-e form C2 x C_e never arises, an odd branch count admits "
                     "no double cover)")
        transitive = True
    else:
        notes.append("no map or group data recorded for edge-centre covers of this family")
    return CoverResult(base, BranchLocus.EDGE_CENTRES, genus,
                       transitive_on_wp=transitive, notes=tuple(notes))


def double_cover(base, locus):
    """Branched double cover of a spherical map over the chosen locus.

    Vertices: full map and group data.  Edge-centres: genus only.
    Face-centres: delegates to the dual solid's vertex cover (the same
    set of surfaces arises).  Star maps only admit edge-centre
    branching here.
    """
    if base.family == "star" and locus is not BranchLocus.EDGE_CENTRES:
        raise ValueError("star maps are only covered over their edge-centres")
    if locus is BranchLocus.VERTICES:
        return _vertex_cover(base)
    if locus is BranchLocus.EDGE_CENTRES:
        return _edge_cover(base)
    if locus is BranchLocus.FACE_CENTRES:
        result = _vertex_cover(dual(base))
        return replace(result, locus=BranchLocus.FACE_CENTRES, notes=result.notes + (
            "face-centre branching of %s realized as the vertex cover of its dual %s"
            % (base.label, result.base.label),))
    raise ValueError("unknown branch locus %r" % (locus,))


def accola_maclachlan(g):
    """The Accola-Maclachlan surface of genus g >= 1.

    The vertex cover of the dihedron with n = 2g+2: map type {n,4},
    automorphism group of order 8(g+1) = 4n with the two-generator
    presentation above.  It realizes the minimum of the maximal
    automorphism group order M(g) >= 8(g+1).
    """
    _require_int("genus", g)
    if g < 1:
        raise ValueError("Accola-Maclachlan surfaces need genus >= 1")
    return _vertex_cover(dihedron(2 * g + 2))


_SPORADIC = (
    ("tetrahedron", BranchLocus.VERTICES),
    ("octahedron", BranchLocus.VERTICES),
    ("cube", BranchLocus.VERTICES),
    ("icosahedron", BranchLocus.VERTICES),
    ("cube", BranchLocus.EDGE_CENTRES),
    ("dodecahedron", BranchLocus.VERTICES),
    ("icosahedron", BranchLocus.EDGE_CENTRES),
)


def enumerate_transitive_hyperelliptic(g_max):
    """Every hyperelliptic surface with a transitive action, genus <= g_max.

    One Accola-Maclachlan surface per genus 1..g_max, then the sporadic
    covers of the solids (genus multiset {1,2,3,5,5,9,14} when g_max is
    at least 14; two distinct surfaces occur in genus 5).  Star-map and
    dihedron covers are not listed separately: they reproduce the
    Accola-Maclachlan surfaces.  Each surface is unique for its data, a
    cover of a solid branched over vertices or edge-centres.
    """
    _require_int("genus", g_max)
    if g_max < 1:
        raise ValueError("g_max must be >= 1")
    results = [accola_maclachlan(g) for g in range(1, g_max + 1)]
    for family, locus in _SPORADIC:
        cover = double_cover(_SOLIDS[family], locus)
        if cover.genus <= g_max:
            results.append(cover)
    return results
