"""Fermat curve x^n + y^n + z^n = 0: genus, distinguished Weierstrass
points, weight accounting, and the transitivity theorem.

Two families of special points are tracked. The trivial points are the
3n points with a vanishing coordinate; Hasse computed their weight.
The Leopoldt points are the 3n^2 points (gamma, beta_1, beta_2) with
gamma^n = 2 and beta_i^n = -1 (in some coordinate order); Towse bounded
their weight, exactly for n <= 8.  The full automorphism group is
(Z_n + Z_n) x| S_3, of order 6n^2, and both families are single orbits.

Points are symbolic: a coordinate is a formal tag (1, beta, or gamma)
times a power of the primitive n-th root of unity zeta = beta^2, and
the group only shifts exponents and permutes coordinates, so it maps
each family onto itself.  Within one position of the marked coordinate
the twists shift a point's exponents by any residues, and the 3-cycle
carries the marked coordinate through all three positions: each family
is one orbit, and orbit_enumerate returns its size without walking it.
"""

from enum import Enum

from .orbitweights import TransitivityStatus, TransitivityVerdict
from .surfacecore import _require_int, check, record, total_weight

__all__ = [
    "PointClass",
    "FermatPoint",
    "automorphism_group_order",
    "fermat_genus",
    "trivial_point_weight",
    "leopoldt_weight_bound",
    "trivial_points",
    "leopoldt_points",
    "orbit_enumerate",
    "AccountingReport",
    "weight_accounting",
    "fermat_transitivity",
]


class PointClass(Enum):
    TRIVIAL = "trivial"
    LEOPOLDT = "leopoldt"


@record
class FermatPoint:
    """Projective point in one of the two distinguished families.

    TRIVIAL with position k and exponents (a,): coordinate k is 0, the
    lower-indexed of the other two coordinates is zeta^a, the higher 1.
    There are 3n such points.

    LEOPOLDT with position k and exponents (t1, t2): coordinate k is
    gamma, the other two coordinates in index order are zeta^t1 * beta
    and zeta^t2 * beta.  There are 3n^2 such points; the gamma
    coordinate's normalization to exponent 0 uses up the projective
    scaling by n-th roots of unity.
    """

    n: int
    kind: PointClass
    position: int
    exponents: tuple

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("Fermat exponent n must be >= 3, got %r" % (self.n,))
        if self.kind is PointClass.LEOPOLDT:
            _leopoldt_guard(self.n)
        if self.position not in (0, 1, 2):
            raise ValueError("position must index one of 3 coordinates")
        want = 1 if self.kind is PointClass.TRIVIAL else 2
        if len(self.exponents) != want or any(
                not 0 <= e < self.n for e in self.exponents):
            raise ValueError("need %d exponent(s) reduced mod %d" % (want, self.n))


def automorphism_group_order(n):
    """|Aut F_n| = 6 n^2 for n >= 4 (n = 3 is the exceptional elliptic case)."""
    _require_int("Fermat exponent", n)
    if n < 4:
        raise ValueError("the 6n^2 count holds for n >= 4, got %r" % (n,))
    return 6 * n * n


def fermat_genus(n):
    """(n-1)(n-2)/2.  n = 3 gives genus 1: no Weierstrass points there."""
    _require_int("Fermat exponent", n)
    if n < 3:
        raise ValueError("Fermat exponent must be >= 3, got %r" % (n,))
    return (n - 1) * (n - 2) // 2


def trivial_point_weight(n):
    """Hasse: each trivial point has weight (n-1)(n-2)(n-3)(n+4)/24."""
    _require_int("Fermat exponent", n)
    if n < 3:
        raise ValueError("Fermat exponent must be >= 3, got %r" % (n,))
    num = (n - 1) * (n - 2) * (n - 3) * (n + 4)
    check(num % 24 == 0, "Hasse weight (n-1)(n-2)(n-3)(n+4)/24 is not an "
          "integer at n = %d" % n)
    return num // 24


def leopoldt_weight_bound(n):
    """Towse: per-point weight bound for the Leopoldt points.

    (n-1)(n-3)/8 for odd n, (n-2)(n-4)/8 for even n; returns
    (bound, is_exact) with exactness exactly for n <= 8.
    """
    _leopoldt_guard(n)
    num = (n - 1) * (n - 3) if n % 2 else (n - 2) * (n - 4)
    check(num % 8 == 0, "Towse bound is not an integer at n = %d" % n)
    return num // 8, n <= 8


def trivial_points(n):
    _require_int("Fermat exponent", n)
    return [FermatPoint(n, PointClass.TRIVIAL, k, (a,))
            for k in range(3) for a in range(n)]


def _leopoldt_guard(n):
    _require_int("Fermat exponent", n)
    if n < 5:
        raise ValueError("no Leopoldt points for n < 5 (got %r)" % (n,))


def leopoldt_points(n):
    _leopoldt_guard(n)
    return [FermatPoint(n, PointClass.LEOPOLDT, k, (t1, t2))
            for k in range(3) for t1 in range(n) for t2 in range(n)]


def orbit_enumerate(n, seed):
    """Size of the orbit of seed under the full automorphism group.

    Trivial seeds need n >= 4 (genus >= 3), Leopoldt seeds n >= 5.  The
    orbit is the seed's whole family, 3n or 3n^2 points, so nothing is
    walked.  Write an automorphism as diag(zeta^u, zeta^v, 1) followed
    by a coordinate permutation, and let s = (u, v, 0):

    - The twists move a point's exponents by any residues within one
      position.  The twist adds s_i to coordinate i's exponent and
      projective scaling then shifts all three back equally.  A trivial
      point with its zero at k goes to a' = a + s_lo - s_hi, where lo
      and hi are the other two coordinates in index order (for z = 0,
      a' = a + u - v).  A Leopoldt point with gamma at k goes to
      (t1 + s_lo - s_k, t2 + s_hi - s_k), and (u, v) -> (s_lo - s_k,
      s_hi - s_k) is onto Z_n + Z_n for each k.
    - The 3-cycle carries the marked coordinate (the zero, or gamma)
      from k to k + 1 mod 3, through all three positions.
    - The action keeps each family closed: twists multiply coordinates
      by n-th roots of unity and permutations move them, so zeros stay
      zero and the n-th powers 2 and -1 of the gamma and beta
      coordinates are kept.
    - So the orbit of any seed is its whole family.
    """
    _require_int("Fermat exponent", n)
    if seed.kind is PointClass.TRIVIAL and n < 4:
        raise ValueError("trivial-point orbits need n >= 4")
    if seed.n != n:
        raise ValueError("seed is a point of F_%d, not F_%d" % (seed.n, n))
    return 3 * n if seed.kind is PointClass.TRIVIAL else 3 * n * n


@record
class AccountingReport:
    """Weight ledger: trivial + Leopoldt contributions against g^3 - g."""

    n: int
    genus: int
    total: int
    trivial_count: int
    trivial_weight: int
    trivial_subtotal: int
    leopoldt_count: int
    leopoldt_weight: int
    leopoldt_is_exact: bool
    leopoldt_subtotal: int
    residual: int
    conclusion: str

    def __post_init__(self):
        check(self.trivial_subtotal == self.trivial_count * self.trivial_weight,
              "trivial subtotal %d != %d points x weight %d"
              % (self.trivial_subtotal, self.trivial_count, self.trivial_weight))
        check(self.leopoldt_subtotal == self.leopoldt_count * self.leopoldt_weight,
              "Leopoldt subtotal %d != %d points x weight %d"
              % (self.leopoldt_subtotal, self.leopoldt_count, self.leopoldt_weight))
        check(self.residual == self.total - self.trivial_subtotal - self.leopoldt_subtotal,
              "residual %d != total %d - subtotals %d - %d"
              % (self.residual, self.total, self.trivial_subtotal, self.leopoldt_subtotal))
        check(self.residual >= 0,
              "located weight exceeds g^3 - g: the bounds are inconsistent")


def weight_accounting(n):
    """Account the total weight g^3 - g against the two known families.

    Residual 0 with exact weights locates every Weierstrass point;
    a positive residual with exact weights (6 <= n <= 8) proves further
    Weierstrass points exist.  For n >= 9 the Leopoldt weights are only
    lower bounds and the residual is only a cap on unlocated weight.
    """
    if n < 4:
        raise ValueError("accounting needs n >= 4 (F_3 has genus 1), got %r" % (n,))
    genus = fermat_genus(n)
    total = total_weight(genus)
    t_count, t_weight = 3 * n, trivial_point_weight(n)
    if n >= 5:
        l_count = 3 * n * n
        l_weight, exact = leopoldt_weight_bound(n)
    else:
        l_count, l_weight, exact = 0, 0, True
    residual = total - t_count * t_weight - l_count * l_weight
    if residual == 0 and exact:
        conclusion = "all Weierstrass points are located in the listed families"
    elif exact:
        conclusion = ("further Weierstrass points exist: exact weights leave "
                      "residual %d" % residual)
    else:
        conclusion = ("Leopoldt weights are lower bounds for n >= 9, so the "
                      "residual %d only caps the unlocated weight" % residual)
    return AccountingReport(
        n, genus, total, t_count, t_weight, t_count * t_weight,
        l_count, l_weight, exact, l_count * l_weight, residual, conclusion)


def fermat_transitivity(n):
    """Transitive exactly for n = 4.

    For n = 4 the 12 trivial points of weight 2 exhaust g^3 - g = 24
    and form one orbit.  For n >= 5 the trivial and Leopoldt families
    are disjoint orbits that both consist of Weierstrass points, so at
    least two orbits exist.
    """
    if n < 4:
        raise ValueError("F_%d has genus 1: no Weierstrass points" % n
                         if n == 3 else "need n >= 4, got %r" % (n,))
    report = weight_accounting(n)
    if n == 4:
        orbit = orbit_enumerate(4, trivial_points(4)[0])
        check(orbit == 12 and report.residual == 0,
              "F_4: trivial orbit %d (want 12), residual %d (want 0)"
              % (orbit, report.residual))
        return TransitivityVerdict(
            TransitivityStatus.TRANSITIVE, (1, 1), (
                "Hasse: the 12 trivial points each have weight 2, "
                "and 12 * 2 = 24 = g^3 - g",
                "the trivial points form a single orbit (closure size 12 = 3n)",
                "Leopoldt points exist only for n >= 5",
            ))
    reasons = [
        "the 3n = %d trivial points form one orbit with Hasse weight %d each"
        % (report.trivial_count, report.trivial_weight),
        "the 3n^2 = %d Leopoldt points form a disjoint orbit with weight %s %d each"
        % (report.leopoldt_count,
           "exactly" if report.leopoldt_is_exact else "at least",
           report.leopoldt_weight),
        "both families consist of Weierstrass points, so no single orbit exists",
        report.conclusion,
    ]
    if report.residual == 0 and report.leopoldt_is_exact:
        bounds = (2, 2)
    elif report.leopoldt_is_exact:
        # residual > 0 with exact weights proves unlocated points; each
        # extra orbit soaks up weight >= 1
        bounds = (3, 2 + report.residual)
    else:
        bounds = (2, 2 + report.residual)
    return TransitivityVerdict(
        TransitivityStatus.NOT_TRANSITIVE, bounds, tuple(reasons))
