"""Kato's weight bounds for bi-elliptic surfaces and the divisibility
argument that rules out transitive actions on Weierstrass points for
every genus g > 11 except g = 15.

The argument is a pure contradiction scheme: a transitive action makes
every Weierstrass point carry the same weight w, Kato's bi-elliptic
criterion pins w to one of two candidate values, and then w must divide
the total weight g^3 - g.  For g >= 12 the division fails except at
g = 15, where (g^3-g)/w = 42 = 2g + 10 + nu(g) with nu(15) = 2.
Nothing here claims a surface attains the candidate weights; only the
refutation is mechanized.
"""

from fractions import Fraction

from .orbitweights import TransitivityStatus, TransitivityVerdict
from .surfacecore import _require_int, check, record, total_weight

__all__ = [
    "kato_max_weight",
    "WeightWindow",
    "bielliptic_window",
    "nu",
    "garcia_transitivity_test",
    "scan_nontransitive",
    "two_hyperelliptic",
]

# genera where the cubic-system bound g(g-1)/3 is the sharp maximum
_KATO_LISTED = frozenset((3, 4, 6, 7, 9, 10))


def kato_max_weight(g):
    """Kato's maximal Weierstrass weight on a non-hyperelliptic surface.

    g(g-1)/3 for g in {3,4,6,7,9,10}, (g^2-5g+10)/2 otherwise.  The
    non-hyperelliptic hypothesis is the caller's; it is not checkable
    from g alone.
    """
    _require_int("genus", g)
    if g < 3:
        raise ValueError("Kato's bound needs genus >= 3, got %r" % (g,))
    if g in _KATO_LISTED:
        check(g * (g - 1) % 3 == 0, "listed genus %d: g(g-1) not divisible by 3" % g)
        w = g * (g - 1) // 3
    else:
        check((g * g - 5 * g + 10) % 2 == 0, "g^2 - 5g + 10 odd at g = %d" % g)
        w = (g * g - 5 * g + 10) // 2
    # stays below the hyperelliptic extreme g(g-1)/2
    check(w < g * (g - 1) // 2, "bound exceeds the hyperelliptic weight")
    return w


@record
class WeightWindow:
    """Kato's bi-elliptic criterion window for the weight of a witness point.

    A genus-g surface (g >= 11) is bi-elliptic iff some point has
    weight in [low, high_exclusive); the weight then takes one of the
    two candidate values.
    """

    genus: int
    low: int
    high_exclusive: int
    candidates: tuple

    def __post_init__(self):
        check(self.low < self.high_exclusive, "empty window")
        for w in self.candidates:
            check(self.low <= w < self.high_exclusive, "candidate outside window")


def bielliptic_window(g):
    """Weight window [(g^2-5g+6)/2, (g^2-g)/2) with its two candidate weights.

    Kato's theorem hypothesis needs g >= 11.  Both candidates are
    integers for every g: g^2-5g = g(g-5) is always even.
    """
    _require_int("genus", g)
    if g < 11:
        raise ValueError("below theorem hypothesis: bi-elliptic window needs g >= 11, got %r"
                         % (g,))
    check((g * g - 5 * g) % 2 == 0, "g^2 - 5g odd at g = %d" % g)
    low = (g * g - 5 * g + 6) // 2
    high = (g * g - g) // 2
    return WeightWindow(g, low, high, (low, (g * g - 5 * g + 10) // 2))


def nu(g):
    """nu(g) = (28g - 100)/(g^2 - 5g + 10), exact.

    Strictly decreasing for g >= 12, and nu(11) < 3; integrality of
    nu(g) is what a transitive bi-elliptic action would force, via
    |W| = 2g + 10 + nu(g).
    """
    _require_int("genus", g)
    return Fraction(28 * g - 100, g * g - 5 * g + 10)


def garcia_transitivity_test(g):
    """Refutation-or-abstention verdict for genus g >= 11.

    If an automorphism group acted transitively on the Weierstrass
    points of a bi-elliptic genus-g surface, every point would carry
    the same weight w, w would be one of Kato's two candidates, and
    w would divide g^3 - g.  When both divisions fail the action is
    NotTransitive; when one succeeds (only g = 15) the test abstains.
    """
    if g < 11:
        raise ValueError("the bi-elliptic argument needs g >= 11, got %r" % (g,))
    window = bielliptic_window(g)
    total = total_weight(g)
    surviving = [w for w in window.candidates if w > 0 and total % w == 0]
    kato_cite = ("Kato: a bi-elliptic surface of genus >= 11 has a point of weight "
                 "%d or %d" % window.candidates)
    garcia_cite = ("Garcia: under a transitive action all Weierstrass points share "
                   "one weight w, so w must divide g^3 - g = %d" % total)
    if not surviving:
        return TransitivityVerdict(
            TransitivityStatus.NOT_TRANSITIVE, (2, total), (
                kato_cite,
                garcia_cite,
                "neither candidate divides: %d mod %d = %d, %d mod %d = %d"
                % (total, window.candidates[0], total % window.candidates[0],
                   total, window.candidates[1], total % window.candidates[1]),
                "orbit upper bound is the trivial Weierstrass-count cap g^3 - g",
            ))
    reasons = [kato_cite, garcia_cite]
    for w in surviving:
        count = total // w
        reasons.append("candidate weight %d divides g^3 - g: |W| = %d" % (w, count))
        if w == window.candidates[1]:
            value = nu(g)
            check(2 * g + 10 + value == Fraction(total, w), "|W| identity broke")
            reasons.append("|W| = 2g + 10 + nu(g) with nu(%d) = %s" % (g, value))
    reasons.append("divisibility alone cannot refute transitivity here")
    return TransitivityVerdict(
        TransitivityStatus.UNDECIDED, (1, total), tuple(reasons))


# g^2 - 41g + 66 > 0 from here on: the certificate in scan_nontransitive
_CERTIFIED_FROM = 40


def scan_nontransitive(g_from, g_to):
    """Genera in [g_from, g_to] where the divisibility refutation fails.

    Only g = 15 survives, in any range, and the cost does not grow with
    the range.  With w1, w2 Kato's two candidate weights,

        g^3 - g = (2g + 10) w1 + (18g - 30)
        g^3 - g = (2g + 10) w2 + (14g - 50)

    Twice the gaps w1 - (18g - 30) and w2 - (14g - 50) are
    g^2 - 41g + 66 = (g - 40)(g - 1) + 26 and that plus 8g + 44, so for
    g >= 40 each remainder lies strictly between 0 and its w and
    neither candidate divides g^3 - g.  Only the genera below 40 are
    checked one by one.
    """
    _require_int("genus", g_from)
    _require_int("genus", g_to)
    if not 11 <= g_from <= g_to:
        raise ValueError("need 11 <= g_from <= g_to, got (%r, %r)" % (g_from, g_to))
    survivors = []
    for g in range(g_from, min(g_to, _CERTIFIED_FROM - 1) + 1):
        total = total_weight(g)
        if any(total % w == 0 for w in bielliptic_window(g).candidates):
            survivors.append(g)
    return survivors


def two_hyperelliptic(g):
    """Placeholder for the 2-hyperelliptic variant of the argument.

    The source material asserts a parallel result for surfaces that
    doubly cover a genus-2 surface but records no weight formulas, so
    there is nothing faithful to mechanize.
    """
    raise NotImplementedError(
        "not implemented: no weight formulas are recorded for the 2-hyperelliptic case")
