"""Orbit sizes, the weight equation, and transitivity classification.

For a group G acting on a surface through a regular map, the candidate
orbits of Weierstrass points are the geometric-point orbits (stabilizer
orders given by the map periods) plus one free orbit.  Writing sigma_j
for the orbit sizes and w_j for the unknown per-point weights in each
orbit, the total-weight identity becomes the linear equation

    sum_j sigma_j * w_j = g^3 - g

over nonnegative integers.  (Older accounts sometimes write sigma for
the unknowns as well; here coefficients are always the orbit sizes and
the unknowns are always the weights.)  Published solution lists for
this equation say "positive integers" but contain zeros; the solver
enumerates nonnegative vectors, which is what the data means.

Counts and verdicts take time independent of the target.  A count is a
quasi-polynomial in the target (Beck & Robins), cached per coefficient
tuple reduced by its gcd; for a triangle action that tuple depends only
on the periods, so every genus of a signature shares them.  Below the
quasi-polynomial's range the count walks the prefixes a layer at a time
with equal remainders merged, at a cost polynomial in the equation's
width; see _layers, _count and _walk_counts.  A support is decided by a
certificate, Brauer's bound on the Frobenius number, and counted only
where the bound cannot decide it; see _brauer_bound and
WeightEquationSolutionSet.supports.  Each support's sum, gcd and bound
depend only on the gcd-reduced coefficients, so they are tabled once per
reduced tuple, like the count's differences, and the genera of a
triangle signature share one table; see _certificates.  A listing reads
the same layers, keeps the remainders that complete, and walks only the
prefixes through them, within a budget of remainder steps charged per
layer it scans; see _solutions.

This module also carries the necessary-condition arithmetic
w = |G_p| (g^3 - g) / |G| and the simple-point elimination chain.
"""

import enum
import functools
import itertools
import math
import operator

from .surfacecore import (
    InvariantError,
    _check_genus,
    _is_int,
    _require_int,
    check,
    record,
    total_weight,
)

__all__ = [
    "OrbitProfile",
    "WeightEquationSolutionSet",
    "TransitivityStatus",
    "TransitivityVerdict",
    "orbit_profile",
    "solve_weight_equation",
    "classify",
    "necessary_weight",
    "hurwitz_divisibility",
    "simple_point_analysis",
    "SimplePointOutcome",
    "DEFAULT_MAX_GROUP_ORDER",
    "LISTING_STEP_CAP",
    "LISTING_SOLUTION_CAP",
]


class TransitivityStatus(enum.Enum):
    TRANSITIVE = "Transitive"
    NOT_TRANSITIVE = "NotTransitive"
    UNDECIDED = "Undecided"


@record
class TransitivityVerdict:
    """Classification result with the facts that justify it.

    orbit_count_range is the (min, max) number of Weierstrass point
    orbits consistent with the evidence.  reasons are human-readable
    strings, each naming the theorem it leans on.  guaranteed_orbits
    lists 0-based coordinate indices that are nonzero in every
    surviving solution, i.e. orbits certain to consist of Weierstrass
    points.
    """

    status: TransitivityStatus
    orbit_count_range: tuple
    reasons: tuple
    guaranteed_orbits: tuple = ()

    def __post_init__(self):
        lo, hi = self.orbit_count_range
        check(lo <= hi, "empty orbit count range")
        if self.status is TransitivityStatus.TRANSITIVE:
            check(self.orbit_count_range == (1, 1), "transitive means exactly one orbit")


@record
class OrbitProfile:
    """Orbit sizes |G|/stabilizer for the geometric points, plus the free orbit.

    stabilizer_orders is sorted descending and always ends with 1 (the
    free orbit), mirroring the usual presentation: the smallest orbit
    first, the free orbit last.
    """

    group_order: int
    stabilizer_orders: tuple
    orbit_sizes: tuple

    def __post_init__(self):
        check(self.stabilizer_orders[-1] == 1, "free orbit must be last")
        check(all(self.group_order % size == 0 for size in self.orbit_sizes),
              "orbit size must divide the group order")


def _integers(*values):
    return all(map(_is_int, values))


def orbit_profile(group_order, periods):
    """Profile for a map action: one orbit per period plus the free orbit.

    For the Klein action of order 168 with periods (2,3,7) the sizes
    are (24, 56, 84, 168): 168/7 vertices-or-faces first, the free
    orbit of size 168 last.
    """
    periods = tuple(periods)
    if not _integers(group_order, *periods):
        raise ValueError("group order and periods must be integers, got %r and %r"
                         % (group_order, periods))
    if group_order < 1:
        raise ValueError("group order must be positive")
    stabs = sorted(periods, reverse=True)
    for m in stabs:
        if m < 2 or group_order % m != 0:
            raise ValueError("period %r does not divide the group order %d" % (m, group_order))
    stabs.append(1)
    sizes = tuple(group_order // m for m in stabs)
    return OrbitProfile(group_order, tuple(stabs), sizes)


@record
class WeightEquationSolutionSet:
    """The nonnegative solutions of sum(c_j w_j) = target, listed on first read.

    count and supports are decided without listing anything.
    solutions is listed, lex sorted, the first time it is read, and
    checked then: every solution against the equation, the order, and
    the length against count.  Reading it raises ValueError where the
    listing would pass LISTING_STEP_CAP or LISTING_SOLUTION_CAP.
    """

    coefficients: tuple
    target: int

    def __post_init__(self):
        if not _integers(*self.coefficients, self.target):
            raise ValueError("coefficients and target must be integers, got %r and %r"
                             % (self.coefficients, self.target))
        if not self.coefficients or any(c < 1 for c in self.coefficients):
            raise ValueError("coefficients must be positive integers")
        if self.target < 0:
            raise ValueError("target must be nonnegative")

    @functools.cached_property
    def count(self):
        return _count(self.coefficients, self.target)

    @functools.cached_property
    def supports(self):
        """Every feasible support, by size and then lex: each sorted index
        tuple S for which some solution is nonzero exactly on S.

        Divide by g = gcd(c): no support is feasible unless g divides the
        target, and then the equation in c/g with target t = target/g has
        the same supports.  w_j = u_j + 1 on S turns its solutions into the
        nonnegative solutions u of sum_S c_j u_j = rest, rest = t -
        sum_S c_j.  With d = gcd(c_S) there is one exactly when rest >= 0,
        d divides rest, and rest/d is a nonnegative combination of the
        c_S/d: certainly so when rest/d is above Brauer's bound for c_S/d
        (see _brauer_bound), and otherwise when _count finds a solution.
        Each support's sum, d and bound depend on c/g alone and are read
        from _certificates, so a support costs a subtraction, a modulo and
        a comparison unless it falls back to a count.  The empty support
        is feasible when the target is 0.  Decided once per set:
        classifications of one set under different masks share them.
        """
        coeffs, target = self.coefficients, self.target
        g = math.gcd(*coeffs)
        if target % g:
            return ()
        reduced, t = tuple(c // g for c in coeffs), target // g
        feasible = [()] if t == 0 else []
        for s, total, d, bound in _certificates(reduced):
            rest = t - total
            # a multiple of d above bound is >= 0 (see _certificates)
            if rest % d == 0 and (rest > bound
                                  or rest >= 0 and _count([reduced[j] for j in s], rest)):
                feasible.append(s)
        return tuple(feasible)

    @functools.cached_property
    def solutions(self):
        cap = LISTING_SOLUTION_CAP
        solutions = tuple(itertools.islice(_solutions(self.coefficients, self.target), cap + 1))
        if len(solutions) > cap:
            raise ValueError("there are more than %d solutions to list" % cap)
        # once per solution: the message is formatted only on failure
        coeffs, target, mul = self.coefficients, self.target, operator.mul
        for v in solutions:
            if sum(map(mul, coeffs, v)) != target:
                raise InvariantError("solution %r fails its own equation" % (v,))
        check(list(solutions) == sorted(solutions), "solutions must be lex sorted")
        check(len(solutions) == self.count, "listing and count disagree: %d listed, %d counted"
              % (len(solutions), self.count))
        return solutions


LISTING_STEP_CAP = 500_000
"""The most remainder steps a listing may take in all (see _solutions).

A listing raises ValueError before the layer scan that would pass it;
counts and verdicts charge nothing, and list nothing.
"""

LISTING_SOLUTION_CAP = 100_000
"""The most solutions a listing may hold, at any width.

A listing raises ValueError as soon as it draws one more, before any
count.  An equation of width <= 3 holds no remainder layer (see
_solutions), so this is its only bound.
"""


def _last_pair(a, b):
    """The w of every solution of a w + b w' = r, as a range, for each r.

    a w + b w' = r has a solution only if d = gcd(a, b) divides r, and
    then w runs over the single residue class w = (r/d) (a/d)^-1 mod b/d,
    from its least member up to r/a in steps of b/d, with w' = (r - a w)/b
    exact.  So every w in the range gives a solution, in increasing w,
    and the range's length counts them.
    """
    d = math.gcd(a, b)
    step = b // d
    inverse = pow(a // d, -1, step)  # 0 when step == 1
    empty = range(0)

    def weights(r):
        return empty if r % d else range(r // d * inverse % step, r // a + 1, step)

    return weights


def _short(coeffs, target):
    """The solutions of an equation with no pair: the empty sum, or one division."""
    if not coeffs:
        return [()] if target == 0 else []
    w, r = divmod(target, coeffs[0])
    return [] if r else [(w,)]


def _layers(coeffs, target, charge=None):
    """The remainders left after each coordinate, with equal ones merged.

    For each coordinate c of coeffs in turn, yields the layer that takes
    every remainder r of the one before (at first, the target alone) to
    r, r - c, r - 2c, ..., down to 0.  Each entry maps a remainder to the
    number of prefixes that leave it, so a layer holds at most target + 1
    entries whatever the width.  With a charge, charge(layer, c) is called
    before each layer is scanned, and may raise to stop the walk there.
    """
    layer = {target: 1}
    for c in coeffs:
        if charge is not None:
            charge(layer, c)
        below = {}
        for r, m in layer.items():
            for rest in range(r, -1, -c):
                below[rest] = below.get(rest, 0) + m
        layer = below
        yield layer


def _solutions(coeffs, target):
    """Every nonnegative solution, lex sorted, walked only through
    prefixes that complete.

    The outer coordinates are all but the last pair.  Their layers are
    built in the given order (see _layers), except the last outer one's:
    whether a remainder completes from there is the last pair's closed
    form (see _last_pair), so an equation of width <= 3 holds no layer.
    A backward pass keeps, in each layer, only the remainders that the
    later coordinates complete.  The forward walk then steps from kept
    remainder to kept remainder, each weight increasing, so the
    solutions come out lex sorted with no sort.  Each scan of a layer with
    the next coordinate c, to build a layer or to keep from one, is
    charged r // c + 1 steps per remainder r before it starts, and raises
    ValueError if the total would pass LISTING_STEP_CAP.  A step adds at
    most one remainder, so no more remainders than that are held.
    """
    if len(coeffs) < 2:
        yield from _short(coeffs, target)
        return
    *outer, a, b = coeffs
    weights = _last_pair(a, b)
    if not outer:
        for v in weights(target):
            yield (v, (target - a * v) // b)
        return
    spent = 0

    def charge(layer, c):
        nonlocal spent
        spent += sum(r // c for r in layer) + len(layer)
        if spent > LISTING_STEP_CAP:
            raise ValueError("listing the solutions would take more than %d remainder steps"
                             % LISTING_STEP_CAP)

    layers = list(_layers(outer[:-1], target, charge))
    # kept[i]: the remainders left after outer coordinate i that complete
    kept, completes = [], weights
    for c, layer in zip(reversed(outer[1:]), reversed(layers)):
        charge(layer, c)
        kept.append({r for r in layer if any(map(completes, range(r, -1, -c)))})
        completes = kept[-1].__contains__
    del layers  # the walk reads only the kept remainders
    kept.reverse()
    last = len(outer) - 1

    def walk(i, prefix, r):
        c = outer[i]
        if i == last:
            for w, rest in enumerate(range(r, -1, -c)):
                for v in weights(rest):
                    yield prefix + (w, v, (rest - a * v) // b)
            return
        live = kept[i]
        for w, rest in enumerate(range(r, -1, -c)):
            if rest in live:
                yield from walk(i + 1, prefix + (w,), rest)

    yield from walk(0, (), target)


def _walk_counts(coeffs, target, shifts):
    """Numbers of nonnegative solutions at target - s for each s in shifts,
    read from the last layer of one prefix walk at target.

    coeffs is a descending tuple of width >= 2, as _count and
    _differences pass it: the largest coefficients go outermost, where
    they have the fewest steps.  The layer m left before the last pair
    (see _layers) maps each remainder r to its number of prefixes.  The
    prefixes from target - s are those that leave some r >= s from
    target, and they leave r - s, so
    count(target - s) = sum over r >= s of m[r] * len(last_pair(r - s)).
    The walk's length grows with the target; _count calls it only below a
    bound set by the coefficients.
    """
    layer = {target: 1}
    for layer in _layers(coeffs[:-2], target):
        pass
    weights = _last_pair(*coeffs[-2:])
    return [sum(m * len(weights(r - s)) for r, m in layer.items() if r >= s) for s in shifts]


def _count(coeffs, target):
    """Number of nonnegative solutions, in time independent of the target.

    Divide by d = gcd(c): there are none unless d divides the target,
    and then the reduced equation has as many.  Its count (Sylvester's
    denumerant) is a quasi-polynomial of degree k - 1 in the target t,
    k = len(c), whose period divides L = lcm(c) (Beck & Robins,
    Computing the Continuous Discretely, ch. 1): on each class
    t = rho + qL it is a polynomial in q.  Below t = kL the prefix walk
    counts directly, at a cost set by c alone and polynomial in k (see
    _walk_counts).  From there on the count is
    Newton's forward-difference series sum_j D^j comb(q, j) through the
    counts at q = 0 .. k-1 of the same class, all read from one walk
    (see _differences), in integers only.
    """
    if len(coeffs) < 2:
        return len(_short(coeffs, target))
    d = math.gcd(*coeffs)
    if target % d:
        return 0
    reduced = tuple(sorted((c // d for c in coeffs), reverse=True))
    t = target // d
    period = math.lcm(*reduced)
    if t < len(reduced) * period:
        return _walk_counts(reduced, t, (0,))[0]
    q, rho = divmod(t, period)
    return sum(delta * math.comb(q, j) for j, delta in enumerate(_differences(reduced, rho)))


@functools.lru_cache(maxsize=1024)
def _differences(reduced, rho):
    """Forward differences D^0 .. D^(k-1) at q = 0 of the counts at rho + qL.

    reduced is a descending coefficient tuple with gcd 1, L its lcm and
    k its length.  The k counts at q < k are read from one walk at
    rho + (k-1)L, at the shifts (k-1-q)L (see _walk_counts).
    """
    period = math.lcm(*reduced)
    top = (len(reduced) - 1) * period
    values = _walk_counts(reduced, rho + top, range(top, -1, -period))
    deltas = []
    while values:
        deltas.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return tuple(deltas)


def _brauer_bound(a):
    """Brauer's bound on the Frobenius number of a tuple a with gcd 1:
    every integer above it is a nonnegative combination of the a_i.  For
    a tuple with gcd d it is d times the bound for a/d, and every multiple
    of d above it is a combination.

    With d_i = gcd(a_1, ..., a_i) it is
    B_k = sum_{i>=2} a_i d_{i-1}/d_i - sum_i a_i (A. Brauer, On a problem
    of partitions, Amer. J. Math. 64 (1942); Ramirez Alfonsin, The
    Diophantine Frobenius Problem, 2005), exact for k = 2.  Proof, by
    induction on i, that every multiple N of d_i above B_i is a
    combination of a_1..a_i: for i = 1 the multiples of a_1 above -a_1
    are its nonnegative ones.  For i > 1, a_i/d_i is a unit mod
    d_{i-1}/d_i, so some u in [0, d_{i-1}/d_i) makes N - u a_i a
    multiple of d_{i-1}, and N - u a_i > B_i - a_i d_{i-1}/d_i + a_i =
    B_{i-1}.  Any order of a will do.
    """
    bound, d = -a[0], a[0]
    for c in a[1:]:
        e = math.gcd(d, c)
        bound += c * d // e - c
        d = e
    return bound


# the widest table the CLI can ask for (13 coefficients, 8,191 rows) holds
# ~2.0 MB under tracemalloc on CPython 3.11, so 16 tables stay under ~33 MB
@functools.lru_cache(maxsize=16)
def _certificates(reduced):
    """One row (S, sum c_S, d, bound) per nonempty support S, by size and
    then lex, where c = reduced, d = gcd(c_S) and bound is Brauer's bound
    for the sorted c_S (see _brauer_bound).

    reduced is a coefficient tuple with gcd 1 in the solution set's
    order.  bound is d times the bound for c_S/d, so a rest that d
    divides is above it exactly when rest/d is above the bound for
    c_S/d.  That bound is at least -1, the largest integer that no
    nonnegative combination reaches, so such a rest is nonnegative.  For
    a triangle action reduced depends only on the periods, so every genus
    of a signature reads one table.  A row holds no copy of c_S: the rare
    count below the bound rebuilds it from S.
    """
    rows = []
    for size in range(1, len(reduced) + 1):
        for s in itertools.combinations(range(len(reduced)), size):
            sub = [reduced[j] for j in s]
            rows.append((s, sum(sub), math.gcd(*sub), _brauer_bound(sorted(sub))))
    return tuple(rows)


def solve_weight_equation(coefficients, target):
    """The nonnegative integer solutions of sum c_j w_j = target.

    Builds the solution set, which validates the equation; nothing is
    enumerated here.  The set's count is a quasi-polynomial in the target
    (see _count), and its feasible supports are decided by Brauer's bound
    or a count (see WeightEquationSolutionSet.supports).  Its solutions
    are listed on first read, lex sorted, and re-verified exactly then.
    The listing walks only prefixes that some solution completes, and
    solves the last pair instead of searching it (see _solutions); it
    raises ValueError where its layer scans would pass LISTING_STEP_CAP
    remainder steps or its solutions LISTING_SOLUTION_CAP.  An empty set
    is a valid answer.
    """
    return WeightEquationSolutionSet(tuple(coefficients), target)


def classify(sol_set, zero_indices=(), profile=None):
    """Transitivity verdict from a weight equation's solution set.

    zero_indices force coordinates to zero before classification; this
    is how external vanishing facts (for instance Streit's result that
    vertex and face-centre weights vanish on the genus-14 Hurwitz
    surfaces) are injected without hard-coding conclusions.  An empty
    set after masking means the constraints are inconsistent.

    The verdict is decided from the equation, and the set is not listed.
    A support S (a set of coordinates) is feasible when some solution is
    nonzero exactly on S; sol_set.supports decides each once per set,
    from a certificate tabled once per reduced coefficient tuple, and
    without a count where Brauer's bound decides it.  The surviving
    solutions are those whose support avoids the mask.  Supports run by
    size, so the first and last of those give the fewest and most
    orbits, and the coordinates common to all surviving solutions are
    the intersection of those supports.  A singleton support {j} carries
    the single weight target / c_j.  Only the supports that Brauer's
    bound cannot decide are counted; a mask adds the masked and full
    counts.  The mask reason's "%d of %d" are the count of the equation
    with the masked coordinates removed, which must lie between 1 and the
    full count (checked), and the full count.

    Verdicts:
      - every surviving solution concentrated on one and the same
        coordinate, hence with one weight: Transitive;
      - every surviving solution spread over >= 2 coordinates:
        NotTransitive (at least two orbits however the weights fall);
      - otherwise Undecided, with orbit_count_range spanning the
        number of nonzero coordinates over surviving solutions.

    A coordinate nonzero in every surviving solution is reported in
    guaranteed_orbits: that orbit consists of Weierstrass points in
    every consistent scenario.
    """
    coeffs, target = sol_set.coefficients, sol_set.target
    n = len(coeffs)
    supports = sol_set.supports
    if not supports:
        raise ValueError("cannot classify an empty solution set")
    mask = tuple(zero_indices)
    if not _integers(*mask):
        raise ValueError("mask indices must be integers, got %r" % (mask,))
    masked = set(mask)
    mask = tuple(sorted(masked))
    for i in mask:
        if not 0 <= i < n:
            raise ValueError("mask index %d out of range" % i)
    survivors = [s for s in supports if masked.isdisjoint(s)]
    if not survivors:
        raise ValueError("inconsistent constraints: no solutions survive the mask")

    reasons = []
    if mask:
        kept = [c for j, c in enumerate(coeffs) if j not in mask]
        surviving, count = _count(kept, target), sol_set.count
        check(0 < surviving <= count, "%d solutions survive the mask, not between 1 and "
              "the count %d" % (surviving, count))
        reasons.append(
            "mask forces w%s = 0; %d of %d solutions survive"
            % (",w".join(str(i + 1) for i in mask), surviving, count)
        )

    lo, hi = len(survivors[0]), len(survivors[-1])
    guaranteed = tuple(sorted(set(survivors[0]).intersection(*survivors[1:])))
    for j in guaranteed:
        reasons.append(
            "coordinate w%d is nonzero in every surviving solution: "
            "that orbit is certainly made of Weierstrass points" % (j + 1)
        )

    # a support of size at most 1 everywhere, inside one guaranteed
    # coordinate: the only surviving support is {j}, with one weight
    if hi == 1 and len(guaranteed) == 1:
        j = guaranteed[0]
        if profile is not None and profile.stabilizer_orders[j] == 1:
            reasons.append(
                "the single surviving orbit is the free orbit (trivial stabilizer)"
            )
        reasons.append(
            "unique solution concentrates all weight on orbit %d with weight %d: "
            "the action is transitive on the Weierstrass points" % (j + 1, target // coeffs[j])
        )
        return TransitivityVerdict(
            TransitivityStatus.TRANSITIVE, (1, 1), tuple(reasons), guaranteed
        )
    if lo >= 2:
        reasons.append(
            "every surviving solution involves at least %d orbits: not transitive" % lo
        )
        return TransitivityVerdict(
            TransitivityStatus.NOT_TRANSITIVE, (lo, hi), tuple(reasons), guaranteed
        )
    reasons.append(
        "surviving solutions allow between %d and %d orbits: undecided" % (lo, hi)
    )
    return TransitivityVerdict(
        TransitivityStatus.UNDECIDED, (lo, hi), tuple(reasons), guaranteed
    )


def necessary_weight(group_order, stabilizer_order, g):
    """Common weight w = |G_p| (g^3 - g) / |G| forced by a transitive action.

    Returns the exact integer when the division is exact, else None:
    transitivity with that stabilizer order is impossible because the
    forced weight would not be an integer.
    """
    _require_int("group order", group_order)
    _require_int("stabilizer order", stabilizer_order)
    if group_order < 1 or stabilizer_order < 1:
        raise ValueError("orders must be positive")
    _check_genus(g, 2, "necessary weight")
    numerator = stabilizer_order * total_weight(g)
    if numerator % group_order != 0:
        return None
    return numerator // group_order


def hurwitz_divisibility(g):
    """Admissible stabilizer orders for a transitive Hurwitz action.

    A Hurwitz group has order 84(g-1) and stabilizer orders among
    {2, 3, 7}; the forced weight m*(g^3-g)/(84(g-1)) = m*g(g+1)/84 is
    integral exactly when 42, 28 or 12 divides g(g+1) respectively.
    An empty set rules transitivity out; a nonempty set is merely
    inconclusive.
    """
    _check_genus(g, 2, "Hurwitz divisibility")
    return {m for m in (7, 3, 2) if (m * g * (g + 1)) % 84 == 0}


DEFAULT_MAX_GROUP_ORDER = {2: 48, 3: 168, 4: 120, 5: 192, 6: 150, 7: 504, 8: 336}
"""M(g), the largest automorphism group order in genus g, for g = 2..8.

Values for g = 6, 7, 8 are the regular-map census values (150, 504,
336); the rest are the classical ones.  Surfaces with more than
24(g-1) automorphisms carry regular maps, which is why the census is
the right place to read M(g) from.
"""


@record
class SimplePointOutcome:
    genus: int
    survives: bool
    label: str
    reason: str


def simple_point_analysis():
    """Elimination chain for surfaces whose Weierstrass points are all simple.

    If all g^3 - g Weierstrass points have weight 1 and the action is
    transitive, then g^3 - g = |W| <= |G| <= 84(g-1) (Hurwitz), so
    g <= 8; and |W| <= M(g).  Genus 2 falls below the hypothesis (every
    genus-2 surface is hyperelliptic, weights there are not simple
    under a transitive action of this kind).  The survivors, by the
    regular-map case analysis, are Klein's surface (g=3), a possible
    free S4 action in genus 3, and Bring's surface (g=4).
    """
    outcomes = []
    for g in range(2, 9):
        wcount = total_weight(g)
        if g == 2:
            outcomes.append(SimplePointOutcome(
                2, False, "excluded",
                "below the theorem hypothesis g > 2 (genus 2 is hyperelliptic)"))
            continue
        if wcount > 84 * (g - 1):
            outcomes.append(SimplePointOutcome(
                g, False, "excluded",
                "%d = g^3-g exceeds the Hurwitz bound %d" % (wcount, 84 * (g - 1))))
            continue
        if wcount > DEFAULT_MAX_GROUP_ORDER[g]:
            outcomes.append(SimplePointOutcome(
                g, False, "excluded",
                "%d = g^3-g exceeds M(%d) = %d" % (wcount, g, DEFAULT_MAX_GROUP_ORDER[g])))
            continue
        if g == 7:
            outcomes.append(SimplePointOutcome(
                7, False, "excluded",
                "the order-504 surface has Weierstrass points of weight 2 "
                "(not simple), and the next order 288 < 336 = 7^3-7"))
            continue
        if g == 5:
            outcomes.append(SimplePointOutcome(
                5, False, "excluded",
                "the unique candidate is the order-120 map of type {3,10}, "
                "whose Weierstrass points have weight 10"))
            continue
        if g == 4:
            outcomes.append(SimplePointOutcome(
                4, True, "Bring",
                "orders 120 (map type {4,5}) or 60 realize the action; the 60 "
                "edge-centres of Bring's surface are simple Weierstrass points"))
            continue
        if g == 3:
            outcomes.append(SimplePointOutcome(
                3, True, "Klein",
                "the regular-map case forces order 168 and map type {3,7}: "
                "Klein's surface"))
            outcomes.append(SimplePointOutcome(
                3, True, "S4-free-action-possible",
                "a non-map alternative: |G| = 24, G = S4, lifting to signature "
                "(0; 2,2,2,3), acting freely on the Weierstrass points; it is "
                "open whether this occurs"))
            continue
        # M(g) excludes g = 6 and 8 above; never drop a genus silently
        raise InvariantError("genus %d is decided by no step of the chain" % g)
    return outcomes
