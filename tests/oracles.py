"""Independent reference implementations used to cross-check the library.

Everything here is deliberately dumber than the code under test: plain
nested loops over bounded ranges, no pruning, no shared helpers.  If a
library routine and its oracle ever disagree, the disagreement is the
signal; neither side should be able to inherit a bug from the other.
"""

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from wptrans.fermat import FermatPoint, PointClass
from wptrans.orbitweights import (
    TransitivityStatus,
    TransitivityVerdict,
    _brauer_bound,
    _count,
)


def brute_weight_solutions(coefficients, target):
    """All nonnegative integer vectors w with sum(c_j * w_j) == target.

    Exhaustive product over range(target // c_j + 1) per coordinate,
    filtered by exact equality.  Cost is the full product of the range
    sizes; call oracle_cost first to keep instances tractable.
    """
    if target < 0:
        raise ValueError("target must be nonnegative")
    ranges = [range(target // c + 1) for c in coefficients]
    found = []
    for vec in itertools.product(*ranges):
        total = 0
        for c, w in zip(coefficients, vec):
            total += c * w
        if total == target:
            found.append(vec)
    return sorted(found)


def oracle_cost(coefficients, target):
    """Number of candidate vectors brute_weight_solutions will visit."""
    cost = 1
    for c in coefficients:
        cost *= target // c + 1
    return cost


def brute_witness(coefficients, target, support):
    """A solution nonzero exactly on support, by depth-first search, or None.

    Coordinate support[i] tries 1, 2, ... while its term fits in what
    the earlier ones left of target; coordinates outside support stay 0.
    Nothing else prunes the search, so an infeasible support costs its
    whole box of candidates.
    """
    vec = [0] * len(coefficients)

    def search(i, remaining):
        if i == len(support):
            return remaining == 0
        j = support[i]
        w = 1
        while coefficients[j] * w <= remaining:
            vec[j] = w
            if search(i + 1, remaining - coefficients[j] * w):
                return True
            w += 1
        vec[j] = 0
        return False

    return tuple(vec) if search(0, target) else None


def brute_supports(coefficients, target):
    """The library's earlier support loop, kept as written: every subset S
    by size and then lex, unreduced, with its sum, gcd and Brauer's bound
    computed afresh.  It shares _brauer_bound and _count with the library;
    brute_witness checks feasibility with neither.
    """
    n = len(coefficients)
    feasible = [()] if target == 0 else []
    for size in range(1, n + 1):
        for s in itertools.combinations(range(n), size):
            sub = [coefficients[j] for j in s]
            rest = target - sum(sub)
            if rest < 0:
                continue
            d = math.gcd(*sub)
            if rest % d == 0 and (rest // d > _brauer_bound(sorted(c // d for c in sub))
                                  or _count(sub, rest)):
                feasible.append(s)
    return tuple(feasible)


def brute_frobenius(coefficients):
    """The largest integer that is no nonnegative combination of the
    coefficients, whose gcd must be 1, or -1 when there is none.

    Marks 0, 1, 2, ... in turn, each one a combination when it is 0 or
    taking some coefficient no larger than it off lands on a marked one,
    and stops once min(coefficients) in a row are marked: adding the
    least coefficient marks every integer after them.
    """
    if math.gcd(*coefficients) != 1:
        raise ValueError("the coefficients must have gcd 1")
    least = min(coefficients)
    marked = []
    run = 0
    while run < least:
        t = len(marked)
        ok = t == 0 or any(c <= t and marked[t - c] for c in coefficients)
        marked.append(ok)
        run = run + 1 if ok else 0
    return len(marked) - least - 1


def brute_classify(sol_set, zero_indices=(), profile=None):
    """The library's earlier classify, kept as written: it filters a copy
    of the solutions, builds every survivor's support tuple, and tests a
    single orbit by comparing supports one by one.  Only the verdict
    types are shared with the library.
    """
    if not sol_set.solutions:
        raise ValueError("cannot classify an empty solution set")
    mask = tuple(sorted(set(zero_indices)))
    for i in mask:
        if not 0 <= i < len(sol_set.coefficients):
            raise ValueError("mask index %d out of range" % i)
    survivors = [v for v in sol_set.solutions if all(v[i] == 0 for i in mask)]
    if not survivors:
        raise ValueError("inconsistent constraints: no solutions survive the mask")

    reasons = []
    if mask:
        reasons.append(
            "mask forces w%s = 0; %d of %d solutions survive"
            % (",w".join(str(i + 1) for i in mask), len(survivors), len(sol_set.solutions))
        )

    supports = [tuple(j for j, w in enumerate(v) if w != 0) for v in survivors]
    counts = [len(s) for s in supports]
    guaranteed = tuple(
        j for j in range(len(sol_set.coefficients))
        if all(v[j] != 0 for v in survivors)
    )
    for j in guaranteed:
        reasons.append(
            "coordinate w%d is nonzero in every surviving solution: "
            "that orbit is certainly made of Weierstrass points" % (j + 1)
        )

    if min(counts) == 1 and max(counts) == 1 and len({s[0] for s in supports}) == 1:
        j = supports[0][0]
        weights = sorted({v[j] for v in survivors})
        if profile is not None and profile.stabilizer_orders[j] == 1:
            reasons.append(
                "the single surviving orbit is the free orbit (trivial stabilizer)"
            )
        if len(weights) == 1:
            reasons.append(
                "unique solution concentrates all weight on orbit %d with weight %d: "
                "the action is transitive on the Weierstrass points" % (j + 1, weights[0])
            )
            return TransitivityVerdict(
                TransitivityStatus.TRANSITIVE, (1, 1), tuple(reasons), guaranteed
            )
        reasons.append(
            "one orbit in every scenario but its weight is not determined "
            "(candidates %s)" % (weights,)
        )
        return TransitivityVerdict(
            TransitivityStatus.UNDECIDED, (1, 1), tuple(reasons), guaranteed
        )
    if min(counts) >= 2:
        reasons.append(
            "every surviving solution involves at least %d orbits: not transitive"
            % min(counts)
        )
        return TransitivityVerdict(
            TransitivityStatus.NOT_TRANSITIVE,
            (min(counts), max(counts)),
            tuple(reasons),
            guaranteed,
        )
    reasons.append(
        "surviving solutions allow between %d and %d orbits: undecided"
        % (min(counts), max(counts))
    )
    return TransitivityVerdict(
        TransitivityStatus.UNDECIDED, (min(counts), max(counts)), tuple(reasons), guaranteed
    )


def brute_cyclic_fixed_points(n, periods, d):
    """Macbeath's cyclic count, recomputed term by term with Fractions."""
    total = Fraction(0)
    for m in periods:
        if m % d == 0:
            total += Fraction(n, m)
    assert total.denominator == 1
    return int(total)


def brute_psl2q_fixed_points(q, periods, d):
    """Macbeath's PSL(2,q) count with all three branches evaluated eagerly.

    Each branch's divisibility test and value are computed whatever the
    others say, in exact Fractions; exactly one test must hold.  Raises
    the library's ValueError messages for an order below 2, for an
    order that no branch admits and for a non-integral count.
    """
    p, n = brute_prime_power(q)
    if d < 2:
        raise ValueError("element order must be >= 2")
    periods = tuple(periods)
    context = "PSL(2,%d), periods=%s, d=%d" % (q, periods, d)
    reciprocal_sum = sum((Fraction(1, m) for m in periods if m % d == 0), Fraction(0))
    if q % 2 == 1:
        branches = [
            ((q - 1) // 2 % d == 0, (q - 1) * reciprocal_sum),
            ((q + 1) // 2 % d == 0, (q + 1) * reciprocal_sum),
            (d == p, Fraction(math.gcd(n, 2), 2) * p ** (n - 1) * (p - 1)
             * sum(1 for m in periods if m == p)),
        ]
    else:
        branches = [
            ((q - 1) % d == 0, 2 * (q - 1) * reciprocal_sum),
            ((q + 1) % d == 0, 2 * (q + 1) * reciprocal_sum),
            (d == 2, Fraction(2 ** (n - 1) * sum(1 for m in periods if m == 2))),
        ]
    hits = [Fraction(value) for applies, value in branches if applies]
    if not hits:
        raise ValueError("order %d is not realizable in PSL(2,%d)" % (d, q))
    assert len(hits) == 1, "fixed point branches overlap for %s" % context
    if hits[0].denominator != 1:
        raise ValueError("non-integral fixed point count %s for %s; "
                         "the inputs do not describe a realizable action" % (hits[0], context))
    assert hits[0] >= 0
    return int(hits[0])


def brute_order_census_tables(codes, add, mul, neg, one):
    """Order census of PSL(2, q) by raw matrix powering over code tables.

    codes: every field element code.  add/mul: full tables indexed by
    code pairs.  neg: negation table.  one: the code of 1.  Walks every
    det-1 matrix, keeps one of each {M, -M} pair first-seen, and finds
    each order by repeated multiplication until the power is +/-I.
    Independent of the library's projective-line permutation approach.
    """
    zero = 0

    def matmul(m1, m2):
        a, b, c, d = m1
        e, f, g, h = m2
        return (
            add[mul[a][e]][mul[b][g]],
            add[mul[a][f]][mul[b][h]],
            add[mul[c][e]][mul[d][g]],
            add[mul[c][f]][mul[d][h]],
        )

    def det(m):
        a, b, c, d = m
        return add[mul[a][d]][neg[mul[b][c]]]

    identity = (one, zero, zero, one)
    neg_identity = (neg[one], zero, zero, neg[one])
    counts = {}
    seen = set()
    for m in itertools.product(codes, repeat=4):
        if det(m) != one:
            continue
        partner = tuple(neg[x] for x in m)
        if partner in seen:
            continue
        seen.add(m)
        order = 1
        power = m
        while power != identity and power != neg_identity:
            power = matmul(power, m)
            order += 1
        counts[order] = counts.get(order, 0) + 1
    return counts


def brute_field_tables(p, n, modulus):
    """(add, mul, inv, neg) of GF(p)[x] / modulus, one entry at a time.

    A code's base-p digits, lowest first, are the coefficients of a
    polynomial, constant term first; modulus is monic, little-endian,
    of length n + 1.  Each mul entry is a schoolbook product of the two
    digit tuples followed by long division by the modulus.  inv[u] is
    found by searching u's row for 1 (None where there is none, as at
    0), neg[u] by searching u's add row for 0.
    """
    q = p ** n

    def digits(code):
        return tuple(code // p ** i % p for i in range(n))

    def code(digs):
        return sum(d * p ** i for i, d in enumerate(digs))

    def times(u, v):
        prod = [0] * (2 * n - 1)
        for i in range(n):
            for j in range(n):
                prod[i + j] += u[i] * v[j]
        for k in range(2 * n - 2, n - 1, -1):
            coeff = prod[k] % p
            for j in range(n + 1):
                prod[k - n + j] -= coeff * modulus[j]
        return tuple(x % p for x in prod[:n])

    add = [[code(tuple((a + b) % p for a, b in zip(digits(x), digits(y))))
            for y in range(q)] for x in range(q)]
    mul = [[code(times(digits(x), digits(y))) for y in range(q)] for x in range(q)]
    inv = [row.index(1) if 1 in row else None for row in mul]
    neg = [row.index(0) for row in add]
    return add, mul, inv, neg


def brute_trace_tally(p, n):
    """Number of SL(2, p^n) matrices of each trace, by walking them all.

    Runs on its own field, brute_field_tables over the first irreducible
    modulus: every (a, b, c) with a != 0 fixes d = (1 + bc)/a, and a = 0
    forces bc = -1, so c = -1/b for each b != 0 and d is free.  Returns a
    list indexed by the trace's code, +-I included.
    """
    add, mul, inv, _ = brute_field_tables(p, n, brute_first_irreducible(p, n))
    q = p ** n
    tally = [0] * q
    for a in range(1, q):
        for b in range(q):
            for c in range(q):
                d = mul[add[mul[b][c]][1]][inv[a]]
                tally[add[a][d]] += 1
    for b in range(1, q):
        for d in range(q):
            tally[d] += 1  # a = 0, c = -1/b: the trace is d
    return tally


def brute_first_irreducible(p, n):
    """First monic degree-n polynomial over GF(p) with no proper factor.

    Candidates x^n + c_(n-1) x^(n-1) + ... + c_0 come in the order of
    sum c_i p^i, so the constant term varies fastest.  Each is divided
    by every monic polynomial of degree 1..n//2; the first that leaves
    a nonzero remainder every time is returned, little-endian.
    """
    def divides(den, num):
        num = list(num)
        d = len(den) - 1
        for k in range(len(num) - 1, d - 1, -1):
            coeff = num[k]
            for j in range(d + 1):
                num[k - d + j] = (num[k - d + j] - coeff * den[j]) % p
        return not any(num)

    divisors = [low + (1,) for deg in range(1, n // 2 + 1)
                for low in itertools.product(range(p), repeat=deg)]
    for m in range(p ** n):
        candidate = tuple(m // p ** i % p for i in range(n)) + (1,)
        if not any(divides(den, candidate) for den in divisors):
            return candidate
    raise AssertionError("no irreducible polynomial of degree %d over GF(%d)" % (n, p))


def brute_projective_census(p, n):
    """Order census of PSL(2, p^n), one projective-line permutation per element.

    Builds GF(p^n) on its own: elements are coefficient tuples (constant
    term first), and the modulus is the first monic degree-n polynomial
    whose quotient ring has no zero divisors, checked over every pair of
    nonzero elements.  Then walks SL(2,q): for a != 0, d = (1+bc)/a; for
    a = 0, bc = -1 forces c and leaves d free.  For odd q only one of
    each {M, -M} is kept: the one whose first nonzero entry e has a
    smaller index than -e.  Each element's order is the lcm of the cycle
    lengths of its permutation x -> (ax+b)/(cx+d) of the q+1 points of
    the projective line; a non-identity element must fix at most 2
    points, and an order-p element exactly one.
    """
    q = p ** n
    elements = list(itertools.product(range(p), repeat=n))
    zero_vec = (0,) * n

    def times(u, v, modulus):
        prod = [0] * (2 * n - 1)
        for i in range(n):
            for j in range(n):
                prod[i + j] += u[i] * v[j]
        # x^n = -(modulus[0] + modulus[1] x + ... + modulus[n-1] x^(n-1))
        for k in range(2 * n - 2, n - 1, -1):
            coeff = prod[k]
            prod[k] = 0
            for j in range(n):
                prod[k - n + j] -= coeff * modulus[j]
        return tuple(x % p for x in prod[:n])

    modulus = None
    for low in itertools.product(range(p), repeat=n):
        field_ok = True
        for u in elements:
            for v in elements:
                if u != zero_vec and v != zero_vec and times(u, v, low) == zero_vec:
                    field_ok = False
        if field_ok:
            modulus = low
            break
    assert modulus is not None

    index = {e: i for i, e in enumerate(elements)}
    add = [[index[tuple((x + y) % p for x, y in zip(u, v))] for v in elements]
           for u in elements]
    mul = [[index[times(u, v, modulus)] for v in elements] for u in elements]
    neg = [index[tuple((-x) % p for x in u)] for u in elements]
    one = index[(1,) + (0,) * (n - 1)]
    zero = index[zero_vec]
    inv = [None] * q
    for u in range(q):
        for v in range(q):
            if mul[u][v] == one:
                inv[u] = v

    infinity = q
    odd = q % 2 == 1
    counts = {}

    def visit(a, b, c, d):
        images = []
        for x in range(q):
            den = add[mul[c][x]][d]
            if den == zero:
                images.append(infinity)
            else:
                images.append(mul[add[mul[a][x]][b]][inv[den]])
        if c == zero:
            images.append(infinity)
        else:
            images.append(mul[a][inv[c]])
        order = 1
        fixed = 0
        seen = [False] * (q + 1)
        for start in range(q + 1):
            if seen[start]:
                continue
            length = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = images[x]
                length += 1
            if length == 1:
                fixed += 1
            order = order * length // math.gcd(order, length)
        if order > 1:
            assert fixed <= 2
            if order == p:
                assert fixed == 1
        counts[order] = counts.get(order, 0) + 1

    for a in range(q):
        if a == zero:
            continue
        if odd and neg[a] < a:
            continue
        for b in range(q):
            for c in range(q):
                d = mul[add[mul[b][c]][one]][inv[a]]
                visit(a, b, c, d)
    for b in range(q):
        if b == zero or (odd and neg[b] < b):
            continue
        c = neg[inv[b]]
        for d in range(q):
            visit(zero, b, c, d)
    return counts


def brute_perm_order_and_fixed(images):
    """(multiplicative order, fixed point count) of a permutation.

    Walks every cycle of images (a list, x -> images[x]) and takes the
    lcm of the cycle lengths; a cycle of length 1 is a fixed point.
    """
    size = len(images)
    seen = bytearray(size)
    order = 1
    fixed = 0
    for start in range(size):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            x = images[x]
            length += 1
        if length == 1:
            fixed += 1
        order = order * length // math.gcd(order, length)
    return order, fixed


class BruteGroup:
    """A finite group listed in full: its elements, identity and product.

    times(m1, m2) multiplies two elements; every method below only
    multiplies, so one class serves matrix and permutation groups alike.
    """

    def __init__(self, elements, times, identity):
        self.elements = sorted(elements)
        self.times = times
        self.identity = identity

    def order(self, m):
        k, power = 1, m
        while power != self.identity:
            power = self.times(power, m)
            k += 1
        return k

    def power(self, m, k):
        result = self.identity
        for _ in range(k):
            result = self.times(result, m)
        return result

    def cyclic(self, m):
        """The elements of <m>."""
        found, power = {self.identity}, m
        while power != self.identity:
            found.add(power)
            power = self.times(power, m)
        return found

    def element_of_order(self, d):
        """The first element's power of order d, scanning elements; None if none has it."""
        for m in self.elements:
            k = self.order(m)
            if k % d == 0:
                return self.power(m, k // d)
        return None

    def generated(self, generators):
        """The subgroup the generators generate, by closing under right multiplication."""
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            fresh = []
            for h in frontier:
                for g in generators:
                    k = self.times(h, g)
                    if k not in seen:
                        seen.add(k)
                        fresh.append(k)
            frontier = fresh
        return seen


class BrutePSL2(BruteGroup):
    """PSL(2, p^n) as explicit 2x2 matrices over brute_field_tables codes.

    An element is a det-1 tuple (a, b, c, d) for the matrix (a, b; c, d);
    for odd q it stands for {M, -M} and is stored as the smaller tuple.
    elements lists the group in the order SL(2,q) is walked: a != 0
    with d = (1 + bc)/a, then a = 0 with c = -1/b and d free.
    """

    def __init__(self, p, n):
        q = p ** n
        add, mul, inv, neg = brute_field_tables(p, n, brute_first_irreducible(p, n))
        self.p, self.q = p, q
        self._add, self._mul, self._neg = add, mul, neg
        found = set()
        for a in range(1, q):
            for b in range(q):
                for c in range(q):
                    found.add(self.canonical((a, b, c, mul[add[mul[b][c]][1]][inv[a]])))
        for b in range(1, q):
            for d in range(q):
                found.add(self.canonical((0, b, neg[inv[b]], d)))
        self.elements = sorted(found)
        self.identity = self.canonical((1, 0, 0, 1))
        self._conjugates = {}

    def canonical(self, m):
        return min(m, tuple(self._neg[x] for x in m))

    def times(self, m1, m2):
        add, mul = self._add, self._mul
        a, b, c, d = m1
        e, f, g, h = m2
        return self.canonical((add[mul[a][e]][mul[b][g]], add[mul[a][f]][mul[b][h]],
                               add[mul[c][e]][mul[d][g]], add[mul[c][f]][mul[d][h]]))

    def conjugates(self, g):
        """{h^-1 g h: number of h giving it}, over every h in the group."""
        if g not in self._conjugates:
            neg = self._neg
            tally = {}
            for h in self.elements:
                a, b, c, d = h
                k = self.times(self.times((d, neg[b], neg[c], a), g), h)
                tally[k] = tally.get(k, 0) + 1
            self._conjugates[g] = tally
        return self._conjugates[g]


def brute_generating_pair(group, t=None):
    """(x, y) with x^2 = y^3 = 1 and xy of order t that generates group.

    x is the first involution of group.elements (PSL(2,q) has one class
    of involutions, so a generating pair exists only if one exists with
    this x); y runs over every element of order 3, and the first y whose
    product has order t (any order when t is None) and whose pair
    generates the whole group is returned.  None if there is none.
    """
    x = next(m for m in group.elements if group.order(m) == 2)
    size = len(group.elements)
    for y in group.elements:
        if y == group.identity or group.power(y, 3) != group.identity:
            continue
        if t is not None and group.order(group.times(x, y)) != t:
            continue
        if len(group.generated((x, y))) == size:
            return x, y
    return None


def brute_map_pair(group, k, p):
    """(x, y) of orders 2 and k, with xy of order p, that generates group.

    Such a pair makes group the rotation group of a regular map of type
    {p, k}: y turns about a vertex, xy about a face, x about an edge.
    Every involution and every element of order k are tried, in elements
    order.  The pair must generate exactly the listed elements, which
    shows the list is a group; None if no pair does.
    """
    everything = set(group.elements)
    for x in group.elements:
        if group.order(x) != 2:
            continue
        for y in group.elements:
            if group.order(y) == k and group.order(group.times(x, y)) == p \
                    and group.generated((x, y)) == everything:
                return x, y
    return None


def brute_surface_fixed_points(group, g, pair):
    """Fixed points of g on the surface of a (2,3,t) generating pair.

    The surface is the upper half plane over the kernel of the
    epimorphism sending the triangle group's elliptic generators to x, y
    and (xy)^-1.  Its points over the branch point of c in {x, y, xy}
    are the cosets h<c>, and g fixes h<c> exactly when h^-1 g h is in
    <c>: the count is the sum over c of #{h: h^-1 g h in <c>} / |<c>|.
    """
    x, y = pair
    tally = group.conjugates(g)
    total = Fraction(0)
    for c in (x, y, group.times(x, y)):
        cycle = group.cyclic(c)
        total += Fraction(sum(tally.get(k, 0) for k in cycle), len(cycle))
    assert total.denominator == 1
    return int(total)


def point_slots(point):
    """Expand a FermatPoint to three (tag, zeta_exponent) slots; the zero slot is None."""
    others = [i for i in range(3) if i != point.position]
    out = [None, None, None]
    if point.kind is PointClass.TRIVIAL:
        out[point.position] = None
        out[others[0]] = ("one", point.exponents[0])
        out[others[1]] = ("one", 0)
    else:
        out[point.position] = ("gamma", 0)
        out[others[0]] = ("beta", point.exponents[0])
        out[others[1]] = ("beta", point.exponents[1])
    return out


def _from_slots(n, slots):
    """Renormalize a slot triple back to a canonical FermatPoint.

    Projective scaling by zeta is the only scaling that preserves the
    tag semantics; it shifts every exponent equally.  Trivial points
    renormalize the higher-indexed nonzero slot to exponent 0,
    Leopoldt points the gamma slot.
    """
    zero_pos = [i for i, s in enumerate(slots) if s is None]
    if zero_pos:
        (k,) = zero_pos
        others = [i for i in range(3) if i != k]
        tags = [slots[i][0] for i in others]
        assert tags == ["one", "one"], "trivial point slots must be pure roots of unity"
        shift = slots[others[1]][1]
        a = (slots[others[0]][1] - shift) % n
        return FermatPoint(n, PointClass.TRIVIAL, k, (a,))
    gamma_pos = [i for i, s in enumerate(slots) if s[0] == "gamma"]
    assert len(gamma_pos) == 1, "exactly one gamma coordinate expected"
    (k,) = gamma_pos
    others = [i for i in range(3) if i != k]
    assert all(slots[i][0] == "beta" for i in others)
    shift = slots[k][1]
    t = tuple((slots[i][1] - shift) % n for i in others)
    return FermatPoint(n, PointClass.LEOPOLDT, k, t)


@dataclass(frozen=True)
class FermatAutomorphism:
    """Element of (Z_n + Z_n) x| S_3 acting on the Fermat curve's coordinates.

    Acts as diag(zeta^u, zeta^v, 1) followed by the coordinate
    permutation sending slot i to slot perm[i].  The third twist
    component is normalized away: global zeta-scalars act trivially on
    projective points.  This explicit action is the reference that
    fermat.orbit_enumerate's orbit-size lemma is checked against.
    """

    n: int
    twist: tuple
    perm: tuple

    def __post_init__(self):
        if sorted(self.perm) != [0, 1, 2]:
            raise ValueError("perm must be a permutation of (0,1,2)")
        if len(self.twist) != 2 or any(not 0 <= t < self.n for t in self.twist):
            raise ValueError("twist must be a pair of residues mod n")

    @classmethod
    def identity(cls, n):
        return cls(n, (0, 0), (0, 1, 2))

    def apply(self, point):
        assert point.n == self.n
        slots = point_slots(point)
        t3 = (self.twist[0], self.twist[1], 0)
        scaled = [None if s is None else (s[0], (s[1] + t3[i]) % self.n)
                  for i, s in enumerate(slots)]
        moved = [None, None, None]
        for i in range(3):
            moved[self.perm[i]] = scaled[i]
        image = _from_slots(self.n, moved)
        assert image.kind is point.kind, "the action must preserve the point class"
        return image

    def compose(self, other):
        """self after other, via the semidirect-product law.

        With phi = P_sigma D_t (t3 normalized to 0), conjugation gives
        P_sigma2 D_s P_sigma1 D_t = P_(sigma2 sigma1) D_(s o sigma1 + t),
        then the diagonal scalar is normalized away again.
        """
        assert self.n == other.n
        n = self.n
        s3 = (self.twist[0], self.twist[1], 0)
        t3 = (other.twist[0], other.twist[1], 0)
        combined = [(s3[other.perm[i]] + t3[i]) % n for i in range(3)]
        perm = tuple(self.perm[other.perm[i]] for i in range(3))
        u, v = (combined[0] - combined[2]) % n, (combined[1] - combined[2]) % n
        return FermatAutomorphism(n, (u, v), perm)


def generators(n):
    """Two independent twists, a transposition, and a 3-cycle.

    These generate the whole automorphism group: the twists span
    Z_n + Z_n and the permutations span S_3.
    """
    return (
        FermatAutomorphism(n, (1, 0), (0, 1, 2)),
        FermatAutomorphism(n, (0, 1), (0, 1, 2)),
        FermatAutomorphism(n, (0, 0), (1, 0, 2)),
        FermatAutomorphism(n, (0, 0), (1, 2, 0)),
    )


def brute_orbit_closure(seed, generators, apply_fn):
    """Closure of a point under a generator list, as a plain set walk."""
    frontier = [seed]
    seen = {seed}
    while frontier:
        point = frontier.pop()
        for gen in generators:
            image = apply_fn(gen, point)
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


def brute_bielliptic_survivors(g_from, g_to):
    """Genera in [g_from, g_to] where a Kato candidate weight divides g^3 - g.

    One division test per genus over the whole range, with the two
    candidates (g^2 - 5g + 6)/2 and (g^2 - 5g + 10)/2 written out.
    """
    found = []
    for g in range(g_from, g_to + 1):
        total = g ** 3 - g
        candidates = ((g * g - 5 * g + 6) // 2, (g * g - 5 * g + 10) // 2)
        if any(total % w == 0 for w in candidates):
            found.append(g)
    return found


def brute_prime_power(q):
    """(p, n) with q = p**n and p prime, by trial division; ValueError otherwise.

    The least divisor p >= 2 of q is prime; q is a power of p exactly
    when dividing p out repeatedly leaves 1.
    """
    if not isinstance(q, int) or isinstance(q, bool) or q < 2:
        raise ValueError("prime power expected, got %r" % (q,))
    p = 2
    while p * p <= q:
        if q % p == 0:
            m, n = q, 0
            while m % p == 0:
                m //= p
                n += 1
            if m != 1:
                raise ValueError("%d is not a prime power" % q)
            return p, n
        p += 1
    return q, 1


def brute_is_prime(m):
    """Trial division by every f with f * f <= m."""
    if m < 2:
        return False
    f = 2
    while f * f <= m:
        if m % f == 0:
            return False
        f += 1
    return True


def brute_numerator_count(coefficients, target):
    """Number of nonnegative solutions of sum c_j w_j = target, read off a
    generating function.

    After dividing out d = gcd(c) (no solutions unless d divides the
    target), the count is the coefficient of x^t in
    P(x) / (1 - x^L)^k, where L = lcm(c), k = len(c) and
    P = prod_j (1 - x^L) / (1 - x^c_j) is a polynomial of degree
    sum_j (L - c_j).  P is expanded densely, and 1 / (1 - x^L)^k
    contributes comb(m + k - 1, k - 1) at x^(mL), so only the terms of P
    congruent to t mod L are read.  No walk, no differences.
    """
    d = math.gcd(*coefficients)
    if target % d:
        return 0
    reduced = [c // d for c in coefficients]
    t = target // d
    period = math.lcm(*reduced)
    k = len(reduced)
    poly = [1]
    for c in reduced:
        # multiply by 1 - x^L, then divide by 1 - x^c with a running sum
        grown = poly + [0] * (period - c)
        for e in range(len(poly) - 1, -1, -1):
            if e + period < len(grown):
                grown[e + period] -= poly[e]
        for e in range(c, len(grown)):
            grown[e] += grown[e - c]
        poly = grown
    return sum(poly[e] * math.comb((t - e) // period + k - 1, k - 1)
               for e in range(t % period, min(t, len(poly) - 1) + 1, period))


def brute_differences(reduced, rho):
    """Forward differences D^0 .. D^(k-1) at q = 0 of the counts at
    rho + qL, L = lcm(reduced), k = len(reduced): k separate counts, one
    per target, then the difference table.

    Each count fills the coin-change table ways[0..t] one coefficient at
    a time, so its cost is k * t; keep k * L to a few thousand.
    """
    period = math.lcm(*reduced)
    values = []
    for q in range(len(reduced)):
        t = rho + q * period
        ways = [1] + [0] * t
        for c in reduced:
            for e in range(c, t + 1):
                ways[e] += ways[e - c]
        values.append(ways[t])
    deltas = []
    while values:
        deltas.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return tuple(deltas)


_JSON_INT_LIMIT = 2 ** 53


def _brute_jsonify(value):
    """JSON-safe tree: big integers become decimal strings, tuples lists."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _JSON_INT_LIMIT else value
    if isinstance(value, (list, tuple)):
        return [_brute_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _brute_jsonify(v) for k, v in value.items()}
    return str(value)


def brute_render_json(doc):
    """A report document as json.dumps writes a copied JSON-safe tree."""
    return json.dumps({
        "subcommand": doc.subcommand,
        "parameters": _brute_jsonify(doc.parameters),
        "body": _brute_jsonify(doc.body),
        "citations": list(doc.citations),
        "provenance": dict(doc.provenance),
    }, indent=2, sort_keys=True)


def _brute_text_lines(value, indent):
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key, sub in value.items():
            if isinstance(sub, (dict, list, tuple)) and sub:
                lines.append("%s%s:" % (pad, key))
                lines.extend(_brute_text_lines(sub, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, key, _brute_scalar(sub)))
    elif isinstance(value, (list, tuple)):
        scalars = all(not isinstance(v, (dict, list, tuple)) for v in value)
        if scalars and sum(len(_brute_scalar(v)) for v in value) <= 72:
            lines.append("%s%s" % (pad, "[" + ", ".join(_brute_scalar(v) for v in value) + "]"))
        elif scalars:
            for v in value:
                lines.append("%s- %s" % (pad, _brute_scalar(v)))
        else:
            for v in value:
                if isinstance(v, (dict, list, tuple)):
                    lines.append("%s-" % pad)
                    lines.extend(_brute_text_lines(v, indent + 1))
                else:
                    lines.append("%s- %s" % (pad, _brute_scalar(v)))
    else:
        lines.append("%s%s" % (pad, _brute_scalar(value)))
    return lines


def _brute_scalar(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, tuple)) and not value:
        return "[]"
    if isinstance(value, dict) and not value:
        return "{}"
    return str(value)


def brute_render_text(doc):
    """A report document as text, each nested value a fresh list of lines."""
    lines = ["wptrans %s" % doc.subcommand]
    if doc.parameters:
        lines.append("parameters: " + ", ".join(
            "%s=%s" % (k, _brute_scalar(v)) for k, v in doc.parameters.items()))
    lines.append("")
    lines.extend(_brute_text_lines(doc.body, 0))
    lines.append("")
    lines.append("citations:")
    for cite in doc.citations:
        lines.append("  - %s" % cite)
    lines.append("provenance:")
    for key, tag in doc.provenance.items():
        lines.append("  %s: %s" % (key, tag))
    return "\n".join(lines)


def _presentation_relators(presentation, values):
    """Generators and relators of a presentation "<a,b | u = v = ... = 1>".

    Each side of a relation but the last is a relator: a word that equals
    the identity.  A word is a run of factors, each a generator or a
    bracketed word, raised to an optional exponent: an integer or a
    one-letter name looked up in values, either signed.  1 is the empty
    word.  A letter is column 2i (generator i) or 2i + 1 (its inverse),
    so x ^ 1 inverts a column.
    """
    gens_text, rels_text = presentation.strip().strip("<>").split("|")
    gens = [g.strip() for g in gens_text.split(",")]
    text = rels_text.replace(" ", "")
    pos = 0

    def word():
        nonlocal pos
        letters = []
        while pos < len(text) and text[pos] not in ")=":
            if text[pos] == "1":  # the empty word
                pos += 1
                continue
            if text[pos] == "(":
                pos += 1
                base = word()
                pos += 1  # the closing bracket
            else:
                base = [2 * gens.index(text[pos])]
                pos += 1
            power = 1
            if pos < len(text) and text[pos] == "^":
                pos += 1
                sign = 1
                if text[pos] == "-":
                    sign = -1
                    pos += 1
                start = pos
                while text[pos].isdigit():
                    pos += 1
                if pos == start:  # a one-letter name
                    pos += 1
                    power = sign * values[text[start]]
                else:
                    power = sign * int(text[start:pos])
            if power < 0:
                base = [x ^ 1 for x in reversed(base)]
            letters += base * abs(power)
        return letters

    sides = []
    while pos < len(text):
        sides.append(word())
        pos += 1  # the "=" between sides
    if sides[-1] != []:
        raise ValueError("the last side of %r is not 1" % presentation)
    return len(gens), [w for w in sides[:-1] if w]


def brute_coset_enumeration(presentation, max_cosets=100_000, **values):
    """The order of the group a presentation defines, by Todd-Coxeter.

    HLT coset enumeration over the trivial subgroup, with coincidences
    processed as in Holt, Eick & O'Brien, Handbook of Computational Group
    Theory (2005), section 5.1: every live coset is scanned under every
    relator, defining new cosets to fill each scan, and then given every
    missing image.  The live cosets left at the end are the elements.
    ValueError if more than max_cosets cosets are ever defined.
    """
    ngens, relators = _presentation_relators(presentation, values)
    width = 2 * ngens
    table = [[None] * width]
    parent = [0]

    def define(c, x):
        if len(table) >= max_cosets:
            raise ValueError("more than %d cosets defined" % max_cosets)
        new = len(table)
        table.append([None] * width)
        parent.append(new)
        table[c][x] = new
        table[new][x ^ 1] = c

    def rep(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def merge(k, m, queue):
        k, m = rep(k), rep(m)
        if k != m:
            k, m = min(k, m), max(k, m)
            parent[m] = k
            queue.append(m)

    def coincidence(k, m):
        queue = []
        merge(k, m, queue)
        for dead in queue:  # merge appends while this runs
            for x in range(width):
                image = table[dead][x]
                if image is None:
                    continue
                table[image][x ^ 1] = None
                e, f = rep(dead), rep(image)
                if table[e][x] is not None:
                    merge(f, table[e][x], queue)
                elif table[f][x ^ 1] is not None:
                    merge(e, table[f][x ^ 1], queue)
                else:
                    table[e][x] = f
                    table[f][x ^ 1] = e

    def scan_and_fill(c, w):
        f, b, i, j = c, c, 0, len(w) - 1
        while True:
            while i <= j and table[f][w[i]] is not None:
                f = table[f][w[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][w[j] ^ 1] is not None:
                b = table[b][w[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:
                table[f][w[i]] = b
                table[b][w[i] ^ 1] = f
                return
            define(f, w[i])

    c = 0
    while c < len(table):
        for w in relators:
            if parent[c] != c:
                break
            scan_and_fill(c, w)
        if parent[c] == c:
            for x in range(width):
                if table[c][x] is None:
                    define(c, x)
        c += 1
    return sum(1 for c, p in enumerate(parent) if c == p)
