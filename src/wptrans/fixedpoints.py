"""Fixed-point counts for automorphisms, and Schoeneberg's criterion.

Macbeath's formulas give the number of fixed points F(t) of an
automorphism t of order d in terms of the periods m_1, ..., m_r of the
lifted Fuchsian group.  Two cases are implemented: a cyclic group of
order n, and PSL(2,q).  All evaluation is in exact rationals and the
result is asserted to be an integer; a non-integral value means the
(group, periods, d) combination is not realizable and is reported as a
caller error, never rounded.

Schoeneberg's criterion: an automorphism of a surface of genus >= 2
fixing more than 4 points fixes only Weierstrass points.

prime_power and is_prime decide exactly, without trial division up to
sqrt(q), for every q below PRIME_TEST_BOUND (about 3.3e24) and reject
larger q.
"""

from fractions import Fraction
from math import gcd, isqrt

from .surfacecore import InvariantError, _is_int, _require_int

__all__ = [
    "cyclic_fixed_points",
    "psl2q_fixed_points",
    "schoeneberg_is_weierstrass",
    "is_realizable_order",
    "prime_power",
]


# Miller-Rabin with the first 13 primes as bases is exact below this
# bound: it is the least strong pseudoprime to all 13 of them (Sorenson &
# Webster, Strong pseudoprimes to twelve prime bases, Math. Comp. 86, 2017)
PRIME_TEST_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _within_bound(m):
    if m >= PRIME_TEST_BOUND:
        raise ValueError("primality is decided exactly only below %d, got %d"
                         % (PRIME_TEST_BOUND, m))


def is_prime(m):
    """Deterministic Miller-Rabin, exact for every integer m below
    PRIME_TEST_BOUND; ValueError from there on.  False for a float, a
    bool or anything else that is not an int."""
    if not _is_int(m) or m < 2:
        return False
    _within_bound(m)
    for b in _PRIME_BASES:
        if m % b == 0:
            return m == b
    if m < 43 * 43:  # a composite below 43^2 has a prime factor below 43
        return True
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _root(q, n):
    """The integer n-th root of q >= 1: the largest r with r**n <= q.

    From any r above the root, the integer Newton step
    ((n-1) r + q // r**(n-1)) // n falls strictly and, by AM-GM, not
    below the root; at the root it does not fall.  So start above it,
    at 2**ceil(bits/n), and stop when the step stops falling.
    """
    if n == 1:
        return q
    if n == 2:
        return isqrt(q)
    r = 1 << -(-q.bit_length() // n)
    while True:
        s = ((n - 1) * r + q // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def prime_power(q):
    """Decompose q = p**n, p prime, n >= 1; ValueError otherwise.

    A prime p <= 41 that divides q must be the only one: divide it out.
    Otherwise p >= 43, so n <= log_43(q), and q is an exact n-th power
    for at most one prime: each such n, largest first, takes q's integer
    n-th root and keeps it if its n-th power is q and it is prime
    (is_prime).  So the cost does not grow with sqrt(q); q must lie
    below PRIME_TEST_BOUND.  The trial division this replaces is
    tests/oracles.py:brute_prime_power.
    """
    if not _is_int(q) or q < 2:
        raise ValueError("prime power expected, got %r" % (q,))
    _within_bound(q)
    for p in _PRIME_BASES:
        if q % p == 0:
            m, n = q, 0
            while m % p == 0:
                m //= p
                n += 1
            if m != 1:
                raise ValueError("%d is not a prime power" % q)
            return p, n
    top = 1
    while 43 ** (top + 1) <= q:
        top += 1
    for n in range(top, 0, -1):
        p = _root(q, n)
        if p ** n == q and is_prime(p):
            return p, n
    raise ValueError("%d is not a prime power" % q)


def _divisor_sum(periods, d):
    """sum of 1/m_i over the periods divisible by d, exact."""
    total = Fraction(0)
    for m in periods:
        if m % d == 0:
            total += Fraction(1, m)
    return total


def _as_integer(value, context, *args):
    """value as an int; context % args names the inputs, formatted only
    for an error."""
    if value.denominator != 1:
        raise ValueError("non-integral fixed point count %s for %s; "
                         "the inputs do not describe a realizable action"
                         % (value, context % args))
    n = value.numerator
    if n < 0:
        raise InvariantError("negative fixed point count %d for %s" % (n, context % args))
    return n


def cyclic_fixed_points(n, periods, d):
    """F(t) = n * sum over periods m_i divisible by d of 1/m_i.

    Here the automorphism group is cyclic of order n with lift periods
    m_1, ..., m_r; t is any element of order d >= 2.  A cyclic quotient
    forces every period to divide n, which is checked (it also makes
    the sum automatically integral: each term contributes n/m_i).  A d
    that divides no period gives 0.  periods may be any iterable; it is
    read once.
    """
    _require_int("group order", n)
    _require_int("element order", d)
    if n < 1:
        raise ValueError("group order must be positive")
    if d < 2:
        raise ValueError("element order must be >= 2")
    periods = tuple(periods)
    for m in periods:
        _require_int("period", m)
        if m < 2 or n % m != 0:
            raise ValueError(
                "period %r does not divide the cyclic group order %d" % (m, n)
            )
    value = n * _divisor_sum(periods, d)
    return _as_integer(value, "cyclic n=%d, periods=%s, d=%d", n, periods, d)


def is_realizable_order(q, d):
    """Arithmetic validity of d as an element order of PSL(2,q).

    d is accepted when d divides (q-1)/gcd(2,q-1) or (q+1)/gcd(2,q-1)
    or d equals the characteristic p.  This is the purely arithmetic
    predicate; the element-order census gives the same answer for
    every q it can reach.  q must be a prime power whatever d is.
    """
    _require_int("q", q)
    _require_int("element order", d)
    p, _ = prime_power(q)
    if d < 1:
        return False
    if d == 1:
        return True
    half = gcd(2, q - 1)
    return (q - 1) % (half * d) == 0 or (q + 1) % (half * d) == 0 or d == p


def psl2q_fixed_points(q, periods, d):
    """Fixed points of an order-d element of PSL(2,q) with the given lift periods.

    Macbeath's formula, q = p**n odd:

        (q-1) * sum_{d|m_i} 1/m_i          if d | (q-1)/2
        (q+1) * sum_{d|m_i} 1/m_i          if d | (q+1)/2
        gcd(n,2)/2 * p^(n-1)*(p-1) * #{m_i = p}   if d = p

    and q even:

        2(q-1) * sum_{d|m_i} 1/m_i         if d | q-1
        2(q+1) * sum_{d|m_i} 1/m_i         if d | q+1
        2^(n-1) * #{m_i = 2}               if d = 2

    The branches are mutually exclusive for d >= 2 (consecutive halves
    are coprime, and p divides neither q-1 nor q+1), so dispatch is by
    explicit divisibility tests, all three made before any value: a d
    matching no branch is not an element order of PSL(2,q) and is
    rejected, two matches fail the overlap check, and only the one
    branch that applies is evaluated.  periods may be any iterable; it
    is read once.  The eager three-branch evaluation is the test oracle
    tests/oracles.py:brute_psl2q_fixed_points.
    """
    p, n = prime_power(q)
    _require_int("element order", d)
    if d < 2:
        raise ValueError("element order must be >= 2")
    periods = tuple(periods)
    for m in periods:
        _require_int("period", m)
        if m < 2:
            raise ValueError("every period must be >= 2, got %r" % (m,))

    half = gcd(2, q - 1)  # the branches for q - 1 and q + 1 divide by it
    minus = (q - 1) % (half * d) == 0
    plus = (q + 1) % (half * d) == 0
    matches = minus + plus + (d == p)
    if matches == 0:
        raise ValueError("order %d is not realizable in PSL(2,%d)" % (d, q))
    if matches > 1:
        raise InvariantError("fixed point branches overlap for PSL(2,%d), periods=%s, d=%d"
                             % (q, periods, d))
    if minus or plus:
        value = 2 // half * (q - 1 if minus else q + 1) * _divisor_sum(periods, d)
    elif q % 2 == 1:  # p - 1 is even, so the value is an integer
        value = gcd(n, 2) * p ** (n - 1) * (p - 1) // 2 * periods.count(p)
    else:
        value = 2 ** (n - 1) * periods.count(2)
    return _as_integer(value, "PSL(2,%d), periods=%s, d=%d", q, periods, d)


def schoeneberg_is_weierstrass(fixed_count):
    """Schoeneberg: more than 4 fixed points forces Weierstrass points.

    Strictly more than 4; the boundary value 4 proves nothing.
    """
    _require_int("fixed point count", fixed_count)
    if fixed_count < 0:
        raise ValueError("fixed point count cannot be negative")
    return fixed_count > 4
