"""The weight equation: profiles, solver, classification, necessary weight."""

import itertools
import json
import math
import os
import subprocess
import sys
import time
import types

import pytest
from hypothesis import example, given, settings, strategies as st

import wptrans
from wptrans import orbitweights
from wptrans.orbitweights import (
    TransitivityStatus,
    WeightEquationSolutionSet,
    classify,
    hurwitz_divisibility,
    necessary_weight,
    orbit_profile,
    simple_point_analysis,
    solve_weight_equation,
)
from wptrans.surfacecore import InvariantError

from oracles import (
    brute_classify,
    brute_differences,
    brute_frobenius,
    brute_numerator_count,
    brute_supports,
    brute_weight_solutions,
    brute_witness,
    oracle_cost,
)


KLEIN = ([24, 56, 84, 168], 24)
PSL13 = ([156, 364, 546, 1092], 2730)


def test_orbit_profile_examples():
    profile = orbit_profile(168, (2, 3, 7))
    assert profile.stabilizer_orders == (7, 3, 2, 1)
    assert profile.orbit_sizes == (24, 56, 84, 168)
    assert orbit_profile(504, (2, 3, 7)).orbit_sizes == (72, 168, 252, 504)
    assert orbit_profile(1092, (2, 3, 7)).orbit_sizes == (156, 364, 546, 1092)


def test_orbit_profile_rejects_non_divisors():
    with pytest.raises(ValueError):
        orbit_profile(168, (2, 3, 5))
    with pytest.raises(ValueError):
        orbit_profile(168, (2, 3, 1))
    with pytest.raises(ValueError):
        orbit_profile(0, (2,))


def test_solver_small_cases():
    assert solve_weight_equation([2], 1).solutions == ()
    assert solve_weight_equation([2], 0).solutions == ((0,),)
    assert solve_weight_equation([3, 5], 22).solutions == ((4, 2),)
    assert solve_weight_equation(*KLEIN).solutions == ((1, 0, 0, 0),)


def test_solver_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_weight_equation([], 5)
    with pytest.raises(ValueError):
        solve_weight_equation([0, 2], 5)
    with pytest.raises(ValueError):
        solve_weight_equation([2], -1)
    # the set checks its own equation, since it answers from it lazily
    with pytest.raises(ValueError):
        WeightEquationSolutionSet((3,), -3)
    with pytest.raises(ValueError):
        WeightEquationSolutionSet((0, 2), 4)


def test_inputs_must_be_integers():
    # a float passes every range check and would come back as float
    # "solutions" or orbit sizes; a bool is an int, but no size or weight
    for coefficients, target in (([2.5], 5), ([2], 5.0), ([True, 2], 4), ([2], False)):
        with pytest.raises(ValueError) as caught:
            solve_weight_equation(coefficients, target)
        assert str(caught.value) == "coefficients and target must be integers, got %r and %r" % (
            tuple(coefficients), target)
    for order, periods in ((168.0, (2, 3, 7)), (168, (2, 3, 7.0)), (True, ())):
        with pytest.raises(ValueError) as caught:
            orbit_profile(order, periods)
        assert str(caught.value) == "group order and periods must be integers, got %r and %r" % (
            order, periods)


ORACLE_BUDGET = 20_000


def _max_target(coefficients, budget):
    # largest target (up to 400) whose oracle product stays within budget
    target = 0
    while target < 400 and oracle_cost(coefficients, target + 1) <= budget:
        target += 1
    return target


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=5),
    st.data(),
)
def test_solver_matches_nested_loop_oracle(coefficients, data):
    # widths up to 5 put up to three levels of search above the solved pair
    target = data.draw(st.integers(0, _max_target(coefficients, ORACLE_BUDGET)))
    sol = solve_weight_equation(coefficients, target)
    assert list(sol.solutions) == brute_weight_solutions(coefficients, target)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=30), min_size=6, max_size=7),
    st.data(),
)
def test_wide_listing_matches_nested_loop_oracle(coefficients, data):
    # widths 6 and 7 hold three and four layers, so the backward pass that
    # keeps only completing remainders runs through several of them
    target = data.draw(st.integers(0, min(150, _max_target(coefficients, ORACLE_BUDGET))))
    sol = solve_weight_equation(coefficients, target)
    assert list(sol.solutions) == brute_weight_solutions(coefficients, target)


@pytest.mark.parametrize("coefficients, target", [
    ([3, 4, 6], 13),    # gcd(4, 6) = 2 misses every odd remainder
    ([5, 4, 2], 12),    # last pair with b/d = 1: w runs over every value
    ([6, 10, 15], 0),   # target 0: only the zero vector
    ([4, 6], 0),
    ([7], 0),
    ([7], 21),          # width 1: a single division
    ([7], 22),
    ([4, 6], 26),       # width 2: the pair alone, empty prefix
    ([4, 6], 27),
    ([1, 1], 9),
    ([2, 3, 5, 7, 11], 40),
])
def test_solver_edge_cases_match_oracle(coefficients, target):
    sol = solve_weight_equation(coefficients, target)
    assert list(sol.solutions) == brute_weight_solutions(coefficients, target)


# hand-made listings for the enumerator: one false solution, one out of
# order, and one sorted and valid but short of the count (x + y = 2 has 3)
FALSE_LISTINGS = (
    ((3, 5), 22, [(4, 2), (1, 1)]),
    ((1, 1), 2, [(2, 0), (1, 1)]),
    ((1, 1), 2, [(0, 2), (1, 1)]),
)
FALSE_LISTING_ERRORS = (
    "solution (1, 1) fails its own equation",
    "solutions must be lex sorted",
    "listing and count disagree: 2 listed, 3 counted",
)


def test_solution_set_rejects_false_solutions(monkeypatch):
    for (coefficients, target, listing), message in zip(FALSE_LISTINGS, FALSE_LISTING_ERRORS):
        monkeypatch.setattr(orbitweights, "_solutions", lambda c, t: listing)
        sol = solve_weight_equation(coefficients, target)
        with pytest.raises(InvariantError) as caught:
            sol.solutions
        assert str(caught.value) == message


def _python(code, *options, timeout=None):
    """The stdout of code run by a fresh interpreter on this wptrans."""
    src = os.path.dirname(os.path.dirname(wptrans.__file__))
    done = subprocess.run([sys.executable, *options, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("coefficients, target", [
    ((3,), 9), ((1, 2), 40), ((2, 3, 6), 40), ((1, 2, 3, 4, 5), 12),
], ids=["width-1", "width-2", "width-3", "width-5"])
def test_listing_refuses_past_the_solution_cap(monkeypatch, coefficients, target):
    # a width <= 3 listing holds no remainder layer, so only the solution
    # cap bounds it; it refuses at the first vector past the cap, before
    # any count
    expected = brute_weight_solutions(coefficients, target)
    monkeypatch.setattr(orbitweights, "LISTING_SOLUTION_CAP", len(expected))
    assert list(solve_weight_equation(coefficients, target).solutions) == expected
    monkeypatch.setattr(orbitweights, "LISTING_SOLUTION_CAP", len(expected) - 1)
    sol = solve_weight_equation(coefficients, target)
    with pytest.raises(ValueError) as caught:
        sol.solutions
    assert str(caught.value) == "there are more than %d solutions to list" % (len(expected) - 1)
    assert "count" not in vars(sol)
    assert sol.count == len(expected)


# Each scan of a layer with the next outer coordinate c costs r // c + 1
# steps per remainder r it holds.  The backward pass scans the layers
# after outer coordinates 1 .. n-2 with the coordinate that built the next
# one, so a listing is charged: building every layer, plus building all
# but the first again, plus keeping the last layer with the last outer
# coordinate.  The layers of the first two equations each hold 0..40.
STEP_BUDGETS = [
    # outer 1, 3: the target steps by 1 (41); keeping 0..40 with 3 takes
    # sum_{r<=40} (r // 3 + 1) = 260 + 41
    ((1, 3, 4, 5), 40, 41 + (260 + 41), None, TransitivityStatus.UNDECIDED),
    # outer 1, 2, 3: as above, with 0..40 built and then kept with 2 at
    # sum_{r<=40} (r // 2 + 1) = 400 + 41 each time
    ((1, 2, 3, 4, 5), 40, 41 + 2 * (400 + 41) + (260 + 41), None,
     TransitivityStatus.UNDECIDED),
    # every remainder is 6 mod 10 and at most 2726.  The target steps by 20
    # (137); the layers after 20, 20, 20 hold the 137 remainders 6 + 20i,
    # each charged i + 1 by 20 (137 * 138 / 2 = 9453 in all) and
    # (6 + 20i) // 30 + 1 by 30 (6302); the layer after 30 holds the 272
    # of 6, 16, ..., 2726 but 2716, charged 273 * 274 / 2 - 272 = 37129 by
    # 10, and those after 10 all 273, charged 37401 by 10 and
    # sum_{i<273} (i // 3 + 1) = 12558 by 30
    ((20, 20, 20, 30, 10, 10, 30, 961, 1363), 2726,
     137 + 2 * (9453 + 9453 + 6302 + 37129 + 37401) + 12558,
     [(0, 0, 0, 0, 0, 0, 0, 0, 2)], TransitivityStatus.TRANSITIVE),
]


@pytest.mark.parametrize("coefficients, target, steps, expected, status", STEP_BUDGETS,
                         ids=["width-4", "width-5", "sparse-width-9"])
def test_listing_step_budget_is_exact(monkeypatch, coefficients, target, steps, expected,
                                      status):
    if expected is None:
        expected = brute_weight_solutions(coefficients, target)
    monkeypatch.setattr(orbitweights, "LISTING_STEP_CAP", steps)
    assert list(solve_weight_equation(coefficients, target).solutions) == expected
    monkeypatch.setattr(orbitweights, "LISTING_STEP_CAP", steps - 1)
    sol = solve_weight_equation(coefficients, target)
    with pytest.raises(ValueError) as caught:
        sol.solutions
    assert str(caught.value) == (
        "listing the solutions would take more than %d remainder steps" % (steps - 1))
    # the count and the verdict list nothing, so the cap does not reach them
    assert sol.count == len(expected)
    assert classify(sol).status is status


SPARSE = '''
import time
from wptrans.orbitweights import solve_weight_equation
start = time.perf_counter()
solutions = solve_weight_equation((20, 20, 20, 30, 10, 10, 30, 961, 1363), 2726).solutions
print(time.perf_counter() - start < 1, solutions)
'''


def test_sparse_listing_walks_only_prefixes_that_complete():
    # one solution among ~3.7e11 prefixes: a walk through every prefix
    # does not end, so the run has a timeout
    assert _python(SPARSE, timeout=20) == "True ((0, 0, 0, 0, 0, 0, 0, 0, 2),)\n"


PRIMORIAL = 7420738134810  # 2 * 3 * 5 * ... * 37, the first twelve primes
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def test_ascending_primorial_listing_is_refused_quickly():
    # in the given, ascending order the layers reach millions of
    # remainders; the listing stops at the step cap instead of filling memory
    src = os.path.dirname(os.path.dirname(wptrans.__file__))
    argv = ["orbit-weights", "--order", str(PRIMORIAL),
            "--periods", ",".join(map(str, PRIMES)), "--target", str(PRIMORIAL)]
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "wptrans.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=30)
    assert time.perf_counter() - start < 5
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: listing the solutions would take more than %d remainder steps\n"
        % orbitweights.LISTING_STEP_CAP)


LARGE_LCM_ARGV = ["orbit-weights", "--order", "360360", "--periods",
                  "2,3,4,5,6,7,8,9,10,11,12,13", "--target", str(10 ** 12)]
PEAK_KB = ("import json, resource, subprocess, sys; "
           "done = subprocess.run(sys.argv[1:], capture_output=True, text=True); "
           "print(json.dumps([done.returncode, done.stderr, "
           "resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]))")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KB is Linux's")
def test_listing_refuses_before_its_first_layer_is_built():
    # the first layer of this listing would take ~3.6 * 10^7 steps,
    # 10^12 / 27720 from the target alone; the scan is charged before it
    # starts, so the process stops before building any layer.  Each run is
    # timed and measured under its own parent, as in test_report's
    # test_listing_memory_is_bounded
    src = os.path.dirname(os.path.dirname(wptrans.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(*argv):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", PEAK_KB, sys.executable, *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return (time.perf_counter() - start, *json.loads(done.stdout))

    seconds, code, err, refused = run("-m", "wptrans.cli", *LARGE_LCM_ARGV)
    assert seconds < 5
    assert (code, err) == (2, "error: listing the solutions would take more than %d "
                              "remainder steps\n" % orbitweights.LISTING_STEP_CAP)
    # ~2 MB over a bare import; a whole first layer is gigabytes
    assert refused - run("-c", "import wptrans.cli")[3] < 56 * 1024


LARGE_LCM = '''
import time
from wptrans import orbitweights
calls = []
count = orbitweights._count
orbitweights._count = lambda *args: calls.append(args) or count(*args)
profile = orbitweights.orbit_profile(360360, range(2, 14))
sol = orbitweights.solve_weight_equation(profile.orbit_sizes, 10 ** 12)
start = time.perf_counter()
verdict = orbitweights.classify(sol, profile=profile)
print(time.perf_counter() - start < 1, verdict.status.value, verdict.orbit_count_range)
print(len(calls), "count" in vars(sol))
'''


def test_unmasked_classify_counts_nothing_where_the_lcm_is_large():
    # orbit sizes 360360/m for m = 13..2 and 360360: counting each of the
    # 2^13 supports took minutes, so the run has a timeout.  Brauer's bound
    # decides every support here, and unmasked classify counts nothing
    assert _python(LARGE_LCM, timeout=60) == "True NotTransitive (4, 13)\n0 False\n"


DESCENDING = '''
from wptrans.orbitweights import orbit_profile, solve_weight_equation
sizes = orbit_profile(%d, %r).orbit_sizes
sol = solve_weight_equation(sizes[::-1], %d)
print(len(sol.solutions), sol.count, sol.solutions[0], sol.solutions[-1])
''' % (PRIMORIAL, PRIMES, PRIMORIAL)


def test_descending_primorial_lists_its_solutions():
    # the same equation with its largest coefficients outermost
    assert _python(DESCENDING, timeout=30) == (
        "13 13 (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 37) (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)\n")


# three of PSL13's ten solutions vanish on w1 and w2, so a count of 2
# cannot hold them
MASKED_COUNT_ERROR = "3 solutions survive the mask, not between 1 and the count 2"


def test_masked_count_must_lie_within_the_count():
    # the solutions that survive a mask are some of all the solutions, and
    # at least one, so a wrong count is caught when a masked classify reads it
    sol = solve_weight_equation(*PSL13)
    sol.__dict__["count"] = 2
    with pytest.raises(InvariantError) as caught:
        classify(sol, zero_indices=(0, 1))
    assert str(caught.value) == MASKED_COUNT_ERROR


def test_solution_set_check_survives_optimize():
    # python -O strips bare asserts; the self-checks must still raise
    code = ("from wptrans import orbitweights\n"
            "from wptrans.surfacecore import InvariantError\n"
            "for coefficients, target, listing in %r:\n"
            "    orbitweights._solutions = lambda c, t: listing\n"
            "    try:\n"
            "        orbitweights.solve_weight_equation(coefficients, target).solutions\n"
            "    except InvariantError as exc:\n"
            "        print('raised:', exc)\n"
            "sol = orbitweights.solve_weight_equation(%r, %r)\n"
            "sol.__dict__['count'] = 2\n"
            "try:\n"
            "    orbitweights.classify(sol, zero_indices=(0, 1))\n"
            "except InvariantError as exc:\n"
            "    print('raised:', exc)\n" % (FALSE_LISTINGS, *PSL13))
    assert _python(code, "-O") == "".join(
        "raised: %s\n" % m for m in FALSE_LISTING_ERRORS + (MASKED_COUNT_ERROR,))


def _outcome(classifier, sol_set, mask, profile):
    try:
        verdict = classifier(sol_set, zero_indices=mask, profile=profile)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return (verdict.status, verdict.orbit_count_range, verdict.reasons,
            verdict.guaranteed_orbits)


def _supports(n):
    return [s for r in range(n + 1) for s in itertools.combinations(range(n), r)]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4),
        # divisors of 24 keep lcm(c) small, so that most targets reach the
        # quasi-polynomial range k * lcm(c) of _count
        st.lists(st.sampled_from((1, 2, 3, 4, 6, 8, 12)), min_size=1, max_size=4),
    ),
    st.data(),
)
def test_classify_matches_brute_oracle(coefficients, data):
    # every mask subset, plus one index out of range; with or without a
    # profile; the oracle reads the full listing, classify the equation.
    # A support is feasible exactly when the depth-first oracle finds a
    # witness, the feasible supports are those of the listing, by size and
    # then lex, and every masked count agrees with the listing
    target = data.draw(st.integers(0, _max_target(coefficients, ORACLE_BUDGET)))
    sol_set = solve_weight_equation(coefficients, target)
    listing = brute_weight_solutions(coefficients, target)
    assert sol_set.count == len(listing)
    n = len(coefficients)
    for support in _supports(n):
        assert (support in sol_set.supports) == (
            brute_witness(coefficients, target, support) is not None), support
    listed = {tuple(j for j, w in enumerate(v) if w) for v in listing}
    assert sol_set.supports == tuple(sorted(listed, key=lambda s: (len(s), s)))
    profile = None
    if data.draw(st.booleans()):
        # classify reads only stabilizer_orders, to flag the free orbit
        stabs = data.draw(st.lists(st.sampled_from((1, 2, 3)), min_size=n, max_size=n))
        profile = types.SimpleNamespace(stabilizer_orders=tuple(stabs))
    masks = _supports(n)
    for mask in masks:
        kept = [c for j, c in enumerate(coefficients) if j not in mask]
        assert orbitweights._count(kept, target) == sum(
            1 for v in listing if not any(v[i] for i in mask)), mask
    for mask in masks + [(n,)]:
        assert (_outcome(classify, sol_set, mask, profile)
                == _outcome(brute_classify, sol_set, mask, profile)), mask


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5)
       .filter(lambda a: math.gcd(*a) == 1))
def test_brauer_bound_is_at_least_the_frobenius_number(a):
    # in the order drawn, since any order gives a bound; exact for a pair
    # (Sylvester: ab - a - b).  Scaled by d it bounds the multiples of d
    bound = orbitweights._brauer_bound(a)
    frobenius = brute_frobenius(a)
    assert bound >= frobenius
    assert orbitweights._brauer_bound([3 * c for c in a]) == 3 * bound
    if len(a) == 2:
        assert bound == frobenius


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=6),
    st.integers(0, 400),
    st.integers(1, 6),
)
# (4, 6) with d = 2 leaves rest 2 = d * B, B = 1 for (2, 3): a bound
# compared unscaled would call 1 = 2/d a combination of 2 and 3
@example([4, 6, 1], 12, 1)
def test_supports_are_the_same_for_every_multiple_of_the_equation(coefficients, target, k):
    # supports read one certificate table per gcd-reduced tuple, so an
    # equation scaled by k has the same supports, and both equal the
    # earlier loop over unreduced subsets; a target the gcd misses has none
    scaled = [k * c for c in coefficients]
    supports = solve_weight_equation(coefficients, target).supports
    assert solve_weight_equation(scaled, k * target).supports == supports
    assert supports == brute_supports(coefficients, target)
    assert brute_supports(scaled, k * target) == supports
    if k > 1:
        assert solve_weight_equation(scaled, k * target + 1).supports == ()


def test_one_certificate_table_serves_every_genus_of_a_signature():
    # the orbit sizes of a (2,3,7) action reduce to (6, 14, 21, 42) at
    # every genus, so four genera build one table
    orbitweights._certificates.cache_clear()
    for genus in (3, 7, 14, 50):
        profile = orbit_profile(84 * (genus - 1), (2, 3, 7))
        classify(solve_weight_equation(profile.orbit_sizes, genus ** 3 - genus),
                 profile=profile)
    info = orbitweights._certificates.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    rows = orbitweights._certificates((6, 14, 21, 42))
    assert [row[0] for row in rows] == _supports(4)[1:]


@pytest.mark.parametrize("coefficients", [
    (5, 7), (4, 6), (1, 2, 3), (3, 4, 6), (1, 1, 2, 2), (2, 2, 4, 4),
])
def test_count_across_the_quasi_polynomial_threshold(coefficients):
    # _count walks below k * lcm(c) (c reduced by its gcd d) and sums the
    # difference series from there; every target up to two periods past
    # the switch, gcd misses included
    d = math.gcd(*coefficients)
    period = math.lcm(*(c // d for c in coefficients))
    for target in range(d * (len(coefficients) + 2) * period + 1):
        assert orbitweights._count(coefficients, target) == len(
            brute_weight_solutions(coefficients, target)), target


def test_classify_transitive_case():
    verdict = classify(solve_weight_equation(*KLEIN))
    assert verdict.status is TransitivityStatus.TRANSITIVE
    assert verdict.guaranteed_orbits == (0,)
    assert any("transitive" in r for r in verdict.reasons)


def test_classify_unmasked_psl13():
    verdict = classify(solve_weight_equation(*PSL13))
    assert verdict.status is TransitivityStatus.UNDECIDED
    assert verdict.orbit_count_range == (1, 3)
    assert verdict.guaranteed_orbits == (2,)


def test_classify_masked_psl13():
    verdict = classify(solve_weight_equation(*PSL13), zero_indices=(0, 1))
    assert verdict.status is TransitivityStatus.UNDECIDED
    assert verdict.orbit_count_range == (1, 2)
    assert verdict.guaranteed_orbits == (2,)
    assert any("mask" in r for r in verdict.reasons)


@pytest.mark.parametrize("genus, status, count_range, guaranteed, count", [
    (118, TransitivityStatus.NOT_TRANSITIVE, (2, 4), (1, 2), 790_244),       # PSL(2,27)
    (146, TransitivityStatus.UNDECIDED, (1, 4), (2,), 2_829_056),            # PSL(2,29)
])
def test_classify_large_hurwitz_genera_without_listing(
        genus, status, count_range, guaranteed, count):
    profile = orbit_profile(84 * (genus - 1), (2, 3, 7))
    sol = solve_weight_equation(profile.orbit_sizes, genus ** 3 - genus)
    verdict = classify(sol, profile=profile)
    assert (verdict.status, verdict.orbit_count_range, verdict.guaranteed_orbits) == (
        status, count_range, guaranteed)
    assert sol.count == count
    assert "solutions" not in vars(sol)


@pytest.mark.parametrize("genus, count, masked_count", [
    (10 ** 5, 281_205_574_311_472_218_465_365, 7_086_309_521_683_645),
    (10 ** 6, 281_197_978_564_623_668_530_965_427_865, 70_861_819_727_678_571_145),
])
def test_classify_hurwitz_genera_past_any_walk(genus, count, masked_count):
    # the counts agree with Lagrange interpolation through coin-change
    # counts at other points of the same residue class
    profile = orbit_profile(84 * (genus - 1), (2, 3, 7))
    sol = solve_weight_equation(profile.orbit_sizes, genus ** 3 - genus)
    verdict = classify(sol, profile=profile)
    assert (verdict.status, verdict.orbit_count_range, verdict.guaranteed_orbits) == (
        TransitivityStatus.NOT_TRANSITIVE, (2, 4), (0, 1))
    masked = classify(sol, zero_indices=(2,), profile=profile)
    assert (masked.status, masked.orbit_count_range, masked.guaranteed_orbits) == (
        TransitivityStatus.NOT_TRANSITIVE, (2, 3), (0, 1))
    assert masked.reasons[0] == "mask forces w3 = 0; %d of %d solutions survive" % (
        masked_count, count)
    # and with a generating function's numerator, a method with no walk
    sizes = profile.orbit_sizes
    assert brute_numerator_count(sizes, genus ** 3 - genus) == count
    assert brute_numerator_count(sizes[:2] + sizes[3:], genus ** 3 - genus) == masked_count
    for mask in ((0,), (1,), (0, 1, 2)):
        with pytest.raises(ValueError, match="inconsistent"):
            classify(sol, zero_indices=mask)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5),
    st.data(),
)
def test_count_matches_numerator_oracle(coefficients, data):
    # the walk and the difference series against a generating function.
    # Near 10^30 _count reads k counts from one walk up to k * lcm(c), which
    # takes seconds past k * lcm(c) = 3000, so larger lcms are drawn below
    # 200 only
    targets = st.integers(0, 200)
    if len(coefficients) * math.lcm(*coefficients) <= 3000:
        targets = st.one_of(targets, st.integers(10 ** 30, 10 ** 30 + 100))
    target = data.draw(targets)
    assert solve_weight_equation(coefficients, target).count == brute_numerator_count(
        coefficients, target)


def _counted_walks(monkeypatch):
    """The argument tuples of every _walk_counts call from here on."""
    calls = []
    walk = orbitweights._walk_counts

    def counted(coeffs, target, shifts):
        calls.append((coeffs, target, tuple(shifts)))
        return walk(coeffs, target, shifts)

    monkeypatch.setattr(orbitweights, "_walk_counts", counted)
    return calls


def _prefix_walks(monkeypatch, genus):
    """_walk_counts calls made by classify, plain and under every mask,
    from an empty cache, for the (2,3,7) action of that genus."""
    orbitweights._differences.cache_clear()
    with monkeypatch.context() as patch:
        calls = _counted_walks(patch)
        profile = orbit_profile(84 * (genus - 1), (2, 3, 7))
        sol = solve_weight_equation(profile.orbit_sizes, genus ** 3 - genus)
        for mask in _supports(3):
            _outcome(classify, sol, mask, profile)
    return len(calls)


def test_classify_work_does_not_grow_with_the_genus(monkeypatch):
    # only the mask w3 = 0 leaves solutions; its two counts, the full one
    # (reduced (42, 21, 14, 6)) and the masked one (reduced (21, 7, 3)),
    # miss _differences once each and walk once each
    assert _prefix_walks(monkeypatch, 10 ** 4) == 2
    assert _prefix_walks(monkeypatch, 10 ** 6) == 2


def test_each_differences_miss_walks_once(monkeypatch):
    orbitweights._differences.cache_clear()
    calls = _counted_walks(monkeypatch)
    keys = [((7, 3, 2), 5), ((12, 8, 6, 3, 1), 0), ((7, 3, 2), 5), ((2, 1), 1),
            ((12, 8, 6, 3, 1), 0)]
    for reduced, rho in keys:
        assert orbitweights._differences(reduced, rho) == brute_differences(reduced, rho)
    # one walk at rho + (k-1)L per distinct key, read at the shifts (k-1-q)L
    assert calls == [((7, 3, 2), 89, (84, 42, 0)),
                     ((12, 8, 6, 3, 1), 96, (96, 72, 48, 24, 0)),
                     ((2, 1), 3, (2, 0))]
    assert orbitweights._differences.cache_info().misses == 3


# divisors of 360: lcm <= 360, so k * lcm <= 2,160 at width 6
DIVISORS_360 = tuple(d for d in range(1, 361) if 360 % d == 0)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=3),
        st.lists(st.sampled_from(DIVISORS_360), min_size=2, max_size=6),
    ).map(lambda c: tuple(sorted((x // math.gcd(*c) for x in c), reverse=True)))
    .filter(lambda c: len(c) * math.lcm(*c) <= 3000),
    st.data(),
)
def test_differences_match_k_walk_oracle(reduced, data):
    # the one walk read at k shifts against k separate counts
    rho = data.draw(st.integers(0, math.lcm(*reduced) - 1))
    assert orbitweights._differences(reduced, rho) == brute_differences(reduced, rho)


def test_large_coprime_periods_keep_the_walk():
    # lcm(c) is about 10^9 and the target 3 * 10^10, below k * lcm(c), so
    # every support count of width 3 or more is walked
    n = 1009 * 1013 * 1019
    profile = orbit_profile(n, (1009, 1013, 1019))
    sol = solve_weight_equation(profile.orbit_sizes, 30 * n)
    start = time.perf_counter()
    verdict = classify(sol, zero_indices=(0,), profile=profile)
    assert time.perf_counter() - start < 1
    assert verdict.reasons[0] == "mask forces w1 = 0; 496 of 5456 solutions survive"
    assert (verdict.status, verdict.orbit_count_range) == (TransitivityStatus.UNDECIDED, (1, 3))
    # lcm(c) is about 10^15: the count of the solutions nonzero on all
    # three coordinates is walked with about 3 * 10^5 steps outermost, and
    # the counts of the feasible supports sum to the count
    coeffs = (200_003, 100_003, 65_537)
    target = 65_537 * 10 ** 6 + sum(coeffs)
    sol = solve_weight_equation(coeffs, target)
    assert sol.supports == ((0, 1), (0, 2), (1, 2), (0, 1, 2))
    counts = []
    for support in sol.supports:
        sub = [coeffs[j] for j in support]
        counts.append(orbitweights._count(sub, target - sum(sub)))
    assert counts == [4, 5, 10, 1_638_360]
    assert sum(counts) == sol.count == 1_638_379


WIDE = '''
import time
from wptrans.orbitweights import classify, orbit_profile, solve_weight_equation
profile = orbit_profile(2, (2,) * 12)
sol = solve_weight_equation(profile.orbit_sizes, 30)
start = time.perf_counter()
masked = classify(sol, zero_indices=range(11), profile=profile)
print(time.perf_counter() - start < 1)
print(masked.status.value, masked.orbit_count_range, masked.reasons[0])
big = solve_weight_equation(profile.orbit_sizes, 10 ** 6)
plain = classify(big, profile=profile)
print(plain.status.value, plain.orbit_count_range, big.count)
'''


def test_width_costs_nothing_when_coefficients_repeat():
    # twelve periods of 2 at order 2, the CLI's bound: orbit sizes twelve
    # 1s and a 2.  Walking each prefix on its own takes minutes on this
    # input, so the run has a timeout: a walk that slow fails, not hangs
    fast, masked, plain = _python(WIDE, timeout=10).splitlines()
    assert fast == "True"
    assert masked == ("Undecided (1, 2) mask forces w1,w2,w3,w4,w5,w6,w7,w8,w9,w10,w11 = 0; "
                      "16 of 6439831880 solutions survive")
    t = 10 ** 6  # x_1 + ... + x_12 = t - 2w' has comb(t - 2w' + 11, 11) solutions
    count = sum(math.comb(t - 2 * w + 11, 11) for w in range(t // 2 + 1))
    assert plain == "Undecided (1, 13) %d" % count


def test_classify_not_transitive_case():
    # 2a + 3b = 5 has the sole solution (1, 1): two orbits always
    verdict = classify(solve_weight_equation([2, 3], 5))
    assert verdict.status is TransitivityStatus.NOT_TRANSITIVE
    assert verdict.orbit_count_range == (2, 2)
    assert verdict.guaranteed_orbits == (0, 1)


def test_classify_inconsistent_mask():
    with pytest.raises(ValueError, match="inconsistent"):
        classify(solve_weight_equation(*PSL13), zero_indices=(2,))


def test_classify_rejects_non_integer_mask_indices():
    sol = solve_weight_equation(*PSL13)
    for mask in ((0.0, 1), (True,), ("0",)):
        with pytest.raises(ValueError) as caught:
            classify(sol, zero_indices=mask)
        assert str(caught.value) == "mask indices must be integers, got %r" % (mask,)


def test_classify_rejects_empty_solution_set():
    with pytest.raises(ValueError):
        classify(solve_weight_equation([2], 1))
    with pytest.raises(ValueError):
        classify(solve_weight_equation(*KLEIN), zero_indices=(9,))


def test_classify_flags_free_orbit():
    profile = orbit_profile(168, (2, 3, 7))
    sol = solve_weight_equation(profile.orbit_sizes, 168)
    verdict = classify(sol, zero_indices=(0, 1, 2), profile=profile)
    assert verdict.status is TransitivityStatus.TRANSITIVE
    assert any("free orbit" in r for r in verdict.reasons)


def test_classify_mask_monotonicity():
    # survivors shrink as the mask grows, so the orbit count range nests
    sol = solve_weight_equation(*PSL13)
    indices = range(len(PSL13[0]))
    ranges = {}
    for r in range(len(PSL13[0]) + 1):
        for mask in itertools.combinations(indices, r):
            try:
                ranges[frozenset(mask)] = classify(sol, zero_indices=mask).orbit_count_range
            except ValueError:
                ranges[frozenset(mask)] = None
    for small, small_range in ranges.items():
        for big, big_range in ranges.items():
            if not (small < big) or small_range is None or big_range is None:
                continue
            assert small_range[0] <= big_range[0]
            assert big_range[1] <= small_range[1]


def test_necessary_weight_examples():
    assert necessary_weight(168, 7, 3) == 1
    assert necessary_weight(504, 3, 7) == 2
    for m in (2, 3, 7):
        assert necessary_weight(1344, m, 17) is None
    with pytest.raises(ValueError):
        necessary_weight(0, 7, 3)
    with pytest.raises(ValueError):
        necessary_weight(168, 7, 1)


def test_hurwitz_divisibility_examples():
    assert hurwitz_divisibility(3) == {7}
    assert hurwitz_divisibility(7) == {3}
    assert hurwitz_divisibility(14) == {2}
    assert hurwitz_divisibility(17) == set()
    with pytest.raises(ValueError):
        hurwitz_divisibility(1)


@given(st.integers(min_value=2, max_value=200))
def test_necessary_weight_iff_divisibility(g):
    # for a Hurwitz group the two formulations agree exactly
    order = 84 * (g - 1)
    admissible = hurwitz_divisibility(g)
    for m in (2, 3, 7):
        weight = necessary_weight(order, m, g)
        assert (weight is not None) == (m in admissible)
        if weight is not None:
            assert weight * order == m * (g ** 3 - g)


def test_simple_point_analysis_survivors():
    outcomes = simple_point_analysis()
    assert [o.genus for o in outcomes] == [2, 3, 3, 4, 5, 6, 7, 8]
    survivors = {o.label for o in outcomes if o.survives}
    assert survivors == {"Klein", "S4-free-action-possible", "Bring"}
    by_genus = {}
    for o in outcomes:
        by_genus.setdefault(o.genus, []).append(o)
    assert not any(o.survives for o in by_genus[2])
    assert "M(6) = 150" in by_genus[6][0].reason
    assert "M(8) = 336" in by_genus[8][0].reason
    assert not by_genus[5][0].survives
    assert not by_genus[7][0].survives


