"""Fermat curves: point families, automorphism action, weight ledger."""

import itertools
import os
import subprocess
import sys

import pytest

import wptrans
from wptrans.fermat import (
    FermatPoint,
    PointClass,
    automorphism_group_order,
    fermat_genus,
    fermat_transitivity,
    leopoldt_points,
    leopoldt_weight_bound,
    orbit_enumerate,
    trivial_point_weight,
    trivial_points,
    weight_accounting,
)
from wptrans.orbitweights import TransitivityStatus
from wptrans.report import CommandRequest, run

from oracles import FermatAutomorphism, brute_orbit_closure, generators


def test_fermat_genus():
    assert fermat_genus(3) == 1
    assert fermat_genus(4) == 3
    assert fermat_genus(5) == 6
    assert fermat_genus(6) == 10
    with pytest.raises(ValueError):
        fermat_genus(2)


def test_trivial_point_weight():
    assert trivial_point_weight(3) == 0
    assert trivial_point_weight(4) == 2
    assert trivial_point_weight(5) == 9
    assert trivial_point_weight(6) == 25
    for n in range(3, 200):
        assert trivial_point_weight(n) >= 0


def test_leopoldt_weight_bound():
    assert leopoldt_weight_bound(5) == (1, True)
    assert leopoldt_weight_bound(6) == (1, True)
    assert leopoldt_weight_bound(7) == (3, True)
    assert leopoldt_weight_bound(8) == (3, True)
    assert leopoldt_weight_bound(9) == (6, False)
    assert leopoldt_weight_bound(10) == (6, False)
    with pytest.raises(ValueError):
        leopoldt_weight_bound(4)


def test_point_family_sizes():
    for n in (4, 5, 7):
        points = trivial_points(n)
        assert len(points) == 3 * n
        assert len(set(points)) == 3 * n
    for n in (5, 6):
        points = leopoldt_points(n)
        assert len(points) == 3 * n * n
        assert len(set(points)) == 3 * n * n
    with pytest.raises(ValueError):
        leopoldt_points(4)


def test_point_validation():
    with pytest.raises(ValueError):
        FermatPoint(5, PointClass.TRIVIAL, 3, (0,))
    with pytest.raises(ValueError):
        FermatPoint(5, PointClass.TRIVIAL, 0, (5,))
    with pytest.raises(ValueError):
        FermatPoint(5, PointClass.TRIVIAL, 0, (0, 1))
    with pytest.raises(ValueError):
        FermatPoint(5, PointClass.LEOPOLDT, 0, (0,))
    with pytest.raises(ValueError):
        FermatPoint(2, PointClass.TRIVIAL, 0, (0,))


@pytest.mark.parametrize("n", [3, 4])
def test_no_leopoldt_point_below_five(n):
    with pytest.raises(ValueError, match=r"no Leopoldt points for n < 5 \(got %d\)" % n):
        FermatPoint(n, PointClass.LEOPOLDT, 0, (0, 0))


def test_automorphism_validation():
    with pytest.raises(ValueError):
        FermatAutomorphism(5, (0, 0), (0, 1, 1))
    with pytest.raises(ValueError):
        FermatAutomorphism(5, (5, 0), (0, 1, 2))
    with pytest.raises(ValueError):
        FermatAutomorphism(5, (0, 0, 0), (0, 1, 2))


def test_identity_fixes_everything():
    n = 5
    e = FermatAutomorphism.identity(n)
    for point in trivial_points(n) + leopoldt_points(n):
        assert e.apply(point) == point


def test_compose_is_the_action_composition():
    # (f . g)(x) == f(g(x)) across all generator pairs and both families
    for n in (4, 5):
        gens = generators(n)
        points = trivial_points(n) + (leopoldt_points(n) if n >= 5 else [])
        for f, g in itertools.product(gens, gens):
            fg = f.compose(g)
            for point in points:
                assert fg.apply(point) == f.apply(g.apply(point))


def test_compose_closure_has_order_6n2():
    for n in (4, 5):
        gens = generators(n)
        group = set(gens) | {FermatAutomorphism.identity(n)}
        frontier = list(group)
        while frontier:
            a = frontier.pop()
            for b in gens:
                c = a.compose(b)
                if c not in group:
                    group.add(c)
                    frontier.append(c)
        assert len(group) == automorphism_group_order(n) == 6 * n * n


def test_action_is_faithful_on_leopoldt_points():
    # distinct group elements act differently on the 3n^2 Leopoldt points
    n = 5
    gens = generators(n)
    group = {FermatAutomorphism.identity(n)}
    frontier = list(group)
    while frontier:
        a = frontier.pop()
        for b in gens:
            c = a.compose(b)
            if c not in group:
                group.add(c)
                frontier.append(c)
    points = leopoldt_points(n)
    images = {tuple(a.apply(p) for p in points) for a in group}
    assert len(images) == len(group) == 150


def test_orbit_sizes_match_independent_closure():
    for n in (4, 5, 6):
        gens = generators(n)
        seed = FermatPoint(n, PointClass.TRIVIAL, 1, (2 % n,))
        expected = brute_orbit_closure(seed, gens, lambda g, p: g.apply(p))
        assert orbit_enumerate(n, seed) == len(expected) == 3 * n
    seed = FermatPoint(5, PointClass.LEOPOLDT, 2, (1, 3))
    expected = brute_orbit_closure(seed, generators(5), lambda g, p: g.apply(p))
    assert orbit_enumerate(5, seed) == len(expected) == 75


@pytest.mark.parametrize("n", range(4, 21))
def test_orbit_sizes_are_whole_families(n):
    # the lemma in orbit_enumerate's docstring, against the explicit action
    sizes = {"trivial": 3 * n, "leopoldt": 3 * n * n}
    families = {"trivial": trivial_points(n)}
    if n >= 5:
        families["leopoldt"] = leopoldt_points(n)
    closure_sizes = {}
    for kind, points in families.items():
        seed = points[len(points) // 2]
        closure = brute_orbit_closure(seed, generators(n), lambda g, p: g.apply(p))
        assert closure == set(points)
        closure_sizes[kind] = len(closure)
        assert {orbit_enumerate(n, s) for s in points} == {len(closure)} == {sizes[kind]}
    assert run(CommandRequest("fermat", {"n": n})).body["orbit_sizes"] == closure_sizes


def test_orbit_enumerate_guards():
    with pytest.raises(ValueError):
        orbit_enumerate(3, FermatPoint(3, PointClass.TRIVIAL, 0, (0,)))
    with pytest.raises(ValueError, match="F_5, not F_6"):
        orbit_enumerate(6, FermatPoint(5, PointClass.TRIVIAL, 0, (0,)))
    with pytest.raises(ValueError, match="F_5, not F_7"):
        orbit_enumerate(7, FermatPoint(5, PointClass.LEOPOLDT, 0, (0, 0)))


def test_automorphism_group_order_guard():
    with pytest.raises(ValueError):
        automorphism_group_order(3)


def test_weight_accounting_frozen_rows():
    r4 = weight_accounting(4)
    assert (r4.total, r4.trivial_subtotal, r4.leopoldt_subtotal, r4.residual) == (24, 24, 0, 0)
    assert "located" in r4.conclusion

    r5 = weight_accounting(5)
    assert (r5.total, r5.trivial_subtotal, r5.leopoldt_subtotal, r5.residual) == (210, 135, 75, 0)

    r6 = weight_accounting(6)
    assert (r6.total, r6.trivial_subtotal, r6.leopoldt_subtotal) == (990, 450, 108)
    assert r6.residual == 432
    assert "further Weierstrass points exist" in r6.conclusion

    r9 = weight_accounting(9)
    assert not r9.leopoldt_is_exact
    assert "lower bounds" in r9.conclusion

    with pytest.raises(ValueError):
        weight_accounting(3)


def test_residual_stays_nonnegative():
    for n in range(4, 40):
        assert weight_accounting(n).residual >= 0


def test_accounting_checks_survive_optimize():
    # python -O strips bare asserts; an inconsistent ledger must still raise
    code = ("from wptrans.fermat import weight_accounting\n"
            "from wptrans.surfacecore import InvariantError, replace\n"
            "try:\n"
            "    replace(weight_accounting(6), residual=431)\n"
            "except InvariantError as exc:\n"
            "    print('raised:', exc)\n")
    src = os.path.dirname(os.path.dirname(wptrans.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "raised: residual 431 != total 990 - subtotals 450 - 108\n"


def test_oracle_guard_fires():
    with pytest.raises(AssertionError):
        FermatAutomorphism.identity(5).compose(FermatAutomorphism.identity(6))


def test_oracle_guards_survive_optimize():
    # conftest registers oracles for assert rewriting, so its guards still
    # fire when the suite runs under python -O
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(wptrans.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         os.path.join(here, "test_fermat.py") + "::test_oracle_guard_fires"],
        cwd=os.path.dirname(here), env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "1 passed" in done.stdout


def test_transitivity_only_at_4():
    assert fermat_transitivity(4).status is TransitivityStatus.TRANSITIVE
    assert fermat_transitivity(5).status is TransitivityStatus.NOT_TRANSITIVE
    assert fermat_transitivity(5).orbit_count_range == (2, 2)
    six = fermat_transitivity(6)
    assert six.orbit_count_range == (3, 2 + 432)
    nine = fermat_transitivity(9)
    assert nine.status is TransitivityStatus.NOT_TRANSITIVE
    assert nine.orbit_count_range[0] == 2
    with pytest.raises(ValueError):
        fermat_transitivity(3)
