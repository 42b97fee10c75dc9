"""Macbeath's fixed-point counts and the Schoeneberg criterion."""

import pytest
from hypothesis import given, settings, strategies as st

from wptrans.fixedpoints import (
    PRIME_TEST_BOUND,
    _root,
    cyclic_fixed_points,
    is_realizable_order,
    psl2q_fixed_points,
    schoeneberg_is_weierstrass,
)

from oracles import brute_cyclic_fixed_points, brute_prime_power, brute_psl2q_fixed_points


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_cyclic_examples():
    # hyperelliptic involution on genus 2: six branch points
    assert cyclic_fixed_points(2, (2,) * 6, 2) == 6
    assert cyclic_fixed_points(4, (4, 4, 2), 4) == 2
    # d need not divide n: an order-5 element of C6 does not exist, but
    # the formula still answers 0 because no period is divisible by 5
    assert cyclic_fixed_points(6, (2, 3), 5) == 0


def test_cyclic_rejects_bad_input():
    with pytest.raises(ValueError):
        cyclic_fixed_points(6, (4,), 2)  # period 4 does not divide n = 6
    with pytest.raises(ValueError):
        cyclic_fixed_points(6, (2, 3), 1)
    with pytest.raises(ValueError):
        cyclic_fixed_points(0, (2,), 2)


def test_cyclic_matches_term_by_term_oracle():
    for n in range(2, 30):
        periods = tuple(m for m in range(2, n + 1) if n % m == 0)
        for d in range(2, n + 2):
            expected = brute_cyclic_fixed_points(n, periods, d)
            assert cyclic_fixed_points(n, periods, d) == expected


def test_hyperelliptic_consistency_sweep():
    # the involution's 2g+2 fixed points, recovered from the signature
    for g in range(1, 51):
        count = cyclic_fixed_points(2, (2,) * (2 * g + 2), 2)
        assert count == 2 * g + 2
        assert schoeneberg_is_weierstrass(count) == (g >= 2)


def test_psl2q_published_values():
    assert psl2q_fixed_points(13, (2, 3, 7), 2) == 6
    assert psl2q_fixed_points(13, (2, 3, 13), 13) == 6
    assert psl2q_fixed_points(8, (2, 3, 7), 2) == 4
    assert psl2q_fixed_points(7, (2, 3, 7), 7) == 3


def test_psl2q_order_11_case():
    # the values behind the genus-26 claim: the involution fixes 6
    # points; an order-5 element fixes 2 on (2,3,5) periods and none on
    # (2,3,11) periods
    assert psl2q_fixed_points(11, (2, 3, 11), 2) == 6
    assert psl2q_fixed_points(11, (2, 3, 5), 5) == 2
    assert psl2q_fixed_points(11, (2, 3, 11), 5) == 0


def test_psl2q_even_characteristic_branch():
    # q = 8: involutions are the characteristic-2 case, 2^(n-1) per
    # period equal to 2
    assert psl2q_fixed_points(8, (2, 2, 3), 2) == 8
    # d = 3 divides q + 1 = 9: count is 2*9*(1/3 + 1/9)
    assert psl2q_fixed_points(8, (3, 7, 9), 3) == 8


def test_psl2q_rejects_unrealizable_order():
    with pytest.raises(ValueError, match="not realizable"):
        psl2q_fixed_points(13, (2, 3, 7), 5)
    with pytest.raises(ValueError, match="not realizable"):
        psl2q_fixed_points(8, (2, 3, 7), 4)


def test_psl2q_rejects_non_integral_count():
    # d = 2 divides (13-1)/2 but the period 8 contributes 12/8
    with pytest.raises(ValueError):
        psl2q_fixed_points(13, (2, 8), 2)


def test_psl2q_rejects_bad_arguments():
    with pytest.raises(ValueError):
        psl2q_fixed_points(13, (2, 3, 7), 1)
    with pytest.raises(ValueError):
        psl2q_fixed_points(13, (1, 3), 2)
    with pytest.raises(ValueError):
        psl2q_fixed_points(12, (2, 3, 7), 2)  # 12 is not a prime power


def test_psl2q_matches_eager_oracle():
    # same integer or same ValueError message for every prime power q <= 128
    # and every d up to q + 2, on periods that hit each branch
    for q in range(2, 129):
        try:
            brute_prime_power(q)
        except ValueError:
            continue
        for periods in ((2, 3, 7), (2, 3, q), (2, 2, 3), (3, 7, 9), (2, 3, 8)):
            for d in range(1, q + 3):
                assert (_outcome(psl2q_fixed_points, q, periods, d)
                        == _outcome(brute_psl2q_fixed_points, q, periods, d)), (q, periods, d)


def test_periods_may_be_a_one_shot_iterable():
    assert psl2q_fixed_points(13, iter((2, 3, 7)), 2) == 6
    assert psl2q_fixed_points(13, (m for m in (2, 3, 13)), 13) == 6
    assert cyclic_fixed_points(6, iter((2, 3, 6)), 2) == 4


def test_is_realizable_order():
    assert is_realizable_order(13, 1)
    assert is_realizable_order(13, 2)
    assert is_realizable_order(13, 7)
    assert is_realizable_order(13, 13)
    assert not is_realizable_order(13, 5)
    assert not is_realizable_order(13, 0)
    assert not is_realizable_order(13, -3)
    assert is_realizable_order(8, 2)
    assert is_realizable_order(8, 9)
    assert not is_realizable_order(8, 4)
    assert is_realizable_order(2, 1)
    assert is_realizable_order(2, 2)
    assert is_realizable_order(2, 3)
    assert not is_realizable_order(2, 0)


def test_is_realizable_order_rejects_bad_q_for_every_d():
    # q is checked before the d < 1 and d == 1 shortcuts
    for q in (12, 1):
        for d in (-3, 0, 1, 2, 7):
            with pytest.raises(ValueError):
                is_realizable_order(q, d)


def test_schoeneberg_threshold_is_strict():
    assert schoeneberg_is_weierstrass(5)
    assert schoeneberg_is_weierstrass(6)
    assert not schoeneberg_is_weierstrass(4)
    assert not schoeneberg_is_weierstrass(0)
    with pytest.raises(ValueError):
        schoeneberg_is_weierstrass(-1)


def test_hurwitz_candidates_above_15_have_many_fixed_points():
    # the counts the Schoeneberg argument needs: involutions and
    # order-3 elements on (2,3,7) periods fix more than 4 points for
    # every Hurwitz prime power above 15
    for q in (27, 29, 41, 43, 71, 83, 97):
        assert psl2q_fixed_points(q, (2, 3, 7), 2) > 4
        assert psl2q_fixed_points(q, (2, 3, 7), 3) > 4


def _assert_floor_root(q, n):
    r = _root(q, n)
    assert r ** n <= q < (r + 1) ** n, (q, n, r)


def test_root_at_exact_powers():
    for n in range(2, 90):
        for r in (2, 3, 43, 10 ** 6 + 3):
            q = r ** n
            for m in (q - 1, q, q + 1):
                _assert_floor_root(m, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, PRIME_TEST_BOUND - 1), st.integers(2, 89))
def test_root_below_the_prime_test_bound(q, n):
    _assert_floor_root(q, n)
