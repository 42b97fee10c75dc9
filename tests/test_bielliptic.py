"""Kato's weight bounds and the bi-elliptic divisibility scan."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wptrans.bielliptic import (
    _CERTIFIED_FROM,
    bielliptic_window,
    garcia_transitivity_test,
    kato_max_weight,
    nu,
    scan_nontransitive,
    two_hyperelliptic,
)
from wptrans.cli import main
from wptrans.orbitweights import TransitivityStatus

from oracles import brute_bielliptic_survivors


def test_kato_max_weight_values():
    # the listed genera use g(g-1)/3, the rest (g^2-5g+10)/2
    assert kato_max_weight(3) == 2
    assert kato_max_weight(4) == 4
    assert kato_max_weight(5) == 5
    assert kato_max_weight(6) == 10
    assert kato_max_weight(7) == 14
    assert kato_max_weight(8) == 17
    assert kato_max_weight(9) == 24
    assert kato_max_weight(10) == 30
    assert kato_max_weight(11) == 38
    assert kato_max_weight(15) == 80
    with pytest.raises(ValueError):
        kato_max_weight(2)


def test_kato_below_hyperelliptic_extreme():
    for g in range(3, 101):
        assert kato_max_weight(g) < g * (g - 1) // 2


def test_bielliptic_window_values():
    w11 = bielliptic_window(11)
    assert (w11.low, w11.high_exclusive) == (36, 55)
    assert w11.candidates == (36, 38)
    w15 = bielliptic_window(15)
    assert w15.candidates == (78, 80)
    w12 = bielliptic_window(12)
    assert w12.candidates == (45, 47)
    with pytest.raises(ValueError, match="below theorem hypothesis"):
        bielliptic_window(10)


def test_window_candidates_are_integral():
    for g in range(11, 400):
        window = bielliptic_window(g)
        assert window.low <= window.candidates[0] < window.high_exclusive
        assert window.low <= window.candidates[1] < window.high_exclusive


def test_nu_values():
    assert nu(15) == 2
    assert nu(11) == Fraction(208, 76)
    assert nu(11) < 3


def test_nu_strictly_decreasing():
    # integer cross-multiplication, no Fraction churn in the loop
    def num(g):
        return 28 * g - 100

    def den(g):
        return g * g - 5 * g + 10

    for g in range(11, 10 ** 6):
        assert num(g) * den(g + 1) > num(g + 1) * den(g)


def test_weight_count_identity_is_algebraic():
    # 2g + 10 + nu(g) == (g^3 - g) / kato weight, exactly, for every g
    for g in range(11, 200):
        kato = kato_max_weight(g)
        assert 2 * g + 10 + nu(g) == Fraction(g ** 3 - g, kato)


def test_garcia_refutes_generic_genus():
    verdict = garcia_transitivity_test(12)
    assert verdict.status is TransitivityStatus.NOT_TRANSITIVE
    assert verdict.orbit_count_range == (2, 12 ** 3 - 12)
    assert any("Kato" in r for r in verdict.reasons)
    assert any("Garcia" in r for r in verdict.reasons)
    assert any("mod" in r for r in verdict.reasons)
    assert garcia_transitivity_test(11).status is TransitivityStatus.NOT_TRANSITIVE


def test_garcia_abstains_at_15():
    verdict = garcia_transitivity_test(15)
    assert verdict.status is TransitivityStatus.UNDECIDED
    assert verdict.orbit_count_range == (1, 3360)
    assert any("|W| = 42" in r for r in verdict.reasons)
    assert any("nu(15) = 2" in r for r in verdict.reasons)


def test_garcia_guards():
    with pytest.raises(ValueError):
        garcia_transitivity_test(10)


def test_scan_isolates_15():
    for g_from, g_to, expected in ((11, 10000, [15]), (16, 100, []), (15, 15, [15])):
        assert scan_nontransitive(g_from, g_to) == expected
        assert brute_bielliptic_survivors(g_from, g_to) == expected


def test_certificate_identities():
    # both sides are cubics in g, so agreement at 4 points is already a proof
    for g in range(11, 10 ** 4 + 1):
        w1, w2 = bielliptic_window(g).candidates
        assert g ** 3 - g == (2 * g + 10) * w1 + (18 * g - 30)
        assert g ** 3 - g == (2 * g + 10) * w2 + (14 * g - 50)


def test_certificate_remainders_are_proper_from_40():
    def proper(g):
        w1, w2 = bielliptic_window(g).candidates
        return 0 < 18 * g - 30 < w1 and 0 < 14 * g - 50 < w2

    for g in range(11, 10 ** 4 + 1):
        w1, w2 = bielliptic_window(g).candidates
        quadratic = g * g - 41 * g + 66
        # twice the gap between each w and its remainder, as quadratics
        assert 2 * (w1 - (18 * g - 30)) == quadratic
        assert 2 * (w2 - (14 * g - 50)) == quadratic + 8 * g + 44
        # g^2 - 41g + 66 = (g - 40)(g - 1) + 26, which is >= 26 for g >= 40
        assert quadratic == (g - 40) * (g - 1) + 26
        assert proper(g) == (g >= 40)
    assert not proper(39)
    # the scan checks one by one exactly the genera the certificate leaves open
    assert _CERTIFIED_FROM == 40


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=11, max_value=5000), st.integers(min_value=11, max_value=5000))
def test_scan_matches_oracle_on_subranges(a, b):
    g_from, g_to = min(a, b), max(a, b)
    assert scan_nontransitive(g_from, g_to) == brute_bielliptic_survivors(g_from, g_to)


def test_scan_agrees_with_pointwise_test():
    survivors = scan_nontransitive(11, 300)
    for g in range(11, 301):
        status = garcia_transitivity_test(g).status
        assert (g in survivors) == (status is TransitivityStatus.UNDECIDED)


def _cli_json(capsys, argv):
    assert main(argv + ["--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_scan_workers_agree(monkeypatch, capsys):
    # --workers and WPTRANS_WORKERS are deprecated and ignored: neither the
    # body nor the echoed parameters change
    argv = ["bielliptic-scan", "--from", "11", "--to", "2000"]
    plain = _cli_json(capsys, argv)
    assert plain["parameters"] == {"g_from": 11, "g_to": 2000}
    assert _cli_json(capsys, argv + ["--workers", "2"]) == plain
    monkeypatch.setenv("WPTRANS_WORKERS", "2")
    assert _cli_json(capsys, argv) == plain


def test_cli_scan_of_a_huge_range_returns_at_once(capsys):
    # a per-genus loop to 10^12 would run for hours; the certificate decides it
    def survivors(g_from):
        argv = ["bielliptic-scan", "--from", g_from, "--to", str(10 ** 12)]
        return _cli_json(capsys, argv)["body"]["survivors"]

    assert survivors("11") == [15]
    assert survivors("40") == []


def test_scan_guards():
    with pytest.raises(ValueError):
        scan_nontransitive(10, 20)
    with pytest.raises(ValueError):
        scan_nontransitive(20, 11)


def test_two_hyperelliptic_is_explicitly_missing():
    with pytest.raises(NotImplementedError, match="2-hyperelliptic"):
        two_hyperelliptic(12)
