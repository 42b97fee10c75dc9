"""Finite fields, the PSL(2,q) census, Hurwitz status, and verdicts."""

import json
import os
import subprocess
import sys

import pytest

import wptrans
from wptrans import pslgroups
from wptrans.cli import main
from wptrans.fixedpoints import (
    PRIME_TEST_BOUND,
    is_prime,
    is_realizable_order,
    psl2q_fixed_points,
)
from wptrans.orbitweights import TransitivityStatus
from wptrans.pslgroups import (
    CENSUS_Q_LIMIT,
    field_build,
    hurwitz_genus,
    is_hurwitz_psl2q,
    modular_surface_verdict,
    order_census,
    prime_power,
    psl2_order,
    psl2q_transitivity_verdict,
)
from wptrans.surfacecore import InvariantError

from oracles import (
    BrutePSL2,
    brute_field_tables,
    brute_first_irreducible,
    brute_generating_pair,
    brute_is_prime,
    brute_order_census_tables,
    brute_prime_power,
    brute_projective_census,
    brute_surface_fixed_points,
    brute_trace_tally,
)

PRIME_POWERS_32 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)


def _prime_powers(limit):
    found = []
    for q in range(2, limit + 1):
        try:
            prime_power(q)
        except ValueError:
            continue
        found.append(q)
    return found


def test_prime_power():
    assert prime_power(7) == (7, 1)
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(1024) == (2, 10)
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(ValueError):
            prime_power(bad)


def _outcome(fn, q):
    try:
        return fn(q)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_prime_power_matches_trial_division():
    # results and error messages alike, non-integers included
    for q in list(range(-3, 10 ** 5)) + [True, 2.0, "7"]:
        assert _outcome(prime_power, q) == _outcome(brute_prime_power, q), q


# strong pseudoprimes to the first 4, 11 and 12 prime bases (the last is
# the least one for 2..37), so only base 41 exposes it
STRONG_PSEUDOPRIMES = (3_215_031_751, 3_825_123_056_546_413_051,
                       318_665_857_834_031_151_167_461)


def test_prime_power_on_strong_pseudoprimes():
    assert _outcome(prime_power, STRONG_PSEUDOPRIMES[0]) == _outcome(
        brute_prime_power, STRONG_PSEUDOPRIMES[0])
    for m in STRONG_PSEUDOPRIMES:
        assert not is_prime(m)
        assert _outcome(prime_power, m) == ("ValueError", "%d is not a prime power" % m)


def test_prime_power_of_large_inputs():
    assert prime_power(10 ** 18 + 3) == (10 ** 18 + 3, 1)
    p = 10 ** 9 + 7  # and p + 2 are twin primes
    assert prime_power(p ** 2) == (p, 2)
    assert prime_power(3 ** 50) == (3, 50)
    assert _outcome(prime_power, p * (p + 2)) == (
        "ValueError", "%d is not a prime power" % (p * (p + 2)))
    for m in (PRIME_TEST_BOUND, PRIME_TEST_BOUND + 1, 2 ** 100):
        with pytest.raises(ValueError, match="only below %d" % PRIME_TEST_BOUND):
            prime_power(m)
        with pytest.raises(ValueError, match="only below %d" % PRIME_TEST_BOUND):
            is_prime(m)


def test_is_prime_matches_trial_division():
    for m in range(-3, 5000):
        assert is_prime(m) == brute_is_prime(m), m


def test_is_prime_rejects_non_integers():
    # a float or a bool is no prime, even where its value is, and a float
    # past the exact bound is refused as a non-integer, not as too large
    for m in (7.0, 2.0, True, 1e30, "7", None):
        assert is_prime(m) is False, m
    with pytest.raises(ValueError, match="is not prime"):
        field_build(7.0, 1)
    with pytest.raises(ValueError, match="p must be a prime"):
        modular_surface_verdict(7.0)


def test_canonical_moduli():
    # first irreducible monic in the ascending constant-first order
    assert field_build(2, 2).modulus == (1, 1, 1)       # x^2+x+1
    assert field_build(2, 3).modulus == (1, 1, 0, 1)    # x^3+x+1
    assert field_build(3, 2).modulus == (1, 0, 1)       # x^2+1
    assert field_build(2, 4).modulus == (1, 1, 0, 0, 1)  # x^4+x+1


def test_field_build_guards():
    with pytest.raises(ValueError):
        field_build(4, 1)
    # the field bound is the census bound, q <= 32: no 2^16 x 2^16 tables
    for p, n in ((2, 6), (3, 4), (2, 16), (2, 17)):
        with pytest.raises(ValueError, match="exceeds"):
            field_build(p, n)
    field_build(2, 5)  # q = 32 is in bounds


def test_field_tables_match_polynomial_oracle():
    # digit-recurrence tables and modulus against per-entry polynomial
    # arithmetic and trial division, for every prime power q <= 32
    for q in PRIME_POWERS_32:
        p, n = prime_power(q)
        field = field_build(p, n)
        assert field.modulus == brute_first_irreducible(p, n), q
        add, mul, inv, neg = brute_field_tables(p, n, field.modulus)
        assert field.tables() == (tuple(map(tuple, add)), tuple(map(tuple, mul)),
                                  tuple(inv), tuple(neg)), q


def test_field_build_memo_shares_immutable_fields():
    # each field is built once and shared, so its tables must be read-only
    for q in PRIME_POWERS_32:
        p, n = prime_power(q)
        field = field_build(p, n)
        assert field_build(p, n) is field, q
        add, mul, inv, neg = field.tables()
        assert type(inv) is tuple and type(neg) is tuple, q
        for table in (add, mul):
            assert type(table) is tuple and all(type(row) is tuple for row in table), q
    # a rejected (p, n) never enters the memo; 1.0 and True would alias n = 1
    for p, n in ((4, 1), (6, 1), (2, 0), (2, 1.0), (2, True), (True, 1), (2, 6), (3, 4)):
        with pytest.raises(ValueError):
            field_build(p, n)
    for p, n in pslgroups._FIELDS:
        assert type(p) is int and type(n) is int, (p, n)
        assert prime_power(p ** n) == (p, n) and p ** n <= CENSUS_Q_LIMIT, (p, n)


def test_psl2_order():
    assert psl2_order(2) == 6
    assert psl2_order(3) == 12
    assert psl2_order(4) == 60
    assert psl2_order(5) == 60
    assert psl2_order(7) == 168
    assert psl2_order(8) == 504
    assert psl2_order(9) == 360
    assert psl2_order(13) == 1092


def test_census_small_groups():
    # PSL(2,2) = S3, PSL(2,3) = A4, PSL(2,4) = PSL(2,5) = A5,
    # PSL(2,9) = A6: the counts are the classical conjugacy data
    assert order_census(2).counts == {1: 1, 2: 3, 3: 2}
    assert order_census(3).counts == {1: 1, 2: 3, 3: 8}
    a5 = {1: 1, 2: 15, 3: 20, 5: 24}
    assert order_census(4).counts == a5
    assert order_census(5).counts == a5
    assert order_census(9).counts == {1: 1, 2: 45, 3: 80, 4: 90, 5: 144}


def test_census_matches_matrix_powering_oracle():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        p, n = prime_power(q)
        f = field_build(p, n)
        add, mul, _, neg = f.tables()
        expected = brute_order_census_tables(range(q), add, mul, neg, 1)
        assert order_census(q).counts == expected


def test_census_matches_projective_oracle():
    # the trace-class census against one permutation per element
    for q in PRIME_POWERS_32:
        assert order_census(q).counts == brute_projective_census(*prime_power(q)), q


def test_census_checks_raise_invariant_error(monkeypatch):
    # each check starts from an empty memo, so q = 7 is counted, not recalled;
    # a formula that drops the non-split tori undercounts
    monkeypatch.setattr(pslgroups, "_CENSUSES", {})
    monkeypatch.setattr(pslgroups, "_dickson_counts",
                        lambda q, p: {1: 1, 3: 56, 7: 48})
    with pytest.raises(InvariantError, match="does not cover the group"):
        order_census(7)
    # the right total with the identity counted twice
    monkeypatch.setattr(pslgroups, "_CENSUSES", {})
    monkeypatch.setattr(pslgroups, "_dickson_counts",
                        lambda q, p: {1: 2, 2: 20, 3: 56, 4: 42, 7: 48})
    with pytest.raises(InvariantError, match="identity must be counted exactly once"):
        order_census(7)
    assert pslgroups._CENSUSES == {}


def test_census_memo_hands_each_caller_its_own_record():
    first = order_census(17)
    second = order_census(17)
    assert first == second and first is not second
    assert first.counts is not second.counts
    first.counts[17] += 1
    del first.counts[1]
    assert order_census(17).counts == second.counts == brute_projective_census(17, 1)


def test_census_evaluates_each_field_once(monkeypatch):
    monkeypatch.setattr(pslgroups, "_CENSUSES", {})
    evaluated = []
    formula = pslgroups._dickson_counts

    def counted(q, p):
        evaluated.append(q)
        return formula(q, p)

    monkeypatch.setattr(pslgroups, "_dickson_counts", counted)
    first = [order_census(q) for q in PRIME_POWERS_32]
    again = [order_census(q) for q in PRIME_POWERS_32]
    assert evaluated == list(PRIME_POWERS_32)
    assert again == first


def test_every_census_reads_its_field_from_field_build(monkeypatch):
    # hit or miss, each census asks field_build once for its field, so
    # how often a pass calls field_build does not depend on what ran before
    monkeypatch.setattr(pslgroups, "_CENSUSES", {})
    asked = []
    build = pslgroups.field_build

    def counted(p, n):
        asked.append(p ** n)
        return build(p, n)

    monkeypatch.setattr(pslgroups, "field_build", counted)
    for _ in range(2):
        asked.clear()
        for q in PRIME_POWERS_32:
            order_census(q)
        assert asked == list(PRIME_POWERS_32)


def test_census_fills_no_field_table(monkeypatch):
    # a census asks field_build for its field but reads no table, so no
    # modulus search runs; the first read of either builds both, once
    monkeypatch.setattr(pslgroups, "_FIELDS", {})
    monkeypatch.setattr(pslgroups, "_CENSUSES", {})
    built = []
    new_field = pslgroups._new_field

    def counted(p, n, q):
        built.append(q)
        return new_field(p, n, q)

    monkeypatch.setattr(pslgroups, "_new_field", counted)
    for q in PRIME_POWERS_32:
        order_census(q)
    assert built == []
    field = field_build(2, 5)
    modulus, tables = field.modulus, field.tables()
    assert field.modulus is modulus and field.tables() is tables
    assert built == [32]


def test_census_memo_keeps_no_census_that_fails_a_check(monkeypatch):
    monkeypatch.setattr(pslgroups, "_CENSUSES", {})
    # covers the group and counts the identity once, but order 6 is no
    # element order of PSL(2,7): only the realizability check fails
    monkeypatch.setattr(pslgroups, "_dickson_counts", lambda q, p: {1: 1, 6: 167})
    with pytest.raises(InvariantError, match="order 6 in PSL\\(2,7\\)"):
        order_census(7)
    assert pslgroups._CENSUSES == {}
    monkeypatch.undo()
    monkeypatch.setattr(pslgroups, "_CENSUSES", {})
    assert order_census(7).counts == {1: 1, 2: 21, 3: 56, 4: 42, 7: 48}
    # the memo's row order is internal: rows() sorts what is rendered
    gf7 = field_build(7, 1)
    assert list(pslgroups._CENSUSES) == [gf7]
    assert sorted(pslgroups._CENSUSES[gf7]) == [(1, 1), (2, 21), (3, 56), (4, 42), (7, 48)]
    # a recalled census is checked again: rows that miss the group fail
    monkeypatch.setattr(pslgroups, "_CENSUSES", {gf7: ((1, 1),)})
    with pytest.raises(InvariantError, match="does not cover the group"):
        order_census(7)


def test_census_memo_keys_are_the_memoized_fields():
    # a rejected q never enters the memo; 7.0 and True would alias 7 and 1
    for q in (7.0, True, 6, 1, 0, -7, 64, 2 ** 61):
        with pytest.raises(ValueError):
            order_census(q)
    for q in PRIME_POWERS_32:
        order_census(q)
    assert sorted(field.q for field in pslgroups._CENSUSES) == list(PRIME_POWERS_32)
    for field in pslgroups._CENSUSES:
        assert pslgroups._FIELDS[field.p, field.n] is field, field.q


# every (q, t) with q <= 32 and t >= 7 an element order of PSL(2,q); the
# explicit search finds a generating (2,3,t) pair for each of them
TRIANGLE_QUOTIENTS = (
    (7, 7), (8, 7), (8, 9), (11, 11), (13, 7), (13, 13), (16, 15), (16, 17),
    (17, 8), (17, 9), (17, 17), (19, 9), (19, 10), (19, 19), (23, 11), (23, 12),
    (23, 23), (25, 12), (25, 13), (27, 7), (27, 13), (27, 14), (29, 7), (29, 14),
    (29, 15), (29, 29), (31, 8), (31, 15), (31, 16), (31, 31), (32, 11), (32, 31),
    (32, 33),
)


def test_macbeath_fixed_points_match_explicit_action():
    # psl2q_fixed_points against fixed cosets counted on a generating
    # (2,3,t) pair, for one element of each order
    found = []
    for q in PRIME_POWERS_32:
        orders = [d for d in order_census(q).orders() if d > 1]
        group = BrutePSL2(*prime_power(q))
        assert len(group.elements) == psl2_order(q), q
        for t in (d for d in orders if d >= 7):
            pair = brute_generating_pair(group, t)
            if pair is None:
                continue
            found.append((q, t))
            for d in orders:
                g = group.element_of_order(d)
                assert g is not None, (q, d)
                assert brute_surface_fixed_points(group, g, pair) == psl2q_fixed_points(
                    q, (2, 3, t), d), (q, t, d)
    assert tuple(found) == TRIANGLE_QUOTIENTS
    # every pair the verdicts quote a (2,3,t) surface for is realized
    assert {(7, 7), (8, 7), (11, 11), (13, 7), (13, 13), (27, 7), (29, 7)} <= set(found)


def test_explicit_action_pins_the_q_11_note_and_q_9():
    # the (11,11) discrepancy note's computed values, now checked
    group = BrutePSL2(11, 1)
    pair = brute_generating_pair(group, 11)
    assert brute_surface_fixed_points(group, group.element_of_order(2), pair) == 6
    assert brute_surface_fixed_points(group, group.element_of_order(5), pair) == 0
    # Macbeath's exception: PSL(2,9) has no generating pair of orders 2 and 3
    assert brute_generating_pair(BrutePSL2(3, 2)) is None


def test_trace_class_sizes_match_oracle():
    # SL(2,q) has q(q - 1 + r) matrices of trace t, r the number of roots
    # of x^2 - tx + 1, counted in the oracle's own field
    for q in _prime_powers(CENSUS_Q_LIMIT):
        p, n = prime_power(q)
        add, mul, _, neg = brute_field_tables(p, n, brute_first_irreducible(p, n))
        tally = brute_trace_tally(p, n)
        for t in range(q):
            roots = sum(add[add[mul[x][x]][neg[mul[t][x]]]][1] == 0 for x in range(q))
            assert tally[t] == q * (q - 1 + roots), (q, t)


def test_census_checks_survive_optimize():
    # under python -O bare asserts vanish; the census checks must still exit 3
    code = ("import sys; from wptrans import pslgroups, cli; "
            "pslgroups._dickson_counts = lambda q, p: {1: 1}; "
            "sys.exit(cli.main(['census', '--q', '7']))")
    src = os.path.dirname(os.path.dirname(wptrans.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 3
    assert "census does not cover the group" in done.stderr


def test_census_totals_and_realizability_two_sided():
    for q in PRIME_POWERS_32:
        census = order_census(q)
        assert census.group_order == psl2_order(q)
        assert sum(census.counts.values()) == census.group_order
        arithmetic = {d for d in range(1, q + 2) if is_realizable_order(q, d)}
        assert set(census.orders()) == arithmetic


def test_dickson_counts_beyond_the_census_limit():
    # the formula has no limit of its own: for every prime power q < 2000
    # it covers the group, counts the identity once and q^2 - 1 elements
    # of order p, and finds exactly the orders the predicate admits among
    # p and the divisors of q - 1 and q + 1
    for q in _prime_powers(1999):
        p, _ = prime_power(q)
        counts = pslgroups._dickson_counts(q, p)
        assert sum(counts.values()) == psl2_order(q), q
        assert counts[1] == 1 and counts[p] == q * q - 1, q
        candidates = {d for d in range(1, q + 2) if (q - 1) % d == 0 or (q + 1) % d == 0}
        assert set(counts) == {d for d in candidates | {p} if is_realizable_order(q, d)}, q


def _cli_json(capsys, argv):
    assert main(argv + ["--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_census_workers_agree(capsys):
    # --workers is deprecated and ignored: the census always runs in process,
    # and the flag is not echoed under parameters
    plain = _cli_json(capsys, ["census", "--q", "13"])
    assert plain["parameters"] == {"q": 13}
    assert _cli_json(capsys, ["census", "--q", "13", "--workers", "2"]) == plain


def test_census_workers_env(monkeypatch, capsys):
    plain = _cli_json(capsys, ["census", "--q", "7"])
    monkeypatch.setenv("WPTRANS_WORKERS", "2")
    assert _cli_json(capsys, ["census", "--q", "7"]) == plain
    assert plain["body"]["orders"] == [[1, 1], [2, 21], [3, 56], [4, 42], [7, 48]]


def test_census_guards():
    with pytest.raises(ValueError):
        order_census(CENSUS_Q_LIMIT + 1)
    with pytest.raises(ValueError):
        order_census(6)


def test_hurwitz_clauses():
    assert is_hurwitz_psl2q(7).is_hurwitz
    assert "clause (i)" in is_hurwitz_psl2q(7).reason
    assert is_hurwitz_psl2q(13).is_hurwitz
    assert "clause (ii)" in is_hurwitz_psl2q(13).reason
    assert is_hurwitz_psl2q(29).is_hurwitz
    assert is_hurwitz_psl2q(27).is_hurwitz
    assert "clause (iii)" in is_hurwitz_psl2q(27).reason
    assert is_hurwitz_psl2q(8).is_hurwitz
    assert is_hurwitz_psl2q(125).is_hurwitz

    assert not is_hurwitz_psl2q(11).is_hurwitz
    assert not is_hurwitz_psl2q(49).is_hurwitz   # 7^2: wrong exponent
    assert not is_hurwitz_psl2q(343).is_hurwitz  # 7^3: p = 0 mod 7
    assert not is_hurwitz_psl2q(64).is_hurwitz
    assert not is_hurwitz_psl2q(121).is_hurwitz


def test_hurwitz_genus():
    assert hurwitz_genus(84) == 2
    assert hurwitz_genus(168) == 3
    assert hurwitz_genus(504) == 7
    assert hurwitz_genus(1092) == 14
    for bad in (0, 83, 85, 168 + 1):
        with pytest.raises(ValueError):
            hurwitz_genus(bad)


def test_verdict_transitive_pairs():
    klein = psl2q_transitivity_verdict(7, 7)
    assert klein.status is TransitivityStatus.TRANSITIVE
    assert any("Klein" in r for r in klein.reasons)
    macbeath = psl2q_transitivity_verdict(8, 7)
    assert macbeath.status is TransitivityStatus.TRANSITIVE
    assert any("Macbeath surface" in r for r in macbeath.reasons)


def test_verdict_13_7_undecided_with_streit():
    verdict = psl2q_transitivity_verdict(13, 7)
    assert verdict.status is TransitivityStatus.UNDECIDED
    assert verdict.orbit_count_range == (1, 2)
    assert verdict.guaranteed_orbits == (2,)
    assert any("Streit" in r for r in verdict.reasons)
    assert any("genus" in r and "14" in r for r in verdict.reasons)


def test_verdict_13_13_not_transitive():
    verdict = psl2q_transitivity_verdict(13, 13)
    assert verdict.status is TransitivityStatus.NOT_TRANSITIVE
    assert any("fixes 6 points" in r for r in verdict.reasons)
    assert any("Schoeneberg" in r for r in verdict.reasons)


def test_verdict_11_records_discrepancy():
    verdict = psl2q_transitivity_verdict(11, 11)
    assert verdict.status is TransitivityStatus.NOT_TRANSITIVE
    assert any("discrepancy" in r for r in verdict.reasons)


def test_verdict_large_q_sweep():
    # every Hurwitz prime power above 15 up to 1000 is not transitive
    hurwitz = [q for q in _prime_powers(1000)
               if q > 15 and is_hurwitz_psl2q(q).is_hurwitz]
    assert 125 in hurwitz and 997 not in hurwitz
    for q in hurwitz:
        verdict = psl2q_transitivity_verdict(q, 7)
        assert verdict.status is TransitivityStatus.NOT_TRANSITIVE
        assert verdict.orbit_count_range == (2, 4)
        assert any("Schoeneberg" in r for r in verdict.reasons)


def test_verdict_outside_coverage():
    verdict = psl2q_transitivity_verdict(9, 7)
    assert verdict.status is TransitivityStatus.UNDECIDED
    assert verdict.orbit_count_range == (1, 4)
    verdict = psl2q_transitivity_verdict(7, 8)
    assert verdict.status is TransitivityStatus.UNDECIDED


def test_verdict_guards():
    with pytest.raises(ValueError):
        psl2q_transitivity_verdict(6, 7)
    with pytest.raises(ValueError):
        psl2q_transitivity_verdict(13, 6)


def test_modular_surface_verdicts():
    void = modular_surface_verdict(5)
    assert void.status is TransitivityStatus.UNDECIDED
    assert void.orbit_count_range == (0, 0)
    seven = modular_surface_verdict(7)
    assert seven.status is TransitivityStatus.TRANSITIVE
    assert any("X(7)" in r for r in seven.reasons)
    assert modular_surface_verdict(11).status is TransitivityStatus.NOT_TRANSITIVE
    assert modular_surface_verdict(13).status is TransitivityStatus.NOT_TRANSITIVE
    for bad in (4, 6, 9, 3):
        with pytest.raises(ValueError):
            modular_surface_verdict(bad)
