"""Shared pytest wiring: oracle assert rewriting, fresh weight-equation
memos for every test, and the acceptance summary.

After every run that touched tests/test_acceptance.py, print one
PASS/FAIL line per numbered criterion so the checklist can be read off
the bottom of the log without grepping.  A criterion whose test errored
during setup/collection counts as FAIL, not as skipped.
"""

import re

import pytest

from wptrans import orbitweights

# oracles.py guards its results with bare asserts; rewriting them like a
# test module's keeps them under python -O.  This must run before any
# test module imports oracles.
pytest.register_assert_rewrite("oracles")

# every per-process memo of the weight equation: a test that counts walks,
# cache hits or misses starts from none of the entries earlier tests left
ORBITWEIGHTS_MEMOS = (
    orbitweights._differences,
    orbitweights._certificates,
    orbitweights._equation_supports,
    orbitweights._equation_count,
)


@pytest.fixture(autouse=True)
def _fresh_orbitweights_memos():
    for memo in ORBITWEIGHTS_MEMOS:
        memo.cache_clear()
    orbitweights._VERDICTS.clear()


ACCEPTANCE_FILE = "test_acceptance.py"

CRITERIA = {
    1: "Klein quartic weight equation has the unique solution (1,0,0,0)",
    2: "Macbeath surface weight equation forces (0,2,0,0)",
    3: "PSL(2,13) system: ten solutions, Streit mask leaves three",
    4: "transitive hyperelliptic classification (AM series + sporadics)",
    5: "Macbeath fixed-point counts for PSL(2,13) actions",
    6: "Hurwitz classification of PSL(2,q) and genus map",
    7: "brute-force order census of PSL(2,q)",
    8: "necessary weight from the divisibility condition",
    9: "bi-elliptic scan isolates genus 15",
    10: "Fermat weight accounting and orbit sizes",
    11: "regular-map dataset validates 12/12",
    12: "property suites (solver oracle, integrality, Riemann-Hurwitz)",
}

_NODE_RE = re.compile(r"test_criterion_(\d+)")


def _criterion_of(report):
    if ACCEPTANCE_FILE not in report.nodeid:
        return None
    match = _NODE_RE.search(report.nodeid)
    if match is None:
        return None
    return int(match.group(1))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    stats = terminalreporter.stats
    outcomes = {}
    for key, verdict in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in stats.get(key, ()):
            number = _criterion_of(report)
            if number is None:
                continue
            # setup errors arrive alongside a missing call phase; FAIL wins
            if outcomes.get(number) != "FAIL":
                outcomes[number] = verdict
    if not outcomes:
        return
    writer = terminalreporter
    writer.section("acceptance criteria")
    for number in sorted(CRITERIA):
        verdict = outcomes.get(number)
        if verdict is None:
            # criterion not exercised in this run (e.g. -k filter)
            continue
        writer.write_line("ACCEPTANCE %02d %s  %s" % (number, verdict, CRITERIA[number]))
