"""Every outcome the benchmark can draw, replayed in process against
perfbench/golden.json.

perfbench/workloads.all_items lists each item of a workload once, and
perfbench/items.RUNNERS runs it through the public API (weights, census)
or through cli.main with its output captured (cli).  Each outcome's
digest must equal the recorded one: every verdict, reason string, error
message, exit code and byte of CLI output stays as it was.  The harness
is only read, never changed.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import items  # noqa: E402
import workloads  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())
RECORDED_PYTHON = ".".join(GOLDEN["recorded_with"]["python"].split(".")[:2])
RUNNING_PYTHON = "%d.%d" % sys.version_info[:2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_outcomes_match_golden(workload, monkeypatch):
    if workload == "cli" and RUNNING_PYTHON != RECORDED_PYTHON:
        pytest.skip("cli outputs were recorded with Python %s, this is %s: argparse "
                    "wording can change between versions" % (RECORDED_PYTHON, RUNNING_PYTHON))
    # the benchmark runs the CLI with COLUMNS=80, and argparse wraps its
    # usage messages to it
    monkeypatch.setenv("COLUMNS", "80")
    golden = GOLDEN[workload]
    run = items.RUNNERS[workload]
    mismatched = []
    all_items = workloads.all_items(workload)
    for item in all_items:
        key = workloads.item_key(workload, item)
        if workloads.digest(run(item)) != golden[key]:
            mismatched.append(key)
    assert len(all_items) == len(golden)
    assert mismatched == [], "%d of %d outcomes differ, first %s" % (
        len(mismatched), len(all_items), mismatched[:5])
