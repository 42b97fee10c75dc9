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
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import bench_env  # noqa: E402
import items  # noqa: E402
import workloads  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())
RECORDED_PYTHON = ".".join(GOLDEN["recorded_with"]["python"].split(".")[:2])
RUNNING_PYTHON = "%d.%d" % sys.version_info[:2]
CLI_SKIP = ("cli outputs were recorded with Python %s, this is %s: argparse wording "
            "can change between versions" % (RECORDED_PYTHON, RUNNING_PYTHON))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_outcomes_match_golden(workload, monkeypatch):
    if workload == "cli" and RUNNING_PYTHON != RECORDED_PYTHON:
        pytest.skip(CLI_SKIP)
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


def _cold_items():
    """For each subcommand and format, the shortest golden cli item that
    the benchmark does not draw as a rejected input, so each one renders."""
    rejected = {workloads.cli_key(argv) for name, pool, _ in workloads.CLI_TIERS
                if name == "rejected" for argv in pool}
    chosen = {}
    for argv in workloads.all_items("cli"):
        key = workloads.cli_key(argv)
        if key in rejected:
            continue
        pair = argv[0], argv[argv.index("--format") + 1]
        if pair not in chosen or len(key) < len(workloads.cli_key(chosen[pair])):
            chosen[pair] = argv
    return [chosen[pair] for pair in sorted(chosen)]


@pytest.mark.parametrize("argv", _cold_items(), ids=workloads.cli_key)
def test_cold_cli_outcome_matches_golden(argv):
    # the in-process replay runs after other tests have imported json and
    # fractions; a fresh interpreter (-S: no site-packages hooks) shows a
    # function-local import that fails cold
    if RUNNING_PYTHON != RECORDED_PYTHON:
        pytest.skip(CLI_SKIP)
    done = subprocess.run([sys.executable, "-S", "-m", "wptrans.cli"] + argv,
                          env=bench_env.pinned_env(), capture_output=True, timeout=60)
    outcome = workloads.cli_outcome(done.returncode, done.stdout, done.stderr)
    assert workloads.digest(outcome) == GOLDEN["cli"][workloads.cli_key(argv)], (
        done.returncode, done.stderr.decode(errors="replace"))
