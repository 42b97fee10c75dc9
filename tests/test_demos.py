"""Smoke test: every script in demos/ runs against the package in src/."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

# one line each demo must print, as evidence it reached its main result
KNOWN_LINES = {
    "bielliptic_scan.py": "genera in [11, 10^5] not refuted by divisibility: [15]",
    "fermat_ledger.py": "n = 4: Transitive (1, 1)",
    "hurwitz_surfaces.py": "PSL(2,7): order 168, genus 3, target weight 24",
    "hyperelliptic_census.py": "icosahedron / edge-centres (genus 14):",
}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert KNOWN_LINES[name] in done.stdout


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_ends_quietly_on_closed_pipe(name):
    # `python demos/x.py | head -1` with a reader that closes before the
    # demo writes anything, so its first write meets a broken pipe
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, str(DEMOS / name)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0, err
    assert err == b""
