"""Where the program lives, the environment it runs in, and what is recorded
about the host with every run."""

import hashlib
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
HASH_SEED = "0"


def check_layout():
    """Exit non-zero, printing no result, unless wptrans and golden.json are here."""
    if not (SRC / "wptrans" / "__init__.py").is_file():
        sys.exit("perfbench: no wptrans sources under %s; run from a checkout of the repo" % SRC)
    if not GOLDEN.is_file():
        sys.exit("perfbench: missing %s" % GOLDEN)


def pinned_env():
    """The environment every wptrans process gets.

    WPTRANS_* settings are removed, so the program never takes its
    process-pool paths.  PYTHON* settings other than PYTHONHOME are
    removed too (PYTHONDONTWRITEBYTECODE would stop .pyc files, which
    users have, and PYTHONOPTIMIZE would strip the package's checks).
    The hash seed is fixed and only the checkout's sources are importable.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("WPTRANS_")
           and (k == "PYTHONHOME" or not k.startswith("PYTHON"))}
    # argparse wraps its usage messages to COLUMNS
    env.update(PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8",
               COLUMNS="80")
    return env


def source_digest():
    """sha256 over the package sources: identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "wptrans").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_record(seed):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_digest": source_digest(),
        "seed": seed,
        "pythonhashseed": HASH_SEED,
    }


def spin(rounds=3, n=400_000):
    """Median seconds of a fixed pure-Python loop that does not use wptrans.

    Timed at the start and end of every run, it tells host drift apart
    from changes in the program.
    """
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        x = 0
        for i in range(n):
            x = (x * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]
