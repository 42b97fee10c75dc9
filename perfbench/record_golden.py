"""Record the expected outcome of every item any seed can draw.

    python3 perfbench/record_golden.py

Run it only at a commit whose outputs are the reference; it rewrites
perfbench/golden.json.  It runs in a child interpreter with the pinned
environment, and it checks that every CLI item outside the "rejected"
tier exits 0 and every rejected one exits 2.
"""

import json
import subprocess
import sys

import bench_env
import workloads


def record():
    import items

    golden = {"recorded_with": bench_env.host_record(None)}
    for workload in workloads.WORKLOADS:
        outcomes = {workloads.item_key(workload, item): items.RUNNERS[workload](item)
                    for item in workloads.all_items(workload)}
        if workload == "cli":
            _check_exit_codes(outcomes)
        golden[workload] = {key: workloads.digest(out) for key, out in outcomes.items()}
        print("%s: %d items" % (workload, len(outcomes)), file=sys.stderr)
    bench_env.GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")


def _check_exit_codes(outcomes):
    for tier, pool, _ in workloads.CLI_TIERS:
        expected = 2 if tier == "rejected" else 0
        for argv in pool:
            code = outcomes[workloads.cli_key(argv)]["exit"]
            if code != expected:
                raise SystemExit("tier %s: `wptrans %s` exited %d, expected %d"
                                 % (tier, " ".join(argv), code, expected))


if __name__ == "__main__":
    if "--child" in sys.argv:
        record()
    else:
        sys.exit(subprocess.run([sys.executable, __file__, "--child"], cwd=bench_env.ROOT,
                                env=bench_env.pinned_env()).returncode)
