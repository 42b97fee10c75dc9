"""The wptrans benchmark: one seeded workload, timed or traced.

    python3 perfbench/run.py --workload {weights,census,cli} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout of the repository; it imports
wptrans from the checkout's src/ only.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
The lines above it repeat each metric with its unit, plus fail_frac and
the host-drift spin, and a record of the run is written under
perfbench/out/.

Load is one closed loop with one caller.  weights and census replay each
pass of the batch in a child interpreter, through the public API; cli
starts one cold `wptrans` process per item, one at a time.
"""

import argparse
import functools
import json
import resource
import statistics
import subprocess
import sys
import time

import bench_env
import workloads

SETUP_RUNS = 8  # before the timed passes, and as many again after them
IMPORT_RUNS = 5
CHILD_TIMEOUT = 170
# what the installed `wptrans` console script runs
CLI_ENTRY = "import sys; from wptrans.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import wptrans.cli; "
                "print(time.perf_counter() - t)")

# spans that must appear when each workload is traced: the layers the
# workload exists to exercise
EXPECTED_SPANS = {
    "weights": ("orbitweights.solve", "orbitweights.classify", "surfacecore"),
    "census": ("pslgroups.census", "pslgroups.field", "pslgroups.verdict",
               "orbitweights", "fixedpoints"),
    "cli": ("cli.main", "report.run", "report.render", "orbitweights.solve",
            "orbitweights.classify", "pslgroups.census", "pslgroups.field",
            "pslgroups.verdict", "bielliptic.scan", "fermat.orbit", "platonic",
            "fixedpoints", "surfacecore"),
}


def _python(code_or_args, env, **kwargs):
    args = ["-c", code_or_args] if isinstance(code_or_args, str) else code_or_args
    return subprocess.run([sys.executable] + args, env=env, cwd=bench_env.ROOT,
                          capture_output=True, timeout=CHILD_TIMEOUT, **kwargs)


def _checked(proc, what):
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        sys.exit("perfbench: %s exited %d" % (what, proc.returncode))
    return proc


def _children_cpu():
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def setup_samples(env):
    """Wall seconds for fresh interpreters to import wptrans.cli."""
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        _checked(_python("import wptrans.cli", env), "import wptrans.cli")
        samples.append(time.perf_counter() - t0)
    return samples


def measure_import(env):
    """Median seconds of `import wptrans.cli` timed inside fresh interpreters."""
    return statistics.median(
        float(_checked(_python(IMPORT_PROBE, env), "import probe").stdout)
        for _ in range(IMPORT_RUNS))


def cli_pass(batch, golden, env):
    """One pass of cold `wptrans` processes over the batch, like replay.timed."""
    latencies, cpu, failures = [], [], []
    for argv in batch:
        c0, t0 = _children_cpu(), time.perf_counter()
        proc = _python(["-c", CLI_ENTRY] + argv, env)
        t1, c1 = time.perf_counter(), _children_cpu()
        latencies.append(t1 - t0)
        cpu.append(c1 - c0)
        outcome = workloads.cli_outcome(proc.returncode, proc.stdout, proc.stderr)
        if workloads.digest(outcome) != golden.get(workloads.cli_key(argv)):
            failures.append(workloads.cli_key(argv))
    return {"latencies": latencies, "cpu": cpu, "failures": failures,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


def replay(env, *args):
    proc = _checked(_python([str(bench_env.BENCH / "replay.py")] + list(args), env),
                    "replay " + " ".join(args))
    return json.loads(proc.stdout.decode().splitlines()[-1])


def timed_passes(workload, seed, seconds, env):
    """Passes over the batch while another pass still fits in `seconds`.

    weights and census run each pass in a fresh replay process, so every
    pass starts from the same heap and its peak RSS is its own.
    """
    if workload == "cli":
        golden = json.loads(bench_env.GOLDEN.read_text())["cli"]
        one_pass = functools.partial(cli_pass, workloads.make_batch("cli", seed), golden, env)
    else:
        one_pass = functools.partial(replay, env, "timed", workload, str(seed))
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start
                         + sum(passes[-1]["latencies"])) <= seconds:
        passes.append(one_pass())
    return passes


def end_to_end(passes, setup_s):
    """Each item's time is its median over the passes; the batch's is their sum."""
    lat = [statistics.median(x) for x in zip(*(p["latencies"] for p in passes))]
    cpu = [statistics.median(x) for x in zip(*(p["cpu"] for p in passes))]
    p90 = statistics.quantiles(lat, n=10)[-1]
    if sum(1 for x in lat if x > p90) < 10:
        sys.exit("perfbench: fewer than ten items beyond p90 (batch of %d)" % len(lat))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(lat), "s"),
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (p90, "s"),
        "cpu_s": (sum(cpu), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
    }


def per_layer(data, import_s):
    sb, sl, c = data["self_by_bucket"], data["self_by_layer"], data["counters"]

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    return {
        "orbitweights.solve_s": (sb.get("orbitweights.solve", 0.0), "s"),
        "orbitweights.classify_s": (sb.get("orbitweights.classify", 0.0), "s"),
        "orbitweights.solutions": (c.get("orbitweights.solutions", 0), "count"),
        "orbitweights.survivor_ratio": (
            ratio("orbitweights.survivors", "orbitweights.materialised"), "ratio"),
        "pslgroups.census_s": (sb.get("pslgroups.census", 0.0), "s"),
        "pslgroups.field_s": (sb.get("pslgroups.field", 0.0), "s"),
        "pslgroups.field_builds": (c.get("pslgroups.field_builds", 0), "count"),
        "pslgroups.census_elements": (c.get("pslgroups.census_elements", 0), "count"),
        "pslgroups.verdict_s": (sb.get("pslgroups.verdict", 0.0), "s"),
        "bielliptic.scan_s": (sb.get("bielliptic.scan", 0.0), "s"),
        "bielliptic.genera_scanned": (c.get("bielliptic.genera_scanned", 0), "count"),
        "bielliptic.survivor_ratio": (
            ratio("bielliptic.survivors", "bielliptic.genera_scanned"), "ratio"),
        "fermat.orbit_s": (sb.get("fermat.orbit", 0.0), "s"),
        "fermat.orbit_points": (c.get("fermat.orbit_points", 0), "count"),
        "report.run_self_s": (sb.get("report.run", 0.0), "s"),
        "report.render_s": (sb.get("report.render", 0.0), "s"),
        "report.bytes_out": (c.get("report.bytes_out", 0), "bytes"),
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (sb.get("cli.main", 0.0), "s"),
        "platonic.busy_s": (sl.get("platonic", 0.0), "s"),
        "fixedpoints.busy_s": (sl.get("fixedpoints", 0.0), "s"),
        "surfacecore.busy_s": (sl.get("surfacecore", 0.0), "s"),
        "tracer.overhead_s": (data["traced_s"] - data["untraced_s"], "s"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_env.check_layout()
    env = bench_env.pinned_env()
    record = {"workload": args.workload, "trace": args.trace,
              "host": bench_env.host_record(args.seed), "spin_start_s": bench_env.spin()}
    # untimed: compiles the .pyc files that an installed package has
    _checked(_python("import wptrans.cli", env), "warm-up import")
    batch_size = len(workloads.make_batch(args.workload, args.seed))

    if args.trace:
        data = replay(env, "trace", args.workload, str(args.seed))
        counts = data.pop("span_counts")
        missing = [name for name in EXPECTED_SPANS[args.workload] if not counts.get(name)]
        if missing:
            sys.exit("perfbench: traced %s recorded no spans for %s"
                     % (args.workload, ", ".join(missing)))
        metrics = per_layer(data, measure_import(env))
        record.update(span_counts=counts, spans_file=data["spans_file"],
                      counters=data["counters"], untraced_s=data["untraced_s"],
                      traced_s=data["traced_s"])
    else:
        # set-up is sampled on both sides of the passes, so that its median
        # covers the host as the run found it, not one moment of it
        setup = setup_samples(env)
        passes = timed_passes(args.workload, args.seed, args.seconds, env)
        setup += setup_samples(env)
        metrics = end_to_end(passes, statistics.median(setup))
        data = {"attempted": sum(len(p["latencies"]) for p in passes),
                "failures": [key for p in passes for key in p["failures"]]}
        record.update(pass_walls=[sum(p["latencies"]) for p in passes],
                      pass_peak_rss_kb=[p["peak_rss_kb"] for p in passes])

    attempted, failed = data["attempted"], len(data["failures"])
    record.update(spin_end_s=bench_env.spin(), batch_size=batch_size, attempted=attempted,
                  failed=failed, fail_frac=failed / attempted,
                  failures=sorted(set(data["failures"])),
                  metrics={k: v for k, (v, _) in metrics.items()})
    bench_env.OUT.mkdir(exist_ok=True)
    (bench_env.OUT / ("run-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for name, (value, unit) in metrics.items():
        print("%-28s %14.6g %s" % (name, value, unit))
    print("%-28s %14.6g (%d of %d items)" % ("fail_frac", failed / attempted, failed, attempted))
    print("%-28s %14.6g s -> %.6g s (host drift diagnostic)"
          % ("spin", record["spin_start_s"], record["spin_end_s"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
