"""One workload replayed inside one interpreter, started by run.py with the
pinned environment.

    replay.py timed WORKLOAD SEED   (weights, census)
    replay.py trace WORKLOAD SEED   (all three)

Timed: one pass over the seeded batch, one item at a time, timing each
item; run.py starts one such process per pass.  Trace: replays
each item once untraced and once traced (alternating which goes first),
through the public API or through cli.main for the cli workload.  Either
way every outcome is compared with golden.json, and the last line of
stdout is a JSON summary for run.py.
"""

import json
import resource
import sys
import time

import bench_env
import workloads


def _cpu():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _attempt(run, item):
    """The item's outcome; an exception the item does not expect is an outcome
    too, one that matches no golden record."""
    try:
        return run(item)
    except Exception as exc:  # noqa: BLE001 - reported as a failed item
        print("perfbench: %r raised %r" % (item, exc), file=sys.stderr)
        return {"unexpected": repr(exc)}


def _setup(workload, seed):
    import items  # imports wptrans, wptrans.cli included
    import wptrans

    if not wptrans.__file__.startswith(str(bench_env.SRC)):
        sys.exit("perfbench: imported wptrans from %s, not from %s" % (wptrans.__file__,
                                                                        bench_env.SRC))
    golden = json.loads(bench_env.GOLDEN.read_text())[workload]
    batch = workloads.make_batch(workload, seed)
    keys = [workloads.item_key(workload, item) for item in batch]
    missing = [k for k in keys if k not in golden]
    if missing:
        sys.exit("perfbench: no golden outcome for %s" % missing[:3])
    return items, golden, batch, keys


def timed(workload, seed):
    """One pass over the batch: per-item seconds and CPU seconds, in batch order."""
    items, golden, batch, keys = _setup(workload, seed)
    run = items.RUNNERS[workload]
    latencies, cpu, failures = [], [], []
    for item, key in zip(batch, keys):
        c0, t0 = _cpu(), time.perf_counter()
        outcome = _attempt(run, item)
        t1, c1 = time.perf_counter(), _cpu()
        latencies.append(t1 - t0)
        cpu.append(c1 - c0)
        if workloads.digest(outcome) != golden[key]:
            failures.append(key)
    return {"latencies": latencies, "cpu": cpu, "failures": failures,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def trace(workload, seed):
    items, golden, batch, keys = _setup(workload, seed)
    from tracer import Tracer

    run = items.RUNNERS[workload]
    tracer = Tracer()
    untraced = traced = 0.0
    failures = []
    for index, (item, key) in enumerate(zip(batch, keys)):
        for traced_run in ((False, True) if index % 2 == 0 else (True, False)):
            tracer.item = index
            if traced_run:
                tracer.install()
            t0 = time.perf_counter()
            outcome = _attempt(run, item)
            elapsed = time.perf_counter() - t0
            tracer.uninstall()
            if traced_run:
                traced += elapsed
            else:
                untraced += elapsed
            if workloads.digest(outcome) != golden[key]:
                failures.append(key)
    bench_env.OUT.mkdir(exist_ok=True)
    spans_path = bench_env.OUT / ("spans-%s-seed%d.jsonl" % (workload, seed))
    tracer.write(spans_path)
    by_bucket, by_layer = tracer.self_times()
    return {
        "untraced_s": untraced,
        "traced_s": traced,
        "self_by_bucket": by_bucket,
        "self_by_layer": by_layer,
        "span_counts": tracer.span_counts(),
        "counters": tracer.counters,
        "spans_file": str(spans_path.relative_to(bench_env.ROOT)),
        "attempted": 2 * len(batch),
        "failures": failures,
    }


if __name__ == "__main__":
    mode, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    print(json.dumps((timed if mode == "timed" else trace)(workload, seed)))
