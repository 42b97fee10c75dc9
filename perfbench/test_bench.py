"""Checks of the benchmark itself:  python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import bench_env  # noqa: E402
import items  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# tiers cheap enough to trace in a unit test
CHEAP_TIERS = {
    "census": {"hurwitz", "psl-verdict", "counting-verdict", "modular", "light"},
    "cli": {"hurwitz", "psl-verdict", "modular", "validate-tables", "hyperelliptic",
            "fermat-small", "census-small", "orbit-weights-small", "rejected"},
}


def _cheap_items(workload, seed):
    batch = workloads.make_batch(workload, seed)
    if workload == "weights":
        return [it for it in batch if workloads.weights_estimate(it[0], it[1])[1] < 0.01]
    tiers = workloads.CENSUS_TIERS if workload == "census" else workloads.CLI_TIERS
    keys = {workloads.item_key(workload, it) for name, pool, _ in tiers
            if name in CHEAP_TIERS[workload] for it in pool}
    return [it for it in batch if workloads.item_key(workload, it) in keys]


def _traced_counters(workload, batch):
    tracer = Tracer()
    tracer.install()
    try:
        for item in batch:
            items.RUNNERS[workload](item)
    finally:
        tracer.uninstall()
    return tracer.counters, tracer.span_counts()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_exactly_for_one_seed(workload):
    batch = _cheap_items(workload, 7)
    first, spans = _traced_counters(workload, batch)
    second, _ = _traced_counters(workload, batch)
    assert first and first == second
    assert spans


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_alone_decides_the_inputs(workload):
    assert workloads.make_batch(workload, 3) == workloads.make_batch(workload, 3)
    assert workloads.make_batch(workload, 3) != workloads.make_batch(workload, 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_golden_holds_every_item_a_seed_can_draw(workload):
    golden = json.loads(bench_env.GOLDEN.read_text())[workload]
    keys = {workloads.item_key(workload, it) for it in workloads.all_items(workload)}
    assert keys == set(golden)
    for seed in range(20):
        assert {workloads.item_key(workload, it)
                for it in workloads.make_batch(workload, seed)} <= keys


def test_tracer_wraps_every_import_site_and_restores_them():
    import wptrans
    from wptrans import cli, orbitweights, pslgroups, report

    originals = (orbitweights.classify, pslgroups.FiniteField.tables, report.render)
    tracer = Tracer()
    tracer.install()
    try:
        assert pslgroups.classify is orbitweights.classify is wptrans.classify
        assert pslgroups.classify is not originals[0]
        assert cli.render is report.render is not originals[2]
        assert pslgroups.psl2q_fixed_points is sys.modules[
            "wptrans.fixedpoints"].psl2q_fixed_points
        assert pslgroups.FiniteField.tables is not originals[1]
    finally:
        tracer.uninstall()
    assert (orbitweights.classify, pslgroups.FiniteField.tables, report.render) == originals
    assert pslgroups.classify is originals[0] and cli.render is originals[2]


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.install()
    try:
        items.run_census(("psl-verdict", 13, 7))
    finally:
        tracer.uninstall()
    by_bucket, _ = tracer.self_times()
    verdict = [s for s in tracer.spans if s[0] == "pslgroups.verdict"]
    assert len(verdict) == 1
    assert by_bucket["pslgroups.verdict"] < verdict[0][3] - verdict[0][2]
    assert tracer.counters["orbitweights.solutions"] == 10  # the PSL(2,13) list
