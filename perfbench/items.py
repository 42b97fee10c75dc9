"""Run one benchmark item through the wptrans public API and reduce its
result to a canonical outcome, whose digest is compared with golden.json.

Every call goes through a module attribute (``orbitweights.classify``,
``cli.main``) looked up at call time, so the tracer's wrappers are used
whenever they are installed.
"""

import contextlib
import io

from wptrans import cli, orbitweights, pslgroups, surfacecore

from workloads import cli_outcome, group_order


def _verdict(verdict):
    return {
        "status": verdict.status.value,
        "range": list(verdict.orbit_count_range),
        "reasons": list(verdict.reasons),
        "guaranteed": list(verdict.guaranteed_orbits),
    }


def _verdict_or_error(call):
    try:
        return _verdict(call())
    except ValueError as exc:
        return {"error": "ValueError", "message": str(exc)}


def run_weights(item):
    """Solve one triangle action's weight equation, classify plain and masked."""
    sig, g, mask = item
    profile = orbitweights.orbit_profile(group_order(sig, g), sig)
    sols = orbitweights.solve_weight_equation(profile.orbit_sizes, surfacecore.total_weight(g))
    return {
        "plain": _verdict_or_error(lambda: orbitweights.classify(sols, profile=profile)),
        "masked": _verdict_or_error(
            lambda: orbitweights.classify(sols, zero_indices=mask, profile=profile)),
    }


def run_census(item):
    kind, *args = item
    if kind == "census":
        census = pslgroups.order_census(*args)
        return {"group_order": census.group_order, "rows": census.rows()}
    if kind == "hurwitz":
        status = pslgroups.is_hurwitz_psl2q(*args)
        return {"is_hurwitz": status.is_hurwitz, "reason": status.reason}
    if kind == "psl-verdict":
        return _verdict_or_error(lambda: pslgroups.psl2q_transitivity_verdict(*args))
    if kind == "modular":
        return _verdict_or_error(lambda: pslgroups.modular_surface_verdict(*args))
    raise ValueError("unknown census item %r" % (item,))


def run_cli_in_process(argv):
    """`wptrans <argv>` through cli.main in this process, output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return cli_outcome(code, out.getvalue().encode(), err.getvalue().encode())


RUNNERS = {"weights": run_weights, "census": run_census, "cli": run_cli_in_process}
