"""Seeded batches for the three benchmark workloads.

A batch is a fixed list of items made from the seed alone; the program
under test never sees the seed.  Every workload is stratified: each tier
draws a fixed number of items, with replacement, from its own finite
pool, and the batch is then shuffled.  The tier counts are chosen so that
the median and the 90th percentile of item latency fall inside tiers of
similar cost, which keeps both steady from seed to seed, and every pool
is finite so that `golden.json` can hold the expected outcome of every
item any seed can draw.

This module does not import wptrans.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("weights", "census", "cli")

# ---------------------------------------------------------------------------
# weights: solve and classify the weight equation of triangle actions

SIGNATURES = ((2, 3, 7), (2, 3, 8), (2, 4, 5), (3, 3, 4))
MAX_GENUS = 80
# zero masks over the three geometric orbits (0-based, smallest orbit first)
MASKS = ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))

# Items are sized by estimated seconds (weights_estimate).  Counts put the
# median in the middle of "small" and the 90th percentile in the middle of
# "large"; each of those pools holds one pair per signature, of nearly the
# same cost.  Items are kept small so that a run holds many passes.  Every
# batch also holds the Hurwitz anchors and one listing of exactly 53,955
# solutions, which sets the batch's peak memory.
WEIGHTS_BANDS = (("tiny", (0.0, 0.004), 17), ("small", (0.0095, 0.0105), 72),
                 ("large", (0.029, 0.033), 17))
WEIGHTS_FIXED = (((2, 3, 7), 3), ((2, 3, 7), 7), ((2, 3, 7), 14),  # Klein, Macbeath, PSL(2,13)
                 ((2, 3, 8), 50))
# the listings of exactly 53,955 solutions; the cli workload renders both
LISTINGS = (((2, 3, 8), 50), ((2, 4, 5), 46))


def group_order(signature, genus):
    """Riemann-Hurwitz order 2(g-1)/(1 - sum 1/m) of a (0; a,b,c) action.

    None unless it is an integer divisible by every period.
    """
    area = 1 - sum(Fraction(1, m) for m in signature)
    order = 2 * (genus - 1) / area
    if order.denominator != 1 or order <= 0:
        return None
    order = order.numerator
    if any(order % m for m in signature):
        return None
    return order


def weights_estimate(signature, genus):
    """(solutions, seconds): leading-term estimates for one weights item.

    The solver visits about T^3 / (6 c0 c1 c2) prefixes for the target
    T = g^3 - g and orbit sizes c0 <= c1 <= c2 <= c3, and a d-th of
    T^3 / (6 c0 c1 c2 c3) of them are solutions, d = gcd(c).  The
    seconds use per-prefix and per-solution costs measured on a 2-core
    x86-64 host; they only sort items into tiers.
    """
    order = group_order(signature, genus)
    c = tuple(order // m for m in sorted(signature, reverse=True)) + (order,)
    target = genus ** 3 - genus
    d = math.gcd(*c)
    prefixes = target ** 3 / (6 * c[0] * c[1] * c[2])
    solutions = d * target ** 3 / (6 * c[0] * c[1] * c[2] * c[3]) if target % d == 0 else 0
    return solutions, 0.27e-6 * prefixes + 3.4e-6 * solutions


def weights_pool(seconds):
    """(signature, genus) pairs whose estimated seconds fall in [lo, hi)."""
    return [(sig, g) for sig in SIGNATURES for g in range(2, MAX_GENUS + 1)
            if group_order(sig, g) is not None
            and seconds[0] <= weights_estimate(sig, g)[1] < seconds[1]]


def weights_tiers():
    """(name, pool of (signature, genus), count) for every drawn weights tier."""
    return tuple((name, weights_pool(seconds), count) for name, seconds, count in WEIGHTS_BANDS)


def weights_key(item):
    sig, g, mask = item
    return "%s g=%d mask=%s" % (",".join(map(str, sig)), g, ",".join(str(i + 1) for i in mask))


def weights_items():
    pairs = set(WEIGHTS_FIXED).union(*(pool for _, pool, _ in weights_tiers()))
    return [(sig, g, m) for sig, g in sorted(pairs) for m in MASKS]


def weights_batch(rng):
    """The fixed items, then each tier's draws; every item gets a mask."""
    pairs = list(WEIGHTS_FIXED) + _tiered_batch(rng, weights_tiers())
    return [pair + (rng.choice(MASKS),) for pair in pairs]


# ---------------------------------------------------------------------------
# census: brute-force order censuses beside cheap arithmetic verdicts

def _is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def _prime_powers(lo, hi):
    out = []
    for q in range(lo, hi + 1):
        p = next(f for f in range(2, q + 1) if q % f == 0)
        m = q
        while m % p == 0:
            m //= p
        if m == 1:
            out.append(q)
    return out


VERDICT_T = (7, 11, 13)  # prime t: every prime power q has a verdict
# Counts put the median in the middle of "median" (q = 17 only) and the
# 90th percentile in the middle of "upper" (q = 16 and 19, of equal cost).
CENSUS_TIERS = (
    ("hurwitz", [("hurwitz", q) for q in _prime_powers(2, 4096)], 10),
    ("psl-verdict", [("psl-verdict", q, t) for q in _prime_powers(4, 128) for t in VERDICT_T], 10),
    # the three pairs whose verdict solves and classifies a weight equation
    ("counting-verdict", [("psl-verdict", 7, 7), ("psl-verdict", 8, 7), ("psl-verdict", 13, 7)], 3),
    ("modular", [("modular", p) for p in range(5, 400) if _is_prime(p)], 7),
    ("light", [("census", q) for q in (4, 5, 7, 8, 9, 11, 13)], 10),
    ("median", [("census", 17)], 30),
    ("upper", [("census", q) for q in (16, 19)], 34),
)
# The largest censuses run once each in every batch: drawn, they would make
# the batch's cost depend on the seed.
CENSUS_FIXED = tuple(("census", q) for q in (23, 25, 27, 29, 31, 32))


def census_key(item):
    return " ".join(map(str, item))


# ---------------------------------------------------------------------------
# cli: cold `wptrans` processes over all nine subcommands

def _both(*argv):
    return [list(argv) + ["--format", "text"], list(argv) + ["--format", "json"]]


def _orbit_weights_argv(sig, g, mask=()):
    argv = ["orbit-weights", "--order", str(group_order(sig, g)),
            "--periods", ",".join(map(str, sig)), "--target", str(g ** 3 - g)]
    if mask:
        argv += ["--mask", ",".join("w%d=0" % (i + 1) for i in mask)]
    return argv


def _cli_pool(*groups):
    return [argv for group in groups for argv in group]


# every one of these has a nonempty solution set (all four signatures do
# from genus 6 on), so each exits 0
_SMALL_WEIGHTS = [(sig, g) for sig, g in weights_pool((0.0, 0.006)) if g >= 6]

CLI_TIERS = (
    ("hurwitz", _cli_pool(*(_both("hurwitz", "--q", str(q)) for q in _prime_powers(2, 4096))), 10),
    ("psl-verdict", _cli_pool(*(_both("psl-verdict", "--q", str(q), "--t", str(t))
                                for q in _prime_powers(4, 128) for t in VERDICT_T)), 10),
    ("modular", _cli_pool(*(_both("modular", "--p", str(p))
                            for p in range(5, 400) if _is_prime(p))), 9),
    ("validate-tables", _both("validate-tables"), 4),
    ("hyperelliptic", _cli_pool(*(_both("hyperelliptic", "--max-genus", str(g))
                                  for g in range(1, 61))), 9),
    ("fermat-small", _cli_pool(*(_both("fermat", "--n", str(n)) for n in range(4, 17))), 9),
    ("census-small", _cli_pool(*(_both("census", "--q", str(q))
                                 for q in (4, 5, 7, 8, 9, 11, 13))), 9),
    ("orbit-weights-small", _cli_pool(
        _both(*_orbit_weights_argv((2, 3, 7), 14, (0, 1))),  # Streit's vanishing
        *(_both(*_orbit_weights_argv(sig, g)) for sig, g in _SMALL_WEIGHTS)), 11),
    # inputs the CLI must reject with exit code 2
    ("rejected", [
        ["hurwitz", "--q", "12"],
        ["hurwitz", "--q", "1", "--format", "json"],
        ["census", "--q", "64"],
        ["census", "--q", "6", "--format", "json"],
        ["census", "--q", "seven"],
        ["psl-verdict", "--q", "13", "--t", "5"],
        ["psl-verdict", "--q", "16", "--t", "9", "--format", "json"],
        ["modular", "--p", "9"],
        ["modular", "--p", "3", "--format", "json"],
        ["bielliptic-scan", "--from", "5", "--to", "40"],
        ["bielliptic-scan", "--from", "50", "--to", "20", "--format", "json"],
        ["fermat", "--n", "3"],
        ["hyperelliptic", "--max-genus", "0"],
        _orbit_weights_argv((2, 3, 7), 4),
        _orbit_weights_argv((2, 3, 8), 4) + ["--format", "json"],
        _orbit_weights_argv((2, 3, 7), 40, (0,)),
        ["orbit-weights", "--order", "168", "--periods", "2,3,x", "--target", "24"],
        ["orbit-weights", "--order", "168", "--periods", "2,3,7", "--target", "24",
         "--mask", "w1=1"],
        ["validate-tables", "--format", "yaml"],
        ["frobnicate"],
    ], 6),
    ("medium", _cli_pool(
        *(_both("census", "--q", str(q)) for q in (23, 25, 27, 29, 31)),
        *(_both("fermat", "--n", str(n)) for n in range(30, 41)),
        *(_both("bielliptic-scan", "--from", str(lo), "--to", str(lo + span))
          for lo in (11, 1000, 25000) for span in (30000, 40000, 50000)),
        *(_both(*_orbit_weights_argv(sig, g)) for sig, g in weights_pool((0.03, 0.05))),
    ), 14),
    ("heavy", _cli_pool(
        _both("census", "--q", "32"),
        *(_both("bielliptic-scan", "--from", str(lo), "--to", str(lo + span))
          for lo in (11, 5000, 20000) for span in (90000, 100000)),
    ), 14),
    ("fermat-large", _cli_pool(*(_both("fermat", "--n", str(n)) for n in range(55, 61))), 2),
    # render-heavy listings: 53,955 solutions each
    ("render", [_orbit_weights_argv(sig, g) + ["--format", "json"] for sig, g in LISTINGS], 3),
)


def cli_key(argv):
    return " ".join(argv)


# ---------------------------------------------------------------------------

def _tiered_batch(rng, tiers):
    return [rng.choice(pool) for _, pool, count in tiers for _ in range(count)]


def make_batch(workload, seed):
    """The seeded batch of one workload: a list of items in run order."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "weights":
        items = weights_batch(rng)
    elif workload == "census":
        items = list(CENSUS_FIXED) + _tiered_batch(rng, CENSUS_TIERS)
    elif workload == "cli":
        items = _tiered_batch(rng, CLI_TIERS)
    else:
        raise ValueError("unknown workload %r" % (workload,))
    rng.shuffle(items)
    return items


def item_key(workload, item):
    return {"weights": weights_key, "census": census_key, "cli": cli_key}[workload](item)


def all_items(workload):
    """Every item any seed can draw, each once."""
    if workload == "weights":
        return weights_items()
    tiers = CENSUS_TIERS if workload == "census" else CLI_TIERS
    pools = [pool for _, pool, _ in tiers] + ([CENSUS_FIXED] if workload == "census" else [])
    items = {item_key(workload, item): item for pool in pools for item in pool}
    return [items[key] for key in sorted(items)]


def digest(outcome):
    """Short stable digest of a JSON-able outcome, as golden.json stores it."""
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def cli_outcome(code, stdout, stderr):
    """What a CLI item must reproduce: exit code and stdout, and stderr on error."""
    outcome = {"exit": code, "stdout": hashlib.sha256(stdout).hexdigest()}
    if code != 0:
        outcome["stderr"] = hashlib.sha256(stderr).hexdigest()
    return outcome
