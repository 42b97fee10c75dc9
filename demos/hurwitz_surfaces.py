"""Walk the three classical Hurwitz actions through the weight equation.

For each of PSL(2,7), PSL(2,8), PSL(2,13) acting on its (2,3,7) kernel
surface, print the orbit profile, every solution of the weight
equation, and the transitivity verdict.  Then show the blanket
refutation for every Hurwitz q above 15.
"""

from wptrans import (
    classify,
    hurwitz_genus,
    is_hurwitz_psl2q,
    orbit_profile,
    prime_power,
    psl2_order,
    psl2q_transitivity_verdict,
    solve_weight_equation,
    total_weight,
)
from wptrans.cli import quiet_on_closed_pipe


def show(q):
    order = psl2_order(q)
    genus = hurwitz_genus(order)
    profile = orbit_profile(order, (2, 3, 7))
    sols = solve_weight_equation(profile.orbit_sizes, total_weight(genus))

    print("PSL(2,%d): order %d, genus %d, target weight %d"
          % (q, order, genus, total_weight(genus)))
    print("  orbit sizes %s  (stabilizers %s)"
          % (profile.orbit_sizes, profile.stabilizer_orders))
    for v in sols.solutions:
        print("    w =", v)
    verdict = psl2q_transitivity_verdict(q, 7)
    print("  verdict:", verdict.status.value, verdict.orbit_count_range)
    for reason in verdict.reasons:
        print("   .", reason)
    print()
    return sols


def main():
    for q in (7, 8, 13):
        show(q)

    # the Streit mask by hand, for comparison with the q = 13 verdict above
    sols = solve_weight_equation(orbit_profile(1092, (2, 3, 7)).orbit_sizes, 2730)
    masked = classify(sols, zero_indices=(0, 1))
    print("q = 13 with w1 = w2 = 0 forced:", masked.status.value, masked.orbit_count_range)
    print()

    print("Hurwitz prime powers 15 < q <= 200, all refuted by fixed-point counting:")
    for q in range(16, 201):
        try:
            prime_power(q)
        except ValueError:
            continue
        if not is_hurwitz_psl2q(q).is_hurwitz:
            continue
        verdict = psl2q_transitivity_verdict(q, 7)
        print("  q = %3d  %s %s" % (q, verdict.status.value, verdict.orbit_count_range))


if __name__ == "__main__":
    quiet_on_closed_pipe(main)
