"""Weight ledger of the Fermat curves x^n + y^n + z^n = 0 for n = 4..9.

The 3n trivial points carry Hasse's exact weight; the 3n^2 Leopoldt
points carry Towse's weight, exact through n = 8 and a lower bound
afterwards.  The residual is what neither family accounts for.
"""

from wptrans import fermat_transitivity, orbit_enumerate, trivial_points, weight_accounting
from wptrans.cli import quiet_on_closed_pipe
from wptrans.fermat import FermatPoint, PointClass, leopoldt_points

def main():
    print("%-3s %-6s %-9s %-18s %-18s %-9s" %
          ("n", "genus", "g^3-g", "trivial (3n x w)", "leopoldt (3n^2 x w)", "residual"))
    for n in range(4, 10):
        r = weight_accounting(n)
        trivial = "%d x %d = %d" % (r.trivial_count, r.trivial_weight, r.trivial_subtotal)
        mark = "" if r.leopoldt_is_exact else ">="
        leopoldt = "%d x %s%d = %d" % (r.leopoldt_count, mark, r.leopoldt_weight,
                                       r.leopoldt_subtotal)
        print("%-3d %-6d %-9d %-18s %-18s %-9d" %
              (n, r.genus, r.total, trivial, leopoldt, r.residual))

    print()
    for n in (4, 5, 6, 9):
        r = weight_accounting(n)
        print("n = %d: %s" % (n, r.conclusion))

    print()
    print("orbit sizes under the full automorphism group (order 6n^2):")
    for n in (4, 5, 6):
        seed = trivial_points(n)[0]
        line = "n = %d: trivial orbit %d" % (n, orbit_enumerate(n, seed))
        if n >= 5:
            leo = leopoldt_points(n)[0]
            line += ", leopoldt orbit %d" % orbit_enumerate(n, leo)
        print(line)

    print()
    for n in (4, 5):
        verdict = fermat_transitivity(n)
        print("n = %d: %s %s" % (n, verdict.status.value, verdict.orbit_count_range))


if __name__ == "__main__":
    quiet_on_closed_pipe(main)
