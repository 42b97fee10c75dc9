"""Scan the bi-elliptic divisibility refutation across a genus range.

Kato's window gives two candidate weights for a witness Weierstrass
point; Garcia's uniform-weight argument requires the weight to divide
g^3 - g under a transitive action.  The scan finds where the refutation
fails.
"""

import time

from wptrans import bielliptic_window, garcia_transitivity_test, nu, scan_nontransitive
from wptrans.cli import quiet_on_closed_pipe

def main():
    start = time.perf_counter()
    survivors = scan_nontransitive(11, 10 ** 5)
    elapsed = time.perf_counter() - start
    print("genera in [11, 10^5] not refuted by divisibility: %s  (%.2f s)"
          % (survivors, elapsed))
    print()

    for g in survivors:
        window = bielliptic_window(g)
        print("g = %d: window [%d, %d), candidates %s, nu(%d) = %s"
              % (g, window.low, window.high_exclusive, window.candidates, g, nu(g)))
        verdict = garcia_transitivity_test(g)
        print("verdict:", verdict.status.value, verdict.orbit_count_range)
        for reason in verdict.reasons:
            print("  .", reason)

    print()
    print("nearby genera for contrast:")
    for g in (11, 12, 13, 14, 16):
        verdict = garcia_transitivity_test(g)
        print("  g = %d: %s" % (g, verdict.status.value))


if __name__ == "__main__":
    quiet_on_closed_pipe(main)
