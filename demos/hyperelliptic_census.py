"""Print the classification of hyperelliptic surfaces with transitive action.

One Accola-Maclachlan surface per genus, plus the seven sporadic double
covers of the Platonic solids (two of them in genus 5).
"""

from wptrans import enumerate_transitive_hyperelliptic
from wptrans.cli import quiet_on_closed_pipe

def main():
    covers = enumerate_transitive_hyperelliptic(14)

    print("%-3s %-22s %-13s %-9s %-10s %s" % ("g", "base map", "locus", "type", "|Aut|", "group"))
    for cover in sorted(covers, key=lambda c: (c.genus, c.base.label)):
        map_type = "{%d,%d}" % cover.cover_type if cover.cover_type else "-"
        aut_order = cover.aut.order if cover.aut else "-"
        aut_name = cover.aut.name if cover.aut else "(none recorded)"
        print("%-3d %-22s %-13s %-9s %-10s %s"
              % (cover.genus, cover.base.label, cover.locus.value, map_type, aut_order, aut_name))

    print()
    print("notes on the sporadic covers:")
    for cover in covers[14:]:
        print("  %s / %s (genus %d):" % (cover.base.label, cover.locus.value, cover.genus))
        for note in cover.notes:
            print("   .", note)


if __name__ == "__main__":
    quiet_on_closed_pipe(main)
