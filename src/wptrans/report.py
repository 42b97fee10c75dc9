"""Embedded regular-map dataset with validation, plus the report layer
that the command line front end drives.

The dataset is the twelve-row census of low-genus regular maps whose
rotation groups act transitively on Weierstrass points, stored in a
line-based source format
    row|type|genus|V|F|E|group|order
where a cell of the form count^weight marks a geometric point class
(vertices, face-centres or edge-centres) consisting of Weierstrass
points of that per-point weight.  Validation re-derives every identity
the table silently relies on: dart counting, Euler's polyhedron
formula, the weighted sum against g^3 - g, the 8(g+1) order of the
Accola-Maclachlan groups, and the table's convention that the printed
order equals 2E.
"""

import json
from itertools import chain, islice

from . import bielliptic, fermat, orbitweights, platonic, pslgroups
from .surfacecore import (
    InvariantError,
    RegularMapDescriptor,
    WeightDistribution,
    check,
    record,
    validate_map,
)

__all__ = [
    "Section6Cell",
    "Section6Row",
    "load_dataset",
    "RowCheck",
    "ValidationReport",
    "validate_section6_dataset",
    "CommandRequest",
    "ReportDocument",
    "Param",
    "Command",
    "COMMANDS",
    "run",
    "render_text",
    "render_json",
    "to_jsonable",
]

# the regular-map census rows, as printed in the source table
_DATASET = """\
1|{6,4}|2|6^1|4|12|AM|24
2|{8,3}|2|16|6^1|24|GL(2,3)|48
3|{8,4}|3|8^3|4|16|AM|32
4|{6,4}|3|12|8^3|24|S4 x C2|48
5|{8,3}|3|32|12^2|48|(2,3,8;3)|96
6|{7,3}|3|56|24^1|84|PSL(2,7)|168
7|{10,4}|4|10^6|4|20|AM|40
8|{5,4}|4|30|24|60^1|S5|120
9|{12,4}|5|12^10|4|24|AM|48
10|{3,10}|5|40|12^10|60|C2 x A5|120
11|{8,3}|5|64|24^5|96|SL(2,Z/8)|192
12|{5,4}|5|40^3|32|80|***|160
"""

_ROW_PRESENTATIONS = {
    12: "<r,s | r^5 = s^4 = (rs)^2 = (r s^-1)^4 = 1>",
}

_ROW_NOTES = {
    10: "type pair printed vertex-valency first; normalized to {10,3} on load",
    11: "group label SL(2,Z/8) has order 384, not the printed 192 = 2E; "
        "the discrepancy is preserved as printed and the order column is "
        "what validation checks",
    12: "group printed as *** in the source table: Humbert's curve, with the "
        "two-generator presentation recorded alongside",
}


@record
class Section6Cell:
    """Point-class cell: a count, optionally weighted (count^weight)."""

    count: int
    weight: int = None

    @property
    def weighted(self):
        return self.weight is not None


@record
class Section6Row:
    number: int
    type_pair: tuple
    genus: int
    V: Section6Cell
    F: Section6Cell
    E: Section6Cell
    group: str
    order: int
    presentation: str = ""
    note: str = ""

    def weighted_entries(self):
        labels = (("vertices", self.V), ("face-centres", self.F), ("edge-centres", self.E))
        return [(label, cell.count, cell.weight) for label, cell in labels if cell.weighted]


def _parse_cell(text):
    if "^" in text:
        count, weight = text.split("^")
        return Section6Cell(int(count), int(weight))
    return Section6Cell(int(text))


def load_dataset():
    rows = []
    for line in _DATASET.strip().splitlines():
        num, pair, genus, v, f, e, group, order = line.split("|")
        number = int(num)
        n, m = pair.strip("{}").split(",")
        rows.append(Section6Row(
            number=number,
            type_pair=(int(n), int(m)),
            genus=int(genus),
            V=_parse_cell(v),
            F=_parse_cell(f),
            E=_parse_cell(e),
            group=group,
            order=int(order),
            presentation=_ROW_PRESENTATIONS.get(number, ""),
            note=_ROW_NOTES.get(number, ""),
        ))
    check([r.number for r in rows] == list(range(1, 13)), "expected rows 1..12")
    return tuple(rows)


@record
class RowCheck:
    number: int
    map_status: str
    weighted_total: int
    am_consistent: bool = None
    order_is_2e: bool = True
    notes: tuple = ()


@record
class ValidationReport:
    checks: tuple

    @property
    def ok(self):
        return len(self.checks) == 12

    @property
    def summary(self):
        return "%d/%d rows validated" % (len(self.checks), 12)


def validate_section6_dataset():
    """Re-derive every identity behind the embedded twelve-row table.

    Any failing row halts with the row number; the shipped dataset
    passes 12/12.
    """
    checks = []
    for row in load_dataset():
        try:
            checks.append(_check_row(row))
        except (AssertionError, ValueError) as exc:
            raise InvariantError("row (%d) failed validation: %s" % (row.number, exc))
    report = ValidationReport(tuple(checks))
    check(report.ok, report.summary)
    return report


def _check_row(row):
    descriptor = RegularMapDescriptor(
        face_valency=row.type_pair[0],
        vertex_valency=row.type_pair[1],
        V=row.V.count,
        E=row.E.count,
        F=row.F.count,
        genus=row.genus,
    )
    validation = validate_map(descriptor)
    check(validation.ok, "; ".join(validation.problems))
    notes = []
    if validation.status == "normalized":
        notes.append("type pair normalized to {%d,%d}" % validation.descriptor.type_pair)

    entries = row.weighted_entries()
    check(len(entries) == 1, "expected exactly one weighted point class, found %d" % len(entries))
    # every row's weighted class carries the full weight budget g^3 - g
    distribution = WeightDistribution(row.genus, tuple(entries), complete=True)
    total = distribution.weighted_sum()

    am = None
    if row.group == "AM":
        am = row.order == 8 * (row.genus + 1)
        check(am, "order %d != 8(g+1) = %d" % (row.order, 8 * (row.genus + 1)))

    order_is_2e = row.order == 2 * row.E.count
    check(order_is_2e, "printed order %d != 2E = %d" % (row.order, 2 * row.E.count))
    if row.note:
        notes.append(row.note)
    return RowCheck(row.number, validation.status, total, am, order_is_2e, tuple(notes))


# ---------------------------------------------------------------------------
# report plumbing

@record
class CommandRequest:
    subcommand: str
    parameters: dict
    fmt: str = "text"


@record
class ReportDocument:
    """Structured result of one subcommand run.

    provenance tags every top-level body key as paper-derived (embedded
    claims from the source tables), computed (this package's exact
    arithmetic), or oracle-verified (brute-force enumeration checked
    the value).
    """

    subcommand: str
    parameters: dict
    citations: tuple
    body: dict
    provenance: dict

    def __post_init__(self):
        check(self.citations, "every report must cite at least one theorem")
        for key in self.body:
            check(key in self.provenance, "body key %r lacks a provenance tag" % key)


def _verdict_dict(verdict):
    return {
        "status": verdict.status.value,
        "orbit_count_range": list(verdict.orbit_count_range),
        "reasons": list(verdict.reasons),
        "guaranteed_orbits": [j + 1 for j in verdict.guaranteed_orbits],
    }


def _group_dict(descriptor):
    if descriptor is None:
        return None
    return {
        "name": descriptor.name,
        "order": descriptor.order,
        "family": descriptor.family,
        "presentation": descriptor.presentation,
        "note": descriptor.note,
    }


def _cover_dict(cover):
    return {
        "base": cover.base.label,
        "branch_locus": cover.locus.value,
        "genus": cover.genus,
        "map_type": list(cover.cover_type) if cover.cover_type else None,
        "V": cover.V,
        "E": cover.E,
        "F": cover.F,
        "group": _group_dict(cover.aut),
        "transitive_on_weierstrass_points": cover.transitive_on_wp,
        "notes": list(cover.notes),
    }


# the listing holds one Accola-Maclachlan surface per genus, so its size
# grows with --max-genus; 10^4 genera are about 5 MB of text, 7 MB of JSON
HYPERELLIPTIC_MAX_GENUS = 10_000

# classify decides each of the 2^(r+1) supports of r periods plus the free
# orbit by Brauer's bound, counting only where the bound cannot decide, and
# a mask adds two counts, the set's and the masked one.  Measured in process
# on a shared 2-core VM: twelve periods of 2 at order 2 and target 10^6 take
# ~36 ms plain and ~39 ms with eleven coordinates masked; the periods 2..13
# at order 360360 and target 10^12 take ~15 ms plain but ~1.7-2.5 s masked,
# where each of the two counts walks once, up to k * lcm (see
# orbitweights._differences)
ORBIT_WEIGHTS_MAX_PERIODS = 12


def _hyperelliptic(max_genus):
    if max_genus > HYPERELLIPTIC_MAX_GENUS:
        raise ValueError("--max-genus must be at most %d, got %d"
                         % (HYPERELLIPTIC_MAX_GENUS, max_genus))
    covers = platonic.enumerate_transitive_hyperelliptic(max_genus)
    return {
        "max_genus": max_genus,
        "count": len(covers),
        "surfaces": [_cover_dict(c) for c in covers],
    }


def _hurwitz(q):
    status = pslgroups.is_hurwitz_psl2q(q)
    order = pslgroups.psl2_order(q)
    return {
        "q": q,
        "group_order": order,
        "is_hurwitz": status.is_hurwitz,
        "reason": status.reason,
        "genus": pslgroups.hurwitz_genus(order) if status.is_hurwitz else None,
    }


def _orbit_weights(order, periods, target, mask=()):
    if len(periods) > ORBIT_WEIGHTS_MAX_PERIODS:
        raise ValueError("--periods must have at most %d entries, got %d"
                         % (ORBIT_WEIGHTS_MAX_PERIODS, len(periods)))
    mask = tuple(mask)
    profile = orbitweights.orbit_profile(order, periods)
    sols = orbitweights.solve_weight_equation(profile.orbit_sizes, target)
    orbits = len(profile.orbit_sizes)
    if max(mask, default=0) >= orbits:
        raise ValueError("--mask w%d is out of range: there are %d orbits, w1 to w%d"
                         % (max(mask) + 1, orbits, orbits))
    verdict = orbitweights.classify(sols, zero_indices=mask, profile=profile)
    survivors = sols.solutions
    for i in mask:
        survivors = [v for v in survivors if not v[i]]
    return {
        "group_order": order,
        "periods": list(periods),
        "orbit_sizes": list(profile.orbit_sizes),
        "target": target,
        "solutions": sols.solutions,
        "mask": [i + 1 for i in mask],
        "surviving_solutions": survivors,
        "verdict": _verdict_dict(verdict),
    }


def _psl_verdict(q, t):
    verdict = pslgroups.psl2q_transitivity_verdict(q, t)
    return {"q": q, "t": t, "verdict": _verdict_dict(verdict)}


def _modular(p):
    return {"p": p, "verdict": _verdict_dict(pslgroups.modular_surface_verdict(p))}


def _bielliptic_scan(g_from, g_to):
    survivors = bielliptic.scan_nontransitive(g_from, g_to)
    return {
        "range": [g_from, g_to],
        "survivors": survivors,
        "details": {str(g): _verdict_dict(bielliptic.garcia_transitivity_test(g))
                    for g in survivors},
        "claim": "every g in [12, infinity) except 15 is refuted by divisibility",
    }


def _fermat(n):
    report = fermat.weight_accounting(n)
    verdict = fermat.fermat_transitivity(n)
    # one seed per family, built directly: the first point of each listing
    orbit_sizes = {
        "trivial": fermat.orbit_enumerate(
            n, fermat.FermatPoint(n, fermat.PointClass.TRIVIAL, 0, (0,))),
    }
    if n >= 5:
        orbit_sizes["leopoldt"] = fermat.orbit_enumerate(
            n, fermat.FermatPoint(n, fermat.PointClass.LEOPOLDT, 0, (0, 0)))
    return {
        "n": n,
        "genus": report.genus,
        "total_weight": report.total,
        "trivial_points": {
            "count": report.trivial_count,
            "weight_each": report.trivial_weight,
            "subtotal": report.trivial_subtotal,
        },
        "leopoldt_points": {
            "count": report.leopoldt_count,
            "weight_each": report.leopoldt_weight,
            "weight_is_exact": report.leopoldt_is_exact,
            "subtotal": report.leopoldt_subtotal,
        },
        "residual": report.residual,
        "conclusion": report.conclusion,
        "orbit_sizes": orbit_sizes,
        "verdict": _verdict_dict(verdict),
    }


def _validate_tables():
    report = validate_section6_dataset()
    return {
        "summary": report.summary,
        "rows": [
            {
                "row": check.number,
                "map_status": check.map_status,
                "weighted_total": check.weighted_total,
                "accola_maclachlan_order_ok": check.am_consistent,
                "order_equals_2E": check.order_is_2e,
                "notes": list(check.notes),
            }
            for check in report.checks
        ],
    }


def _census(q):
    census = pslgroups.order_census(q)
    return {
        "q": q,
        "group_order": census.group_order,
        "orders": [[d, count] for d, count in census.rows()],
    }


def _parse_periods(text):
    try:
        periods = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError("periods must be comma-separated integers, got %r" % text)
    if not periods:
        raise ValueError("empty period list")
    return periods


def _parse_mask(text):
    """'w1=0,w2=0' -> zero-based coordinate indices (0, 1); '' -> ()."""
    if not text:
        return ()
    indices = []
    for part in text.split(","):
        name, _, value = part.strip().partition("=")
        if value != "0":
            raise ValueError("only zero constraints are supported, got %r" % part)
        if not name.startswith("w") or not name[1:].isdigit() or int(name[1:]) < 1:
            raise ValueError("mask entries look like w1=0, got %r" % part)
        indices.append(int(name[1:]) - 1)
    return tuple(sorted(set(indices)))


@record
class Param:
    """One subcommand parameter: its command-line flag and request key.

    convert turns the flag's string into the request value after argparse
    has run, so that its ValueError is reported as an input error (exit 2)
    rather than as an argparse usage message.
    """

    flag: str
    key: str
    type: object = int
    required: bool = True
    default: object = None
    help: str = None
    convert: object = None


@record
class Command:
    """One subcommand: what `wptrans <name>` parses and what run computes.

    body(**parameters) returns the report body.  provenance holds only the
    tags that are not "computed".  ignored holds flags the parser still
    accepts but that never reach the request.
    """

    help: str
    params: tuple
    body: object
    citations: tuple
    provenance: dict = {}
    ignored: tuple = ()


_SCHOENEBERG = (
    "Schoeneberg: an automorphism of order >= 2 with more than 4 fixed "
    "points fixes only Weierstrass points"
)
_HURWITZ_TOTAL = "Hurwitz: the total weight of the Weierstrass points is g^3 - g"
_WORKERS = Param("--workers", "workers", required=False, help="deprecated; ignored")

COMMANDS = {
    "hyperelliptic": Command(
        "hyperelliptic surfaces with a transitive action, by genus",
        (Param("--max-genus", "max_genus"),),
        _hyperelliptic,
        ("Accola-Maclachlan: every genus g carries a surface with an "
         "automorphism group of order 8(g+1)",
         "classification of hyperelliptic surfaces with a transitive action: "
         "double covers of the sphere branched over the vertices or "
         "edge-centres of a regular spherical map")),
    "hurwitz": Command(
        "Macbeath's Hurwitz classification for PSL(2,q)",
        (Param("--q", "q"),),
        _hurwitz,
        ("Macbeath: PSL(2,q) is a Hurwitz group iff q = 7, or q = p prime with "
         "p = +-1 mod 7, or q = p^3 with p = +-2 or +-3 mod 7",
         "Hurwitz bound: |Aut X| <= 84(g - 1), attained exactly by (2,3,7) quotients")),
    "orbit-weights": Command(
        "enumerate orbit-weight solutions and classify",
        (Param("--order", "order"),
         Param("--periods", "periods", str, help="comma separated, e.g. 2,3,7",
               convert=_parse_periods),
         Param("--target", "target"),
         Param("--mask", "mask", str, required=False, default="",
               help="zero constraints, e.g. w1=0,w2=0", convert=_parse_mask)),
        _orbit_weights,
        (_HURWITZ_TOTAL,
         "orbit-stabilizer: an orbit through a point with stabilizer of order m "
         "has size |G|/m")),
    "psl-verdict": Command(
        "transitivity verdict for PSL(2,q) on X_{t,q}",
        (Param("--q", "q"), Param("--t", "t")),
        _psl_verdict,
        ("Macbeath: fixed-point counts of automorphisms in PSL(2,q) actions",
         _SCHOENEBERG),
        {"verdict": "paper-derived"}),
    "modular": Command(
        "transitivity verdict for the modular surface X(p)",
        (Param("--p", "p"),),
        _modular,
        ("the modular surface X(p) is the (2,3,p) kernel surface for PSL(2,p)",
         _SCHOENEBERG),
        {"verdict": "paper-derived"}),
    "bielliptic-scan": Command(
        "scan genera for survivors of the divisibility refutation",
        (Param("--from", "g_from"), Param("--to", "g_to")),
        _bielliptic_scan,
        ("Kato: bi-elliptic surfaces of genus >= 11 are detected by a "
         "Weierstrass point of weight in [(g^2-5g+6)/2, (g^2-g)/2)",
         "Garcia: a transitive action forces one uniform weight, which must "
         "divide g^3 - g"),
        {"claim": "paper-derived"},
        ignored=(_WORKERS,)),
    "fermat": Command(
        "Fermat curve weight accounting and transitivity",
        (Param("--n", "n"),),
        _fermat,
        ("Hasse: the 3n trivial points have weight (n-1)(n-2)(n-3)(n+4)/24",
         "Towse: the Leopoldt points have weight at least (n-1)(n-3)/8 (n odd) "
         "or (n-2)(n-4)/8 (n even), with equality for n <= 8",
         "the Fermat automorphism group (Z_n + Z_n) x| S_3 has order 6n^2")),
    "validate-tables": Command(
        "re-derive every identity in the embedded map census",
        (),
        _validate_tables,
        ("Euler's polyhedron formula V - E + F = 2 - 2g",
         _HURWITZ_TOTAL,
         "Accola-Maclachlan: minimal maximal automorphism group order 8(g+1)"),
        {"rows": "paper-derived"}),
    "census": Command(
        "element-order census of PSL(2,q) by trace class size",
        (Param("--q", "q"),),
        _census,
        ("Dickson: element orders in PSL(2,q) divide p, (q-1)/gcd(2,q-1), "
         "or (q+1)/gcd(2,q-1)",),
        {"orders": "oracle-verified"},
        ignored=(_WORKERS,)),
}


def run(request):
    """Check a CommandRequest against COMMANDS, compute its body and wrap it."""
    command = COMMANDS.get(request.subcommand)
    if command is None:
        raise ValueError("unknown subcommand %r (expected one of %s)"
                         % (request.subcommand, ", ".join(sorted(COMMANDS))))
    params = request.parameters
    for param in command.params:
        if param.required and params.get(param.key) is None:
            raise ValueError("missing parameter: %s" % param.key)
    body = command.body(**{p.key: params[p.key] for p in command.params if p.key in params})
    return ReportDocument(
        subcommand=request.subcommand,
        parameters=dict(params),
        citations=command.citations,
        body=body,
        provenance={key: command.provenance.get(key, "computed") for key in body},
    )


# ---------------------------------------------------------------------------
# rendering

_JSON_INT_LIMIT = 2 ** 53
_quote = json.encoder.encode_basestring_ascii


def to_jsonable(doc):
    """The JSON tree that render_json writes for doc."""
    return json.loads(render_json(doc))


def render_json(doc):
    """doc as JSON, byte for byte as json.dumps(indent=2, sort_keys=True)
    writes it once keys are str()'d, tuples are lists, integers beyond
    +-2^53 (where a double is no longer exact) are quoted decimals and any
    other value outside JSON is its quoted str().

    One pass appends fragments to one list, joined once at the end.  A
    list of equal-length rows of ints is written a row at a time from one
    %d template, and a list object met again at the same depth (the
    unmasked listing's surviving_solutions is its solutions) repeats the
    fragments written for it the first time.
    """
    parts = []
    _json_parts({"subcommand": doc.subcommand, "parameters": doc.parameters,
                 "body": doc.body, "citations": doc.citations,
                 "provenance": doc.provenance}, 0, parts, {})
    return "".join(parts)


def _json_parts(value, depth, parts, seen):
    if value is None:
        parts.append("null")
    elif value is True or value is False:
        parts.append("true" if value else "false")
    elif isinstance(value, int):
        in_range = -_JSON_INT_LIMIT <= value <= _JSON_INT_LIMIT
        parts.append(int.__repr__(value) if in_range else _quote(str(value)))
    elif isinstance(value, (list, tuple)):
        _json_list(value, depth, parts, seen)
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = "\n" + "  " * (depth + 1)
        items = {str(k): v for k, v in value.items()}
        sep = "{" + inner
        for key in sorted(items):
            parts.append(sep + _quote(key) + ": ")
            _json_parts(items[key], depth + 1, parts, seen)
            sep = "," + inner
        parts.append("\n" + "  " * depth + "}")
    else:
        parts.append(_quote(str(value)))


def _json_list(value, depth, parts, seen):
    if not value:
        parts.append("[]")
        return
    # doc holds every list met here for the whole pass, so no id is reused;
    # keyed on depth too, because the same list one level deeper is
    # indented more
    key = (id(value), depth)
    if key in seen:
        start, stop = seen[key]
        parts.extend(parts[start:stop])
        return
    start = len(parts)
    inner = "\n" + "  " * (depth + 1)
    rows = _int_rows(value)
    if rows and -_JSON_INT_LIMIT <= rows[1] and rows[2] <= _JSON_INT_LIMIT:
        cell = inner + "  "
        row = "[" + cell + ("," + cell).join(["%d"] * rows[0]) + inner + "]"
        parts.append("[" + inner + row % tuple(value[0]))
        parts.extend(map(("," + inner + row).__mod__, map(tuple, islice(value, 1, None))))
    else:
        sep = "[" + inner
        for v in value:
            parts.append(sep)
            _json_parts(v, depth + 1, parts, seen)
            sep = "," + inner
    parts.append("\n" + "  " * depth + "]")
    seen[key] = start, len(parts)


def _int_rows(value):
    """(width, least, greatest) when value is a nonempty list or tuple of
    nonempty rows of one width whose entries are all plain ints (bools
    excluded), else None."""
    if not set(map(type, value)) <= {list, tuple}:
        return None
    widths = set(map(len, value))
    if len(widths) != 1 or 0 in widths:
        return None
    if set(map(type, chain.from_iterable(value))) != {int}:
        return None
    return widths.pop(), min(chain.from_iterable(value)), max(chain.from_iterable(value))


def _text_lines(value, indent, lines):
    """Append value's text lines, indented indent steps, to lines."""
    pad = "  " * indent
    if isinstance(value, dict):
        for key, sub in value.items():
            if isinstance(sub, (dict, list, tuple)) and sub:
                lines.append("%s%s:" % (pad, key))
                _text_lines(sub, indent + 1, lines)
            else:
                lines.append("%s%s: %s" % (pad, key, _scalar(sub)))
    elif isinstance(value, (list, tuple)):
        scalars = all(not isinstance(v, (dict, list, tuple)) for v in value)
        rows = None if scalars else _int_rows(value)
        if scalars and sum(len(_scalar(v)) for v in value) <= 72:
            lines.append("%s%s" % (pad, "[" + ", ".join(_scalar(v) for v in value) + "]"))
        elif scalars:
            for v in value:
                lines.append("%s- %s" % (pad, _scalar(v)))
        elif rows and rows[0] * max(len(str(rows[1])), len(str(rows[2]))) <= 72:
            # every row fits the 72 characters of a one-line list
            row = "%s-\n%s  [%s]" % (pad, pad, ", ".join(["%d"] * rows[0]))
            lines.extend(map(row.__mod__, map(tuple, value)))
        else:
            for v in value:
                if isinstance(v, (dict, list, tuple)):
                    lines.append("%s-" % pad)
                    _text_lines(v, indent + 1, lines)
                else:
                    lines.append("%s- %s" % (pad, _scalar(v)))
    else:
        lines.append("%s%s" % (pad, _scalar(value)))


def _scalar(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, tuple)) and not value:
        return "[]"
    if isinstance(value, dict) and not value:
        return "{}"
    return str(value)


def render_text(doc):
    lines = ["wptrans %s" % doc.subcommand]
    if doc.parameters:
        lines.append("parameters: " + ", ".join(
            "%s=%s" % (k, _scalar(v)) for k, v in doc.parameters.items()))
    lines.append("")
    _text_lines(doc.body, 0, lines)
    lines.append("")
    lines.append("citations:")
    for cite in doc.citations:
        lines.append("  - %s" % cite)
    lines.append("provenance:")
    for key, tag in doc.provenance.items():
        lines.append("  %s: %s" % (key, tag))
    return "\n".join(lines)


def render(doc, fmt):
    if fmt == "json":
        return render_json(doc)
    if fmt == "text":
        return render_text(doc)
    raise ValueError("unknown format %r (expected text or json)" % (fmt,))
