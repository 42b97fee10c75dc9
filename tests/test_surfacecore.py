"""Weight budget, signatures, and the map validator."""

import ast
import glob
import importlib
import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import wptrans

from wptrans.fermat import FermatPoint, PointClass
from wptrans.orbitweights import TransitivityStatus, TransitivityVerdict
from wptrans.report import CommandRequest, Section6Cell
from wptrans.surfacecore import (
    FuchsianSignature,
    MapValidation,
    RegularMapDescriptor,
    WeightDistribution,
    double_cover_genus,
    hyperelliptic_signature,
    replace,
    rh_area_consistency,
    total_weight,
    validate_map,
    weierstrass_count_bounds,
)


def test_total_weight_values():
    assert total_weight(1) == 0
    assert total_weight(2) == 6
    assert total_weight(3) == 24
    assert total_weight(14) == 2730


def test_total_weight_rejects_genus_zero():
    with pytest.raises(ValueError):
        total_weight(0)
    with pytest.raises(ValueError):
        total_weight(True)


def test_count_bounds():
    assert weierstrass_count_bounds(2) == (6, 6)
    assert weierstrass_count_bounds(3) == (8, 24)
    with pytest.raises(ValueError):
        weierstrass_count_bounds(1)


@given(st.integers(min_value=2, max_value=500))
def test_hyperelliptic_budget_identity(g):
    # 2g+2 branch points of weight g(g-1)/2 exhaust the total
    assert (2 * g + 2) * (g * (g - 1) // 2) == total_weight(g)


def test_double_cover_genus():
    assert double_cover_genus(2) == 0
    assert double_cover_genus(4) == 1
    assert double_cover_genus(6) == 2
    assert double_cover_genus(30) == 14
    for bad in (5, 1, 0, -2, 2.0):
        with pytest.raises(ValueError):
            double_cover_genus(bad)


def test_signature_sorts_periods_and_validates():
    sig = FuchsianSignature(0, (7, 2, 3))
    assert sig.periods == (2, 3, 7)
    assert sig.mu() * 42 == 1
    assert sig.is_cocompact_hyperbolic()
    with pytest.raises(ValueError):
        FuchsianSignature(0, (1, 2))
    with pytest.raises(ValueError):
        FuchsianSignature(-1, (2, 2))


def test_sphere_signatures_are_not_hyperbolic():
    assert not FuchsianSignature(0, (2, 3)).is_cocompact_hyperbolic()
    assert not FuchsianSignature(0, (2, 2, 2, 2)).is_cocompact_hyperbolic()  # mu = 0
    assert FuchsianSignature(1, (2,)).is_cocompact_hyperbolic()


def test_hyperelliptic_signature():
    assert hyperelliptic_signature(2) == FuchsianSignature(0, (2,) * 6)
    assert hyperelliptic_signature(1).mu() == 0


def test_rh_area_consistency():
    triangle = FuchsianSignature(0, (2, 3, 7))
    assert rh_area_consistency(triangle, 168, 3)
    assert not rh_area_consistency(triangle, 167, 3)
    with pytest.raises(ValueError):
        rh_area_consistency(hyperelliptic_signature(1), 2, 1)  # mu = 0
    with pytest.raises(ValueError):
        rh_area_consistency(triangle, 0, 3)


KLEIN_SIGNATURE = FuchsianSignature(0, (2, 3, 7))

# (public function, integer arguments it accepts, which one to spoil)
INTEGER_ENTRIES = [
    ("hurwitz_genus", (168,), 0),
    ("kato_max_weight", (12,), 0),
    ("bielliptic_window", (12,), 0),
    ("nu", (12,), 0),
    ("scan_nontransitive", (11, 20), 0),
    ("scan_nontransitive", (11, 20), 1),
    ("fermat_genus", (5,), 0),
    ("trivial_point_weight", (5,), 0),
    ("leopoldt_weight_bound", (7,), 0),
    ("automorphism_group_order", (4,), 0),
    ("trivial_points", (5,), 0),
    ("orbit_enumerate", (5, wptrans.trivial_points(5)[0]), 0),
    ("necessary_weight", (168, 7, 3), 0),
    ("necessary_weight", (168, 7, 3), 1),
    ("FuchsianSignature", (0, (2, 3, 7)), 0),
    ("rh_area_consistency", (KLEIN_SIGNATURE, 168, 3), 1),
    ("psl2q_fixed_points", (13, (2, 3, 7), 2), 2),
    ("is_realizable_order", (13, 7), 0),
    ("is_realizable_order", (13, 7), 1),
    ("psl2q_transitivity_verdict", (17, 7), 1),
    ("schoeneberg_is_weierstrass", (4,), 0),
    ("cyclic_fixed_points", (6, (2, 3, 6), 2), 0),
    ("cyclic_fixed_points", (6, (2, 3, 6), 2), 2),
    ("enumerate_transitive_hyperelliptic", (2,), 0),
    ("accola_maclachlan", (2,), 0),
]


@pytest.mark.parametrize("name, args, spoil", INTEGER_ENTRIES,
                         ids=["%s-%d" % (name, spoil) for name, _, spoil in INTEGER_ENTRIES])
@pytest.mark.parametrize("bad", [float, lambda v: True], ids=["float", "bool"])
def test_integer_entries_reject_float_and_bool(name, args, spoil, bad):
    # a float or bool must not reach the integer arithmetic: a whole
    # float would come back as a float answer, e.g. 3.0 for a genus
    getattr(wptrans, name)(*args)
    spoiled = args[:spoil] + (bad(args[spoil]),) + args[spoil + 1:]
    with pytest.raises(ValueError, match="integer"):
        getattr(wptrans, name)(*spoiled)


def test_validate_map_accepts_klein():
    klein = RegularMapDescriptor(
        face_valency=3, vertex_valency=7, V=24, E=84, F=56, genus=3)
    result = validate_map(klein)
    assert isinstance(result, MapValidation)
    assert result.status == "valid"
    assert result.ok
    assert result.problems == ()


def test_validate_map_normalizes_swapped_valencies():
    # the same {3,10} data in both orientations; only one satisfies the
    # dart identities, the other is repaired with status "normalized"
    straight = RegularMapDescriptor(
        face_valency=3, vertex_valency=10, V=24, E=120, F=80, genus=9)
    crossed = RegularMapDescriptor(
        face_valency=10, vertex_valency=3, V=24, E=120, F=80, genus=9)
    assert validate_map(straight).status == "valid"
    normalized = validate_map(crossed)
    assert normalized.status == "normalized"
    assert normalized.descriptor.type_pair == (3, 10)
    assert normalized.problems


def test_validate_map_rejects_broken_data():
    broken = RegularMapDescriptor(
        face_valency=3, vertex_valency=7, V=24, E=83, F=56, genus=3)
    result = validate_map(broken)
    assert result.status == "invalid"
    assert not result.ok
    assert result.problems


def test_descriptor_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        RegularMapDescriptor(face_valency=3, vertex_valency=7,
                             V=0, E=84, F=56, genus=3)
    with pytest.raises(ValueError):
        RegularMapDescriptor(face_valency=3, vertex_valency=7,
                             V=24, E=84, F=56, genus=-1)


def test_weight_distribution_budget():
    dist = WeightDistribution(3, (("branch", 8, 3),), complete=True)
    assert dist.weighted_sum() == 24
    partial = WeightDistribution(3, (("vertices", 4, 2),), complete=False)
    assert partial.weighted_sum() == 8
    with pytest.raises(ValueError):
        WeightDistribution(3, (("too heavy", 9, 3),), complete=False)
    with pytest.raises(ValueError):
        WeightDistribution(3, (("incomplete", 4, 2),), complete=True)
    with pytest.raises(ValueError):
        WeightDistribution(3, (("negative", 4, -1),), complete=False)


def test_records_check_fields_annotated_int():
    # each check runs after __post_init__, so a hand-written guard's
    # message comes first; a None default may stay None
    for make, message in (
        (lambda: RegularMapDescriptor(3, 7, 24.0, 84, 56, 3.0),
         "RegularMapDescriptor.V must be an integer, got 24.0"),
        (lambda: FermatPoint(5.0, PointClass.TRIVIAL, 0, (1,)),
         "FermatPoint.n must be an integer, got 5.0"),
        (lambda: Section6Cell(24, 1.0), "Section6Cell.weight must be an integer, got 1.0"),
        (lambda: Section6Cell(True), "Section6Cell.count must be an integer, got True"),
        (lambda: Section6Cell(None), "Section6Cell.count must be an integer, got None"),
        (lambda: WeightDistribution(3, (("x", 8.0, 3),), complete=True),
         "class 'x' needs an integer count and weight, got 8.0 and 3"),
        (lambda: WeightDistribution(3, (("x", 8, 3.0),), complete=True),
         "class 'x' needs an integer count and weight, got 8 and 3.0"),
        (lambda: WeightDistribution(3.0, ()), "genus must be an integer, got 3.0"),
    ):
        with pytest.raises(ValueError) as caught:
            make()
        assert str(caught.value) == message
    assert Section6Cell(24, None) == Section6Cell(24)
    with pytest.raises(ValueError, match="nonpositive count"):
        WeightDistribution(3, (("x", 0.0, 3),))


def test_record_repr_reads_like_a_dataclass():
    verdict = TransitivityVerdict(TransitivityStatus.TRANSITIVE, (1, 1), ("one orbit",))
    assert repr(verdict) == (
        "TransitivityVerdict(status=<TransitivityStatus.TRANSITIVE: 'Transitive'>, "
        "orbit_count_range=(1, 1), reasons=('one orbit',), guaranteed_orbits=())")
    assert repr(Section6Cell(24)) == "Section6Cell(count=24, weight=None)"
    assert repr(FuchsianSignature(0, (7, 2, 3))) == (
        "FuchsianSignature(orbit_genus=0, periods=(2, 3, 7))")
    assert repr(CommandRequest("census", {"q": 7})) == (
        "CommandRequest(subcommand='census', parameters={'q': 7}, fmt='text')")


def test_record_equality_and_hash():
    sig = FuchsianSignature(0, (7, 2, 3))
    same = FuchsianSignature(orbit_genus=0, periods=(2, 3, 7))
    assert sig == same and hash(sig) == hash(same)
    assert sig != FuchsianSignature(0, (2, 3, 8))
    assert sig != (0, (2, 3, 7))
    assert Section6Cell(24) != (24, None)
    assert len({sig, same, Section6Cell(24), Section6Cell(24, None)}) == 2


def test_record_is_frozen():
    sig = FuchsianSignature(0, (2, 3, 7))
    with pytest.raises(AttributeError):
        sig.orbit_genus = 1
    with pytest.raises(AttributeError):
        sig.extra = 1
    with pytest.raises(AttributeError):
        del sig.periods
    assert sig == FuchsianSignature(0, (2, 3, 7))


def test_replace_reruns_post_init():
    sig = replace(FuchsianSignature(0, (2, 3, 7)), periods=(8, 3, 2))
    assert sig == FuchsianSignature(0, (2, 3, 8))
    with pytest.raises(ValueError):
        replace(sig, periods=(1, 2))
    with pytest.raises(TypeError):
        replace(sig, genus=2)


def test_record_rejects_bad_arguments():
    with pytest.raises(TypeError):
        Section6Cell(24, unknown=1)
    with pytest.raises(TypeError):
        Section6Cell(24, count=24)
    with pytest.raises(TypeError):
        Section6Cell()
    with pytest.raises(TypeError):
        Section6Cell(24, 1, 2)
    with pytest.raises(TypeError):
        FuchsianSignature(periods=(2, 3, 7))


# every module of the package: invariants are `check` calls (or an inline
# raise of InvariantError where a check runs once per solution)
MODULES = sorted(os.path.basename(path)[:-3] for path in glob.glob(
    os.path.join(os.path.dirname(wptrans.__file__), "*.py")))


def _syntax_tree(module):
    path = os.path.join(os.path.dirname(wptrans.__file__), module + ".py")
    with open(path) as handle:
        return ast.parse(handle.read(), path)


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_bare_assert(module):
    # python -O strips assert statements; no module may rely on any
    lines = [node.lineno for node in ast.walk(_syntax_tree(module))
             if isinstance(node, ast.Assert)]
    assert lines == [], "%s.py has bare asserts on lines %s" % (module, lines)


def _is_float(node):
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.Div)
    if isinstance(node, ast.Attribute):
        return (isinstance(node.value, ast.Name) and node.value.id == "math"
                and node.attr in ("inf", "nan"))
    if isinstance(node, ast.ImportFrom):
        return node.module == "math" and any(
            alias.name in ("inf", "nan") for alias in node.names)
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id in ("float", "round")
    return False


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_float(module):
    # the package promises integer and Fraction arithmetic only
    lines = [node.lineno for node in ast.walk(_syntax_tree(module)) if _is_float(node)]
    assert lines == [], "%s.py uses floating point on lines %s" % (module, lines)


@pytest.mark.parametrize("module", MODULES)
def test_module_does_not_import_dataclasses(module):
    # records come from surfacecore.record: importing dataclasses (and the
    # inspect it pulls in) or typing (for NamedTuple) costs every cold
    # wptrans process
    libraries = ("dataclasses", "typing")
    lines = [node.lineno for node in ast.walk(_syntax_tree(module))
             if isinstance(node, ast.Import) and any(
                 alias.name in libraries for alias in node.names)
             or isinstance(node, ast.ImportFrom) and node.module in libraries]
    assert lines == [], "%s.py imports dataclasses or typing on lines %s" % (module, lines)


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # typing too: no module defines a NamedTuple.  json loads only on the
    # JSON path and fractions (with its decimal and numbers) only where a
    # Fraction is built, so neither the import nor a text census loads them
    src = os.path.dirname(os.path.dirname(wptrans.__file__))
    code = ("import contextlib, io, sys, wptrans.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'typing', 'json', 'fractions',\n"
            "              'decimal', 'numbers'} & set(sys.modules)))\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = wptrans.cli.main(['census', '--q', '8'])\n"
            "print(code, out.getvalue().splitlines()[0])\n"
            "print(sorted({'json', 'fractions'} & set(sys.modules)))\n")
    # -S: no site-packages hooks, so only what wptrans imports is loaded
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n0 wptrans census\n[]\n"


def test_package_exports_every_module_all():
    declared = {}
    for module in MODULES:
        if module in ("__init__", "cli"):
            continue
        library = importlib.import_module("wptrans." + module)
        for name in library.__all__:
            assert name not in declared, "%s is declared in %s and %s" % (
                name, declared[name], module)
            declared[name] = module
            assert name in wptrans.__all__, name
            assert getattr(wptrans, name) is getattr(library, name), name
