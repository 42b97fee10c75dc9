"""The embedded dataset, the report layer, and the command line."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import wptrans
import wptrans.report as report_mod
from wptrans.cli import main
from wptrans.fixedpoints import PRIME_TEST_BOUND
from wptrans.report import (
    COMMANDS,
    HYPERELLIPTIC_MAX_GENUS,
    ORBIT_WEIGHTS_MAX_PERIODS,
    CommandRequest,
    ReportDocument,
    load_dataset,
    render_json,
    render_text,
    run,
    to_jsonable,
    validate_section6_dataset,
)
from wptrans.orbitweights import TransitivityStatus, TransitivityVerdict

from oracles import brute_coset_enumeration, brute_render_json, brute_render_text


def test_load_dataset_rows():
    rows = load_dataset()
    assert len(rows) == 12
    assert [r.number for r in rows] == list(range(1, 13))
    klein = rows[5]
    assert klein.group == "PSL(2,7)"
    assert klein.order == 168
    assert klein.type_pair == (7, 3)
    assert klein.F.weighted and klein.F.count == 24 and klein.F.weight == 1
    humbert = rows[11]
    assert humbert.group == "***"
    assert humbert.presentation.startswith("<r,s |")
    assert "Humbert" in humbert.note


@pytest.mark.parametrize("presentation, order", [
    ("<a,b | a^-1 b a b^-2 = b^-1 a b a^-2 = 1>", 1),     # collapses by coincidences
    ("<a,b | a^4 = a^2 b^-2 = b^-1 a b a = 1>", 8),       # quaternion group
    ("<a,b | a^2 = b^2 = (ab)^7 = 1>", 14),               # dihedral group D7
    ("<a,b,c | a^2 = b^2 = c^2 = (ab)^3 = (bc)^3 = (ac)^2 = 1>", 24),  # S4
    ("<x,y | x^2 = y^3 = (xy)^7 = (x^-1 y^-1 x y)^4 = 1>", 168),       # PSL(2,7)
])
def test_coset_enumeration_on_known_groups(presentation, order):
    assert brute_coset_enumeration(presentation) == order


def test_row_12_presentation_has_the_printed_order():
    # Humbert's curve: the printed order is 2E, and the recorded
    # two-generator presentation defines a group of exactly that order
    humbert = load_dataset()[11]
    assert humbert.presentation == report_mod._ROW_PRESENTATIONS[12]
    assert brute_coset_enumeration(humbert.presentation) == humbert.order == 160


@pytest.mark.parametrize("number, label, q", [
    (5, "(2,3,8;3)", 3),
    (6, "PSL(2,7)", 4),   # PSL(2,7) is (2,3,7;4)
    (8, "S5", 3),         # S5 is (2,4,5;3)
])
def test_rows_of_type_l_m_n_q_have_the_printed_order(number, label, q):
    # a map of type {p,k} is a quotient of the (2,k,p) triangle group, and
    # the (l,m,n;q) group adds that the commutator has order q
    row = load_dataset()[number - 1]
    p, k = row.type_pair
    presentation = "<x,y | x^2 = y^%d = (xy)^%d = (x^-1 y^-1 x y)^%d = 1>" % (k, p, q)
    assert row.group == label
    assert brute_coset_enumeration(presentation) == row.order


def test_validation_passes_shipped_dataset():
    report = validate_section6_dataset()
    assert report.ok
    assert report.summary == "12/12 rows validated"
    ten = [c for c in report.checks if c.number == 10][0]
    assert ten.map_status == "normalized"
    assert any("normalized" in note for note in ten.notes)
    eleven = [c for c in report.checks if c.number == 11][0]
    assert any("384" in note for note in eleven.notes)
    for check in report.checks:
        assert check.order_is_2e


def test_validation_catches_tampered_rows(monkeypatch):
    broken = report_mod._DATASET.replace("56|24^1|84", "56|24^1|83")
    monkeypatch.setattr(report_mod, "_DATASET", broken)
    with pytest.raises(AssertionError, match=r"row \(6\)"):
        validate_section6_dataset()

    wrong_weight = report_mod._DATASET.replace("24^1", "24^2")
    monkeypatch.setattr(report_mod, "_DATASET", wrong_weight)
    with pytest.raises(AssertionError, match=r"row \(6\)"):
        validate_section6_dataset()


def test_validation_survives_optimize():
    # under python -O bare asserts vanish; a row whose printed order is not
    # 2E must still stop validate-tables with exit 3
    assert "|PSL(2,7)|168" in report_mod._DATASET
    code = ("import sys; from wptrans import report, cli; "
            "report._DATASET = report._DATASET.replace('|PSL(2,7)|168', '|PSL(2,7)|167'); "
            "sys.exit(cli.main(['validate-tables']))")
    src = os.path.dirname(os.path.dirname(wptrans.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 3, done.stdout
    assert "row (6) failed validation: printed order 167 != 2E = 168" in done.stderr


EXAMPLES = (
    CommandRequest("hyperelliptic", {"max_genus": 6}),
    CommandRequest("hurwitz", {"q": 13}),
    CommandRequest("orbit-weights", {
        "order": 1092, "periods": (2, 3, 7), "target": 2730, "mask": (0, 1)}),
    CommandRequest("psl-verdict", {"q": 13, "t": 7}),
    CommandRequest("modular", {"p": 7}),
    CommandRequest("bielliptic-scan", {"g_from": 11, "g_to": 300}),
    CommandRequest("fermat", {"n": 5}),
    CommandRequest("validate-tables", {}),
    CommandRequest("census", {"q": 7}),
)


def _first_required(subcommand):
    return next((p.key for p in COMMANDS[subcommand].params if p.required), None)


def test_examples_cover_every_command():
    assert sorted(r.subcommand for r in EXAMPLES) == sorted(COMMANDS)


@pytest.mark.parametrize(
    "request_", [r for r in EXAMPLES if _first_required(r.subcommand)],
    ids=lambda r: r.subcommand)
def test_run_rejects_unknown_subcommand(request_):
    with pytest.raises(ValueError, match="unknown subcommand"):
        run(CommandRequest("frobnicate", {}))
    # and a known one without its first required parameter
    name = _first_required(request_.subcommand)
    params = {k: v for k, v in request_.parameters.items() if k != name}
    with pytest.raises(ValueError, match="^missing parameter: %s$" % name):
        run(CommandRequest(request_.subcommand, params))


@pytest.mark.parametrize("request_", EXAMPLES, ids=lambda r: r.subcommand)
def test_every_subcommand_round_trips_through_json(request_):
    doc = run(request_)
    assert doc.citations
    assert list(doc.provenance) == list(doc.body)
    # an override naming no body key would silently leave its key "computed"
    assert set(COMMANDS[request_.subcommand].provenance) <= set(doc.body)
    assert set(doc.provenance.values()) <= {"paper-derived", "computed", "oracle-verified"}
    parsed = json.loads(render_json(doc))
    assert parsed == to_jsonable(doc)
    text = render_text(doc)
    assert text.startswith("wptrans %s" % request_.subcommand)
    assert "citations:" in text


def test_verdict_rendering_uses_one_based_orbits():
    doc = run(CommandRequest("psl-verdict", {"q": 13, "t": 7}))
    verdict = doc.body["verdict"]
    assert verdict["status"] == "Undecided"
    assert verdict["guaranteed_orbits"] == [3]


def test_census_body_is_ordered_rows():
    doc = run(CommandRequest("census", {"q": 7}))
    assert doc.body["orders"] == [[1, 1], [2, 21], [3, 56], [4, 42], [7, 48]]
    assert doc.provenance["orders"] == "oracle-verified"


def _document(body, parameters=None, citations=("cite",)):
    return ReportDocument("demo", parameters or {}, citations, body,
                          dict.fromkeys(body, "computed"))


EDGES = [2 ** 53, -(2 ** 53), 2 ** 53 + 1, -(2 ** 53 + 1), 10 ** 30]


def test_render_json_quotes_big_integers():
    # past +-2^53 a double is no longer exact, so such integers are quoted
    doc = _document({"edges": EDGES, "edge_rows": [EDGES[:2], EDGES[1::-1]],
                     "rows": [EDGES[:2], EDGES[2:4]], "high_row": [[0, 2 ** 53 + 1]],
                     "low_row": [[-(2 ** 53 + 1), 0]], "low": -(2 ** 60),
                     "pair": (1, 2), "keys": {1: None, "x": True}},
                    {"q": 2 ** 53 + 1, "t": -(2 ** 53)})
    out = render_json(doc)
    assert out == brute_render_json(doc)
    assert render_text(doc) == brute_render_text(doc)
    parsed = json.loads(out)
    assert parsed["parameters"] == {"q": str(2 ** 53 + 1), "t": -(2 ** 53)}
    big = [str(v) for v in EDGES[2:]]
    assert parsed["body"] == {
        "edges": EDGES[:2] + big, "edge_rows": [EDGES[:2], EDGES[1::-1]],
        "rows": [EDGES[:2], big[:2]], "high_row": [[0, big[0]]], "low_row": [[big[1], 0]],
        "low": str(-(2 ** 60)),
        "pair": [1, 2], "keys": {"1": None, "x": True}}
    assert to_jsonable(doc) == parsed


SHARED = [[1, 2], [3, 4]]

HAND_BUILT = {
    "bools-in-rows": _document(
        {"rows": [[1, True], [False, 0]], "late_bool": [[1, 2], [3, True]],
         "flags": [True, False, None], "solutions": [[0, 1], [1, 0]]}),
    "strings": _document(
        {"text": 'caf\u00e9 "quoted" back\\slash\ttab\nnewline\x00\x1f\x7f',
         "astral": "\U0001d11e clef", "keys": {"\u00e9t\u00e9": 1, 'a"b': 2, "a\\b": 3}},
        {"name": "Garc\u00eda"}, ("Garc\u00eda: \u2212 \U0001d11e",)),
    "values": _document(
        {"ratio": Fraction(7, 3), "half": 0.5,
         "record": TransitivityVerdict(TransitivityStatus.UNDECIDED, (1, 4), ("why",)),
         "empties": [[], (), {}, [[]], ({},)], "empty_list": [], "empty_tuple": (),
         "empty_dict": {}, "int_keys": {10: "b", 1: "a", 2: [3]},
         "mixed_rows": [(1, 2), [3, 4]], "ragged_rows": [[1, 2], [3]],
         "long_rows": [[10 ** 15] * 5, [1, 2, 3, 4, 5]],
         "rows_at_72": [[10 ** 11] * 6, [-(10 ** 10)] * 6],
         "rows_past_72": [[10 ** 11] * 5 + [10 ** 12], [1] * 6], "row_of_73": [[10 ** 72], [1]],
         "long_scalars": [10 ** 15] * 5, "nested": [{"a": [1, [2, 3]]}, [[4], 5]]},
        {"periods": (2, 3, 7), "mask": ()}),
    "one-list-at-two-depths": _document(
        {"top": SHARED, "again": SHARED, "nested": {"deeper": SHARED, "too": SHARED},
         "inside": [SHARED, SHARED]}),
}


def _first_difference(ours, oracle):
    """None when equal, else the offset and its neighbourhood in each;
    pytest's own diff of two multi-megabyte strings takes minutes."""
    if ours == oracle:
        return None
    at = next((i for i, (a, b) in enumerate(zip(ours, oracle)) if a != b),
              min(len(ours), len(oracle)))
    return at, ours[at - 60:at + 60], oracle[at - 60:at + 60]


def _listing(mask):
    return CommandRequest("orbit-weights", {
        "order": 2352, "periods": (2, 3, 8), "target": 50 ** 3 - 50, "mask": mask})


@pytest.mark.parametrize("request_", EXAMPLES + (_listing(()), _listing((2,))),
                         ids=[r.subcommand for r in EXAMPLES] + ["g50", "g50-masked"])
def test_writers_match_oracles_on_every_command(request_):
    doc = run(request_)
    assert _first_difference(render_json(doc), brute_render_json(doc)) is None
    assert _first_difference(render_text(doc), brute_render_text(doc)) is None


@pytest.mark.parametrize("doc", HAND_BUILT.values(), ids=HAND_BUILT)
def test_writers_match_oracles_on_hand_built_documents(doc):
    assert _first_difference(render_json(doc), brute_render_json(doc)) is None
    assert _first_difference(render_text(doc), brute_render_text(doc)) is None


def test_document_requires_tagged_body():
    with pytest.raises(AssertionError):
        ReportDocument("demo", {}, ("cite",), {"value": 1}, {})
    with pytest.raises(AssertionError):
        ReportDocument("demo", {}, (), {}, {})


def test_cli_text_success(capsys):
    code = main(["fermat", "--n", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "wptrans fermat" in out
    assert "residual" in out


def test_cli_json_success(capsys):
    code = main(["orbit-weights", "--order", "1092", "--periods", "2,3,7",
                 "--target", "2730", "--mask", "w1=0,w2=0", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert parsed["body"]["surviving_solutions"] == [[0, 0, 1, 2], [0, 0, 3, 1], [0, 0, 5, 0]]
    assert parsed["body"]["verdict"]["orbit_count_range"] == [1, 2]


def test_cli_value_error_is_exit_2(capsys):
    assert main(["fermat", "--n", "3"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["census", "--q", "64"]) == 2
    assert main(["orbit-weights", "--order", "1092", "--periods", "2,3,7",
                 "--target", "2730", "--mask", "w1=1"]) == 2
    assert main(["modular", "--p", "6"]) == 2


def test_cli_mask_out_of_range_names_the_coordinate(capsys):
    assert main(["orbit-weights", "--order", "168", "--periods", "2,3,7",
                 "--target", "24", "--mask", "w5=0"]) == 2
    assert capsys.readouterr().err == (
        "error: --mask w5 is out of range: there are 4 orbits, w1 to w4\n")


def test_cli_assertion_error_is_exit_3(monkeypatch, capsys):
    def boom(request):
        raise AssertionError("synthetic failure")

    monkeypatch.setattr("wptrans.cli.run", boom)
    assert main(["hurwitz", "--q", "7"]) == 3
    assert "internal check failed" in capsys.readouterr().err


def test_cli_usage_errors_exit_via_argparse():
    with pytest.raises(SystemExit) as info:
        main(["no-such-subcommand"])
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def test_cli_import_loads_no_process_pools():
    # a cold `wptrans` process should not pay for concurrent.* or multiprocessing.*
    code = ("import sys, wptrans.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    src = os.path.dirname(os.path.dirname(wptrans.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, lines_read", [
    (["census", "--q", "7"], 0),
    (["orbit-weights", "--order", "1440", "--periods", "2,3,8", "--target", "29760"], 1),
], ids=["before-output", "mid-listing"])
def test_cli_closed_stdout_exits_quietly(argv, lines_read):
    # `wptrans ... | head -1`: the reader closes the pipe before the output
    # is written (census) or part way through a listing larger than the
    # pipe buffer (orbit-weights); neither is an error
    src = os.path.dirname(os.path.dirname(wptrans.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "wptrans.cli"] + argv, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KB is Linux's")
def test_listing_memory_is_bounded():
    # peak RSS of a cold process writing the 53,955-solution (2,3,8) g = 50
    # listing as JSON, less that of a bare import; each runs under its own
    # parent, so that no earlier child's peak is read
    src = os.path.dirname(os.path.dirname(wptrans.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import resource, subprocess, sys; "
            "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True); "
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")

    def peak_kb(*argv):
        done = subprocess.run([sys.executable, "-c", code, sys.executable, *argv],
                              env=env, capture_output=True, text=True, check=True)
        return int(done.stdout)

    listing = peak_kb("-m", "wptrans.cli", "orbit-weights", "--order", "2352",
                      "--periods", "2,3,8", "--target", str(50 ** 3 - 50), "--format", "json")
    assert listing - peak_kb("-c", "import wptrans.cli") < 40 * 1024


BIG_PRIME = 10 ** 18 + 3


@pytest.mark.parametrize("argv, code, max_bytes", [
    (["hurwitz", "--q", str(BIG_PRIME)], 0, 4096),
    (["psl-verdict", "--q", str(BIG_PRIME), "--t", "7"], 0, 4096),
    (["modular", "--p", str(BIG_PRIME)], 0, 4096),
    (["fermat", "--n", "100000"], 0, 4096),
    (["hyperelliptic", "--max-genus", str(HYPERELLIPTIC_MAX_GENUS)], 0, 8 * 2 ** 20),
    (["hyperelliptic", "--max-genus", str(HYPERELLIPTIC_MAX_GENUS + 1)], 2, 0),
    (["hurwitz", "--q", str(PRIME_TEST_BOUND)], 2, 0),
    (["orbit-weights", "--order", "2", "--periods", ",".join(["2"] * ORBIT_WEIGHTS_MAX_PERIODS),
      "--target", "3"], 0, 2 ** 20),
    (["orbit-weights", "--order", "2",
      "--periods", ",".join(["2"] * (ORBIT_WEIGHTS_MAX_PERIODS + 1)), "--target", "3"], 2, 0),
], ids=["hurwitz", "psl-verdict", "modular", "fermat", "hyperelliptic",
        "hyperelliptic-past-bound", "hurwitz-past-bound", "orbit-weights",
        "orbit-weights-past-bound"])
def test_cli_work_is_bounded_at_the_largest_inputs(argv, code, max_bytes):
    # each subcommand at its largest accepted input, or one past it: a few
    # seconds and a bounded output, never minutes (orbit-weights listings
    # are still unbounded)
    src = os.path.dirname(os.path.dirname(wptrans.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "wptrans.cli"] + argv + ["--format", "json"],
                          env=env, capture_output=True, timeout=20)
    assert done.returncode == code, done.stderr
    assert len(done.stdout) <= max_bytes
    if code == 2:
        assert done.stderr.startswith(b"error: ")
