"""Malformed and non-finite JSON at the CLI boundary: typed errors, documented
exit codes, never a traceback."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vnalg
from vnalg import make_algebra
from vnalg.cli import main
from vnalg.jsonio import dumps, element_to_json, map_to_json
from vnalg.maps import identity_map

M2 = make_algebra([2])
ELEMENT = element_to_json(M2.unit())
MAP = map_to_json(identity_map(M2))


def run_cli(argv, stdin_text):
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(stdin_text), io.StringIO()
    try:
        code = main(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out
    return code, json.loads(out)


def element_with(entry):
    el = json.loads(dumps(ELEMENT))
    el["blocks"][0][0][1] = entry
    return el


def payload(command, element):
    """The command's input, carrying ``element`` (as the first image of a map)."""
    if command != "checkmap":
        return element
    m = json.loads(dumps(MAP))
    m["images"][0] = element
    return m


COMMANDS = ["sqrt", "spectrum", "checkmap"]
NON_FINITE = [json.dumps(element_with(entry), allow_nan=True)
              for entry in ([float("nan"), 0.0], [0.0, float("inf")], [float("-inf"), 0.0])]
NON_FINITE.append(dumps(ELEMENT).replace("[0.0,0.0]", "[1e400,0.0]", 1))


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("text", NON_FINITE)
def test_non_finite_entries_are_a_precondition_error(command, text):
    data = payload(command, json.loads(text))
    code, out = run_cli([command], json.dumps(data, allow_nan=True))
    assert (code, out["error"]) == (2, "NotFinite")


@pytest.mark.parametrize("command", ["support", "range", "pinv", "polar", "csupport"])
def test_an_overflowing_singular_value_is_not_finite(command):
    # Finite entries, but the largest singular value overflows to inf (for
    # csupport: the operator norm its zero test scales by).
    data = {"algebra": {"dims": [2]}, "blocks": [[[[1e308, 0.0]] * 2] * 2]}
    code, out = run_cli([command], dumps(data))
    assert (code, out["error"]) == (2, "NotFinite")


@pytest.mark.parametrize("command", ["sqrt", "ceil", "abs", "floor", "spectrum"])
def test_an_overflowing_eigenvalue_is_not_finite_and_warns_nothing(command):
    # Finite entries, a positive semidefinite element, and the eigenvalue 2e308,
    # which overflows.  A fresh process shows any numpy warning on its stderr.
    data = {"algebra": {"dims": [2]}, "blocks": [[[[1e308, 0.0]] * 2] * 2]}
    src = str(Path(vnalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-m", "vnalg.cli", command], input=dumps(data),
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, json.loads(proc.stdout)["error"], proc.stderr) == (2, "NotFinite", "")


@pytest.mark.parametrize("command", ["sqrt", "abs"])
def test_an_overflowing_normality_product_is_not_finite_and_warns_nothing(command):
    # 1e300 times a rotation: normal, not self-adjoint, and a*a overflows
    # before --f reaches functional calculus.  Any numpy warning is an error here.
    data = {"algebra": {"dims": [2]}, "blocks": [[[[0.0, 0.0], [1e300, 0.0]],
                                                  [[-1e300, 0.0], [0.0, 0.0]]]]}
    src = str(Path(vnalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    argv = [sys.executable, "-W", "error", "-m", "vnalg.cli", command, "--f", "abs"]
    proc = subprocess.run(argv, input=dumps(data), capture_output=True, text=True, env=env,
                          timeout=120)
    assert (proc.returncode, json.loads(proc.stdout)["error"], proc.stderr) == (2, "NotFinite", "")


@pytest.mark.parametrize("command", ["sqrt", "abs"])
def test_a_real_only_function_at_a_unitary_is_undefined_on_its_spectrum(command):
    # The rotation at norm 1: |Re lam| would answer 0 and exit 0.
    data = {"algebra": {"dims": [2]}, "blocks": [[[[0.0, 0.0], [1.0, 0.0]],
                                                  [[-1.0, 0.0], [0.0, 0.0]]]]}
    code, out = run_cli([command, "--f", "abs"], dumps(data))
    assert (code, out["error"]) == (2, "FunctionUndefinedOnSpectrum")


@pytest.mark.parametrize("command,root", [("sqrt", 1e154), ("abs", 1e308)])
def test_a_cluster_of_eigenvalues_near_the_float_limit_is_averaged_finitely(command, root):
    # diag(1e308, 1e308): the two eigenvalues form one cluster, whose plain
    # mean would overflow in their sum.  Any numpy warning is an error here.
    data = {"algebra": {"dims": [2]}, "blocks": [[[[1e308, 0.0], [0.0, 0.0]],
                                                  [[0.0, 0.0], [1e308, 0.0]]]]}
    src = str(Path(vnalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "vnalg.cli", command],
                          input=dumps(data), capture_output=True, text=True, env=env, timeout=120)
    want = {"algebra": {"dims": [2]}, "blocks": [[[[root, 0.0], [0.0, 0.0]],
                                                  [[0.0, 0.0], [root, 0.0]]]]}
    assert (proc.returncode, json.loads(proc.stdout), proc.stderr) == (0, want, "")


def test_three_eigenvalues_near_the_float_limit_are_averaged_finitely():
    # 1.7e308 times the unit of M3: the halves of the three eigenvalues also
    # sum past the float limit, so the centre is the sum of their thirds.
    def scaled_unit(scale):
        return {"algebra": {"dims": [3]}, "blocks": [
            [[[scale if r == c else 0.0, 0.0] for c in range(3)] for r in range(3)]]}
    src = str(Path(vnalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "vnalg.cli", "sqrt"],
                          input=dumps(scaled_unit(1.7e308)), capture_output=True, text=True,
                          env=env, timeout=120)
    root = 1.3038404810405297e154  # the correctly rounded square root of 1.7e308
    assert (proc.returncode, json.loads(proc.stdout), proc.stderr) == (0, scaled_unit(root), "")


@pytest.mark.parametrize("argv,option", [
    (["check-axioms", "--op", "std", "--algebra", "2", "--trials", "-1"], "--trials"),
    (["gen", "--kind", "effect", "--algebra", "2", "--count", "-1"], "--count"),
])
def test_a_negative_count_is_a_usage_error_that_names_the_option(argv, option):
    code, out = run_cli(argv, "")
    assert (code, out["error"]) == (1, "ParseError") and option in out["message"], out


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_dup_check_with_no_samples_left_is_a_precondition_error(samples):
    code, out = run_cli(["dup-check", "--algebra", "2", "--samples", samples], "")
    assert (code, out["error"]) == (2, "SampleBudgetExhausted")


MALFORMED = {
    "bare number block": lambda el: {**el, "blocks": [5]},
    "bare number blocks": lambda el: {**el, "blocks": 5},
    "bare number entry": lambda el: {**el, "blocks": [[[1, 0], [0, 1]]]},
    "short pair": lambda el: {**el, "blocks": [[[[1], [0, 0]], [[0, 0], [1, 0]]]]},
    "bare number dims": lambda el: {**el, "algebra": {"dims": 2}},
    "object entry": lambda el: {**el, "blocks": [[[{"re": 1}, [0, 0]], [[0, 0], [1, 0]]]]},
    "missing algebra": lambda el: {"blocks": el["blocks"]},
    "missing blocks": lambda el: {"algebra": el["algebra"]},
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_payloads_are_parse_errors(command, case):
    data = payload(command, MALFORMED[case](json.loads(dumps(ELEMENT))))
    code, out = run_cli([command], dumps(data))
    assert (code, out["error"]) == (1, "ParseError")


ELEMENT_IN_M1 = element_to_json(make_algebra([1]).unit())
# (argv, payload, the field its message names)
MISSING_FIELDS = [
    (["sqrt"], MALFORMED["missing algebra"](ELEMENT), "algebra"),
    (["sqrt"], MALFORMED["missing blocks"](ELEMENT), "blocks"),
    (["sqrt"], {**ELEMENT, "algebra": {}}, "dims"),
    (["checkmap"], {"dom": MAP["dom"], "cod": MAP["cod"]}, "images"),
    (["checkmap"], {"dom": MAP["dom"], "images": MAP["images"]}, "cod"),
    (["checkmap"], {**MAP, "images": [{"algebra": MAP["cod"]}] * 4}, "blocks"),
    (["divide"], {"a": ELEMENT_IN_M1}, "b"),
    (["seqquot"], {"b": ELEMENT_IN_M1}, "a"),
    (["join"], {}, "elements"),
    (["wedderburn"], {"basis": []}, "ambient"),
]


@pytest.mark.parametrize("argv,data,field", MISSING_FIELDS,
                         ids=[f"{argv[0]}-{field}" for argv, _, field in MISSING_FIELDS])
def test_a_missing_field_is_named(argv, data, field):
    code, out = run_cli(argv, dumps(data))
    assert (code, out) == (1, {"error": "ParseError", "message": f"missing field '{field}'"})


def test_an_object_entry_is_malformed_json():
    code, out = run_cli(["sqrt"], dumps(MALFORMED["object entry"](ELEMENT)))
    assert (code, out) == (1, {"error": "ParseError", "message": "malformed JSON: 0"})


@pytest.mark.parametrize("command", COMMANDS)
def test_top_level_list_is_a_parse_error(command):
    code, out = run_cli([command], dumps([payload(command, ELEMENT)]))
    assert (code, out["error"]) == (1, "ParseError")


NOT_A_LIST_OF_ELEMENTS = [{"elements": 5}, {"elements": "x"}, {"elements": [5]}, {}]


@pytest.mark.parametrize("command", ["join", "meet"])
@pytest.mark.parametrize("data", NOT_A_LIST_OF_ELEMENTS, ids=json.dumps)
def test_elements_must_be_a_list_of_elements(command, data):
    code, out = run_cli([command], dumps(data))
    assert (code, out["error"]) == (1, "ParseError")


@pytest.mark.parametrize("command", ["wedderburn", "gelfand"])
@pytest.mark.parametrize("basis", [5, "x", [5]], ids=json.dumps)
def test_subalgebra_basis_must_be_a_list_of_elements(command, basis):
    data = {"ambient": {"dims": [2]}, "basis": basis}
    code, out = run_cli([command], dumps(data))
    assert (code, out["error"]) == (1, "ParseError")


@pytest.mark.parametrize("command", ["wedderburn", "gelfand"])
def test_trivial_ambient_spanned_by_its_zero_element(command):
    # The zero algebra's one element spans nothing: its coordinate rows have
    # length 0, and the subalgebra is the one an empty basis gives.
    zero = {"algebra": {"dims": []}, "blocks": []}
    spanned = run_cli([command], dumps({"ambient": {"dims": []}, "basis": [zero]}))
    assert spanned == run_cli([command], dumps({"ambient": {"dims": []}, "basis": []}))
    assert spanned[0] == 0
