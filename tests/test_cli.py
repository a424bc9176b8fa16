"""Wire-format round trips and the command-line surface."""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vnalg.cli
import vnalg.maps
from vnalg import equal, make_algebra, maps_equal, mul
from vnalg.cli import main
from vnalg.jsonio import (algebra_from_json, algebra_to_json, dumps,
                          element_from_json, element_to_json, loads,
                          map_from_json, map_to_json)
from vnalg.maps import conjugation_map, random_cp_map
from vnalg.sampling import random_element, random_projection, random_unitary

M2 = make_algebra([2])


def run_cli(argv, stdin_text=""):
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(stdin_text)
    sys.stdout = io.StringIO()
    try:
        code = main(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out
    return code, out


def test_round_trips_on_random_fixtures():
    # parse(print(x)) = x for algebras, elements, and maps.
    rng = np.random.default_rng(0)
    alg = make_algebra([2, 3])
    for _ in range(100):
        a = random_element(alg, rng)
        assert equal(element_from_json(loads(dumps(element_to_json(a)))), a)
        p = random_projection(alg, rng)
        assert equal(element_from_json(loads(dumps(element_to_json(p)))), p)
    for _ in range(10):
        f = random_cp_map(M2, alg, rng)
        assert maps_equal(map_from_json(loads(dumps(map_to_json(f)))), f)


def test_algebra_round_trip():
    alg = make_algebra([4, 1, 2])
    assert algebra_from_json(loads(dumps(algebra_to_json(alg)))) == alg


@pytest.mark.parametrize("seed", range(3))
def test_map_round_trip(seed):
    rng = np.random.default_rng(seed)
    f = random_cp_map(M2, make_algebra([2, 1]), rng)
    assert maps_equal(map_from_json(loads(dumps(map_to_json(f)))), f)


def test_serialization_is_lossless_for_awkward_floats():
    alg = make_algebra([1])
    a = alg.element([[[0.1 + 1.0 / 3.0 * 1j]]])
    back = element_from_json(loads(dumps(element_to_json(a))))
    assert back.blocks[0][0, 0] == a.blocks[0][0, 0]


def test_spectrum_command():
    payload = dumps(element_to_json(M2.element([np.array([[0, 2], [0, 0]])])))
    code, out = run_cli(["spectrum"], payload)
    assert code == 0
    data = loads(out)
    assert data["values"] == [[0.0, 0.0], [0.0, 0.0]]


def test_seqprod_command_unit():
    one = element_to_json(M2.unit())
    code, out = run_cli(["seqprod"], dumps({"p": one, "q": one}))
    assert code == 0
    assert equal(element_from_json(loads(out)), M2.unit())


def test_determinism_byte_identical():
    argv = ["gen", "--kind", "effect", "--algebra", "2,3", "--seed", "42",
            "--count", "3"]
    _, out1 = run_cli(argv)
    _, out2 = run_cli(argv)
    assert out1 == out2
    argv2 = ["check-axioms", "--op", "std", "--algebra", "2", "--trials", "5",
             "--seed", "9"]
    _, rep1 = run_cli(argv2)
    _, rep2 = run_cli(argv2)
    assert rep1 == rep2


def test_parse_error_exit_code():
    code, out = run_cli(["spectrum"], "this is not json")
    assert code == 1
    assert loads(out)["error"] == "ParseError"


def test_precondition_exit_code():
    bad = dumps(element_to_json(M2.element([np.diag([1.0, -1.0])])))
    code, out = run_cli(["sqrt"], bad)
    assert code == 2
    assert loads(out)["error"] == "NotPositive"


def test_division_undefined_exit_code():
    a = element_to_json(M2.element([np.diag([1.0, 0.0])]))
    b = element_to_json(M2.element([np.diag([0.0, 1.0])]))
    code, out = run_cli(["divide"], dumps({"a": a, "b": b}))
    assert code == 2
    assert loads(out)["error"] == "DivisionUndefined"


def test_divide_right_is_the_default_and_left_divides_on_the_other_side():
    rng = np.random.default_rng(3)
    b, c = random_element(M2, rng), random_element(M2, rng)
    a = mul(c, b)
    assert not equal(mul(b, c), a)  # a pair that does not commute
    payload = dumps({"a": element_to_json(a), "b": element_to_json(b)})
    plain, right, left = (run_cli(["divide", *flag], payload)
                          for flag in ([], ["--right"], ["--left"]))
    assert plain[0] == right[0] == left[0] == 0
    assert right[1] == plain[1]
    q_right = element_from_json(loads(right[1])["quotient"])
    q_left = element_from_json(loads(left[1])["quotient"])
    assert equal(mul(q_right, b), a) and equal(mul(b, q_left), a)
    assert not equal(q_left, q_right)


def test_check_axioms_reports_failure_with_witness():
    code, out = run_cli(["check-axioms", "--op", "ceil", "--algebra", "2",
                         "--trials", "10", "--seed", "7"])
    assert code == 3  # a property failed, with witness attached
    data = loads(out)
    assert data["A"]["status"] == "fail"
    w = element_from_json(data["A"]["witness"]["p"])
    assert np.allclose(w.blocks[0], np.diag([0.5, 0.0]))
    assert all(data[ax]["status"] == "pass" for ax in "BCDE")


def test_named_function_flag():
    a = element_to_json(M2.element([np.diag([4.0, 16.0])]))
    code, out = run_cli(["sqrt", "--f", "pow:0.25"], dumps(a))
    assert code == 0
    got = element_from_json(loads(out))
    assert np.allclose(got.blocks[0], np.diag([np.sqrt(2.0), 2.0]))


def test_ceil_floor_support_commands():
    a = dumps(element_to_json(M2.element([np.diag([0.5, 0.0])])))
    for cmd, want in [("ceil", np.diag([1.0, 0.0])),
                      ("floor", np.diag([0.0, 0.0])),
                      ("support", np.diag([1.0, 0.0])),
                      ("csupport", np.eye(2))]:
        code, out = run_cli([cmd], a)
        assert code == 0
        assert np.allclose(element_from_json(loads(out)).blocks[0], want), cmd


def test_join_meet_commands():
    p = element_to_json(M2.element([np.diag([1.0, 0.0])]))
    q = element_to_json(M2.element([0.5 * np.ones((2, 2))]))
    code, out = run_cli(["join"], dumps({"elements": [p, q]}))
    assert code == 0
    assert np.allclose(element_from_json(loads(out)).blocks[0], np.eye(2))
    code, out = run_cli(["meet"], dumps({"elements": [p, q]}))
    assert np.allclose(element_from_json(loads(out)).blocks[0], 0.0)


def test_polar_pinv_divide_seqquot_commands():
    nil = element_to_json(M2.element([np.array([[0.0, 2.0], [0.0, 0.0]])]))
    code, out = run_cli(["polar"], dumps(nil))
    parts = loads(out)
    assert np.allclose(element_from_json(parts["isometry"]).blocks[0],
                       [[0.0, 1.0], [0.0, 0.0]])
    code, out = run_cli(["pinv"], dumps(nil))
    assert np.allclose(element_from_json(loads(out)).blocks[0],
                       [[0.0, 0.0], [0.5, 0.0]])
    b = element_to_json(M2.element([np.diag([0.0, 2.0])]))
    code, out = run_cli(["divide"], dumps({"a": nil, "b": b}))
    data = loads(out)
    assert np.allclose(element_from_json(data["quotient"]).blocks[0],
                       [[0.0, 1.0], [0.0, 0.0]])
    assert data["lambda"] == pytest.approx(1.0)
    eff = element_to_json(M2.element([np.diag([0.5, 0.5])]))
    one = element_to_json(M2.unit())
    code, out = run_cli(["seqquot"], dumps({"a": eff, "b": one}))
    assert np.allclose(element_from_json(loads(out)).blocks[0], 0.5 * np.eye(2))


def test_checkmap_tests_multiplicativity_once(monkeypatch):
    # miu is read off the unital, involutive and multiplicative verdicts.
    calls = []
    real = vnalg.maps.is_multiplicative

    def counted(*args):
        calls.append(1)
        return real(*args)
    monkeypatch.setattr(vnalg.maps, "is_multiplicative", counted)
    monkeypatch.setattr(vnalg.cli, "is_multiplicative", counted)
    f = conjugation_map(random_unitary(make_algebra([8]), np.random.default_rng(0)))
    code, out = run_cli(["checkmap"], dumps(map_to_json(f)))
    assert (code, loads(out)) == (0, {"cp": True, "miu": True, "unital": True, "subunital": True,
                                      "involutive": True, "multiplicative": True})
    assert len(calls) == 1


# a*a overflows on this payload; a fresh process shows any numpy warning on
# its stderr.
NEAR_LIMIT = M2.element([1e160 * np.array([[2.0, 1.0], [1.0, 2.0]])])


def run_fresh(argv, element):
    """Exit code, stdout and stderr of the CLI in a fresh interpreter."""
    src = str(Path(vnalg.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-m", "vnalg.cli", *argv],
                          input=dumps(element_to_json(element)), capture_output=True, text=True,
                          env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_sqrt_and_abs_answer_near_the_float_limit():
    a = NEAR_LIMIT
    root = 1e80 * np.array([[np.sqrt(3) + 1, np.sqrt(3) - 1], [np.sqrt(3) - 1, np.sqrt(3) + 1]]) / 2
    for command, want in (("sqrt", root), ("abs", a.blocks[0])):
        code, out, err = run_fresh([command], a)
        assert (code, err) == (0, ""), out
        np.testing.assert_allclose(element_from_json(loads(out)).blocks[0], want, rtol=1e-14)


@pytest.mark.parametrize("command", ["sqrt", "abs"])
def test_named_function_near_the_float_limit_answers_as_the_command(command):
    # The named function goes through functional_calculus, which takes a
    # self-adjoint element as normal without forming a*a.
    got = run_fresh([command, "--f", command], NEAR_LIMIT)
    assert got == run_fresh([command], NEAR_LIMIT)
    assert (got[0], got[2]) == (0, "")


def test_checkmap_and_choi_commands():
    rng = np.random.default_rng(0)
    f = conjugation_map(random_element(M2, rng))
    payload = dumps(map_to_json(f))
    code, out = run_cli(["checkmap", "--cp", "--carrier"], payload)
    data = loads(out)
    assert data["cp"] is True
    assert "carrier" in data
    code, out = run_cli(["choi"], payload)
    data = loads(out)
    assert data["min_eigenvalue"] >= -1e-9
    assert data["blocks"][0]["domain_block_index"] == 0


def test_corner_filter_bracket_purity_commands():
    p = dumps(element_to_json(M2.element([np.diag([1.0, 0.0])])))
    code, out = run_cli(["corner"], p)
    assert code == 0
    data = loads(out)
    g = map_from_json(data["map"])
    assert g.cod.dims == (1,)
    code, out = run_cli(["filter"], p)
    assert map_from_json(loads(out)["map"]).dom.dims == (1,)
    f = dumps(map_to_json(conjugation_map(M2.element([np.diag([1.0, 0.5])]))))
    code, out = run_cli(["purity"], f)
    assert loads(out)["pure"] is True
    code, out = run_cli(["bracket"], f)
    assert code == 0


def test_tensor_and_bang_commands():
    code, out = run_cli(["tensor", "--algebras", "2:2,3"])
    assert loads(out)["product"]["dims"] == [4, 6]
    left = element_to_json(M2.unit())
    right = element_to_json(make_algebra([1, 1]).unit())
    code, out = run_cli(["tensor-el"], dumps({"left": left, "right": right}))
    assert loads(out)["algebra"]["dims"] == [2, 2]
    code, out = run_cli(["bang", "--algebra", "2,1"])
    data = loads(out)
    assert data["points"] == [1]
    assert data["bang"]["dims"] == [1]
    code, out = run_cli(["dup-check", "--algebra", "1,1"])
    assert loads(out)["duplicable"] is True
    code, out = run_cli(["dup-check", "--algebra", "2", "--samples", "500"])
    data = loads(out)
    assert data["duplicable"] is False
    assert data["witness"] is not None


def test_wedderburn_and_gns_commands():
    rng = np.random.default_rng(1)
    basis = [element_to_json(e) for e in M2.basis()]
    payload = dumps({"ambient": algebra_to_json(M2), "basis": basis})
    code, out = run_cli(["wedderburn", "--seed", "3"], payload)
    assert code == 0
    assert loads(out)["dims"] == [2]
    diag = [element_to_json(M2.element([np.diag([1.0, 0.0])])),
            element_to_json(M2.element([np.diag([0.0, 1.0])]))]
    payload = dumps({"ambient": algebra_to_json(M2), "basis": diag})
    code, out = run_cli(["gelfand"], payload)
    assert loads(out)["points"] == 2
    from vnalg import functional_from_density
    omega = functional_from_density((1 / 2) * M2.unit())
    code, out = run_cli(["gns"], dumps(map_to_json(omega)))
    assert loads(out)["hilbert_dim"] == 4


def test_gen_kinds():
    for kind in ["effect", "projection", "element", "state", "cpmap"]:
        code, out = run_cli(["gen", "--kind", kind, "--algebra", "2",
                             "--seed", "1", "--count", "2"])
        assert code == 0
        assert len(loads(out)) == 2


def test_in_out_file_flags(tmp_path):
    src = tmp_path / "a.json"
    dst = tmp_path / "out.json"
    src.write_text(dumps(element_to_json(M2.element([np.diag([4.0, 9.0])]))))
    code, _ = run_cli(["sqrt", "--in", str(src), "--out", str(dst)])
    assert code == 0
    got = element_from_json(loads(dst.read_text()))
    assert np.allclose(got.blocks[0], np.diag([2.0, 3.0]))


def test_verify_suite_smoke_runs():
    code, out = run_cli(["verify-suite", "--level", "smoke"])
    assert code == 0
    assert "10/10 checks passed" in out


GOLDEN = Path(__file__).parent / "data" / "check_axioms"


@pytest.mark.parametrize("op", ["std", "ceil", "floorsplit", "sign", "phase"])
@pytest.mark.parametrize("dims", ["2", "3", "2,1"])
def test_check_axioms_golden_bytes(op, dims):
    # Reports, witness blocks included, must not drift between versions:
    # a speedup that changes a witness byte is a regression.
    code, out = run_cli(["check-axioms", "--op", op, "--algebra", dims,
                         "--trials", "6", "--seed", "9"])
    assert code == (0 if op == "std" else 3)
    assert out == (GOLDEN / f"{op}_{dims.replace(',', '+')}.json").read_text()


CLI_GOLDEN = Path(__file__).parent / "data" / "cli"


@pytest.mark.parametrize("name, argv, payload", [
    ("choi_cp", ["choi"], "cp_2_2+1"),
    ("choi_transpose", ["choi"], "transpose_2+1"),
    ("checkmap_cp", ["checkmap"], "cp_2+1_2"),
    ("checkmap_transpose", ["checkmap"], "transpose_2+1"),
    ("checkmap_cp_flag", ["checkmap", "--cp"], "cp_2_2+1"),
    ("checkmap_miu", ["checkmap", "--miu"], "conj_unitary_2"),
    ("checkmap_miu_cp", ["checkmap", "--miu"], "cp_2+1_2"),
    ("checkmap_carrier", ["checkmap", "--carrier"], "conj_rank2_3"),
    ("checkmap_carrier_cp", ["checkmap", "--carrier"], "cp_2_2+1"),
    ("bang_2+1+1", ["bang", "--algebra", "2,1,1"], None),
    ("bang_3", ["bang", "--algebra", "3"], None),
    ("dup_check_1+1+1", ["dup-check", "--algebra", "1,1,1"], None),
    ("corner_effect", ["corner"], "effect_2+1"),
    ("corner_projection", ["corner"], "projection_3"),
    ("bracket_diag", ["bracket"], "conj_diag_2"),
    ("bracket_rank2", ["bracket"], "conj_rank2_3"),
    ("bracket_cp", ["bracket"], "cp_2_2+1"),
])
def test_map_commands_golden_bytes(name, argv, payload):
    # Map-emitting commands must print the same bytes however the maps are
    # built or read: inputs live in <payload>.in.json, stdout in <name>.out.json.
    stdin = (CLI_GOLDEN / f"{payload}.in.json").read_text() if payload else ""
    code, out = run_cli(argv, stdin)
    assert code == 0
    assert out == (CLI_GOLDEN / f"{name}.out.json").read_text()


@pytest.mark.parametrize("name, argv, payload", [
    ("sqrt_effect", ["sqrt"], "effect_2+1"),
    ("sqrt_projection", ["sqrt"], "projection_3"),
    ("sqrt_f_abs_effect", ["sqrt", "--f", "abs"], "effect_2+1"),
    ("sqrt_f_abs_projection", ["sqrt", "--f", "abs"], "projection_3"),
    ("abs_effect", ["abs"], "effect_2+1"),
    ("abs_projection", ["abs"], "projection_3"),
    ("pinv_effect", ["pinv"], "effect_2+1"),
    ("pinv_projection", ["pinv"], "projection_3"),
    ("join_projections", ["join"], "projections_3"),
    ("meet_projections", ["meet"], "projections_3"),
])
def test_element_commands_golden_bytes(name, argv, payload):
    # The element commands that share one handler factory print what their
    # separate handlers printed.
    code, out = run_cli(argv, (CLI_GOLDEN / f"{payload}.in.json").read_text())
    assert code == 0
    assert out == (CLI_GOLDEN / f"{name}.out.json").read_text()


@pytest.mark.parametrize("name, argv, payload", [
    ("spectrum_element", ["spectrum"], "element_2+1"),
    ("spectrum_effect", ["spectrum"], "effect_2+1"),
    ("ceil_effect", ["ceil"], "effect_2+1"),
    ("ceil_effect_rank2", ["ceil"], "effect_rank2_3"),
    ("floor_effect", ["floor"], "effect_2+1"),
    ("floor_effect_rank2", ["floor"], "effect_rank2_3"),
    ("support_element", ["support"], "element_2+1"),
    ("support_rankone", ["support"], "rankone_2+1"),
    ("range_rankone", ["range"], "rankone_2+1"),
    ("csupport_rankone", ["csupport"], "rankone_2+1"),
    ("csupport_element", ["csupport"], "element_2+1"),
    ("polar_element", ["polar"], "element_2+1"),
    ("polar_rankone", ["polar"], "rankone_2+1"),
    ("divide_pair", ["divide"], "pair_3"),
    ("divide_left_pair", ["divide", "--left"], "pair_3"),
    ("seqquot_pair", ["seqquot"], "quot_2+1"),
    ("seqprod_effects", ["seqprod"], "effects_2+1"),
    ("tensor_2_2+1", ["tensor", "--algebras", "2:2,1"], None),
    ("tensor_el_pair", ["tensor-el"], "tensor_pair"),
    ("filter_effect", ["filter"], "effect_2+1"),
    ("filter_effect_rank2", ["filter"], "effect_rank2_3"),
    ("purity_cp", ["purity"], "cp_2_2+1"),
    ("purity_conj_rank2", ["purity"], "conj_rank2_3"),
    ("purity_conj_unitary", ["purity"], "conj_unitary_2"),
    ("wedderburn_2+1_in_3", ["wedderburn", "--seed", "4"], "subalgebra_2+1_in_3"),
    ("gelfand_diagonal", ["gelfand", "--seed", "4"], "diagonal_in_3"),
    ("gns_state", ["gns"], "state_2+1"),
] + [(f"gen_{kind}", ["gen", "--kind", kind, "--algebra", "2,1", "--seed", "11",
                      "--count", "2"], None)
     for kind in ["effect", "projection", "element", "state", "cpmap"]])
def test_remaining_commands_golden_bytes(name, argv, payload):
    # Every subcommand's stdout is pinned: the gen rows pin the samplers, the
    # rest the handlers and the library calls beneath them.
    stdin = (CLI_GOLDEN / f"{payload}.in.json").read_text() if payload else ""
    code, out = run_cli(argv, stdin)
    assert code == 0
    assert out == (CLI_GOLDEN / f"{name}.out.json").read_text()


def test_verify_suite_writes_its_report_to_out(tmp_path, monkeypatch):
    monkeypatch.setattr("vnalg.cli.run_suite",
                        lambda level: [("first", True, "fine"), ("second check", False, "bad")])
    dst = tmp_path / "report.txt"
    code, out = run_cli(["verify-suite", "--out", str(dst)])
    assert (code, out) == (3, "")
    assert dst.read_text() == ("first         pass  fine\n"
                               "second check  FAIL  bad\n"
                               "------------\n1/2 checks passed at level smoke\n")


@pytest.mark.parametrize("name, argv, payload", [
    ("ceil_tol_small_eig", ["ceil"], "small_eig_2+1"),
    ("support_tol_small_eig", ["support"], "small_eig_2+1"),
    ("filter_tol_small_eig", ["filter"], "small_eig_2+1"),
    ("checkmap_carrier_tol_conj_small", ["checkmap", "--carrier"], "conj_small_3"),
    ("check_axioms_std_tol", ["check-axioms", "--op", "std", "--algebra", "2,1",
                              "--trials", "6", "--seed", "9"], None),
])
def test_tol_option_golden_bytes(name, argv, payload):
    # At --tol 1e-3 the payloads' eigenvalues of order 1e-5 fall inside the
    # snapping radius, so the first four outputs differ from the default's.
    stdin = (CLI_GOLDEN / f"{payload}.in.json").read_text() if payload else ""
    code, out = run_cli(argv + ["--tol", "1e-3"], stdin)
    assert code == 0
    assert out == (CLI_GOLDEN / f"{name}.out.json").read_text()
