"""Importing vnalg and running the CLI load no scipy module.

scipy is needed only for the complex Schur form that functional calculus
takes of a non-Hermitian normal block.  Each check runs in a fresh
interpreter, because this test process has loaded scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import vnalg

SRC = str(Path(vnalg.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)

SCRIPT = r"""
import contextlib, io, json, sys
import numpy as np

import vnalg, vnalg.cli
from vnalg import jsonio, make_algebra, mul
from vnalg.maps import random_cp_map, random_cpu_map
from vnalg.sampling import (random_effect, random_element, random_positive,
                            random_projection, random_unitary_block)

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {"after_import": scipy_modules(), "exit_codes": {}}
rng = np.random.default_rng(5)
m2, m3, m21 = make_algebra([2]), make_algebra([3]), make_algebra([2, 1])
el = jsonio.element_to_json
b, c = random_element(m3, rng), random_element(m3, rng)
# The command mix of the benchmark's cli workload, at small sizes.
calls = [
    (["spectrum"], el(random_element(m21, rng))),
    (["sqrt"], el(random_positive(m3, rng))),
    (["ceil"], el(random_positive(m3, rng))),
    (["join"], {"elements": [el(random_projection(m3, rng)), el(random_projection(m3, rng))]}),
    (["polar"], el(random_element(m3, rng))),
    (["divide"], {"a": el(mul(c, b)), "b": el(b)}),
    (["seqprod"], {"p": el(random_effect(m3, rng)), "q": el(random_effect(m3, rng))}),
    (["tensor-el"], {"left": el(random_element(m2, rng)), "right": el(random_element(m3, rng))}),
    (["checkmap", "--cp"], jsonio.map_to_json(random_cpu_map(m2, m2, rng))),
    (["choi"], jsonio.map_to_json(random_cp_map(m2, m2, rng))),
]
for argv, payload in calls:
    sys.stdin = io.StringIO(jsonio.dumps(payload))
    with contextlib.redirect_stdout(io.StringIO()):
        report["exit_codes"][" ".join(argv)] = vnalg.cli.main(argv)
report["after_cli"] = scipy_modules()

# A unitary with distinct eigenvalues is normal but not Hermitian.
alg = make_algebra([3, 1])
v = random_unitary_block(rng, 3)
u = alg.element([v @ np.diag(np.exp([0.3j, 1.7j, 4.0j])) @ v.conj().T, [[np.exp(0.5j)]]])
f = lambda z: z.conjugate() ** 2
got = vnalg.functional_calculus(u, f)
report["after_schur"] = scipy_modules()

sys.path.insert(0, TESTS)
import loop_oracles
want = loop_oracles.functional_calculus(u, f)
report["matches_oracle"] = all(np.array_equal(x, y) for x, y in zip(got.blocks, want.blocks))
report["is_adjoint_squared"] = vnalg.equal(got, mul(vnalg.adjoint(u), vnalg.adjoint(u)))
print(json.dumps(report))
"""


def run_fresh():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", f"TESTS = {TESTS!r}\n" + SCRIPT],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_import_and_cli_load_no_scipy_and_schur_loads_it_on_first_use():
    report = run_fresh()
    assert report["after_import"] == []
    assert set(report["exit_codes"].values()) == {0}, report["exit_codes"]
    assert report["after_cli"] == []
    assert "scipy.linalg" in report["after_schur"]
    assert report["matches_oracle"]
    assert report["is_adjoint_squared"]
