"""The four benchmark workloads, built from the workload seed.

Each workload is a closed loop with one client.  It is cut into rounds: a
round is a fixed list of units, and round ``r`` draws its random inputs
from ``round_seed(seed, r)``, so every round has the same mix of calls on
fresh inputs.  A unit is ``(label, call, check)``: ``call()`` is the timed
library call and ``check(result)`` returns ``None`` when the result is the
expected one, or a line saying how it differs.

The library is always called through its module attributes (``maps.apply``,
never a name imported from it), so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys

import numpy as np

from vnalg import (algebra, jsonio, maps, measurement, projections, sampling,
                   suite, tensor)

TOL = algebra.DEFAULT_TOL
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def _close(x, y, rel: float = 1e-9) -> bool:
    return algebra.operator_norm(x - y) <= rel * (1.0 + algebra.operator_norm(y))


# ---------------------------------------------------------------------------
# axioms: criterion 1's battery, one unit per (op, algebra, round seed)

AXIOM_ALGEBRAS = ((2,), (3,), (2, 1))
# The std product and the ceil/floorsplit/sign variants meet or break their
# axioms on the structured effects every check starts from, so a few random
# trials suffice.  The phase variant breaks E only on random effects; its
# miss rate on M2 was 22% at 2 trials, 10% at 4 and 3% at 6 (200 seeds
# each), and 24 trials put it far below one miss per benchmark campaign.
AXIOM_TRIALS = {"phase": 24}
AXIOM_DEFAULT_TRIALS = 4
AXIOM_PURITY_TRIALS = 2


def _axiom_problem(op, report) -> str | None:
    problems = []
    for axiom, res in report.items():
        want = "fail" if axiom == op.target_axiom else "pass"
        if res["status"] != want:
            problems.append(f"axiom {axiom} is {res['status']}, expected {want}")
    if op.target_axiom and report[op.target_axiom]["witness"] is None:
        problems.append("no witness emitted")
    return "; ".join(problems) or None


def axioms_setup(seed: int, smoke: bool):
    plan = []
    for dims in AXIOM_ALGEBRAS[:1] if smoke else AXIOM_ALGEBRAS:
        alg = algebra.make_algebra(dims)
        ops = [measurement.standard_op(TOL)] + measurement.counterexample_ops(alg, TOL)
        plan.extend((alg, op) for op in (ops[:2] if smoke else ops))
    return {"seed": seed, "plan": plan, "smoke": smoke}


def axioms_round(state, r: int):
    rs = round_seed(state["seed"], r)
    units = []
    for alg, op in state["plan"]:
        trials = 1 if state["smoke"] else AXIOM_TRIALS.get(op.name, AXIOM_DEFAULT_TRIALS)

        def call(alg=alg, op=op, trials=trials):
            return measurement.check_axioms(op, alg, trials=trials, seed=rs,
                                            tol=TOL, check_tol=1e-8,
                                            purity_trials=AXIOM_PURITY_TRIALS)
        units.append((f"{op.name} on M{'+M'.join(map(str, alg.dims))} seed {rs}",
                      call, lambda rep, op=op: _axiom_problem(op, rep)))
    return units


# ---------------------------------------------------------------------------
# maps-scale: map-layer predicates and constructions from desk to stretch size

# (name, left factor dims, right factor dims or None for a plain algebra)
MAP_SIZES = (("M2", (2,), None), ("M4", (2,), (2,)), ("M2+M1+M3", (2, 1, 3), None),
             ("M6", (2,), (3,)), ("M8", (2,), (4,)), ("M3xM3", (3,), (3,)),
             ("M4xM4", (4,), (4,)))
CENTRE_MAX_DIM = 8
# Verdicts known by construction: conjugation by a unitary is miu and CP,
# the transpose is unital and involutive but neither multiplicative nor CP,
# a random CPU map is unital, involutive and CP but not multiplicative.
MAP_VERDICTS = {
    "conj": {"is_unital": True, "is_involutive": True, "is_multiplicative": True,
             "is_completely_positive": True},
    "transpose": {"is_unital": True, "is_involutive": True,
                  "is_multiplicative": False, "is_completely_positive": False},
    "cpu": {"is_unital": True, "is_involutive": True, "is_multiplicative": False,
            "is_completely_positive": True},
}
# Calls left out while one of them would take most of a run:
# is_multiplicative on M4xM4 (dim 256) loops over dim^2 basis products, and
# is_involutive there takes seconds per map, so only the transpose runs it.
MAP_SKIPS = {("M4xM4", "is_multiplicative"), ("M4xM4", "conj", "is_involutive"),
             ("M4xM4", "cpu", "is_involutive")}


def maps_setup(seed: int, smoke: bool):
    sizes = []
    for name, left, right in MAP_SIZES[:2] if smoke else MAP_SIZES:
        if right is None:
            sizes.append((name, algebra.make_algebra(left), None))
        else:
            ts = tensor.tensor_algebra(algebra.make_algebra(left),
                                       algebra.make_algebra(right))
            sizes.append((name, ts.product, ts))
    return {"seed": seed, "sizes": sizes}


def _verdict_check(want: bool):
    return lambda got: None if got == want else f"got {got}, expected {want}"


def _centre_check(alg):
    def check(sub):
        if sub.dim != alg.num_blocks:
            return f"centre has dimension {sub.dim}, expected {alg.num_blocks}"
        if not all(projections.is_central(z, TOL) for z in sub.basis):
            return "a centre basis element is not central"
        return None
    return check


def _tensor_probe(ts, f, g, x, y):
    def check(fg):
        want = tensor.tensor_elements(ts, maps.apply(f, x), maps.apply(g, y))
        got = maps.apply(fg, tensor.tensor_elements(ts, x, y))
        return None if _close(got, want) else "(f (x) g)(x (x) y) != f(x) (x) g(y)"
    return check


def _braid_probe(ts, x, y):
    swapped = tensor.tensor_algebra(ts.right, ts.left)

    def check(braid):
        want = tensor.tensor_elements(swapped, y, x)
        got = maps.apply(braid, tensor.tensor_elements(ts, x, y))
        return None if _close(got, want) else "braiding(x (x) y) != y (x) x"
    return check


def maps_round(state, r: int):
    rng = np.random.default_rng(round_seed(state["seed"], r))
    units = []
    for name, alg, ts in state["sizes"]:
        family = {"conj": maps.conjugation_map(sampling.random_unitary(alg, rng)),
                  "transpose": maps.transpose_map(alg),
                  "cpu": maps.random_cpu_map(alg, alg, rng)}
        for mname, f in family.items():
            for pred, want in MAP_VERDICTS[mname].items():
                if (name, pred) in MAP_SKIPS or (name, mname, pred) in MAP_SKIPS:
                    continue
                units.append((f"{pred}({mname}) on {name}",
                              lambda f=f, pred=pred: getattr(maps, pred)(f, TOL),
                              _verdict_check(want)))
        if ts is not None:
            f = maps.conjugation_map(sampling.random_unitary(ts.left, rng))
            g = maps.random_cpu_map(ts.right, ts.right, rng)
            x = sampling.random_element(ts.left, rng)
            y = sampling.random_element(ts.right, rng)
            units.append((f"tensor_maps(conj, cpu) on {name}",
                          lambda ts=ts, f=f, g=g: tensor.tensor_maps(ts, ts, f, g),
                          _tensor_probe(ts, f, g, x, y)))
            units.append((f"braiding on {name}",
                          lambda ts=ts: tensor.braiding(ts.left, ts.right),
                          _braid_probe(ts, x, y)))
        if sum(alg.dims) <= CENTRE_MAX_DIM:
            units.append((f"centre on {name}",
                          lambda alg=alg: projections.centre(alg, TOL),
                          _centre_check(alg)))
    return units


# ---------------------------------------------------------------------------
# battery: acceptance criteria 2-10 at smoke counts, seed rotated per round

BATTERY_SMOKE = ("check_duplicability", "check_square_root_axiom")


def battery_setup(seed: int, smoke: bool):
    names = [fn.__name__ for _, fn in suite.CHECKS[1:]]
    return {"seed": seed, "checks": list(BATTERY_SMOKE) if smoke else names}


def battery_round(state, r: int):
    rs = round_seed(state["seed"], r)
    return [(f"{name} seed {rs}",
             lambda name=name: getattr(suite, name)("smoke", rs),
             lambda res: None if res[0] else f"not ok: {res[1]}")
            for name in state["checks"]]


# ---------------------------------------------------------------------------
# cli: cold `python -m vnalg.cli` processes, one per unit

CLI_TIMEOUT_S = 120


def _el(x) -> dict:
    return jsonio.element_to_json(x)


def _cli_payloads(rng, smoke: bool):
    """(argv, payload) pairs in a fixed mix; the maps are the large payloads."""
    m2, m3, m4, m8 = (algebra.make_algebra([n]) for n in (2, 3, 4, 8))
    m21 = algebra.make_algebra([2, 1])
    if smoke:
        return [(["spectrum"], _el(sampling.random_element(m2, rng))),
                (["sqrt"], _el(sampling.random_positive(m2, rng)))]
    b = sampling.random_element(m3, rng)
    c = sampling.random_element(m3, rng)
    return [
        (["spectrum"], _el(sampling.random_element(m21, rng))),
        (["sqrt"], _el(sampling.random_positive(m3, rng))),
        (["ceil"], _el(sampling.random_positive(m3, rng))),
        (["join"], {"elements": [_el(sampling.random_projection(m4, rng)),
                                 _el(sampling.random_projection(m4, rng))]}),
        (["polar"], _el(sampling.random_element(m3, rng))),
        (["divide"], {"a": _el(algebra.mul(c, b)), "b": _el(b)}),
        (["seqprod"], {"p": _el(sampling.random_effect(m3, rng)),
                       "q": _el(sampling.random_effect(m3, rng))}),
        (["tensor-el"], {"left": _el(sampling.random_element(m2, rng)),
                         "right": _el(sampling.random_element(m3, rng))}),
        (["checkmap", "--cp"], jsonio.map_to_json(maps.random_cpu_map(m8, m8, rng))),
        (["choi"], jsonio.map_to_json(maps.random_cp_map(m4, m4, rng))),
    ]


def run_cli(argv: list[str], payload: str, traced: bool):
    """One cold process; traced runs go through the tracing bootstrap."""
    if traced:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "vnalg.cli", *argv]
    # The worker's environment already points PYTHONPATH at this checkout's
    # src and fixes the BLAS thread count; the CLI process inherits it.
    proc = subprocess.run(cmd, input=payload.encode(), capture_output=True,
                          cwd=ROOT, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_in_process(argv: list[str], payload: str):
    import vnalg.cli  # on first use, so that only the cli workload loads it

    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(payload)
    try:
        with contextlib.redirect_stdout(out):
            rc = vnalg.cli.main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue().encode()


def _cli_check(argv, payload):
    def check(result):
        rc, stdout, stderr = result
        want_rc, want_out = run_cli_in_process(argv, payload)
        if rc != want_rc or want_rc != 0:
            return f"exit code {rc}, in-process {want_rc}: {stderr[-200:]!r}"
        if stdout != want_out:
            return f"stdout differs from in-process main ({len(stdout)} vs {len(want_out)} bytes)"
        return None
    return check


def cli_setup(seed: int, smoke: bool):
    return {"seed": seed, "smoke": smoke, "traced": False}


def cli_round(state, r: int):
    rng = np.random.default_rng(round_seed(state["seed"], r))
    units = []
    for argv, obj in _cli_payloads(rng, state["smoke"]):
        payload = jsonio.dumps(obj)
        units.append((" ".join(argv),
                      lambda argv=argv, payload=payload: run_cli(argv, payload, state["traced"]),
                      _cli_check(argv, payload)))
    return units


WORKLOADS = {
    "axioms": (axioms_setup, axioms_round),
    "maps-scale": (maps_setup, maps_round),
    "battery": (battery_setup, battery_round),
    "cli": (cli_setup, cli_round),
}
