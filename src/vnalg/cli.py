"""Command-line front end: JSON in, JSON out, deterministic given a seed.

Exit codes: 0 success, 1 parse error, 2 precondition violation (the error
object carries the module error name), 3 property failure (with witness).
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

import numpy as np

from . import jsonio
from .algebra import DEFAULT_TOL, ToleranceConfig, make_algebra
from .errors import VnalgError


def _tolerance(text: str) -> ToleranceConfig:
    """The ``--tol EPS`` value: the default tolerances with eps_rel = EPS and
    snap_eps at least EPS.  A bad EPS is a usage error that names the option."""
    try:
        eps = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    try:
        return ToleranceConfig(eps_rel=eps, eps_abs=DEFAULT_TOL.eps_abs,
                               snap_eps=max(DEFAULT_TOL.snap_eps, eps))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _count(text: str) -> int:
    """A non-negative int option value; anything else is a usage error naming the option."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"invalid non-negative int value: {text!r}")
    return int(text)


def _read_payload(args):
    if args.infile:
        with open(args.infile, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    payload = jsonio.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("the payload must be a JSON object")
    return payload


def _emit(args, obj) -> None:
    _write(args, jsonio.dumps(obj))


def _write(args, text: str) -> None:
    if args.outfile:
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _dims(text: str) -> list[int]:
    return [int(part) for part in text.replace("x", ",").split(",") if part]


def _spectrum_json(sp):
    return {"values": [_complex_pair(v) for v in sp.values],
            "per_block": [[_complex_pair(v) for v in blk] for blk in sp.per_block]}


def _elements(payload, key="elements") -> list:
    elements = jsonio._field(payload, key)
    if not isinstance(elements, list):
        raise ValueError(f"'{key}' must be a JSON list")
    return [jsonio.element_from_json(e) for e in elements]


def _pair(*keys):
    """The payload reader returning the elements under ``keys``, as a tuple."""
    def read(payload) -> tuple:
        return tuple(jsonio.element_from_json(jsonio._field(payload, key)) for key in keys)
    return read


def _lib(ref: str):
    """The library function ``module.function``, its module imported on first use."""
    module, name = ref.split(".")
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


def _cmd(ref, read=jsonio.element_from_json, show=jsonio.element_to_json):
    """The command printing show(fn(*args, tol)) for fn = _lib(ref), where args
    is read(payload), a tuple of arguments or one argument.  A subcommand with a
    ``--f NAME`` option applies that named function instead of fn."""
    def runner(args):
        arg = read(_read_payload(args))
        if getattr(args, "fname", None):
            from .spectral import functional_calculus, named_function
            out = functional_calculus(arg, named_function(args.fname), args.tol)
        else:
            out = _lib(ref)(*(arg if isinstance(arg, tuple) else (arg,)), args.tol)
        _emit(args, show(out))
    return runner


def _polar_json(parts):
    return {"isometry": jsonio.element_to_json(parts.isometry),
            "modulus": jsonio.element_to_json(parts.modulus)}


def _map_json(f):
    return {"map": jsonio.map_to_json(f)}


def _gns_json(res):
    return {"hilbert_dim": res.hilbert_dim, "rep": jsonio.map_to_json(res.rep),
            "eta": jsonio._matrix_to_json(res.eta)}


def cmd_divide(args):
    from .division import divide, douglas_lambda, left_divide
    a, b = _pair("a", "b")(_read_payload(args))
    if args.left:
        out = {"quotient": jsonio.element_to_json(left_divide(b, a, args.tol))}
    else:
        out = {"quotient": jsonio.element_to_json(divide(a, b, args.tol)),
               "lambda": douglas_lambda(a, b, args.tol)}
    _emit(args, out)


def cmd_checkmap(args):
    from .maps import (carrier, is_completely_positive, is_involutive, is_multiplicative,
                       is_subunital, is_unital)
    tol = args.tol
    f = jsonio.map_from_json(_read_payload(args))
    out = {}
    if args.cp or not (args.miu or args.carrier):
        out["cp"] = is_completely_positive(f, tol)
    if args.miu or not (args.cp or args.carrier):
        out["unital"] = is_unital(f, tol)
        out["subunital"] = is_subunital(f, tol)
        out["involutive"] = is_involutive(f, tol)
        out["multiplicative"] = is_multiplicative(f, tol)
        out["miu"] = out["unital"] and out["involutive"] and out["multiplicative"]
    if args.carrier:
        out["carrier"] = jsonio.element_to_json(carrier(f, tol))
    _emit(args, out)


def cmd_choi(args):
    f = jsonio.map_from_json(_read_payload(args))
    blocks = [{"domain_block_index": cb.domain_block_index,
               "matrix": jsonio._matrix_to_json(cb.matrix)} for cb in _lib("maps.choi_blocks")(f)]
    _emit(args, {"blocks": blocks, "min_eigenvalue": _lib("maps.min_choi_eigenvalue")(f)})


def cmd_corner(args):
    p = jsonio.element_from_json(_read_payload(args))
    f = _lib("measurement.standard_corner")(p, args.tol)
    _emit(args, {"map": jsonio.map_to_json(f),
                 "floor": jsonio.element_to_json(_lib("projections.floor")(p, args.tol))})


def _witness_value(value):
    if hasattr(value, "blocks"):
        return jsonio.element_to_json(value)
    return value if isinstance(value, (bool, int, float, str)) else repr(value)


def cmd_check_axioms(args):
    from .measurement import check_axioms, named_op
    algebra = make_algebra(_dims(args.algebra))
    op = named_op(args.op, algebra, args.tol)
    rep = check_axioms(op, algebra, trials=args.trials, seed=args.seed, tol=args.tol)
    out = {axiom: {"status": res["status"],
                   "witness": None if res["witness"] is None else
                   {key: _witness_value(value) for key, value in res["witness"].items()}}
           for axiom, res in rep.items()}
    _emit(args, out)
    return 3 if any(res["status"] == "fail" for res in rep.values()) else 0


def cmd_tensor(args):
    dims = [_dims(part) for part in args.algebras.split(":")]
    if len(dims) != 2:
        raise ValueError("need exactly two algebras, colon separated")
    ts = _lib("tensor.tensor_algebra")(make_algebra(dims[0]), make_algebra(dims[1]))
    _emit(args, {"product": jsonio.algebra_to_json(ts.product)})


def cmd_tensor_el(args):
    a, b = _pair("left", "right")(_read_payload(args))
    _emit(args, jsonio.element_to_json(_lib("tensor._tensor_of")(a, b)))


def cmd_dup_check(args):
    from .tensor import duplicability_witness, duplicator, is_duplicable
    algebra = make_algebra(_dims(args.algebra))
    dup = duplicator(algebra)
    out = {"duplicable": is_duplicable(algebra), "duplicator": None, "witness": None}
    if dup is not None:
        out["duplicator"] = jsonio.map_to_json(dup)
    else:
        out["witness"] = jsonio.element_to_json(duplicability_witness(
            algebra, samples=args.samples, seed=args.seed, tol=args.tol))
    _emit(args, out)


def cmd_bang(args):
    from .tensor import classical_points, classical_reflection, classical_unit
    algebra = make_algebra(_dims(args.algebra))
    _emit(args, {"points": classical_points(algebra),
                 "bang": jsonio.algebra_to_json(classical_reflection(algebra)),
                 "unit": jsonio.map_to_json(classical_unit(algebra))})


def _subalgebra(args):
    payload = _read_payload(args)
    ambient = jsonio.algebra_from_json(jsonio._field(payload, "ambient"))
    return _lib("structure.star_subalgebra")(ambient, _elements(payload, "basis"), args.tol)


def cmd_wedderburn(args):
    res = _lib("structure.wedderburn")(_subalgebra(args), seed=args.seed, tol=args.tol)
    _emit(args, {"dims": list(res.dims),
                 "embed": jsonio.map_to_json(res.embed),
                 "min_central_projections": [jsonio.element_to_json(z)
                                             for z in res.min_central_projs]})


def cmd_gelfand(args):
    points, res = _lib("structure.gelfand_finite")(_subalgebra(args), seed=args.seed,
                                                   tol=args.tol)
    _emit(args, {"points": points, "dims": list(res.dims)})


def cmd_verify_suite(args):
    results = _lib("suite.run_suite")(args.level)
    width = max(len(name) for name, _, _ in results)
    failed = 0
    text = ""
    for name, ok, detail in results:
        status = "pass" if ok else "FAIL"
        text += f"{name:<{width}}  {status:4}  {detail}\n"
        failed += 0 if ok else 1
    _write(args, text + f"{'-' * width}\n{len(results) - failed}/{len(results)} "
                        f"checks passed at level {args.level}\n")
    return 3 if failed else 0


# gen --kind: the JSON of one random draw on an algebra.
_SAMPLERS = {
    "effect": lambda alg, rng: jsonio.element_to_json(_lib("sampling.random_effect")(alg, rng)),
    "projection": lambda alg, rng: jsonio.element_to_json(
        _lib("sampling.random_projection")(alg, rng)),
    "element": lambda alg, rng: jsonio.element_to_json(_lib("sampling.random_element")(alg, rng)),
    "state": lambda alg, rng: jsonio.map_to_json(_lib("maps.random_state")(alg, rng)),
    "cpmap": lambda alg, rng: jsonio.map_to_json(_lib("maps.random_cp_map")(alg, alg, rng)),
}


def cmd_gen(args):
    rng = np.random.default_rng(args.seed)
    algebra = make_algebra(_dims(args.algebra))
    _emit(args, [_SAMPLERS[args.kind](algebra, rng) for _ in range(args.count)])


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ParseError (exit 1) instead of exiting 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vnalg",
        description="Computations in finite direct sums of matrix algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, payload=True, seed=False, tol=True):
        """A subcommand with only the common options its handler reads."""
        p = sub.add_parser(name)
        if payload:
            p.add_argument("--in", dest="infile", default=None, metavar="FILE")
        p.add_argument("--out", dest="outfile", default=None, metavar="FILE")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if tol:
            p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                           help="override the relative tolerance")
        p.set_defaults(fn=fn)
        return p

    command("spectrum", _cmd("spectral.spectrum", show=_spectrum_json))
    command("sqrt", _cmd("spectral.sqrt")).add_argument(
        "--f", dest="fname", default=None,
        help="named function: sqrt, abs, pospart, negpart, pow:A, exp-phase")
    command("abs", _cmd("spectral.absolute")).add_argument("--f", dest="fname", default=None)

    command("ceil", _cmd("projections.ceiling"))
    command("floor", _cmd("projections.floor"))
    command("support", _cmd("projections.support"))
    command("range", _cmd("projections.range_projection"))
    command("join", _cmd("projections.join", _elements))
    command("meet", _cmd("projections.meet", _elements))
    command("csupport", _cmd("projections.central_support"))

    command("polar", _cmd("division.polar", show=_polar_json))
    command("pinv", _cmd("division.pseudoinverse"))
    group = command("divide", cmd_divide).add_mutually_exclusive_group()
    group.add_argument("--left", action="store_true",
                       help="left division: the c with b·c = a")
    group.add_argument("--right", action="store_true",
                       help="right division, the default: the c with c·b = a")
    command("seqquot", _cmd("division.seq_quotient", _pair("a", "b")))

    p = command("checkmap", cmd_checkmap)
    p.add_argument("--cp", action="store_true")
    p.add_argument("--miu", action="store_true")
    p.add_argument("--carrier", action="store_true")
    command("choi", cmd_choi, tol=False)

    command("corner", cmd_corner)
    command("filter", _cmd("measurement.standard_filter", show=_map_json))
    command("bracket", _cmd("measurement.bracket", jsonio.map_from_json, _map_json))
    command("purity", _cmd("measurement.is_pure", jsonio.map_from_json,
                           lambda pure: {"pure": pure}))
    command("seqprod", _cmd("measurement.seq_product", _pair("p", "q")))

    p = command("check-axioms", cmd_check_axioms, payload=False, seed=True)
    p.add_argument("--op", required=True,
                   choices=["std", "ceil", "floorsplit", "sign", "phase"])
    p.add_argument("--algebra", required=True,
                   help="comma separated block sizes, e.g. 2,3")
    p.add_argument("--trials", type=_count, default=200)

    command("tensor", cmd_tensor, payload=False, tol=False).add_argument(
        "--algebras", required=True,
        help="two dims lists separated by a colon, e.g. 2:2,3")
    command("tensor-el", cmd_tensor_el, tol=False)
    p = command("dup-check", cmd_dup_check, payload=False, seed=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--samples", type=int, default=1000)
    command("bang", cmd_bang, payload=False, tol=False).add_argument(
        "--algebra", required=True)

    command("wedderburn", cmd_wedderburn, seed=True)
    command("gelfand", cmd_gelfand, seed=True)
    command("gns", _cmd("structure.gns", jsonio.map_from_json, _gns_json))

    command("verify-suite", cmd_verify_suite, payload=False, tol=False).add_argument(
        "--level", choices=["smoke", "full"], default="smoke")

    p = command("gen", cmd_gen, payload=False, seed=True, tol=False)
    p.add_argument("--kind", required=True, choices=list(_SAMPLERS))
    p.add_argument("--algebra", required=True)
    p.add_argument("--count", type=_count, default=1)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return int(args.fn(args) or 0)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except VnalgError as exc:
        sys.stdout.write(jsonio.dumps(
            {"error": exc.name, "message": str(exc)}))
        return 2
    except (json.JSONDecodeError, KeyError, ValueError, OSError) as exc:
        sys.stdout.write(jsonio.dumps(
            {"error": "ParseError", "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
