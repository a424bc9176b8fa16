"""Corners, filters, purity, diamond-positivity, and the sequential product.

A corner of a projection e is realized concretely: per block, an isometry
onto the range of e identifies e A e with a smaller direct sum of matrix
algebras.  Standard corners and filters, their universal factorizations,
the normal form [f] of a CP map, and purity all reduce to that realization.

The axiom checker probes a candidate binary operation on effects against
the five laws that single out p * q = sqrt(p) q sqrt(p), and ships the four
operations that each break exactly one law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import (DEFAULT_TOL, Element, FdAlgebra, ToleranceConfig, _eigh, _eigvalsh,
                      _max_norm, _norm_gate, _require_finite, adjoint, equal, imag_part,
                      is_effect, is_positive, mul, operator_norm, orthosupplement, symmetrize)
from .errors import (CarrierViolated, FilterBoundViolated, NotEffect,
                     NotPositive, PostconditionViolated, ShapeMismatch)
from .maps import (LinMap, _is_bijective, _sandwich_matrix, _unit_image, apply,
                   are_contraposed, carrier, compose, conjugation_map, density,
                   is_completely_positive, is_unital, make_map, maps_equal, mult_map,
                   trace_functional)
from .projections import ceiling, certify_projection, floor
from .division import pseudoinverse
from .sampling import random_effect, random_projection
from .spectral import _exp_phase, functional_calculus, sqrt


@dataclass(frozen=True)
class CornerContext:
    """The compression of an algebra by a projection, as an algebra again.

    ``embed`` is multiplicative and involutive; ``compress`` is completely
    positive and unital; ``compress o embed`` is the identity on the corner
    and ``embed o compress`` is e(.)e on the parent.
    """

    parent: FdAlgebra
    proj: Element
    corner: FdAlgebra
    embed: LinMap
    compress: LinMap
    parent_blocks: tuple[int, ...]


def _range_isometry(block: np.ndarray, rank: int) -> np.ndarray:
    """Canonical orthonormal basis of the range of a projection block.

    Residual-pivoted Gram-Schmidt on the projection's own columns; pivot
    norms are quantized before the argmax so that projections equal up to
    roundoff produce the same basis.  Without this, contexts built from two
    computations of the same corner would differ by a basis rotation.
    """
    resid = block.astype(complex).copy()
    cols = []
    for _ in range(rank):
        norms = np.linalg.norm(resid, axis=0)
        j = int(np.argmax(np.round(norms, 6)))
        v = resid[:, j] / norms[j]
        # fix the phase: make the largest-magnitude entry real positive
        k = int(np.argmax(np.round(np.abs(v), 6)))
        phase = v[k] / abs(v[k])
        v = v / phase
        cols.append(v)
        resid = resid - np.outer(v, v.conj() @ resid)
    return np.column_stack(cols)


def corner_algebra(e: Element, tol: ToleranceConfig = DEFAULT_TOL) -> CornerContext:
    """Realize e A e on the per-block ranges of e."""
    cert = certify_projection(e, tol)
    e = cert.element
    parent = e.algebra
    isometries: list[np.ndarray] = []
    kept: list[int] = []
    dims: list[int] = []
    for i, b in enumerate(e.blocks):
        rank = int(np.sum(_eigvalsh(b) > 0.5))
        if rank == 0:
            continue
        isometries.append(_range_isometry(b, rank))
        kept.append(i)
        dims.append(rank)
    corner = FdAlgebra(tuple(dims))
    embed = LinMap(corner, parent, _sandwich_matrix(corner, parent, [
        (c, i, v, v.conj().T) for c, (i, v) in enumerate(zip(kept, isometries))]))
    compress = LinMap(parent, corner, _sandwich_matrix(parent, corner, [
        (i, c, v.conj().T, v) for c, (i, v) in enumerate(zip(kept, isometries))]))
    return CornerContext(parent, e, corner, embed, compress, tuple(kept))


def standard_corner(p: Element, tol: ToleranceConfig = DEFAULT_TOL) -> LinMap:
    """The compression a -> floor(p) a floor(p) onto the corner of floor(p)."""
    if not is_effect(p, tol):
        raise NotEffect("standard corner needs an effect")
    ctx = corner_algebra(floor(p, tol), tol)
    return ctx.compress


def standard_filter(p: Element, tol: ToleranceConfig = DEFAULT_TOL) -> LinMap:
    """The map a -> sqrt(p) a sqrt(p) from the corner of ceiling(p)."""
    if not is_positive(p, tol):
        raise NotPositive("standard filter needs a positive element")
    root = sqrt(p, tol)
    ctx = corner_algebra(ceiling(p, tol), tol)
    return compose(mult_map(root, root), ctx.embed)


def factor_through_filter(f: LinMap, d: Element,
                          tol: ToleranceConfig = DEFAULT_TOL) -> LinMap:
    """Unique g with f = (standard filter for d*d) o g, given f(1) <= d*d.

    g(b) = sqrt(d*d) \\ f(b) / sqrt(d*d), read inside the corner of the
    support of d.
    """
    bound = mul(adjoint(d), d)
    one_img = _unit_image(f)
    if not is_positive(bound - one_img, tol):
        raise FilterBoundViolated("f(1) is not below d*d")
    bound_sym = symmetrize(bound)
    root = sqrt(bound_sym, tol)
    pinv_root = pseudoinverse(root, tol)
    ctx = corner_algebra(ceiling(bound_sym, tol), tol)
    images = []
    for b in f.dom.basis():
        y = mul(mul(pinv_root, apply(f, b)), pinv_root)
        images.append(apply(ctx.compress, y))
    return make_map(f.dom, ctx.corner, images)


def factor_through_corner(f: LinMap, e: Element,
                          tol: ToleranceConfig = DEFAULT_TOL) -> LinMap:
    """Unique g with f = g o (compression by e), given f vanishes under e."""
    def bound(scale: float) -> float:  # the usual threshold, widened 100 times
        return tol.eps_abs + 100 * tol.eps_rel * scale
    _require_finite(f.matrix)
    img = apply(f, orthosupplement(e))
    if not _norm_gate(img.blocks, bound(1.0), lambda: bound(max(1.0, _max_norm([f.matrix])))):
        raise CarrierViolated("f does not vanish on the complement of e")
    ctx = corner_algebra(e, tol)
    return compose(f, ctx.embed)


def _unit_corners(f: LinMap, tol: ToleranceConfig):
    """f(1), its Hermitian part, and the corners of the carrier of f and of
    the ceiling of f(1); the carrier is computed first."""
    car = carrier(f, tol)
    one_img = _unit_image(f)
    one_sym = symmetrize(one_img)
    return (one_img, one_sym, corner_algebra(car, tol),
            corner_algebra(ceiling(one_sym, tol), tol))


def bracket(f: LinMap, tol: ToleranceConfig = DEFAULT_TOL) -> LinMap:
    """The unital faithful middle map of f between its carrier corner and
    the corner of f(1): f factors as filter o bracket o corner."""
    _, one_sym, dom_ctx, cod_ctx = _unit_corners(f, tol)
    root = sqrt(one_sym, tol)
    pinv_root = pseudoinverse(root, tol)
    images = []
    for b in dom_ctx.corner.basis():
        y = mul(mul(pinv_root, apply(f, apply(dom_ctx.embed, b))), pinv_root)
        images.append(apply(cod_ctx.compress, y))
    return make_map(dom_ctx.corner, cod_ctx.corner, images)


def is_pure(f: LinMap, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether f factors as a filter after a corner.

    Decided on the normal form: the bracket of f must be unital, bijective
    on coordinates (smallest singular value at least snap_eps), and have a
    completely positive inverse.
    """
    if not is_completely_positive(f, tol):
        return False
    if _norm_gate(_unit_image(f).blocks, tol.eps_abs, lambda: tol.eps_abs):
        # The zero map factors through the zero corner.
        return True
    br = bracket(f, tol)
    if not (is_unital(br, tol) and _is_bijective(br, tol)):
        return False
    inverse = LinMap(br.cod, br.dom, np.linalg.inv(br.matrix))
    return is_completely_positive(inverse, tol)


def chevron(f: LinMap, tol: ToleranceConfig = DEFAULT_TOL) -> LinMap:
    """Compress f between the corners of its carrier and of f(1).

    The result is faithful and agrees with f at the unit; it strips the
    degenerate directions so that uniqueness arguments apply.  Both
    properties are checked on the way out; a failure raises
    :class:`PostconditionViolated`.
    """
    if f.dom != f.cod:
        raise ShapeMismatch("chevron needs an endomap")
    one_img, _, dom_ctx, cod_ctx = _unit_corners(f, tol)
    out = compose(cod_ctx.compress, compose(f, dom_ctx.embed))
    if out.dom.dim:
        check = ToleranceConfig(1e-6, 1e-9, max(tol.snap_eps, 1e-6))
        if not equal(carrier(out, tol), out.dom.unit(), check):
            raise PostconditionViolated("chevron is not faithful")
        if not equal(apply(out, out.dom.unit()), apply(cod_ctx.compress, one_img), check):
            raise PostconditionViolated("chevron changed the value at the unit")
    return out


def is_diamond_self_adjoint(f: LinMap, seed: int = 0,
                            tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Pure and contraposed to itself on a spanning projection family."""
    if f.dom != f.cod:
        raise ShapeMismatch("needs an endomap")
    return is_pure(f, tol) and are_contraposed(f, f, seed, tol)


def is_diamond_positive(f: LinMap, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether f is a square of a self-contraposed pure map.

    By the uniqueness theorem for such squares this holds exactly when
    f(1) is positive and f is conjugation by sqrt(f(1)).
    """
    if f.dom != f.cod:
        raise ShapeMismatch("needs an endomap")
    one_img = _unit_image(f)
    if not is_positive(one_img, tol):
        return False
    root = sqrt(symmetrize(one_img), tol)
    return maps_equal(f, mult_map(root, root), tol)


def seq_product(p: Element, q: Element, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """sqrt(p) q sqrt(p): measure p, then ask q."""
    if not (is_effect(p, tol) and is_effect(q, tol)):
        raise NotEffect("sequential product needs effects")
    root = sqrt(p, tol)
    return mul(mul(root, q), root)


@dataclass(frozen=True)
class BinOpSpec:
    """A candidate binary operation on effects, with optional metadata.

    ``d_witness`` maps p to a claimed q with op(q, q) = p; the axiom-D
    check runs only against such supplied witnesses.
    """

    name: str
    eval: Callable[[Element, Element], Element]
    d_witness: Optional[Callable[[Element], Element]] = None
    target_axiom: Optional[str] = None


def standard_op(tol: ToleranceConfig = DEFAULT_TOL) -> BinOpSpec:
    return BinOpSpec(
        name="std",
        eval=lambda p, q: seq_product(p, q, tol),
        d_witness=lambda p: sqrt(p, tol),
    )


def _sign_above_half(lam: complex) -> complex:
    return 1.0 if lam.real >= 0.5 else -1.0


def counterexample_ops(algebra: FdAlgebra,
                       tol: ToleranceConfig = DEFAULT_TOL) -> list[BinOpSpec]:
    """The four operations that each violate exactly one axiom.

    1. ceil: p * q = ceil(p) q ceil(p)                      (breaks A)
    2. floorsplit: floor part plus filtered remainder        (breaks B)
    3. sign: conjugate by a +-1 function of p inside the
       standard product                                      (breaks C)
    4. phase: conjugate by the unimodular function
       lam -> lam^i of p, which squares correctly            (breaks E)
    """

    def op_ceil(p, q):
        c = ceiling(p, tol)
        return mul(mul(c, q), c)

    def op_floorsplit(p, q):
        fl = floor(p, tol)
        rest = p - fl
        root = sqrt(symmetrize(rest), tol)
        return mul(mul(fl, q), fl) + mul(mul(root, q), root)

    def conjugated_product(g):
        def op(p, q):
            u = functional_calculus(p, g, tol)
            root = sqrt(p, tol)
            inner = mul(mul(adjoint(u), q), u)
            return mul(mul(root, inner), root)
        return op

    return [
        BinOpSpec("ceil", op_ceil, d_witness=lambda p: p, target_axiom="A"),
        BinOpSpec("floorsplit", op_floorsplit,
                  d_witness=lambda p: sqrt(p, tol), target_axiom="B"),
        BinOpSpec("sign", conjugated_product(_sign_above_half),
                  d_witness=lambda p: sqrt(p, tol), target_axiom="C"),
        BinOpSpec("phase", conjugated_product(_exp_phase),
                  d_witness=lambda p: sqrt(p, tol), target_axiom="E"),
    ]


def named_op(name: str, algebra: FdAlgebra,
             tol: ToleranceConfig = DEFAULT_TOL) -> BinOpSpec:
    if name == "std":
        return standard_op(tol)
    for op in counterexample_ops(algebra, tol):
        if op.name == name:
            return op
    raise KeyError(f"unknown operation {name!r}")


def _structured_effects(algebra: FdAlgebra) -> list[Element]:
    """Deterministic effects that expose the known axiom failures.

    The per-block diag(1/2, 0, ...) pattern is the forced witness for the
    A-violation; diag(1, 1/2, ...) mixes floor and remainder parts as the
    B-violation needs; diag(2/3, 3/4, ...) has squares on both sides of the
    sign threshold, which is what breaks associativity for the sign variant.
    """
    out: list[Element] = []
    for i, n in enumerate(algebra.dims):
        for pattern in ([0.5], [1.0, 0.5], [2.0 / 3.0, 0.75]):
            vals = (pattern + [0.0] * n)[:n]
            out.append(algebra._block_element(i, np.diag(vals)))
    out.extend([algebra.unit(), 0.5 * algebra.unit()])
    return out


def _linearize_in_q(op: BinOpSpec, p: Element,
                    tol: ToleranceConfig) -> Optional[LinMap]:
    """The map q -> op(p, q), or None if four random effects refute it.

    Budget: one baseline evaluation op(p, 1/2) shared by every direction,
    two evaluations per basis element (its self-adjoint parts h and s),
    then four sanity evaluations: 2*dim + 5 calls of ``op.eval`` in all.
    """
    alg = p.algebra
    lo = op.eval(p, alg.scalar(0.5))
    half = 0.5 * alg.unit()

    def on_self_adjoint(h: Element) -> Element:
        # Candidate operations are only guaranteed on effect arguments, so
        # shift h into the effects around 1/2 and take a difference quotient.
        norm = operator_norm(h)
        scale = 1.0 if norm == 0.0 else 0.25 / norm
        return (1.0 / scale) * (op.eval(p, half + scale * h) - lo)

    images = []
    for e in alg.basis():
        images.append(on_self_adjoint(symmetrize(e)) + 1j * on_self_adjoint(imag_part(e)))
    f = make_map(alg, alg, images)
    rng = np.random.default_rng(7)
    for _ in range(4):
        q = random_effect(alg, rng)
        if not equal(apply(f, q), op.eval(p, q), tol):
            return None
    return f


def _witness(axiom: str, **kw) -> dict:
    return {"axiom": axiom, **kw}


def check_axioms(op: BinOpSpec, algebra: FdAlgebra, trials: int = 200,
                 seed: int = 0, tol: ToleranceConfig = DEFAULT_TOL,
                 check_tol: float = 1e-8, purity_trials: int = 50) -> dict:
    """Probe op against the five sequential-product axioms.

    Returns a report keyed by axiom with status pass / fail / n-a (not
    applicable), and a witness dictionary on failure.  The corpus mixes
    structured effects (which force the known violations deterministically)
    with seeded random ones.

    Axioms B and E share one linearization of q -> op(p, q) per effect p,
    built at most once per call (see :func:`_linearize_in_q` for its cost).
    """
    rng = np.random.default_rng(seed)
    linearized: dict[Element, Optional[LinMap]] = {}

    def linearize(p: Element) -> Optional[LinMap]:
        if p not in linearized:
            linearized[p] = _linearize_in_q(op, p, tol)
        return linearized[p]

    wtol = ToleranceConfig(eps_rel=check_tol, eps_abs=check_tol,
                           snap_eps=max(check_tol, tol.snap_eps))
    report: dict[str, dict] = {}

    structured = _structured_effects(algebra)
    effects = structured + [random_effect(algebra, rng) for _ in range(trials)]

    # A: op(p, 1) = p
    status, witness = "pass", None
    one = algebra.unit()
    for p in effects:
        if not equal(op.eval(p, one), p, wtol):
            status, witness = "fail", _witness("A", p=p, value=op.eval(p, one))
            break
    report["A"] = {"status": status, "witness": witness}

    # B: q -> op(p, q) is a pure map
    status, witness = "pass", None
    for p in structured + [random_effect(algebra, rng) for _ in range(purity_trials)]:
        f = linearize(p)
        if f is None:
            status, witness = "n/a", _witness("B", reason="not linear in q", p=p)
            break
        if not is_pure(f, tol):
            status, witness = "fail", _witness("B", p=p, reason="linearization not pure")
            break
    report["B"] = {"status": status, "witness": witness}

    # C: op(p, op(p, q)) = op(op(p, p), q)
    status, witness = "pass", None
    for p in effects:
        q = random_effect(algebra, rng)
        lhs = op.eval(p, op.eval(p, q))
        rhs = op.eval(op.eval(p, p), q)
        if not equal(lhs, rhs, wtol):
            status, witness = "fail", _witness("C", p=p, q=q)
            break
    report["C"] = {"status": status, "witness": witness}

    # D: p = op(q, q) for the supplied witness q
    if op.d_witness is None:
        report["D"] = {"status": "n/a",
                       "witness": _witness("D", reason="no witness supplied")}
    else:
        status, witness = "pass", None
        for p in effects:
            q = op.d_witness(p)
            if not equal(op.eval(q, q), p, wtol):
                status, witness = "fail", _witness("D", p=p, q=q)
                break
        report["D"] = {"status": status, "witness": witness}

    # E: op(p, e1) below the complement of e2 iff op(p, e2) below that of e1.
    # Random pairs rarely satisfy either side, so e1 is also constructed to
    # make one side hold exactly and the other side is then verified.
    status, witness = "pass", None
    for p in effects:
        if status == "fail":
            break
        e2 = random_projection(algebra, rng)
        candidates = [(random_projection(algebra, rng), e2)]
        f = linearize(p)
        if f is not None:
            candidates.extend(_directed_e_pairs(f, e2, tol))
        for e1, e2c in candidates:
            lhs = _below_complement(op.eval(p, e1), e2c, wtol)
            rhs = _below_complement(op.eval(p, e2c), e1, wtol)
            if lhs != rhs:
                status = "fail"
                witness = _witness("E", p=p, e1=e1, e2=e2c,
                                   lhs=bool(lhs), rhs=bool(rhs))
                break
    report["E"] = {"status": status, "witness": witness}
    return report


def _below_complement(a: Element, e: Element, tol: ToleranceConfig) -> bool:
    """a <= 1 - e, decided through e a e = 0 to keep the test sharp."""
    thr = tol.eps_abs * 100
    return _norm_gate([y @ x @ y for x, y in zip(a.blocks, e.blocks)], thr, lambda: thr)


def _directed_e_pairs(f: LinMap, e2: Element,
                      tol: ToleranceConfig) -> list[tuple[Element, Element]]:
    """Build projections e1 with op(p, e1) exactly below the complement of
    e2, given the linearization f of q -> op(p, q).

    Random projection pairs satisfy neither side of the exchange law, which
    makes the equivalence hold vacuously; a genuine probe needs one side to
    hold on the nose.  For rank-one e1 = vv* and f completely positive, the
    side condition e2 f(vv*) e2 = 0 says exactly that vv* sits under the
    kernel of the positive functional trace(e2 f(.) e2), so candidate
    vectors are read off the kernel of that functional's density.
    """
    alg = f.dom
    comp = compose(conjugation_map(e2), f)
    omega = compose(trace_functional(alg), comp)
    rho = density(omega)
    if not is_positive(rho, tol):
        return []
    out = []
    for i, b in enumerate(rho.blocks):
        vals, vecs = _eigh(b)
        cut = tol.snap_radius(operator_norm(rho))
        for col in range(vals.size):
            if vals[col] > cut:
                continue
            v = vecs[:, col]
            cand = alg._block_element(i, np.outer(v, v.conj()))
            if operator_norm(apply(comp, cand)) <= 1e-9:
                out.append((cand, e2))
    return out
