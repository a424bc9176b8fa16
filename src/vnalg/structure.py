"""Structure theory made algorithmic: decomposition of *-subalgebras into
direct sums of matrix algebras, the finite commutative special case, and the
representation built from a state.

The decomposition follows the classical constructive route: split the
centre of the subalgebra with a generic self-adjoint central element, find a
minimal projection inside each factor by repeated spectral compression, and
assemble matrix units from polar-decomposition partial isometries.  All the
linear algebra happens in ambient coordinates; membership in the subalgebra
is always witnessed by projecting onto its orthonormal basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (DEFAULT_TOL, Element, FdAlgebra, ToleranceConfig, _eigh, _norm_gate,
                      add, adjoint, equal, hs_inner, mul, operator_norm, symmetrize)
from .division import polar
from .errors import ClosureViolated, NotCommutative, NotPositive
from .maps import LinMap, is_positive_functional, make_map
from .projections import _span, _spectral_projection, left_mult_matrix
from .spectral import spectrum


@dataclass(frozen=True)
class StarSubalgebra:
    """A unital *-subalgebra given by an orthonormal (Hilbert-Schmidt) basis."""

    ambient: FdAlgebra
    basis: tuple[Element, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def project_coords(self, a: Element) -> np.ndarray:
        return np.array([hs_inner(b, a) for b in self.basis])

    def project(self, a: Element) -> Element:
        return _combination(self.ambient, self.project_coords(a), self.basis)

    def contains(self, a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        def bound(scale: float) -> float:  # the usual threshold, widened 1000 times
            return tol.eps_abs + 1e3 * tol.eps_rel * scale
        return _norm_gate((a - self.project(a)).blocks, bound(1.0),
                          lambda: bound(max(1.0, operator_norm(a))))


def _combination(ambient: FdAlgebra, coeffs, elements) -> Element:
    """sum_k coeffs[k] elements[k], added left to right onto zero."""
    out = ambient.zero()
    for c, b in zip(coeffs, elements):
        out = add(out, c * b)
    return out


def _orthonormalize(ambient: FdAlgebra, vectors: list[np.ndarray],
                    tol: ToleranceConfig) -> tuple[Element, ...]:
    if not vectors:
        return ()
    vh, rank = _span(np.array(vectors), tol)
    return tuple(ambient.from_coords(row) for row in vh[:rank])


def star_subalgebra(ambient: FdAlgebra, spanning: list[Element],
                    tol: ToleranceConfig = DEFAULT_TOL) -> StarSubalgebra:
    """Orthonormalize a spanning set and verify *-algebra closure.

    Raises ClosureViolated if the span misses the unit or fails to be
    closed under adjoints or products of basis pairs.
    """
    vectors = [a.coords() for a in spanning]
    basis = _orthonormalize(ambient, vectors, tol)
    sub = StarSubalgebra(ambient, basis)
    if not sub.contains(ambient.unit(), tol):
        raise ClosureViolated("unit not in span")
    for b in basis:
        if not sub.contains(adjoint(b), tol):
            raise ClosureViolated("not closed under adjoints")
    for x in basis:
        for y in basis:
            if not sub.contains(mul(x, y), tol):
                raise ClosureViolated("not closed under products")
    return sub


def generate_subalgebra(ambient: FdAlgebra, generators: list[Element],
                        tol: ToleranceConfig = DEFAULT_TOL) -> StarSubalgebra:
    """Smallest unital *-subalgebra containing the generators.

    Iterated span closure under products and adjoints; the dimension is
    bounded by the ambient, so this terminates.
    """
    current = [ambient.unit().coords()]
    for g in generators:
        current.append(g.coords())
        current.append(adjoint(g).coords())
    basis = _orthonormalize(ambient, current, tol)
    while True:
        elements = list(basis)
        vectors = [b.coords() for b in elements]
        for x in elements:
            for y in elements:
                vectors.append(mul(x, y).coords())
            vectors.append(adjoint(x).coords())
        new_basis = _orthonormalize(ambient, vectors, tol)
        if len(new_basis) == len(basis):
            return StarSubalgebra(ambient, new_basis)
        basis = new_basis


@dataclass(frozen=True)
class WedderburnResult:
    """Decomposition of a *-subalgebra as a direct sum of matrix algebras.

    ``embed`` is the injective unital *-homomorphism from the abstract
    direct sum onto the subalgebra inside its ambient algebra;
    ``min_central_projs`` are the minimal central projections of the
    subalgebra, in block order.
    """

    dims: tuple[int, ...]
    target: FdAlgebra
    embed: LinMap
    min_central_projs: tuple[Element, ...]

    def to_coordinates(self, a: Element) -> Element:
        sol, *_ = np.linalg.lstsq(self.embed.matrix, a.coords(), rcond=None)
        return self.target.from_coords(sol)


def _sub_centre_basis(sub: StarSubalgebra, tol: ToleranceConfig) -> list[Element]:
    """Basis of the centre of the subalgebra, in subalgebra coordinates."""
    k = sub.dim
    if k == 0:
        return []
    rows = []
    for b in sub.basis:
        lb = left_mult_matrix(b)
        rows.append(np.column_stack([
            (lb @ x.coords()) - (left_mult_matrix(x) @ b.coords())
            for x in sub.basis]))
    vh, rank = _span(np.vstack(rows), tol)
    return [_combination(sub.ambient, row, sub.basis) for row in vh[rank:].conj()]


def _spectral_projections_in_sub(a: Element, tol: ToleranceConfig) -> list[Element]:
    """Spectral projections of a self-adjoint element, grouped by clustered
    eigenvalues; each is a limit of polynomials in a, hence in the algebra."""
    sp = spectrum(a, tol)
    vals = np.array(sp.real_values())
    radius = max(tol.snap_radius(operator_norm(a)), 1e-8)
    reps: list[float] = []
    for v in np.sort(vals):
        if not reps or v - reps[-1] > radius:
            reps.append(float(v))
    return [_spectral_projection(a, lambda v: abs(v - r) <= radius) for r in reps]


def _random_self_adjoint_in(sub: StarSubalgebra, rng: np.random.Generator,
                            within: list[Element]) -> Element:
    return symmetrize(_combination(sub.ambient, rng.standard_normal(len(within)), within))


def _minimal_projection(sub: StarSubalgebra, factor_unit: Element,
                        rng: np.random.Generator,
                        tol: ToleranceConfig) -> Element:
    """A minimal projection of the subalgebra below the given central unit.

    Compress by spectral projections of generic self-adjoint elements until
    the compressed corner of the subalgebra is one-dimensional.
    """
    e = factor_unit
    for _ in range(64):
        corner_vecs = _orthonormalize(
            sub.ambient, [mul(mul(e, b), e).coords() for b in sub.basis], tol)
        if len(corner_vecs) <= 1:
            return e
        y = _random_self_adjoint_in(sub, rng, list(corner_vecs))
        y = mul(mul(e, y), e)
        projs = _spectral_projections_in_sub(y, tol)
        candidates = [p for p in projs
                      if operator_norm(p) > 0.5
                      and operator_norm(p - mul(mul(e, p), e)) < 1e-6]
        if not candidates:
            continue
        e = min(candidates, key=lambda p: hs_inner(p, p).real)
    raise ClosureViolated("minimal projection search did not converge")


def wedderburn(sub: StarSubalgebra, seed: int = 0,
               tol: ToleranceConfig = DEFAULT_TOL) -> WedderburnResult:
    """Decompose a verified *-subalgebra as a direct sum of matrix algebras.

    Randomized centre splitting with eight tries; a degenerate central
    sample produces fewer factors than the centre dimension and is redrawn.
    """
    centre_basis = _sub_centre_basis(sub, tol)
    m = len(centre_basis)
    rng = np.random.default_rng(seed)
    for _ in range(8):
        z = _random_self_adjoint_in(sub, rng, centre_basis)
        projs = _spectral_projections_in_sub(z, tol)
        if len(projs) == m:
            factors = projs
            break
    else:
        raise ClosureViolated("centre splitting failed; degenerate draws")
    blocks_data = []
    for unit in factors:
        e = _minimal_projection(sub, unit, rng, tol)
        isometries = [e]
        covered = e
        guard = 0
        while operator_norm(unit - covered) > 1e-7 and guard < sub.dim + 2:
            guard += 1
            p = unit - covered
            best = None
            for b in sub.basis:
                cand = mul(mul(e, b), p)
                if operator_norm(cand) > 1e-6:
                    best = cand
                    break
            if best is None:
                break
            u = polar(best, tol).isometry
            isometries.append(u)
            covered = covered + mul(adjoint(u), u)
        blocks_data.append((unit, e, isometries))

    dims = tuple(len(iso) for _, _, iso in blocks_data)
    target = FdAlgebra(dims)
    images: list[Element] = []
    for (unit, e, isometries) in blocks_data:
        k = len(isometries)
        for r in range(k):
            for c in range(k):
                images.append(mul(adjoint(isometries[r]), isometries[c]))
    embed = make_map(target, sub.ambient, images)
    return WedderburnResult(dims, target, embed, tuple(factors))


def gelfand_finite(sub: StarSubalgebra, seed: int = 0,
                   tol: ToleranceConfig = DEFAULT_TOL) -> tuple[int, WedderburnResult]:
    """Points and evaluation structure of a commutative *-subalgebra."""
    for x in sub.basis:
        for y in sub.basis:
            if not equal(mul(x, y), mul(y, x), tol):
                raise NotCommutative("subalgebra is not commutative")
    result = wedderburn(sub, seed=seed, tol=tol)
    if any(d != 1 for d in result.dims):
        raise NotCommutative("decomposition produced a nonabelian factor")
    return sub.dim, result


@dataclass(frozen=True)
class GnsResult:
    """Hilbert-space data of a state: embedding and left-multiplication rep."""

    state: LinMap
    hilbert_dim: int
    eta: np.ndarray
    rep: LinMap

    def vector(self, a: Element) -> np.ndarray:
        return self.eta @ a.coords()


def gns(omega: LinMap, tol: ToleranceConfig = DEFAULT_TOL) -> GnsResult:
    """Representation from a positive functional.

    The Gram matrix G[x, y] = omega(x* y) on the canonical basis is
    diagonalized; eigendirections above snap_eps survive the quotient, the
    embedding is weighted by the square roots of the kept eigenvalues, and
    the representation is compressed left multiplication.
    """
    if not is_positive_functional(omega, tol):
        raise NotPositive("gns needs a positive functional")
    alg = omega.dom
    basis = alg.basis()
    d = alg.dim
    gram = np.zeros((d, d), dtype=complex)
    row = omega.matrix[0]
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            gram[i, j] = row @ mul(adjoint(x), y).coords()
    vals, vecs = _eigh(gram)
    keep = vals > tol.snap_radius(float(vals.max(initial=0.0)))
    kept_vals = vals[keep]
    kept_vecs = vecs[:, keep]
    hdim = int(kept_vals.size)
    eta = np.diag(np.sqrt(kept_vals)) @ kept_vecs.conj().T
    eta_pinv = kept_vecs @ np.diag(1.0 / np.sqrt(kept_vals))
    rep_target = FdAlgebra((hdim,)) if hdim > 0 else FdAlgebra(())
    images = []
    for x in basis:
        m = eta @ left_mult_matrix(x) @ eta_pinv
        images.append(rep_target.element([m]) if hdim > 0 else rep_target.element([]))
    rep = make_map(alg, rep_target, images)
    return GnsResult(omega, hdim, eta, rep)
