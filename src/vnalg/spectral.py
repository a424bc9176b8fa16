"""Spectrum, continuous functional calculus, roots, absolute value and parts.

Invertibility in a direct sum of matrix algebras is blockwise, so the
spectrum is the union of the block eigenvalue multisets.  Functional
calculus is only offered for normal elements: per block we diagonalize
(``eigh`` for Hermitian blocks, ``eig`` otherwise), merge eigenvalues closer
together than ``snap_eps * max(1, ||a||)``, so that a function cannot separate
numerically split degenerate eigenvalues, and sum f(centre) times the
spectral projection of each merged cluster; one QR of the ``eig`` vectors,
ordered cluster by cluster, makes those projections orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (DEFAULT_TOL, _FRO_MARGIN, Element, ToleranceConfig, _diff_blocks,
                      _eigpairs, _eigvalsh, _norm_gate, is_positive, is_self_adjoint,
                      operator_norm, symmetrize)
from .errors import FunctionUndefinedOnSpectrum, NotFinite, NotNormal, NotPositive, NotSelfAdjoint


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset of an element, total and per block."""

    values: tuple[complex, ...]
    per_block: tuple[tuple[complex, ...], ...]

    def max_abs(self) -> float:
        return max((abs(v) for v in self.values), default=0.0)

    def real_values(self) -> tuple[float, ...]:
        return tuple(v.real for v in self.values)


def _sorted(vals: np.ndarray) -> tuple[complex, ...]:
    order = np.lexsort((vals.imag, vals.real))
    return tuple(complex(v) for v in vals[order])


def spectrum(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> Spectrum:
    """Blockwise eigenvalues with multiplicity."""
    hermitian = is_self_adjoint(a, tol)
    per_block = [_sorted(_eigvalsh(b).astype(complex) if hermitian else np.linalg.eigvals(b))
                 for b in a.blocks]
    values = _sorted(np.array([v for blk in per_block for v in blk], dtype=complex))
    return Spectrum(values, tuple(per_block))


def spectral_radius(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    return spectrum(a, tol).max_abs()


def is_normal(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """||a*a - aa*|| <= eps_abs + eps_rel * max(1, ||a||^2); NotFinite on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        left, right = [x.conj().T @ x for x in a.blocks], [x @ x.conj().T for x in a.blocks]
    if not all(np.isfinite(m).all() for m in left + right) and np.isfinite(a.coords()).all():
        raise NotFinite("a product a*a or aa* of a finite element overflows")
    return _norm_gate(_diff_blocks(left, right), tol.threshold(),
                      lambda: tol.threshold(operator_norm(a) ** 2))


def _cluster(vals: np.ndarray, near: Callable[[float], bool]) -> list[list[int]]:
    """Greedy clustering of eigenvalues at distances ``near`` accepts."""
    clusters: list[list[int]] = []
    centers: list[complex] = []
    for idx in np.argsort(vals.real + 1e-3 * vals.imag):
        v = complex(vals[idx])
        for c, members in zip(centers, clusters):
            if near(abs(v - c)):
                members.append(int(idx))
                break
        else:
            clusters.append([int(idx)])
            centers.append(v)
    return clusters


def _apply_block(vals: np.ndarray, vecs: np.ndarray, f: Callable[[complex], complex],
                 near: Callable[[float], bool], hermitian: bool) -> np.ndarray:
    """vecs diag(f(vals)) vecs*, f taken at the centre of each cluster; the
    columns of non-Hermitian ``vecs`` are first orthonormalized cluster by cluster."""
    vals = vals.astype(complex)
    out_vals = np.empty(len(vals), dtype=complex)
    clusters = _cluster(vals, near)
    for members in clusters:
        # Halved first (exactly, above the subnormals): a finite pair sums
        # finitely; a larger cluster near the float limit is divided through.
        with np.errstate(over="ignore", invalid="ignore"):
            center = 2 * np.mean(0.5 * vals[members])
        center = center if np.isfinite(center) else np.sum(vals[members] / len(members))
        if hermitian:
            center = complex(center.real)
        try:
            fv = complex(f(center))
        except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
            raise FunctionUndefinedOnSpectrum(f"f undefined at {center}: {exc}") from exc
        if not np.isfinite(fv):
            raise FunctionUndefinedOnSpectrum(f"f not finite at {center}")
        out_vals[members] = fv
    if not hermitian:
        order = np.concatenate(clusters)
        vecs, out_vals = np.linalg.qr(vecs[:, order])[0], out_vals[order]
    return vecs @ np.diag(out_vals) @ vecs.conj().T


def _calculus(a: Element, f: Callable[[complex], complex], hermitian: bool,
              tol: ToleranceConfig) -> Element:
    """functional_calculus on an element its caller has checked normal, and
    self-adjoint when ``hermitian``."""
    # The snap radius at scale ||a|| lies between its value at scale 0 and at
    # the Frobenius bound, so ||a|| is needed only for gaps between the two;
    # a bound that overflows to inf leaves every such gap to ||a||.
    low = tol.snap_radius()
    with np.errstate(over="ignore"):
        high = tol.snap_radius(float(np.linalg.norm(a.coords()))) * (1.0 + _FRO_MARGIN)
    pairs = _eigpairs(a) if hermitian else map(np.linalg.eig, a.blocks)
    return Element._wrap(a.algebra, (_apply_block(vals, vecs, f, lambda d: d <= low or (
        d <= high and d <= tol.snap_radius(operator_norm(a))), hermitian)
        for vals, vecs in pairs))


def functional_calculus(a: Element, f: Callable[[complex], complex],
                        tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """Apply a scalar function to a normal element via diagonalization."""
    hermitian = is_self_adjoint(a, tol)  # a self-adjoint element is normal
    if not (hermitian or is_normal(a, tol)):
        raise NotNormal("functional calculus needs a normal element")
    return _calculus(a, f, hermitian, tol)


def sqrt(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """The unique positive square root of a positive element."""
    if not is_positive(a, tol):
        raise NotPositive("sqrt needs a positive element")
    return _root(a, tol)


def _root(a: Element, tol: ToleranceConfig) -> Element:
    """sqrt of an element its caller has checked positive with ``tol``."""
    return _calculus(a, _NAMED["sqrt"], True, tol)


def _real(lam: complex) -> float:
    if lam.imag:
        raise ValueError("the function is defined on the real line only")
    return lam.real


def _pow(alpha: float) -> Callable[[complex], complex]:
    return lambda lam: max(_real(lam), 0.0) ** alpha


def _exp_phase(lam: complex) -> complex:
    """lam**i on the positive reals, 1 at 0; satisfies g(x^2) = g(x)^2."""
    return 1.0 if _real(lam) <= 0.0 else np.exp(1j * np.log(lam.real))


_NAMED: dict[str, Callable[[complex], complex]] = {
    "sqrt": lambda lam: np.sqrt(max(_real(lam), 0.0)),
    "abs": lambda lam: abs(_real(lam)),
    "pospart": lambda lam: max(_real(lam), 0.0),
    "negpart": lambda lam: max(-_real(lam), 0.0),
    "exp-phase": _exp_phase,
}


def power(a: Element, alpha: float, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """a**alpha for positive a and alpha > 0, clipping eigenvalue noise at 0."""
    if not is_positive(a, tol):
        raise NotPositive("power needs a positive element")
    return _calculus(a, _pow(alpha), True, tol)


def _self_adjoint_calculus(a: Element, name: str, tol: ToleranceConfig) -> Element:
    """The named function of self-adjoint a, applied to its Hermitian part."""
    if not is_self_adjoint(a, tol):
        raise NotSelfAdjoint("operation needs a self-adjoint element")
    return _calculus(symmetrize(a), _NAMED[name], True, tol)


def absolute(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """|a| = sqrt(a*a) for self-adjoint a."""
    return _self_adjoint_calculus(a, "abs", tol)


def pos_part(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    return _self_adjoint_calculus(a, "pospart", tol)


def neg_part(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    return _self_adjoint_calculus(a, "negpart", tol)


def named_function(name: str) -> Callable[[complex], complex]:
    """Resolve a scalar function by CLI name.

    Supported: ``sqrt``, ``abs``, ``pospart``, ``negpart``, ``pow:ALPHA``,
    ``exp-phase``; each is defined on the real line only.
    """
    if name.startswith("pow:"):
        return _pow(float(name.split(":", 1)[1]))
    if name not in _NAMED:
        raise KeyError(f"unknown function name {name!r}")
    return _NAMED[name]

