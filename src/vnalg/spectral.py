"""Spectrum, continuous functional calculus, roots, absolute value and parts.

Invertibility in a direct sum of matrix algebras is blockwise, so the
spectrum is the union of the block eigenvalue multisets.  Functional
calculus is only offered for normal elements: per block we unitarily
diagonalize (``eigh`` for Hermitian blocks; otherwise the complex Schur form,
diagonal for normal matrices, from scipy, which is imported on first use) and
apply the scalar function to the eigenvalues.  Eigenvalues closer together
than ``snap_eps * max(1, ||a||)`` are merged before applying the function, so
that a function cannot separate numerically split degenerate eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (DEFAULT_TOL, _FRO_MARGIN, Element, ToleranceConfig, _diff_blocks,
                      _eigh, _eigvalsh, _norm_gate, is_positive, is_self_adjoint,
                      operator_norm, symmetrize)
from .errors import FunctionUndefinedOnSpectrum, NotNormal, NotPositive, NotSelfAdjoint


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
    per_block = []
    for b in a.blocks:
        if hermitian:
            vals = _eigvalsh(b).astype(complex)
        else:
            vals = np.linalg.eigvals(b)
        per_block.append(_sorted(vals))
    values = _sorted(np.array([v for blk in per_block for v in blk], dtype=complex))
    return Spectrum(values, tuple(per_block))


def spectral_radius(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    return spectrum(a, tol).max_abs()


def is_normal(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """||a*a - aa*|| <= eps_abs + eps_rel * max(1, ||a||^2)."""
    return _norm_gate(_diff_blocks((x.conj().T @ x for x in a.blocks),
                                   (x @ x.conj().T for x in a.blocks)),
                      tol.threshold(), lambda: tol.threshold(operator_norm(a) ** 2))


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


def _apply_block(b: np.ndarray, f: Callable[[complex], complex],
                 near: Callable[[float], bool], hermitian: bool) -> np.ndarray:
    if hermitian:
        vals, vecs = _eigh(b)
        vals = vals.astype(complex)
    else:
        import scipy.linalg  # here, so that importing vnalg does not load scipy
        t, vecs = scipy.linalg.schur(b.astype(complex), output="complex")
        vals = np.diag(t)
    out_vals = np.empty(len(vals), dtype=complex)
    for members in _cluster(vals, near):
        # Halved first (exactly, above the subnormals): a finite pair sums finitely.
        center = 2 * np.mean(0.5 * vals[members])
        if hermitian:
            center = complex(center.real)
        try:
            fv = complex(f(center))
        except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
            raise FunctionUndefinedOnSpectrum(f"f undefined at {center}: {exc}") from exc
        if not np.isfinite(fv):
            raise FunctionUndefinedOnSpectrum(f"f not finite at {center}")
        out_vals[members] = fv
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
    return Element._wrap(a.algebra, (_apply_block(b, f, lambda d: d <= low or (
        d <= high and d <= tol.snap_radius(operator_norm(a))), hermitian)
        for b in a.blocks))


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


def _pow(alpha: float) -> Callable[[complex], complex]:
    return lambda lam: max(lam.real, 0.0) ** alpha


def _exp_phase(lam: complex) -> complex:
    """lam**i on the positive reals, 1 at 0; satisfies g(x^2) = g(x)^2."""
    x = lam.real
    if x <= 0.0:
        return 1.0
    return np.exp(1j * np.log(x))


_NAMED: dict[str, Callable[[complex], complex]] = {
    "sqrt": lambda lam: np.sqrt(max(lam.real, 0.0)),
    "abs": lambda lam: abs(lam.real),
    "pospart": lambda lam: max(lam.real, 0.0),
    "negpart": lambda lam: max(-lam.real, 0.0),
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
    ``exp-phase``.
    """
    if name.startswith("pow:"):
        return _pow(float(name.split(":", 1)[1]))
    if name not in _NAMED:
        raise KeyError(f"unknown function name {name!r}")
    return _NAMED[name]

