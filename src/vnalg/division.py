"""Pseudoinverses, division, polar decomposition, sequential quotient.

Division ``a/b`` is computed through the Moore-Penrose pseudoinverse and
then verified by reconstruction; the residual check is what detects that
``a`` does not lie in the right ideal of ``b``.  The banded series
construction of the approximate pseudoinverse is kept alongside as an
independent cross-check of the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .algebra import (DEFAULT_TOL, Element, ToleranceConfig, _diff_blocks, _eigh,
                      _norm_gate, add, adjoint, is_positive, mul, operator_norm)
from .errors import DivisionUndefined, NotPositive, QuotientUndefined
from .projections import _ranked_svd
from .spectral import _root


@dataclass(frozen=True)
class PolarParts:
    """Polar decomposition a = isometry * modulus, modulus = sqrt(a*a)."""

    isometry: Element
    modulus: Element


@dataclass(frozen=True)
class ApproxPseudoinverse:
    """Finite banded series whose partial products are projections.

    ``thresholds`` records the spectral band [lo, hi) that produced each
    term (bands of a*a when the input was not positive).
    """

    terms: tuple[Element, ...]
    thresholds: tuple[tuple[float, float], ...]

    def total(self, algebra) -> Element:
        return reduce(add, self.terms, algebra.zero())


def pseudoinverse(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """Element t with t a = support(a) and a t = range(a).

    Blockwise Moore-Penrose, in ``numpy.linalg.pinv``'s arithmetic, on the
    singular values that :func:`projections._ranked_svd` keeps: every element
    of a finite-dimensional algebra is pseudoinvertible in this sense.
    """
    blocks = []
    for b in a.blocks:
        u, s, vh, rank = _ranked_svd(b, tol)
        inv = np.concatenate([1.0 / s[:rank], np.zeros(len(s) - rank)])
        blocks.append(vh.conj().T @ (inv[:, None] * u.conj().T) if rank else np.zeros_like(b))
    return a.algebra.element(blocks)


def _band(v: float) -> int:
    """The n with 1/(n+1) <= v < 1/n (1/0 read as infinity), for v > 0.

    int(1/v) is right or one too large: rounding is monotone, so v lies at or
    above 1/(n+1) for n = int(1/v), and below 1/n unless it sits on the grid.
    """
    n = int(1.0 / v)
    return n - 1 if n and v >= 1.0 / n else n


def _positive_bands(a: Element, tol: ToleranceConfig) -> ApproxPseudoinverse:
    """Band construction for positive a on the exact 1/n grid.

    Band n collects the eigenvalues in [1/(n+1), 1/n), where 1/0 is read as
    infinity; only the bands holding an eigenvalue above the cut give terms,
    in increasing n.
    """
    alg = a.algebra
    eigpairs = [_eigh(b) for b in a.blocks]
    cut = tol.snap_radius(operator_norm(a))
    terms, bands = [], []
    for n in sorted({_band(float(v)) for vals, _ in eigpairs for v in vals if v > cut}):
        lo = 1.0 / (n + 1)
        hi = 1.0 / n if n else np.inf
        blocks = [np.zeros_like(b) for b in a.blocks]
        for i, (vals, vecs) in enumerate(eigpairs):
            sel = (vals > cut) & (vals >= lo) & (vals < hi)
            if np.any(sel):
                v = vecs[:, sel]
                inv = np.diag(1.0 / vals[sel])
                blocks[i] = v @ inv @ v.conj().T
        terms.append(alg.element(blocks))
        bands.append((lo, float(hi)))
    return ApproxPseudoinverse(tuple(terms), tuple(bands))


def approximate_pseudoinverse(a: Element,
                              tol: ToleranceConfig = DEFAULT_TOL) -> ApproxPseudoinverse:
    """Banded approximate pseudoinverse; t_n a and a t_n are projections.

    A general element reduces to the positive case: if s_1, s_2, ... is an
    approximate pseudoinverse of a*a then s_1 a*, s_2 a*, ... is one of a.
    """
    if is_positive(a, tol):
        return _positive_bands(a, tol)
    gram = mul(adjoint(a), a)
    base = _positive_bands(gram, tol)
    terms = tuple(mul(t, adjoint(a)) for t in base.terms)
    return ApproxPseudoinverse(terms, base.thresholds)


def _reconstruction_ok(lhs: Element, rhs: Element, tol: ToleranceConfig) -> bool:
    def bound(scale: float) -> float:
        return tol.eps_abs + 10 * tol.snap_eps * scale
    return _norm_gate(_diff_blocks(lhs.blocks, rhs.blocks), bound(1.0),
                      lambda: bound(max(1.0, operator_norm(rhs))))


def divide(a: Element, b: Element, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """Right division: the unique c with c b = a and support(c) <= range(b)."""
    c = mul(a, pseudoinverse(b, tol))
    if not _reconstruction_ok(mul(c, b), a, tol):
        raise DivisionUndefined("a is not a left multiple of b")
    return c


def left_divide(b: Element, a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """Left division: the unique c with b c = a and range(c) <= support(b)."""
    c = mul(pseudoinverse(b, tol), a)
    if not _reconstruction_ok(mul(b, c), a, tol):
        raise DivisionUndefined("a is not a right multiple of b")
    return c


def sandwich_divide(c: Element, a: Element, b: Element,
                    tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """c \\ a / b: the unique d with c d b = a, supported between c and b."""
    d = mul(mul(pseudoinverse(c, tol), a), pseudoinverse(b, tol))
    if not _reconstruction_ok(mul(mul(c, d), b), a, tol):
        raise DivisionUndefined("a is not of the form c d b")
    return d


def douglas_lambda(a: Element, b: Element, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Smallest lam with a*a <= lam^2 b*b, when a is a left multiple of b.

    Equals ||a/b||; zero for a = 0.
    """
    if operator_norm(a) == 0.0:
        return 0.0
    return operator_norm(divide(a, b, tol))


def polar(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> PolarParts:
    """a = [a] sqrt(a*a) with [a] the rank-truncated SVD isometry."""
    iso_blocks, mod_blocks = [], []
    for b in a.blocks:
        u, s, vh, r = _ranked_svd(b, tol)
        iso_blocks.append(u[:, :r] @ vh[:r])
        mod_blocks.append(vh.conj().T @ np.diag(s) @ vh)
    return PolarParts(a.algebra.element(iso_blocks), a.algebra.element(mod_blocks))


def seq_quotient(a: Element, b: Element, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """The unique positive c supported under b with sqrt(b) c sqrt(b) = a."""
    if not (is_positive(a, tol) and is_positive(b, tol)):
        raise NotPositive("seq_quotient needs positive elements")
    root = _root(b, tol)
    pinv_root = pseudoinverse(root, tol)
    c = mul(mul(pinv_root, a), pinv_root)
    if not _reconstruction_ok(mul(mul(root, c), root), a, tol):
        raise QuotientUndefined("a is not dominated by a multiple of b")
    return c
