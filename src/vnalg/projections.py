"""Projection lattice: ceiling, floor, support, join/meet, commutant, centre.

Projections produced here are snapped: eigenvalues within ``snap_eps`` of
{0, 1} are rounded and the projection is rebuilt from the kept eigenvectors,
restoring exact idempotency so that chained lattice identities hold at
equality-test precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import (DEFAULT_TOL, Element, FdAlgebra, ToleranceConfig, _block_diag,
                      _diff_blocks, _eigh, _norm_gate, _require_finite, adjoint, is_effect,
                      is_positive, is_self_adjoint, operator_norm, orthosupplement)
from .errors import NotEffect, NotFinite, NotPositive, NotProjection
from .sampling import random_projection


@dataclass(frozen=True)
class ProjectionCertificate:
    """A verified projection together with whether snapping occurred."""

    element: Element
    snapped: bool


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of an algebra, spanned by an orthonormal basis."""

    ambient: FdAlgebra
    basis: tuple[Element, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        v = a.coords()
        for b in self.basis:
            bc = b.coords()
            v = v - bc * np.vdot(bc, v)
        return float(np.linalg.norm(v)) <= tol.threshold(float(np.linalg.norm(a.coords())))


def is_projection(p: Element, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    return is_self_adjoint(p, tol) and _norm_gate(
        _diff_blocks((x @ x for x in p.blocks), p.blocks), tol.threshold(),
        lambda: tol.threshold(operator_norm(p)))


def _snap(p: Element, snap: float) -> ProjectionCertificate:
    """p with each block's eigenvalues rounded to {0,1}, and whether any moved."""
    blocks, snapped = [], False
    for b in p.blocks:
        vals, vecs = _eigh(b)
        keep = vals >= 0.5
        if np.any((vals > snap) & (vals < 1.0 - snap)):
            raise NotProjection("eigenvalues too far from {0,1} to snap")
        snapped = snapped or bool(np.any(np.abs(vals - keep.astype(float)) > 1e-15))
        v1 = vecs[:, keep]
        blocks.append(v1 @ v1.conj().T)
    return ProjectionCertificate(p.algebra.element(blocks), snapped)


def snap_projection(p: Element, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """Round eigenvalues to {0,1} (within snap_eps) and rebuild."""
    return _snap(p, tol.snap_eps).element


def certify_projection(p: Element, tol: ToleranceConfig = DEFAULT_TOL) -> ProjectionCertificate:
    if not is_projection(p, tol):
        raise NotProjection("not a projection within tolerance")
    return _snap(p, tol.snap_eps)


def _spectral_projection(a: Element, predicate) -> Element:
    """Per block, the projection onto the eigenvectors of the Hermitian part
    whose eigenvalues satisfy ``predicate``."""
    blocks = []
    for b in a.blocks:
        vals, vecs = _eigh(b)
        keep = np.array([bool(predicate(float(v))) for v in vals])
        v1 = vecs[:, keep]
        blocks.append(v1 @ v1.conj().T)
    return a.algebra.element(blocks)


def ceiling(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """Least projection p with pa = a, for positive a.

    Spectral projection onto eigenvalues above ``snap_eps * ||a||``.
    """
    if not is_positive(a, tol):
        raise NotPositive("ceiling needs a positive element")
    norm = operator_norm(a)
    if norm <= tol.eps_abs:
        return a.algebra.zero()
    return _spectral_projection(a, lambda v: v > tol.snap_eps * norm)


def floor(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """Greatest projection below an effect a."""
    if not is_effect(a, tol):
        raise NotEffect("floor needs an effect")
    return _spectral_projection(a, lambda v: v >= 1.0 - tol.snap_eps)


def _ranked_svd(b: np.ndarray, tol: ToleranceConfig):
    """(u, s, vh, rank): the full SVD of an element block and the number of
    singular values above snap_eps times the largest, 0 when that is at most
    eps_abs; NotFinite on a NaN or infinite entry, before LAPACK sees it, or
    on a largest singular value that overflows."""
    _require_finite(b, "element")
    u, s, vh = np.linalg.svd(b)
    if not np.isfinite(s[0]):
        raise NotFinite("the largest singular value overflows")
    return u, s, vh, int(np.sum(s > tol.snap_eps * s[0])) if s[0] > tol.eps_abs else 0


def rank_profile(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[int, ...]:
    """Per-block rank, as :func:`_ranked_svd` decides it: the rank of
    :func:`support`, block by block."""
    return tuple(_ranked_svd(b, tol)[3] for b in a.blocks)


def support(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """Least projection p with a p = a; the ceiling of a*a.

    The projection onto the right singular vectors that :func:`_ranked_svd`
    keeps, so its block ranks are :func:`rank_profile`.
    """
    blocks = []
    for b in a.blocks:
        _, _, vh, rank = _ranked_svd(b, tol)
        v = vh[:rank].conj().T
        blocks.append(v @ v.conj().T)
    return a.algebra.element(blocks)


def range_projection(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """Least projection p with p a = a; the ceiling of a a*."""
    return support(adjoint(a), tol)


def _require_projections(ps: Sequence[Element], tol: ToleranceConfig):
    for p in ps:
        if not is_projection(p, tol):
            raise NotProjection("lattice operation needs projections")


def join(ps: Sequence[Element], tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """Supremum in the projection poset, folding p | q = ceil((p+q)/2)."""
    ps = list(ps)
    if not ps:
        raise ValueError("join needs at least one projection")
    _require_projections(ps, tol)
    out = ps[0]
    for q in ps[1:]:
        out = snap_projection(ceiling(0.5 * (out + q), tol), tol)
    return snap_projection(out, tol)


def meet(ps: Sequence[Element], tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """Infimum in the projection poset, by De Morgan from :func:`join`."""
    ps = list(ps)
    if not ps:
        raise ValueError("meet needs at least one projection")
    _require_projections(ps, tol)
    comp = join([orthosupplement(p) for p in ps], tol)
    return snap_projection(orthosupplement(comp), tol)


def left_mult_matrix(s: Element) -> np.ndarray:
    """Matrix of x -> s x on canonical (row-major) coordinates."""
    if not s.blocks:
        return np.zeros((0, 0), dtype=complex)
    return _block_diag(*[np.kron(b, np.eye(b.shape[0])) for b in s.blocks])


def right_mult_matrix(s: Element) -> np.ndarray:
    """Matrix of x -> x s on canonical (row-major) coordinates."""
    if not s.blocks:
        return np.zeros((0, 0), dtype=complex)
    return _block_diag(*[np.kron(np.eye(b.shape[0]), b.T) for b in s.blocks])


def _span(stack: np.ndarray, tol: ToleranceConfig) -> tuple[np.ndarray, int]:
    """The right singular vectors of a stack of rows, and its numerical rank:
    the number of singular values above snap_radius of the largest (0 for
    rows of length 0, which have none); NotFinite on a non-finite entry."""
    _require_finite(stack, "element")
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    return vh, int(np.sum(s > tol.snap_radius(float(s.max(initial=0.0)))))


def commutant(elements: Sequence[Element], within: FdAlgebra,
              tol: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of {a : as = sa for all s}, via stacked commutators."""
    d = within.dim
    if d == 0:
        return Subspace(within, ())
    if not elements:
        return Subspace(within, tuple(within.from_coords(v)
                                      for v in np.eye(d, dtype=complex)))
    _require_finite(np.concatenate([s.coords() for s in elements]), "element")  # before kron
    rows = [left_mult_matrix(s) - right_mult_matrix(s) for s in elements]
    vh, rank = _span(np.vstack(rows), tol)
    return Subspace(within, tuple(within.from_coords(v) for v in vh[rank:].conj()))


def centre(algebra: FdAlgebra, tol: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """The normalized block identities I_n / sqrt(n), in block order."""
    return Subspace(algebra, tuple(algebra._block_element(i, np.eye(n) / np.sqrt(n))
                                   for i, n in enumerate(algebra.dims)))


def central_support(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """Smallest central projection z with z a = a: the nonzero-block indicator."""
    def bound() -> float:
        if operator_norm(a) == np.inf:  # threshold(inf) would hold every block's norm
            raise NotFinite("the operator norm overflows")
        return tol.threshold(operator_norm(a))
    blocks = []
    for b in a.blocks:
        zero = _norm_gate([b], tol.threshold(), bound)
        blocks.append(np.zeros(b.shape) if zero else np.eye(b.shape[0]))
    return a.algebra.element(blocks)


def is_central(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Each block a scalar multiple of the block identity; NotFinite on a non-finite trace."""
    with np.errstate(over="ignore", invalid="ignore"):
        lams = [np.trace(b) / b.shape[0] for b in a.blocks]
    _require_finite(np.array(lams), "trace")
    for b, lam in zip(a.blocks, lams):
        if not _norm_gate([b - lam * np.eye(b.shape[0])], tol.threshold(),
                          lambda: tol.threshold(operator_norm(a))):
            return False
    return True


def mvn_below(e1: Element, e2: Element,
              tol: ToleranceConfig = DEFAULT_TOL) -> Optional[Element]:
    """Murray-von Neumann subequivalence witness.

    Returns u with u*u = e1 and uu* <= e2 when each block rank of e1 is at
    most that of e2, and None otherwise.
    """
    _require_projections([e1, e2], tol)
    blocks = []
    for b1, b2 in zip(e1.blocks, e2.blocks):
        (vals1, vecs1), (vals2, vecs2) = _eigh(b1), _eigh(b2)
        w, v = vecs1[:, vals1 > 0.5], vecs2[:, vals2 > 0.5]
        if w.shape[1] > v.shape[1]:
            return None
        blocks.append(v[:, :w.shape[1]] @ w.conj().T)
    return e1.algebra.element(blocks)


def central_support_partition(e: Element,
                              tol: ToleranceConfig = DEFAULT_TOL) -> list[Element]:
    """Pairwise orthogonal projections summing to the central support of e,
    each Murray-von Neumann below e.

    Blockwise: each supported block identity is cut along an eigenbasis of
    e's block into pieces of rank at most rank(e_block).
    """
    _require_projections([e], tol)
    if _norm_gate(e.blocks, tol.eps_abs, lambda: tol.eps_abs):
        raise NotProjection("central_support_partition needs a nonzero projection")
    alg = e.algebra
    pieces: list[Element] = []
    for i, b in enumerate(e.blocks):
        n = b.shape[0]
        vals, vecs = _eigh(b)
        r = int(np.sum(vals > 0.5))
        if r == 0:
            continue
        for start in range(0, n, r):
            cols = vecs[:, start:start + r]
            pieces.append(alg._block_element(i, cols @ cols.conj().T))
    return pieces


def projection_family(algebra: FdAlgebra, seed: int = 0, extra: int = 4) -> list[Element]:
    """A deterministic spanning family of projections used by diamond checks.

    Contains 0, 1, every diagonal matrix-unit projection, per-block uniform
    rank-1 projections, and a few seeded random projections.
    """
    rng = np.random.default_rng(seed)
    out = [algebra.zero(), algebra.unit()]
    for i, n in enumerate(algebra.dims):
        out.extend(algebra._block_element(i, np.diag(unit)) for unit in np.eye(n))
        vec = np.ones(n) / np.sqrt(n)
        out.append(algebra._block_element(i, np.outer(vec, vec.conj())))
    for _ in range(extra):
        out.append(random_projection(algebra, rng))
    return out
