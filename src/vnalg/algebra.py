"""Core value types and arithmetic for finite direct sums of matrix algebras.

An :class:`FdAlgebra` is determined by its ordered block dimensions
``(n_1, ..., n_K)`` and models ``M_{n_1} + ... + M_{n_K}`` with blockwise
operations.  An :class:`Element` holds one dense complex matrix per block.
Everything is an immutable value; all operations are pure functions.

The empty dimension list is allowed and denotes the trivial algebra ``{0}``,
on which every predicate holds vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import AlgebraMismatch, NotFinite


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds for positivity, snapping, and equality tests.

    The three rules below take the scale ``s`` of what they judge (a norm, or
    a largest singular value); at the default ``s = 0`` they give the floors
    that every scale clears, ``eps_abs + eps_rel`` and ``-eps_rel``.  Each
    tolerance lies in (0, 1): a relative tolerance of 1 makes ``equal(a, 0)`` true.
    """

    eps_rel: float = 1e-9
    eps_abs: float = 1e-12
    snap_eps: float = 1e-7

    def __post_init__(self):
        if not all(0 < eps < 1 for eps in (self.eps_rel, self.eps_abs, self.snap_eps)):
            raise ValueError("tolerances must be finite and strictly between 0 and 1")
        if self.snap_eps < self.eps_rel:
            raise ValueError("snap_eps must be >= eps_rel")

    def threshold(self, s: float = 0.0) -> float:
        """The norm bound eps_abs + eps_rel * max(1, s) of a defect at scale s."""
        return self.eps_abs + self.eps_rel * max(1.0, s)

    def positivity_floor(self, s: float = 0.0) -> float:
        """The least eigenvalue -eps_rel * max(1, s) a positive element at scale s may have."""
        return -self.eps_rel * max(1.0, s)

    def snap_radius(self, s: float = 0.0) -> float:
        """snap_eps * max(1, s): values this close at scale s count as one."""
        return self.snap_eps * max(1.0, s)


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class FdAlgebra:
    """A finite direct sum of full complex matrix algebras."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if any(int(n) != n or n < 1 for n in self.dims):
            raise ValueError("block dimensions must be positive integers")
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))

    @property
    def num_blocks(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        """Linear dimension, the sum of the squared block sizes."""
        return sum(n * n for n in self.dims)

    @property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for n in self.dims:
            out.append(acc)
            acc += n * n
        return tuple(out)

    def is_commutative(self) -> bool:
        return all(n == 1 for n in self.dims)

    def element(self, blocks: Iterable[np.ndarray | Sequence]) -> "Element":
        return Element(self, blocks)

    def zero(self) -> "Element":
        return self.element(np.zeros((n, n)) for n in self.dims)

    def unit(self) -> "Element":
        return self.element(np.eye(n) for n in self.dims)

    def scalar(self, lam: complex) -> "Element":
        return self.element(lam * np.eye(n) for n in self.dims)

    def basis(self) -> tuple["Element", ...]:
        """Canonical matrix-unit basis, block-major then row-major in block."""
        return _basis(self)

    def _block_element(self, i: int, block) -> "Element":
        """The element with ``block`` in block i and zeros elsewhere."""
        blocks = [np.zeros((m, m), dtype=complex) for m in self.dims]
        blocks[i] = block
        return Element(self, blocks)

    def from_coords(self, vec: np.ndarray) -> "Element":
        """Inverse of :meth:`Element.coords`."""
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        if vec.shape[0] != self.dim:
            raise AlgebraMismatch("coordinate vector has wrong length")
        blocks = []
        for off, n in zip(self.offsets, self.dims):
            blocks.append(vec[off:off + n * n].reshape(n, n))
        return self.element(blocks)


@lru_cache(maxsize=None)
def _basis(algebra: FdAlgebra) -> tuple["Element", ...]:
    return tuple(algebra._block_element(i, unit.reshape(n, n))
                 for i, n in enumerate(algebra.dims) for unit in np.eye(n * n))


@lru_cache(maxsize=None)
def _unit_index(left: FdAlgebra, right: FdAlgebra | None = None) -> np.ndarray:
    """Index formulas on canonical coordinates, as a read-only integer array.

    ``_unit_index(a)`` is the adjoint permutation P: E_s* is E_P[s], so the
    coordinates of x* are ``conj(x.coords()[P])``.  ``_unit_index(a, b)``
    has shape ``(a.dim, b.dim)``; entry ``[s, t]`` is the coordinate of
    E_s (x) E_t in the realized tensor product, whose blocks are the Kronecker
    products of the factor blocks in left-major order.
    """
    if right is None:
        out = np.arange(left.dim)
        for off, n in zip(left.offsets, left.dims):
            out[off:off + n * n] = out[off:off + n * n].reshape(n, n).T.reshape(-1)
    else:
        out = np.zeros((left.dim, right.dim), dtype=int)
        base = 0
        for n, lo in zip(left.dims, left.offsets):
            for m, ro in zip(right.dims, right.offsets):
                # E_rc (x) E_st is entry (r*m + s, c*m + t) of an nm x nm block
                local = np.arange((n * m) ** 2).reshape(n, m, n, m).transpose(0, 2, 1, 3)
                out[lo:lo + n * n, ro:ro + m * m] = base + local.reshape(n * n, m * m)
                base += (n * m) ** 2
    out.setflags(write=False)
    return out


def _block_diag(*mats) -> np.ndarray:
    """One or more matrices on the diagonal, as ``scipy.linalg.block_diag``
    builds them: ``atleast_2d`` blocks, their result dtype, zeros elsewhere."""
    mats = [np.atleast_2d(m) for m in mats]
    out = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)),
                   dtype=np.result_type(*mats))
    r = c = 0
    for m in mats:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


class Element:
    """A member of an :class:`FdAlgebra`: one dense complex matrix per block.

    ``_norm`` caches :func:`operator_norm`; an element never changes, so the
    cache cannot go stale.
    """

    __slots__ = ("algebra", "blocks", "_norm")

    def __init__(self, algebra: FdAlgebra, blocks: Sequence[np.ndarray]):
        blocks = tuple(np.array(b, dtype=complex) for b in blocks)
        if len(blocks) != algebra.num_blocks:
            raise AlgebraMismatch("wrong number of blocks")
        for b, n in zip(blocks, algebra.dims):
            if b.shape != (n, n):
                raise AlgebraMismatch(f"block shape {b.shape} does not match dim {n}")
        self._fill(algebra, blocks)

    def _fill(self, algebra: FdAlgebra, blocks: tuple[np.ndarray, ...]) -> "Element":
        for b in blocks:
            b.setflags(write=False)
        for slot, value in zip(Element.__slots__, (algebra, blocks, None)):
            object.__setattr__(self, slot, value)
        return self

    @classmethod
    def _wrap(cls, algebra: FdAlgebra, blocks) -> "Element":
        """Fresh complex blocks of the right shapes, laid out as a copy would lay
        them out (so BLAS sees the same inputs), taken with no copy or check."""
        return object.__new__(cls)._fill(algebra, tuple(blocks))

    def __setattr__(self, *_):
        raise AttributeError("Element is immutable")

    def __reduce__(self):
        # The default slot-state restore would go through __setattr__.
        return Element, (self.algebra, self.blocks)

    def coords(self) -> np.ndarray:
        """Row-major coordinates in the canonical matrix-unit basis."""
        if not self.blocks:
            return np.zeros(0, dtype=complex)
        return np.concatenate([b.reshape(-1) for b in self.blocks])

    def __add__(self, other: "Element") -> "Element":
        return add(self, other)

    def __sub__(self, other: "Element") -> "Element":
        return add(self, scalar_mul(-1.0, other))

    def __neg__(self) -> "Element":
        return scalar_mul(-1.0, self)

    def __mul__(self, lam) -> "Element":
        return scalar_mul(lam, self)

    __rmul__ = __mul__

    def __matmul__(self, other: "Element") -> "Element":
        return mul(self, other)

    def adjoint(self) -> "Element":
        return adjoint(self)

    def __repr__(self):
        return f"Element(dims={self.algebra.dims})"


def _same_algebra(a: Element, b: Element) -> FdAlgebra:
    if a.algebra != b.algebra:
        raise AlgebraMismatch(f"{a.algebra.dims} vs {b.algebra.dims}")
    return a.algebra


def add(a: Element, b: Element) -> Element:
    alg = _same_algebra(a, b)
    return Element._wrap(alg, (x + y for x, y in zip(a.blocks, b.blocks)))


def scalar_mul(lam: complex, a: Element) -> Element:
    return Element._wrap(a.algebra, (lam * x for x in a.blocks))


def mul(a: Element, b: Element) -> Element:
    alg = _same_algebra(a, b)
    return Element._wrap(alg, (x @ y for x, y in zip(a.blocks, b.blocks)))


def adjoint(a: Element) -> Element:
    return Element._wrap(a.algebra, (x.conj().T for x in a.blocks))


def real_part(a: Element) -> Element:
    return Element._wrap(a.algebra, (0.5 * (x + x.conj().T) for x in a.blocks))


def imag_part(a: Element) -> Element:
    return scalar_mul(-0.5j, a - adjoint(a))


def orthosupplement(a: Element) -> Element:
    """1 - a."""
    return a.algebra.unit() - a


def trace(a: Element) -> complex:
    return complex(sum(np.trace(b) for b in a.blocks))


def hs_inner(a: Element, b: Element) -> complex:
    """Hilbert-Schmidt inner product sum_i tr(a_i* b_i)."""
    _same_algebra(a, b)
    return complex(sum(np.trace(x.conj().T @ y) for x, y in zip(a.blocks, b.blocks)))


def _require_finite(m: np.ndarray, what: str = "map") -> None:
    """Raise NotFinite before LAPACK sees a NaN or infinite entry."""
    if not np.isfinite(m).all():
        raise NotFinite(f"the {what} has a non-finite entry")


def _max_norm(blocks) -> float:
    return max((float(np.linalg.norm(b, 2)) for b in blocks), default=0.0)


def operator_norm(a: Element) -> float:
    """Max over blocks of the largest singular value, computed once per element."""
    if a._norm is None:
        object.__setattr__(a, "_norm", _max_norm(a.blocks))
    return a._norm


# A Frobenius norm must clear a threshold by this relative margin to settle a
# norm test alone; it is far above the rounding of either computed norm.
_FRO_MARGIN = 1e-10


def _fro_within(x: np.ndarray, floor: float):
    """Whether ||x||_F (each, for a stack) puts the computed ||x||_2 under any
    threshold >= floor.  NaN and inf never do; 1e-150 covers underflowed squares."""
    if x.ndim == 2:
        sq = np.vdot(x, x).real
    else:
        r = np.ascontiguousarray(x).view(float).reshape(len(x), -1)
        sq = np.einsum("ki,ki->k", r, r)
    return np.sqrt(sq) <= floor * (1.0 - _FRO_MARGIN) - 1e-150


def _norm_gate(blocks: Sequence[np.ndarray], floor: float, threshold) -> bool:
    """_max_norm(blocks) <= threshold(), with no SVD and no threshold() when
    Frobenius norms settle every block under ``floor``, a lower bound on it."""
    return all(_fro_within(b, floor) for b in blocks) or _max_norm(blocks) <= threshold()


def _diff_blocks(xs, ys) -> list[np.ndarray]:
    """The blocks of x - y, rounded as Element subtraction rounds them."""
    return [x + -1.0 * y for x, y in zip(xs, ys)]


def equal(a: Element, b: Element, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """||a - b|| <= eps_abs + eps_rel * max(||a||, ||b||).

    The one tolerance rule with no 1 in the max: equality is judged relative
    to the operands alone, so that it holds at every scale.
    """
    _same_algebra(a, b)

    def bound(na: float, nb: float) -> float:
        return tol.eps_abs + max(na, nb) * tol.eps_rel

    return _norm_gate(_diff_blocks(a.blocks, b.blocks), bound(a._norm or 0.0, b._norm or 0.0),
                      lambda: bound(operator_norm(a), operator_norm(b)))


def is_self_adjoint(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """||a - a*|| <= eps_abs + eps_rel * max(1, ||a||)."""
    return _norm_gate(_diff_blocks(a.blocks, (x.conj().T for x in a.blocks)),
                      tol.threshold(), lambda: tol.threshold(operator_norm(a)))


def symmetrize(a: Element) -> Element:
    """Replace a by (a + a*)/2."""
    return real_part(a)


def _eigh(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of the Hermitian part of a block.

    The one place the package calls numpy's Hermitian eigensolvers.  The
    Hermitian part is spelled (b + b*) / 2 everywhere: an eigenvector is
    built from Householder reflectors, which tell -0.0 from 0.0, so another
    spelling of the same matrix can give other eigenvector bits.
    """
    return np.linalg.eigh((b + b.conj().T) / 2)


def _eigvalsh(b: np.ndarray) -> np.ndarray:
    """The eigenvalues of :func:`_eigh`, without the eigenvectors."""
    return np.linalg.eigvalsh((b + b.conj().T) / 2)


def is_positive(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Self-adjoint within tolerance with spectrum >= -eps_rel*max(1, ||a||): the
    floor is relative to ||a|| above norm 1 and absolute below it."""
    if not a.blocks:
        return True
    if not is_self_adjoint(a, tol):
        return False
    mins = [float(_eigvalsh(b).min(initial=np.inf)) for b in a.blocks]
    # positivity_floor(s) <= positivity_floor(), so minima above the latter pass without ||a||.
    return all(m >= tol.positivity_floor() for m in mins) or \
        all(m >= tol.positivity_floor(operator_norm(a)) for m in mins)


def leq(a: Element, b: Element, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """a <= b, i.e. b - a is positive."""
    return is_positive(b - a, tol)


def is_effect(a: Element, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """0 <= a <= 1."""
    return is_positive(a, tol) and is_positive(orthosupplement(a), tol)


def make_algebra(dims: Sequence[int]) -> FdAlgebra:
    """Build the direct sum of full matrix algebras with the given block sizes."""
    return FdAlgebra(tuple(dims))


def direct_sum(algebras: Sequence[FdAlgebra]) -> FdAlgebra:
    dims: list[int] = []
    for alg in algebras:
        dims.extend(alg.dims)
    return FdAlgebra(tuple(dims))
