"""Linear maps between algebras: structural predicates, Choi blocks, carriers,
and the forward/backward diamond on projections.

A :class:`LinMap` stores its action on the canonical matrix-unit basis as a
dense matrix over the row-major coordinates used by
:meth:`vnalg.algebra.Element.coords`.  Structural predicates (unital,
multiplicative, involutive, positive, completely positive) are always
computed from that matrix, never stored.

Complete positivity reduces blockwise: a map is CP iff for every domain
block the element ``(f(E_jk))_jk`` of the matrix algebra over the codomain
is positive.  Plain positivity of a map between noncommutative algebras has
no known exact certificate, so :func:`is_positive_map` returns a three-way
verdict instead of a bool.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import (DEFAULT_TOL, Element, FdAlgebra, ToleranceConfig, _block_diag,
                      _diff_blocks, _eigpairs, _eigvalsh, _fro_within, _max_norm, _norm_gate,
                      _require_finite, _unit_index, adjoint, equal, is_positive, mul,
                      operator_norm, orthosupplement, symmetrize)
from .errors import NotPositive, ShapeMismatch
from .projections import (ceiling, central_support, left_mult_matrix,
                          projection_family, right_mult_matrix, snap_projection,
                          support)
from . import sampling
from .spectral import functional_calculus


class LinMap:
    """A complex-linear map between two algebras, as a coordinate matrix."""

    __slots__ = ("dom", "cod", "matrix")

    def __init__(self, dom: FdAlgebra, cod: FdAlgebra, matrix: np.ndarray):
        matrix = np.array(matrix, dtype=complex)
        if matrix.shape != (cod.dim, dom.dim):
            raise ShapeMismatch(f"matrix shape {matrix.shape} != ({cod.dim}, {dom.dim})")
        matrix.setflags(write=False)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, *_):
        raise AttributeError("LinMap is immutable")

    def __reduce__(self):
        return LinMap, (self.dom, self.cod, self.matrix)

    def __call__(self, a: Element) -> Element:
        return apply(self, a)

    def __add__(self, other: "LinMap") -> "LinMap":
        if self.dom != other.dom or self.cod != other.cod:
            raise ShapeMismatch("map sum needs matching domain and codomain")
        return LinMap(self.dom, self.cod, self.matrix + other.matrix)

    def __mul__(self, lam) -> "LinMap":
        return LinMap(self.dom, self.cod, lam * self.matrix)

    __rmul__ = __mul__

    def __repr__(self):
        return f"LinMap({self.dom.dims} -> {self.cod.dims})"


def make_map(dom: FdAlgebra, cod: FdAlgebra, images: Sequence[Element]) -> LinMap:
    """Linear extension of images of the canonical basis, in basis order."""
    if len(images) != dom.dim:
        raise ShapeMismatch(f"need {dom.dim} images, got {len(images)}")
    cols = []
    for el in images:
        if el.algebra != cod:
            raise ShapeMismatch("image lies in the wrong algebra")
        cols.append(el.coords())
    matrix = np.column_stack(cols) if cols else np.zeros((cod.dim, 0))
    return LinMap(dom, cod, matrix)


def apply(f: LinMap, a: Element) -> Element:
    if a.algebra != f.dom:
        raise ShapeMismatch("argument lies outside the domain")
    return f.cod.from_coords(f.matrix @ a.coords())


def compose(g: LinMap, f: LinMap) -> LinMap:
    """g after f."""
    if f.cod != g.dom:
        raise ShapeMismatch("codomain of inner map must match domain of outer map")
    return LinMap(f.dom, g.cod, g.matrix @ f.matrix)


def identity_map(algebra: FdAlgebra) -> LinMap:
    return LinMap(algebra, algebra, np.eye(algebra.dim, dtype=complex))


def zero_map(dom: FdAlgebra, cod: FdAlgebra) -> LinMap:
    return LinMap(dom, cod, np.zeros((cod.dim, dom.dim), dtype=complex))


def mult_map(left: Element, right: Element) -> LinMap:
    """a -> left a right on a single algebra."""
    if left.algebra != right.algebra:
        raise ShapeMismatch("left and right factors must share an algebra")
    alg = left.algebra
    return LinMap(alg, alg, left_mult_matrix(left) @ right_mult_matrix(right))


def conjugation_map(v: Element) -> LinMap:
    """a -> v* a v."""
    return mult_map(adjoint(v), v)


def transpose_map(algebra: FdAlgebra) -> LinMap:
    """Blockwise transpose; the standard positive-but-not-CP example."""
    return LinMap(algebra, algebra, np.eye(algebra.dim)[_unit_index(algebra)])


def _sandwich_matrix(dom: FdAlgebra, cod: FdAlgebra, terms) -> np.ndarray:
    """Matrix of the sum of the block maps x_i -> A x_i B into codomain block l,
    for ``(i, l, A, B)`` in ``terms``.

    On row-major coordinates a term is the piece kron(A, B.T).  It is formed
    as A E_jk B over the stacked matrix units E_jk so that each entry is
    rounded by the BLAS kernel of a per-element build; kron rounds without
    its fused multiply-adds and differs in the last bit.
    """
    matrix = np.zeros((cod.dim, dom.dim), dtype=complex)
    for i, l, a, b in terms:
        n, m = dom.dims[i], cod.dims[l]
        piece = a @ np.eye(n * n).reshape(n * n, n, n).astype(complex) @ b
        rows, cols = cod.offsets[l], dom.offsets[i]
        matrix[rows:rows + m * m, cols:cols + n * n] += piece.reshape(n * n, m * m).T
    return matrix


def block_projection(algebra: FdAlgebra, j: int) -> LinMap:
    """The miu projection onto the j-th block."""
    target = FdAlgebra((algebra.dims[j],))
    eye = np.eye(algebra.dims[j])
    return LinMap(algebra, target, _sandwich_matrix(algebra, target, [(j, 0, eye, eye)]))


SCALARS = FdAlgebra((1,))


def scalar_value(a: Element) -> complex:
    if a.algebra.dims != (1,):
        raise ShapeMismatch("not a scalar element")
    return complex(a.blocks[0][0, 0])


def functional_from_density(rho: Element) -> LinMap:
    """The functional a -> sum_i tr(rho_i a_i)."""
    row = rho.coords()[_unit_index(rho.algebra)]  # the coordinates of rho^T
    return LinMap(rho.algebra, SCALARS, row.reshape(1, -1))


def density(omega: LinMap) -> Element:
    """Inverse of :func:`functional_from_density`."""
    if omega.cod.dims != (1,):
        raise ShapeMismatch("density needs a functional into the scalars")
    return omega.dom.from_coords(omega.matrix[0][_unit_index(omega.dom)])


def trace_functional(algebra: FdAlgebra) -> LinMap:
    return functional_from_density(algebra.unit())


def vector_functional(algebra: FdAlgebra, block: int, x: np.ndarray) -> LinMap:
    """a -> <x, a_block x>."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    return functional_from_density(algebra._block_element(block, np.outer(x, x.conj())))


def is_positive_functional(omega: LinMap, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    rho = density(omega)
    return is_positive(rho, tol)


def maps_equal(f: LinMap, g: LinMap, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Operator-norm distance of the basis-action matrices within tolerance."""
    if f.dom != g.dom or f.cod != g.cod:
        return False
    _require_finite(f.matrix)
    _require_finite(g.matrix)
    return _norm_gate([f.matrix - g.matrix], tol.threshold(),
                      lambda: tol.threshold(_max_norm([f.matrix, g.matrix])))


def _unit_image(f: LinMap) -> Element:
    """f(1), or NotFinite: a non-finite entry of f reaches f(1), as 0 * inf is NaN."""
    with np.errstate(invalid="ignore"):
        one_img = apply(f, f.dom.unit())
    _require_finite(one_img.coords())
    return one_img


def is_unital(f: LinMap, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    one = f.cod.unit()
    return _norm_gate(_diff_blocks(_unit_image(f).blocks, one.blocks),
                      tol.threshold(), lambda: tol.threshold(operator_norm(one)))


def is_subunital(f: LinMap, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    return is_positive(orthosupplement(_unit_image(f)), tol)


def _image_blocks(cod: FdAlgebra, cols: np.ndarray) -> list[np.ndarray]:
    """Codomain block l of every column, stacked: one (k, m_l, m_l) array per l."""
    return [np.ascontiguousarray(cols[off:off + m * m].T).reshape(-1, m, m)
            for off, m in zip(cod.offsets, cod.dims)]


def _finite_norm(m: np.ndarray) -> float:
    """The operator norm of m; NotFinite rather than an SVD of a non-finite m."""
    _require_finite(m)
    return _max_norm([m])


def _any_over(stacks: list[np.ndarray], count: int, tol: ToleranceConfig, scale) -> bool:
    """Whether any of ``count`` elements, given as block stacks, has operator
    norm over ``tol.threshold(scale())``; blocks settled by their Frobenius
    norm (see :func:`vnalg.algebra._norm_gate`) take no SVD and no finiteness
    check, and an open block with a non-finite entry raises NotFinite."""
    out = np.zeros(count)
    for st in stacks:
        open_ = ~_fro_within(st, tol.threshold())
        if open_.any():
            _require_finite(st[open_])
            out[open_] = np.maximum(out[open_], np.linalg.norm(st[open_], 2, axis=(1, 2)))
    return bool(out.any()) and bool(np.any(out > tol.threshold(scale())))


def is_involutive(f: LinMap, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """||f(e*) - f(e)*|| within tolerance for every basis element e."""
    m = f.matrix
    with np.errstate(invalid="ignore"):  # a non-finite m raises NotFinite below
        diff = m[:, _unit_index(f.dom)] - m.conj()[_unit_index(f.cod), :]
    return not _any_over(_image_blocks(f.cod, diff), f.dom.dim, tol, lambda: _finite_norm(m))


def is_multiplicative(f: LinMap, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """||f(E_a E_b) - f(E_a) f(E_b)|| within tolerance for every basis pair.

    Checked one domain row E_a at a time, a = (i, r, c): E_a E_b is E_rc'
    when E_b is E_cc' in the same block i, and 0 otherwise.
    """
    scale = functools.cache(lambda: _finite_norm(f.matrix) ** 2)
    images = _image_blocks(f.cod, f.matrix)
    for off, n in zip(f.dom.offsets, f.dom.dims):
        for r, c in np.ndindex(n, n):
            diffs = []
            with np.errstate(invalid="ignore"):  # a non-finite f raises NotFinite below
                for img in images:
                    want = np.zeros_like(img)
                    want[off + c * n:off + c * n + n] = img[off + r * n:off + r * n + n]
                    diffs.append(want - img[off + r * n + c] @ img)
            if _any_over(diffs, f.dom.dim, tol, scale):
                return False
    return True


def is_miu(f: LinMap, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    return is_unital(f, tol) and is_involutive(f, tol) and is_multiplicative(f, tol)


def _is_bijective(f: LinMap, tol: ToleranceConfig) -> bool:
    """Square, with least singular value at least snap_eps (or no coordinates)."""
    return f.dom.dim == f.cod.dim and (
        f.dom.dim == 0 or bool(np.linalg.svd(f.matrix, compute_uv=False)[-1] >= tol.snap_eps))


@dataclass(frozen=True)
class ChoiBlock:
    """The element (f(E_jk))_jk of the matrix algebra over the codomain,
    for one domain block, realized as a single block-diagonal matrix."""

    domain_block_index: int
    matrix: np.ndarray


def choi_blocks(f: LinMap) -> list[ChoiBlock]:
    """Entry (j*m + p, k*m + q) of piece l is entry (p, q) of block l of f(E_jk).

    Adding 0.0 turns -0.0 into 0.0, as applying f to a basis element does.
    """
    dom, cod = f.dom, f.cod
    matrix = f.matrix + 0.0
    out = []
    for i, n in enumerate(dom.dims):
        pieces = []
        for l, m in enumerate(cod.dims):
            sub = matrix[cod.offsets[l]:cod.offsets[l] + m * m,
                         dom.offsets[i]:dom.offsets[i] + n * n]
            pieces.append(sub.reshape(m, m, n, n).transpose(2, 0, 3, 1).reshape(n * m, n * m))
        out.append(ChoiBlock(i, _block_diag(*pieces) if pieces else np.zeros((0, 0))))
    return out


def min_choi_eigenvalue(f: LinMap) -> float:
    """Smallest eigenvalue over all Hermitian-symmetrized Choi blocks."""
    worst = np.inf
    for cb in choi_blocks(f):
        _require_finite(cb.matrix)
        worst = min(worst, float(_eigvalsh(cb.matrix).min(initial=np.inf)))
    return 0.0 if np.isinf(worst) else float(worst)


def is_completely_positive(f: LinMap, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    for cb in choi_blocks(f):
        m = cb.matrix
        _require_finite(m)
        scale = functools.cache(lambda: _max_norm([m]))
        if not _norm_gate([m - m.conj().T], tol.threshold(), lambda: tol.threshold(scale())):
            return False
        low = float(_eigvalsh(m).min(initial=np.inf))
        if low < tol.positivity_floor() and low < tol.positivity_floor(scale()):
            return False
    return True


class Verdict(enum.Enum):
    PROVEN_CP = "ProvenCP"
    LIKELY_POSITIVE = "LikelyPositive"
    NOT_POSITIVE = "NotPositive"


@dataclass(frozen=True)
class PositivityReport:
    verdict: Verdict
    witness: Optional[Element] = None


def _structured_positives(algebra: FdAlgebra) -> list[Element]:
    return [algebra.unit()] + [algebra._block_element(i, np.diag(unit))
                               for i, n in enumerate(algebra.dims) for unit in np.eye(n)]


def is_positive_map(f: LinMap, samples: int = 200, seed: int = 0,
                    tol: ToleranceConfig = DEFAULT_TOL) -> PositivityReport:
    """Three-way positivity verdict.

    A passing Choi test proves complete positivity.  A failing one decides
    NotPositive when f is not involutive (positive maps preserve the
    involution) or either side is commutative (a positive map into or out
    of a commutative algebra is CP, Stinespring 1955), and the search below
    only looks for a witness, into a commutative codomain first along the
    negative directions of the coordinate densities.  Between two
    noncommutative algebras, absence of a witness among structured and
    seeded random rank-one positives only supports LikelyPositive.
    """
    if is_completely_positive(f, tol):
        return PositivityReport(Verdict.PROVEN_CP)
    involutive = is_involutive(f, tol)
    decided = not involutive or f.dom.is_commutative() or f.cod.is_commutative()
    if involutive and not f.dom.is_commutative() and f.cod.is_commutative():
        for y in range(f.cod.num_blocks):
            rho = density(compose(block_projection(f.cod, y), f))
            # A density that fails only self-adjointness has no negative direction.
            witness = None if is_positive(rho, tol) else _negative_direction_witness(rho, tol)
            if witness is not None:
                return PositivityReport(Verdict.NOT_POSITIVE, witness)
    if not involutive:
        more = (mul(h, h) for h in map(symmetrize, f.dom.basis()))
    elif decided:
        more = ()
    else:
        rng = np.random.default_rng(seed)
        more = (sampling.random_rank_one_positive(f.dom, rng) for _ in range(samples))
    witness = next((a for a in itertools.chain(_structured_positives(f.dom), more)
                    if not is_positive(apply(f, a), tol)), None)
    return PositivityReport(Verdict.NOT_POSITIVE if decided or witness is not None
                            else Verdict.LIKELY_POSITIVE, witness)


def _negative_direction_witness(rho: Element,
                                tol: ToleranceConfig) -> Optional[Element]:
    for i, (vals, vecs) in enumerate(_eigpairs(rho)):
        if vals.size and vals[0] < tol.positivity_floor(operator_norm(rho)):
            v = vecs[:, 0]
            return rho.algebra._block_element(i, np.outer(v, v.conj()))
    return None


def carrier(f: LinMap, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """Least projection p with f(p-orthosupplement) = 0, for positive f.

    Computed as the support of the density of (trace on the codomain) o f,
    which is valid because the trace is faithful.  Positivity of f is
    checked through the cheap necessary conditions that f is involutive and
    that this density is positive.
    """
    if not is_involutive(f, tol):
        raise NotPositive("carrier needs an involution-preserving map")
    omega = compose(trace_functional(f.cod), f)
    rho = density(omega)
    if not is_positive(rho, tol):
        raise NotPositive("trace composite has a non-positive density")
    return snap_projection(support(rho, tol), tol)


def central_carrier(f: LinMap, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """Least central projection z with f(z-orthosupplement) = 0."""
    return central_support(carrier(f, tol), tol)


def diamond_fwd(f: LinMap, e: Element, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """Ceiling of f(e): where f sends the projection e."""
    img = apply(f, e)
    return snap_projection(ceiling(symmetrize(img), tol), tol)


def diamond_bwd(f: LinMap, e: Element, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """Carrier of a -> e f(a) e: the least projection whose complement f
    sends outside the corner of e."""
    return carrier(compose(conjugation_map(e), f), tol)


def diamond_box(f: LinMap, e: Element, tol: ToleranceConfig = DEFAULT_TOL) -> Element:
    """Derived accessor: orthosupplement conjugate of the forward diamond."""
    return orthosupplement(diamond_fwd(f, orthosupplement(e), tol))


def are_equivalent(f: LinMap, g: LinMap, seed: int = 0,
                   tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Same forward diamond on a spanning projection family."""
    if f.dom != g.dom or f.cod != g.cod:
        return False
    for e in projection_family(f.dom, seed=seed):
        if not equal(diamond_fwd(f, e, tol), diamond_fwd(g, e, tol), tol):
            return False
    return True


def are_contraposed(f: LinMap, g: LinMap, seed: int = 0,
                    tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Forward diamond of f equals backward diamond of g on a family."""
    if f.dom != g.cod or f.cod != g.dom:
        return False
    for e in projection_family(f.dom, seed=seed):
        if not equal(diamond_fwd(f, e, tol), diamond_bwd(g, e, tol), tol):
            return False
    return True


def cp_from_kraus(dom: FdAlgebra, cod: FdAlgebra,
                  ops: Sequence[tuple[int, int, np.ndarray]]) -> LinMap:
    """CP map assembled from per-(domain block, codomain block) Kraus pieces.

    Each entry (i, l, K) with K of shape (dims[i], cod dims[l]) contributes
    a_i -> K* a_i K to codomain block l.
    """
    return LinMap(dom, cod, _sandwich_matrix(dom, cod, [(i, l, k.conj().T, k)
                                                        for i, l, k in ops]))


def random_cp_map(dom: FdAlgebra, cod: FdAlgebra, rng: np.random.Generator,
                  terms: int = 2) -> LinMap:
    ops = []
    for i, n in enumerate(dom.dims):
        for l, m in enumerate(cod.dims):
            for _ in range(terms):
                k = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
                ops.append((i, l, k / np.sqrt(n * m * terms)))
    return cp_from_kraus(dom, cod, ops)


def random_cpu_map(dom: FdAlgebra, cod: FdAlgebra, rng: np.random.Generator,
                   terms: int = 2, tol: ToleranceConfig = DEFAULT_TOL) -> LinMap:
    """Random CP unital map: a random CP map renormalized at the unit."""
    for _ in range(50):
        f = random_cp_map(dom, cod, rng, terms=terms)
        one = apply(f, dom.unit())
        vals = [_eigvalsh(b).min() for b in one.blocks]
        if min(vals) > 1e-3:
            s = functional_calculus(one, lambda lam: max(lam.real, 1e-12) ** -0.5, tol)
            return compose(mult_map(s, s), f)
    raise RuntimeError("could not draw a CP map with invertible unit image")


def random_state(algebra: FdAlgebra, rng: np.random.Generator) -> LinMap:
    """Random normal state as a functional."""
    return functional_from_density(sampling.random_density(algebra, rng))
