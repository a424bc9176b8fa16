"""Reference implementations of the map layer and the tolerance gates.

Each map function here builds or reads a linear map the slow, obvious way:
by applying the map to every canonical basis element, one ``Element`` at a
time.  The library computes the same things from index permutations and
Kronecker products of ``LinMap.matrix``; the differential tests in
``test_map_formulas.py`` hold the two to the same bits and verdicts.

The gate functions decide each tolerance test by an SVD of every block, the
definition the library settles by a Frobenius bound where it can; the tests
in ``test_norm_gates.py`` hold the two to the same verdicts and exceptions.

The ``*_symmetrized`` functions feed the Hermitian eigensolvers
``symmetrize(a)`` where the library passes raw blocks to ``algebra._eigh``;
``test_hermitian_path.py`` holds the two to the same bits, up to signed zeros.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from vnalg.algebra import (_FRO_MARGIN, DEFAULT_TOL, FdAlgebra, _unit_index, adjoint,
                          direct_sum, mul, operator_norm, symmetrize)
from vnalg.algebra import is_self_adjoint as lib_is_self_adjoint
from vnalg.errors import NotFinite, NotNormal
from vnalg.maps import LinMap, apply, make_map
from vnalg.spectral import _apply_block
from vnalg.spectral import is_normal as lib_is_normal
from vnalg.tensor import tensor_algebra, tensor_elements


# ---------------------------------------------------------------------------
# reading a map

def choi_blocks(f):
    dom, cod = f.dom, f.cod
    out = []
    basis_iter = iter(dom.basis())
    for i, n in enumerate(dom.dims):
        units = [[next(basis_iter) for _ in range(n)] for _ in range(n)]
        images = [[apply(f, units[j][k]) for k in range(n)] for j in range(n)]
        pieces = []
        for l, m in enumerate(cod.dims):
            big = np.zeros((n * m, n * m), dtype=complex)
            for j in range(n):
                for k in range(n):
                    big[j * m:(j + 1) * m, k * m:(k + 1) * m] = images[j][k].blocks[l]
            pieces.append(big)
        out.append(scipy.linalg.block_diag(*pieces) if pieces else np.zeros((0, 0)))
    return out


def is_involutive(f, tol=DEFAULT_TOL):
    for e in f.dom.basis():
        lhs = apply(f, adjoint(e))
        rhs = adjoint(apply(f, e))
        if operator_norm(lhs - rhs) > tol.eps_abs + tol.eps_rel * max(
                1.0, float(np.linalg.norm(f.matrix, 2))):
            return False
    return True


def is_multiplicative(f, tol=DEFAULT_TOL):
    basis = f.dom.basis()
    images = [apply(f, e) for e in basis]
    scale = max(1.0, float(np.linalg.norm(f.matrix, 2)) ** 2)
    for ea, fa in zip(basis, images):
        for eb, fb in zip(basis, images):
            if operator_norm(apply(f, mul(ea, eb)) - mul(fa, fb)) > \
                    tol.eps_abs + tol.eps_rel * scale:
                return False
    return True


def map_images(f):
    """The images of the basis elements, as ``jsonio.map_to_json`` read them."""
    return [apply(f, e) for e in f.dom.basis()]


# ---------------------------------------------------------------------------
# building a map

def map_on_simple_tensors(ts_dom, cod, image_fn):
    matrix = np.zeros((cod.dim, ts_dom.product.dim), dtype=complex)
    for ea in ts_dom.left.basis():
        for eb in ts_dom.right.basis():
            dom_el = tensor_elements(ts_dom, ea, eb)
            idx = int(np.argmax(np.abs(dom_el.coords())))
            matrix[:, idx] = image_fn(ea, eb).coords()
    return LinMap(ts_dom.product, cod, matrix)


def tensor_maps(ts_dom, ts_cod, f, g):
    return map_on_simple_tensors(
        ts_dom, ts_cod.product,
        lambda ea, eb: tensor_elements(ts_cod, apply(f, ea), apply(g, eb)))


def braiding(a, b):
    ba = tensor_algebra(b, a)
    return map_on_simple_tensors(tensor_algebra(a, b), ba.product,
                                 lambda ea, eb: tensor_elements(ba, eb, ea))


def left_unitor(a):
    ts = tensor_algebra(FdAlgebra((1,)), a)
    return map_on_simple_tensors(ts, a, lambda ez, ea: complex(ez.blocks[0][0, 0]) * ea)


def right_unitor(a):
    ts = tensor_algebra(a, FdAlgebra((1,)))
    return map_on_simple_tensors(ts, a, lambda ea, ez: complex(ez.blocks[0][0, 0]) * ea)


def multiplication_map(algebra):
    return map_on_simple_tensors(tensor_algebra(algebra, algebra), algebra, mul)


def distributor(a, parts):
    summed = direct_sum(list(parts))
    dom_ts = tensor_algebra(a, summed)
    cod = direct_sum([tensor_algebra(a, p).product for p in parts])
    part_offsets, cod_block_offsets = [], []
    acc = acc2 = 0
    for p in parts:
        part_offsets.append(acc)
        cod_block_offsets.append(acc2)
        acc += p.num_blocks
        acc2 += a.num_blocks * p.num_blocks

    def locate_part(j):
        for li in reversed(range(len(parts))):
            if j >= part_offsets[li]:
                return li, j - part_offsets[li]
        raise IndexError(j)

    images = []
    for blk, n in enumerate(dom_ts.product.dims):
        i, j = divmod(blk, summed.num_blocks)
        l, local_j = locate_part(j)
        dest_block = cod_block_offsets[l] + i * parts[l].num_blocks + local_j
        for r in range(n):
            for c in range(n):
                blocks = [np.zeros((m, m), dtype=complex) for m in cod.dims]
                blocks[dest_block][r, c] = 1.0
                images.append(cod.element(blocks))
    return make_map(dom_ts.product, cod, images)


def transpose_map(algebra):
    return make_map(algebra, algebra,
                    [algebra.element(b.T for b in e.blocks) for e in algebra.basis()])


def block_projection(algebra, j):
    target = FdAlgebra((algebra.dims[j],))
    return make_map(algebra, target,
                    [target.element([e.blocks[j]]) for e in algebra.basis()])


def classical_unit(algebra):
    points = [i for i, n in enumerate(algebra.dims) if n == 1]
    target = FdAlgebra(tuple(1 for _ in points))
    images = []
    for e in algebra.basis():
        images.append(target.element([np.array([[e.blocks[i][0, 0]]]) for i in points]))
    return make_map(algebra, target, images)


def cp_from_kraus(dom, cod, ops):
    images = []
    for e in dom.basis():
        blocks = [np.zeros((m, m), dtype=complex) for m in cod.dims]
        for i, l, k in ops:
            blocks[l] = blocks[l] + k.conj().T @ e.blocks[i] @ k
        images.append(cod.element(blocks))
    return make_map(dom, cod, images)


def corner_maps(parent, corner, kept, isometries):
    """(embed, compress) of a corner, from its per-block range isometries."""
    embed_images = []
    for el in corner.basis():
        blocks = [np.zeros((m, m), dtype=complex) for m in parent.dims]
        for c, (i, v) in enumerate(zip(kept, isometries)):
            blocks[i] = v @ el.blocks[c] @ v.conj().T
        embed_images.append(parent.element(blocks))
    compress_images = []
    for el in parent.basis():
        compress_images.append(corner.element(
            [isometries[c].conj().T @ el.blocks[i] @ isometries[c]
             for c, i in enumerate(kept)]))
    return make_map(corner, parent, embed_images), make_map(parent, corner, compress_images)


# ---------------------------------------------------------------------------
# tolerance gates, decided by an SVD of every block

def svd_norm(a):
    """operator_norm, computed afresh."""
    return max((float(np.linalg.norm(b, 2)) for b in a.blocks), default=0.0)


def equal(a, b, tol=DEFAULT_TOL):
    return svd_norm(a - b) <= tol.eps_abs + tol.eps_rel * max(svd_norm(a), svd_norm(b))


def is_self_adjoint(a, tol=DEFAULT_TOL):
    return svd_norm(a - adjoint(a)) <= tol.eps_abs + tol.eps_rel * max(1.0, svd_norm(a))


def is_positive(a, tol=DEFAULT_TOL):
    if not a.blocks:
        return True
    if not is_self_adjoint(a, tol):
        return False
    bound = -tol.eps_rel * max(1.0, svd_norm(a))
    sym = 0.5 * (a + adjoint(a))
    return all(float(np.linalg.eigvalsh(b).min(initial=np.inf)) >= bound
               for b in sym.blocks if b.size)


def is_normal(a, tol=DEFAULT_TOL):
    d = mul(adjoint(a), a) - mul(a, adjoint(a))
    return svd_norm(d) <= tol.eps_abs + tol.eps_rel * max(1.0, svd_norm(a) ** 2)


def is_projection(p, tol=DEFAULT_TOL):
    return (is_self_adjoint(p, tol)
            and svd_norm(mul(p, p) - p) <= tol.eps_abs + tol.eps_rel * max(1.0, svd_norm(p)))


def below_complement(a, e, tol=DEFAULT_TOL):
    return svd_norm(mul(mul(e, a), e)) <= tol.eps_abs * 100


def _image_blocks(cod, cols):
    return [np.ascontiguousarray(cols[off:off + m * m].T).reshape(-1, m, m)
            for off, m in zip(cod.offsets, cod.dims)]


def _operator_norms(stacks, count):
    out = np.zeros(count)
    for st in stacks:
        out = np.maximum(out, np.linalg.norm(st, 2, axis=(1, 2)))
    return out


def refuse_non_finite(f):
    """An SVD cannot judge a NaN or infinite entry: such maps are refused."""
    if not np.isfinite(f.matrix).all():
        raise NotFinite("the map has a non-finite entry")


def is_involutive_svd(f, tol=DEFAULT_TOL):
    """is_involutive on the index formula, with an SVD of every image block."""
    refuse_non_finite(f)
    thr = tol.eps_abs + tol.eps_rel * max(1.0, float(np.linalg.norm(f.matrix, 2)))
    m = f.matrix
    diff = m[:, _unit_index(f.dom)] - m.conj()[_unit_index(f.cod), :]
    return not np.any(_operator_norms(_image_blocks(f.cod, diff), f.dom.dim) > thr)


def is_multiplicative_svd(f, tol=DEFAULT_TOL):
    """is_multiplicative one domain row at a time, with an SVD of every block."""
    refuse_non_finite(f)
    thr = tol.eps_abs + tol.eps_rel * max(1.0, float(np.linalg.norm(f.matrix, 2)) ** 2)
    images = _image_blocks(f.cod, f.matrix)
    for off, n in zip(f.dom.offsets, f.dom.dims):
        for r, c in np.ndindex(n, n):
            diffs = []
            for img in images:
                want = np.zeros_like(img)
                want[off + c * n:off + c * n + n] = img[off + r * n:off + r * n + n]
                diffs.append(want - img[off + r * n + c] @ img)
            if np.any(_operator_norms(diffs, f.dom.dim) > thr):
                return False
    return True


def functional_calculus(a, f, tol=DEFAULT_TOL):
    """functional_calculus with its snap radius computed up front."""
    hermitian = is_self_adjoint(a, tol)
    snap = tol.snap_eps * max(1.0, svd_norm(a))
    src = 0.5 * (a + adjoint(a)) if hermitian else a
    return a.algebra.element(_apply_block(b, f, lambda d: d <= snap, hermitian)
                             for b in src.blocks)


def sqrt(a, tol=DEFAULT_TOL):
    """sqrt with its clipping bound computed up front."""
    if not is_positive(a, tol):
        raise ValueError("not positive")
    eps = tol.eps_rel * max(1.0, svd_norm(a))

    def f(lam):
        if lam.real < -eps:
            raise ValueError(f"negative eigenvalue {lam.real}")
        return np.sqrt(max(lam.real, 0.0))
    return functional_calculus(a, f, tol)


# ---------------------------------------------------------------------------
# eigensolver inputs as spelled before the one Hermitian eigensolver path:
# symmetrize(a), i.e. 0.5 * (x + x*), and twice over in functional calculus

def is_positive_symmetrized(a, tol=DEFAULT_TOL):
    if not a.blocks:
        return True
    if not lib_is_self_adjoint(a, tol):
        return False
    mins = [float(np.linalg.eigvalsh(b).min(initial=np.inf)) for b in symmetrize(a).blocks]
    return all(m >= -tol.eps_rel for m in mins) or \
        all(m >= -tol.eps_rel * max(1.0, operator_norm(a)) for m in mins)


def spectral_projection_symmetrized(a, predicate):
    blocks = []
    for b in symmetrize(a).blocks:
        vals, vecs = np.linalg.eigh(b)
        keep = np.array([bool(predicate(float(v))) for v in vals])
        v1 = vecs[:, keep]
        blocks.append(v1 @ v1.conj().T)
    return a.algebra.element(blocks)


def functional_calculus_symmetrized(a, f, tol=DEFAULT_TOL):
    if not lib_is_normal(a, tol):
        raise NotNormal("functional calculus needs a normal element")
    hermitian = lib_is_self_adjoint(a, tol)
    high = tol.snap_eps * max(1.0, float(np.linalg.norm(a.coords()))) * (1.0 + _FRO_MARGIN)
    src = symmetrize(a) if hermitian else a
    return a.algebra.element(_apply_block(b, f, lambda d: d <= tol.snap_eps or (
        d <= high and d <= tol.snap_eps * max(1.0, operator_norm(a))), hermitian)
        for b in src.blocks)
