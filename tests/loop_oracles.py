"""Reference implementations of the map layer and the tolerance gates.

Each map function here builds or reads a linear map the slow, obvious way:
by applying the map to every canonical basis element, one ``Element`` at a
time.  The library computes the same things from index permutations and
Kronecker products of ``LinMap.matrix``; the differential tests in
``test_map_formulas.py`` hold the two to the same bits and verdicts.

The gate functions decide each tolerance test by an SVD of every block, the
definition the library settles by a Frobenius bound where it can; the tests
in ``test_norm_gates.py`` hold the two to the same verdicts and exceptions.
The same holds for the norm tests of the other modules, kept below as they
read before they went through ``algebra._norm_gate``.

``project``, ``sub_centre_basis``, ``gns_gram``, ``gns``, ``positive_bands``,
``bracket_loop`` and ``factor_through_filter_loop`` are the structure,
division and corner code as it read before it computed on coordinates: one
inner product, Gram entry, band or corner image at a time;
``test_coordinate_formulas.py`` holds the library to them.

``npos_total`` sums one tuple of the acceptance battery's n-positivity
oracle one ``Element`` at a time, where the battery stacks the tuple into
arrays; ``test_npos_oracle.py`` holds the two to the same draws and verdicts.

``seq_product`` and ``uncurried_ops`` are the sequential product and the
four counterexample operations as they read before they were curried: each
evaluation op(p, q) redoes the work on p; ``test_curried_ops.py`` holds the
axiom checker's reports on the library's curried operations to them, and
the linearizations of ``measurement._linearize_in_q`` to ``linearize_in_q``,
which rebuilds its arguments and sanity effects on every call.

``rank_cut``, ``rank_profile_values``, ``support_svd``, ``polar_svd`` and
``pseudoinverse_pinv`` are the ranked SVDs as they read before they shared
``projections._ranked_svd``: a values-only SVD for ``rank_profile``, a full
SVD and the rank rule for ``support`` and ``polar``, and ``numpy.linalg.pinv``
behind a ``_norm_gate`` zero test for ``pseudoinverse``;
``test_ranked_svd.py`` holds the library to them.

``sqrt_iterative`` and ``eigen_oracle_charpoly`` compute roots and
eigenvalues without an eigensolver, for ``test_spectral.py``.

The ``*_symmetrized`` functions feed the Hermitian eigensolvers
``symmetrize(a)`` where the library passes raw blocks to ``algebra._eigh``;
``test_hermitian_path.py`` holds the two to the same bits, up to signed zeros.
``hermitian_part`` and ``real_part`` are the Hermitian parts as spelled before
the library halved each entry first, so that no finite entry overflows;
``test_hermitian_path.py`` holds the library to their bits.

``is_positive_uncached`` and ``is_effect_uncached`` are the positivity and
effect tests as they read before each element kept its Hermitian
decomposition: eigvalsh decides every positivity test, and 1 - a is built
and tested for the upper bound of an effect.  ``ceiling_uncached``,
``floor_uncached``, ``snap_uncached`` and ``calculus_uncached`` run
``algebra._eigh`` on each block themselves; ``test_eig_cache.py`` holds the
library, with its decomposition cached or not, to their verdicts and bytes.
``linearize_in_q_elements`` is ``measurement._linearize_in_q`` as it read
before it formed its difference quotients on one coordinate matrix: eight
``Element`` operations per basis element, on the same probe table.

``apply_block_mean`` is ``spectral._apply_block`` as it read before it halved
a cluster's eigenvalues before averaging them: the plain mean, whose sum
overflows on a pair of eigenvalues near the float limit; ``test_spectral.py``
holds the library to its centres and bits wherever that mean is finite.
``functional_calculus_schur`` is functional calculus on a non-Hermitian
normal element as it read before the library diagonalized such blocks with
``numpy.linalg.eig`` and one QR: the complex Schur form from scipy, whose
unitary Schur vectors need no QR; ``test_eig_route.py`` holds the library
to it within stated bounds on a seeded sweep.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from vnalg.algebra import (_FRO_MARGIN, DEFAULT_TOL, FdAlgebra, _eigh, _eigvalsh, _norm_gate,
                          _require_finite, _unit_index, add, adjoint, direct_sum, hs_inner,
                          is_effect, mul, operator_norm, orthosupplement, symmetrize)
from vnalg.algebra import equal as lib_equal
from vnalg.algebra import imag_part
from vnalg.algebra import is_positive as lib_is_positive
from vnalg.algebra import is_self_adjoint as lib_is_self_adjoint
from vnalg.division import ApproxPseudoinverse, PolarParts
from vnalg.division import pseudoinverse as lib_pseudoinverse
from vnalg.errors import (CarrierViolated, FilterBoundViolated, FunctionUndefinedOnSpectrum,
                          NotEffect, NotFinite, NotNormal, NotPositive, NotProjection)
from vnalg.maps import LinMap, _unit_image, apply, carrier, compose, is_unital, make_map
from vnalg.maps import choi_blocks as lib_choi_blocks
from vnalg.measurement import BinOpSpec, _probes, _sign_above_half, bracket, corner_algebra
from vnalg.projections import _require_projections, _span, ceiling, floor, left_mult_matrix
from vnalg.sampling import random_effect, random_element
from vnalg.spectral import _NAMED, _apply_block, _cluster, _exp_phase, _pow
from vnalg.spectral import functional_calculus as lib_functional_calculus
from vnalg.spectral import is_normal as lib_is_normal
from vnalg.spectral import sqrt as lib_sqrt
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


def eigenpairs(b, hermitian):
    """One block's eigenvalues and eigenvectors, as ``spectral._calculus``
    takes them: ``algebra._eigh`` when Hermitian, else ``numpy.linalg.eig``."""
    return _eigh(b) if hermitian else np.linalg.eig(b)


def functional_calculus(a, f, tol=DEFAULT_TOL):
    """functional_calculus with its snap radius computed up front."""
    hermitian = is_self_adjoint(a, tol)
    snap = tol.snap_eps * max(1.0, svd_norm(a))
    src = 0.5 * (a + adjoint(a)) if hermitian else a
    return a.algebra.element(_apply_block(*eigenpairs(b, hermitian), f, lambda d: d <= snap,
                                          hermitian) for b in src.blocks)


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
# the Hermitian parts as spelled before each entry was halved first

def hermitian_part(b):
    """(b + b*) / 2, the input of the Hermitian eigensolvers."""
    return (b + b.conj().T) / 2


def real_part(a):
    return a.algebra.element([0.5 * (x + x.conj().T) for x in a.blocks])


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
    return a.algebra.element(_apply_block(*eigenpairs(b, hermitian), f, lambda d: (
        d <= tol.snap_eps or d <= high and d <= tol.snap_eps * max(1.0, operator_norm(a))),
        hermitian) for b in src.blocks)


# ---------------------------------------------------------------------------
# the norm tests of the other modules, with an SVD of every operand computed
# up front.  Where the old test read "norm > threshold", it is spelled
# "not norm <= threshold" here: an infinite entry gives a NaN norm, which the
# old comparison read as within the threshold and the gate reads as over it.

def _finite_norm(m):
    if not np.isfinite(m).all():
        raise NotFinite("the map has a non-finite entry")
    return float(np.linalg.norm(m, 2))


def maps_equal(f, g, tol=DEFAULT_TOL):
    if f.dom != g.dom or f.cod != g.cod:
        return False
    refuse_non_finite(f)
    refuse_non_finite(g)
    if f.dom.dim == 0:
        return True
    nf = float(np.linalg.norm(f.matrix, 2))
    ng = float(np.linalg.norm(g.matrix, 2))
    return float(np.linalg.norm(f.matrix - g.matrix, 2)) <= tol.threshold(max(nf, ng))


def is_completely_positive(f, tol=DEFAULT_TOL):
    for cb in lib_choi_blocks(f):
        if cb.matrix.size == 0:
            continue
        m = cb.matrix
        scale = _finite_norm(m)
        if float(np.linalg.norm(m - m.conj().T, 2)) > tol.threshold(scale):
            return False
        if float(np.linalg.eigvalsh((m + m.conj().T) / 2).min()) < tol.positivity_floor(scale):
            return False
    return True


def central_support(a, tol=DEFAULT_TOL):
    thr = tol.threshold(svd_norm(a))
    blocks = []
    for b in a.blocks:
        on = not float(np.linalg.norm(b, 2)) <= thr
        blocks.append(np.eye(b.shape[0]) if on else np.zeros(b.shape))
    return a.algebra.element(blocks)


def is_central(a, tol=DEFAULT_TOL):
    # A block trace that overflows, or meets a non-finite entry, is NotFinite.
    with np.errstate(over="ignore", invalid="ignore"):
        if not all(np.isfinite(np.trace(b)) for b in a.blocks):
            raise NotFinite("the trace has a non-finite entry")
    thr = tol.threshold(svd_norm(a))
    for b in a.blocks:
        n = b.shape[0]
        lam = np.trace(b) / n
        if not float(np.linalg.norm(b - lam * np.eye(n), 2)) <= thr:
            return False
    return True


def central_support_partition(e, tol=DEFAULT_TOL):
    _require_projections([e], tol)
    if svd_norm(e) <= tol.eps_abs:
        raise NotProjection("central_support_partition needs a nonzero projection")
    pieces = []
    for i, b in enumerate(e.blocks):
        n = b.shape[0]
        vals, vecs = _eigh(b)
        r = int(np.sum(vals > 0.5))
        if r == 0:
            continue
        for start in range(0, n, r):
            cols = vecs[:, start:start + r]
            pieces.append(e.algebra._block_element(i, cols @ cols.conj().T))
    return pieces


def pseudoinverse(a, tol=DEFAULT_TOL):
    if not all(np.isfinite(b).all() for b in a.blocks):
        # LAPACK's full SVD of a block with an infinite entry can spin forever
        raise NotFinite("the element has a non-finite entry")
    blocks = []
    for b in a.blocks:
        if float(np.linalg.norm(b, 2)) <= tol.eps_abs:
            blocks.append(np.zeros_like(b))
            continue
        blocks.append(np.linalg.pinv(b, rcond=tol.snap_eps))
    return a.algebra.element(blocks)


def reconstruction_ok(lhs, rhs, tol=DEFAULT_TOL):
    scale = max(1.0, svd_norm(rhs))
    return svd_norm(lhs - rhs) <= tol.eps_abs + 10 * tol.snap_eps * scale


def factor_through_corner(f, e, tol=DEFAULT_TOL):
    refuse_non_finite(f)
    img = apply(f, orthosupplement(e))
    scale = max(1.0, float(np.linalg.norm(f.matrix, 2)))
    if not svd_norm(img) <= tol.eps_abs + 100 * tol.eps_rel * scale:
        raise CarrierViolated("f does not vanish on the complement of e")
    return compose(f, corner_algebra(e, tol).embed)


def is_pure(f, tol=DEFAULT_TOL):
    if not is_completely_positive(f, tol):
        return False
    if svd_norm(_unit_image(f)) <= tol.eps_abs:
        return True
    br = bracket(f, tol)
    if not is_unital(br, tol):
        return False
    if br.dom.dim != br.cod.dim:
        return False
    if br.dom.dim == 0:
        return True
    svals = np.linalg.svd(br.matrix, compute_uv=False)
    if svals[-1] < tol.snap_eps:
        return False
    return is_completely_positive(LinMap(br.cod, br.dom, np.linalg.inv(br.matrix)), tol)


def contains(sub, a, tol=DEFAULT_TOL):
    """``StarSubalgebra.contains``."""
    resid = a - project(sub, a)
    scale = max(1.0, svd_norm(a))
    return svd_norm(resid) <= tol.eps_abs + 1e3 * tol.eps_rel * scale


def close(d, ref, rel):
    """The acceptance battery's relative check."""
    return svd_norm(d) <= rel * (1.0 + svd_norm(ref))


def npos_total(f, t, max_len, rng):
    """Tuple t of ``suite._npos_oracle``, summed one ``Element`` at a time:
    its draws and sum_ij b_i* f(a_i* a_j) b_j."""
    alg, cod = f.dom, f.cod
    if t % 2 == 0:
        n = int(rng.integers(1, max_len + 1))
        avec = [random_element(alg, rng) for _ in range(n)]
    else:
        i = int(rng.integers(0, alg.num_blocks))
        ni = alg.dims[i]
        n = min(max_len, ni * ni)
        u = rng.standard_normal(ni) + 1j * rng.standard_normal(ni)
        u /= np.linalg.norm(u)
        avec = []
        for _ in range(n):
            x = rng.standard_normal(ni) + 1j * rng.standard_normal(ni)
            avec.append(alg._block_element(i, np.outer(u, x.conj())))
    bvec = [random_element(cod, rng) for _ in range(n)]
    total = cod.zero()
    for i in range(n):
        for j in range(n):
            total = add(total, mul(mul(adjoint(bvec[i]),
                                       apply(f, mul(adjoint(avec[i]), avec[j]))),
                                   bvec[j]))
    return total


# ---------------------------------------------------------------------------
# structure, division and corners, one basis element at a time

def project(sub, a):
    """``StarSubalgebra.project``: k Hilbert-Schmidt inner products, then their
    combination of the basis added left to right onto zero."""
    coeffs = np.array([hs_inner(b, a) for b in sub.basis])
    out = sub.ambient.zero()
    for c, b in zip(coeffs, sub.basis):
        out = add(out, c * b)
    return out


def sub_centre_basis(sub, tol=DEFAULT_TOL):
    """``structure._sub_centre_basis``, with k² + k left-multiplication matrices."""
    if sub.dim == 0:
        return []
    rows = []
    for b in sub.basis:
        lb = left_mult_matrix(b)
        rows.append(np.column_stack([
            (lb @ x.coords()) - (left_mult_matrix(x) @ b.coords())
            for x in sub.basis]))
    vh, rank = _span(np.vstack(rows), tol)
    out = []
    for row in vh[rank:].conj():
        el = sub.ambient.zero()
        for c, b in zip(row, sub.basis):
            el = add(el, c * b)
        out.append(el)
    return out


def gns_gram(omega):
    """The GNS Gram matrix G[x, y] = omega(x* y), from d² products."""
    basis = omega.dom.basis()
    gram = np.zeros((omega.dom.dim, omega.dom.dim), dtype=complex)
    row = omega.matrix[0]
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            gram[i, j] = row @ mul(adjoint(x), y).coords()
    return gram


def gns(omega, tol=DEFAULT_TOL):
    """``structure.gns`` without its positivity check, on ``gns_gram``:
    (hilbert_dim, eta, rep)."""
    alg = omega.dom
    basis = alg.basis()
    vals, vecs = _eigh(gns_gram(omega))
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
    return hdim, eta, make_map(alg, rep_target, images)


def positive_bands(a, tol=DEFAULT_TOL):
    """``division._positive_bands``, scanning every band of the 1/n grid from
    n = 0 until the smallest eigenvalue above the cut is captured."""
    alg = a.algebra
    eigpairs = [_eigh(b) for b in a.blocks]
    cut = tol.snap_radius(operator_norm(a))
    positive_vals = [v for vals, _ in eigpairs for v in vals if v > cut]
    if not positive_vals:
        return ApproxPseudoinverse((), ())
    lam_min = min(positive_vals)
    terms, bands = [], []
    n = 0
    while True:
        lo = 1.0 / (n + 1)
        hi = np.inf if n == 0 else 1.0 / n
        blocks = [np.zeros_like(b) for b in a.blocks]
        nonzero = False
        for i, (vals, vecs) in enumerate(eigpairs):
            sel = (vals > cut) & (vals >= lo) & (vals < hi)
            if np.any(sel):
                v = vecs[:, sel]
                inv = np.diag(1.0 / vals[sel])
                blocks[i] = v @ inv @ v.conj().T
                nonzero = True
        if nonzero:
            terms.append(alg.element(blocks))
            bands.append((lo, float(hi) if np.isfinite(hi) else float("inf")))
        if lo <= lam_min:
            break
        n += 1
    return ApproxPseudoinverse(tuple(terms), tuple(bands))


def bracket_loop(f, tol=DEFAULT_TOL):
    """``measurement.bracket``, with its own corner-quotient loop."""
    car = carrier(f, tol)
    one_sym = symmetrize(_unit_image(f))
    dom_ctx = corner_algebra(car, tol)
    cod_ctx = corner_algebra(ceiling(one_sym, tol), tol)
    pinv_root = lib_pseudoinverse(lib_sqrt(one_sym, tol), tol)
    images = []
    for b in dom_ctx.corner.basis():
        y = mul(mul(pinv_root, apply(f, apply(dom_ctx.embed, b))), pinv_root)
        images.append(apply(cod_ctx.compress, y))
    return make_map(dom_ctx.corner, cod_ctx.corner, images)


def factor_through_filter_loop(f, d, tol=DEFAULT_TOL):
    """``measurement.factor_through_filter``, with its own corner-quotient
    loop; the root is taken before the ceiling."""
    bound = mul(adjoint(d), d)
    if not lib_is_positive(bound - _unit_image(f), tol):
        raise FilterBoundViolated("f(1) is not below d*d")
    bound_sym = symmetrize(bound)
    pinv_root = lib_pseudoinverse(lib_sqrt(bound_sym, tol), tol)
    ctx = corner_algebra(ceiling(bound_sym, tol), tol)
    images = []
    for b in f.dom.basis():
        y = mul(mul(pinv_root, apply(f, b)), pinv_root)
        images.append(apply(ctx.compress, y))
    return make_map(f.dom, ctx.corner, images)


# ---------------------------------------------------------------------------
# the effect operations, uncurried

def seq_product(p, q, tol=DEFAULT_TOL):
    """``measurement.seq_product``: both operands judged, then sqrt(p) q sqrt(p)."""
    if not (is_effect(p, tol) and is_effect(q, tol)):
        raise NotEffect("sequential product needs effects")
    root = lib_sqrt(p, tol)
    return mul(mul(root, q), root)


def uncurried_ops(tol=DEFAULT_TOL):
    """``measurement.standard_op`` and ``counterexample_ops``, each op(p, q)
    computed in full on every call: ``at(p)`` only binds p."""

    def op_ceil(p, q):
        c = ceiling(p, tol)
        return mul(mul(c, q), c)

    def op_floorsplit(p, q):
        fl = floor(p, tol)
        rest = p - fl
        root = lib_sqrt(symmetrize(rest), tol)
        return mul(mul(fl, q), fl) + mul(mul(root, q), root)

    def conjugated_product(g):
        def op(p, q):
            u = lib_functional_calculus(p, g, tol)
            root = lib_sqrt(p, tol)
            inner = mul(mul(adjoint(u), q), u)
            return mul(mul(root, inner), root)
        return op

    def spec(name, body, d_witness, target_axiom):
        return BinOpSpec(name, lambda p: lambda q: body(p, q), d_witness, target_axiom)

    def root(p):
        return lib_sqrt(p, tol)
    return [
        spec("std", lambda p, q: seq_product(p, q, tol), root, None),
        spec("ceil", op_ceil, lambda p: p, "A"),
        spec("floorsplit", op_floorsplit, root, "B"),
        spec("sign", conjugated_product(_sign_above_half), root, "C"),
        spec("phase", conjugated_product(_exp_phase), root, "E"),
    ]


def linearize_in_q(op_p, alg, tol=DEFAULT_TOL):
    """``measurement._linearize_in_q``, keying each image on the bytes of its
    argument within one call and drawing its four sanity effects per call."""
    images = {}

    def image(q):
        key = tuple(b.tobytes() for b in q.blocks)
        if key not in images:
            images[key] = op_p(q)
        return images[key]

    lo = image(alg.scalar(0.5))
    half = 0.5 * alg.unit()

    def on_self_adjoint(h):
        norm = operator_norm(h)
        scale = 1.0 if norm == 0.0 else 0.25 / norm
        return (1.0 / scale) * (image(half + scale * h) - lo)

    f = make_map(alg, alg, [on_self_adjoint(symmetrize(e)) + 1j * on_self_adjoint(imag_part(e))
                            for e in alg.basis()])
    rng = np.random.default_rng(7)
    for _ in range(4):
        q = random_effect(alg, rng)
        if not lib_equal(apply(f, q), op_p(q), tol):
            return None
    return f


def linearize_in_q_elements(op_p, alg, tol=DEFAULT_TOL):
    """``measurement._linearize_in_q`` on its probe table, one basis element
    at a time in ``Element`` arithmetic."""
    args, (index, inverse), sanity = _probes(alg)
    images = [op_p(q) for q in args]
    lo = images[0]
    f = make_map(alg, alg, [float(hi) * (images[h] - lo) + 1j * (float(si) * (images[s] - lo))
                            for (h, s), (hi, si) in zip(index, inverse[..., 0])])
    return f if all(lib_equal(apply(f, q), op_p(q), tol) for q in sanity) else None


# ---------------------------------------------------------------------------
# the spectral sites, each running its own eigensolver

def is_positive_uncached(a, tol=DEFAULT_TOL):
    if not lib_is_self_adjoint(a, tol):
        return False
    mins = [float(_eigvalsh(b)[0]) for b in a.blocks]
    return all(m >= tol.positivity_floor() for m in mins) or \
        all(m >= tol.positivity_floor(operator_norm(a)) for m in mins)


def is_effect_uncached(a, tol=DEFAULT_TOL):
    return is_positive_uncached(a, tol) and is_positive_uncached(orthosupplement(a), tol)


def _projection_onto(a, predicate):
    blocks = []
    for b in a.blocks:
        vals, vecs = _eigh(b)
        keep = np.array([bool(predicate(float(v))) for v in vals])
        v1 = vecs[:, keep]
        blocks.append(v1 @ v1.conj().T)
    return a.algebra.element(blocks)


def ceiling_uncached(a, tol=DEFAULT_TOL):
    if not is_positive_uncached(a, tol):
        raise NotPositive("ceiling needs a positive element")
    norm = operator_norm(a)
    if norm <= tol.eps_abs:
        return a.algebra.zero()
    return _projection_onto(a, lambda v: v > tol.snap_eps * norm)


def floor_uncached(a, tol=DEFAULT_TOL):
    if not is_effect_uncached(a, tol):
        raise NotEffect("floor needs an effect")
    return _projection_onto(a, lambda v: v >= 1.0 - tol.snap_eps)


def snap_uncached(p, tol=DEFAULT_TOL):
    blocks = []
    for b in p.blocks:
        vals, vecs = _eigh(b)
        if np.any((vals > tol.snap_eps) & (vals < 1.0 - tol.snap_eps)):
            raise NotProjection("eigenvalues too far from {0,1} to snap")
        v1 = vecs[:, vals >= 0.5]
        blocks.append(v1 @ v1.conj().T)
    return p.algebra.element(blocks)


def calculus_uncached(a, f, tol=DEFAULT_TOL):
    """``spectral._calculus`` on a self-adjoint element, one eigh per block."""
    low = tol.snap_radius()
    with np.errstate(over="ignore"):
        high = tol.snap_radius(float(np.linalg.norm(a.coords()))) * (1.0 + _FRO_MARGIN)
    return a.algebra.element(_apply_block(*_eigh(b), f, lambda d: d <= low or (
        d <= high and d <= tol.snap_radius(operator_norm(a))), True) for b in a.blocks)


def sqrt_uncached(a, tol=DEFAULT_TOL):
    if not is_positive_uncached(a, tol):
        raise NotPositive("sqrt needs a positive element")
    return calculus_uncached(a, _NAMED["sqrt"], tol)


def power_uncached(a, alpha, tol=DEFAULT_TOL):
    if not is_positive_uncached(a, tol):
        raise NotPositive("power needs a positive element")
    return calculus_uncached(a, _pow(alpha), tol)


# ---------------------------------------------------------------------------
# ranked SVDs, each with its own SVD and rank rule

def rank_cut(s, tol=DEFAULT_TOL):
    """The number of singular values ``s`` (descending) above snap_eps times
    the largest; none when the largest is at most eps_abs."""
    if s.size == 0 or s[0] <= tol.eps_abs:
        return 0
    if not np.isfinite(s[0]):
        raise NotFinite("the largest singular value overflows")
    return int(np.sum(s > tol.snap_eps * s[0]))


def rank_profile_values(a, tol=DEFAULT_TOL):
    return tuple(rank_cut(np.linalg.svd(b, compute_uv=False), tol) for b in a.blocks)


def support_svd(a, tol=DEFAULT_TOL):
    blocks = []
    for b in a.blocks:
        _require_finite(b, "element")
        _, s, vh = np.linalg.svd(b)
        v = vh[:rank_cut(s, tol)].conj().T
        blocks.append(v @ v.conj().T)
    return a.algebra.element(blocks)


def polar_svd(a, tol=DEFAULT_TOL):
    iso_blocks, mod_blocks = [], []
    for b in a.blocks:
        _require_finite(b, "element")
        u, s, vh = np.linalg.svd(b)
        r = rank_cut(s, tol)
        iso_blocks.append(u[:, :r] @ vh[:r])
        mod_blocks.append(vh.conj().T @ np.diag(s) @ vh)
    alg = a.algebra
    return PolarParts(alg.element(iso_blocks), alg.element(mod_blocks))


def pseudoinverse_pinv(a, tol=DEFAULT_TOL):
    blocks = []
    for b in a.blocks:
        _require_finite(b, "element")
        zero = _norm_gate([b], tol.eps_abs, lambda: tol.eps_abs)
        inv = np.zeros_like(b) if zero else np.linalg.pinv(b, rcond=tol.snap_eps)
        if not (zero or inv.any()):  # pinv cuts every singular value below an infinite one
            raise NotFinite("the largest singular value overflows")
        blocks.append(inv)
    return a.algebra.element(blocks)


# ---------------------------------------------------------------------------
# roots and eigenvalues without an eigensolver

def sqrt_iterative(a, iterations=200, tol=DEFAULT_TOL):
    """Square root through the fixed-point iteration b <- (c + b^2)/2.

    For an effect c the iteration converges to b with (1 - b)^2 = 1 - c.
    Positive input is rescaled to an effect first.
    """
    if not lib_is_positive(a, tol):
        raise NotPositive("sqrt_iterative needs a positive element")
    norm = operator_norm(a)
    if norm == 0.0:
        return a.algebra.zero()
    scaled = (1.0 / norm) * a
    c = a.algebra.unit() - scaled
    b = a.algebra.zero()
    for _ in range(iterations):
        b = 0.5 * (c + mul(b, b))
    return float(np.sqrt(norm)) * (a.algebra.unit() - b)


def eigen_oracle_charpoly(matrix):
    """Roots of the characteristic polynomial.

    Independent of the eigensolver route used by ``spectrum``: builds the
    characteristic polynomial coefficients recursively (Faddeev-LeVerrier)
    and calls the companion-matrix root finder.
    """
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        mk = m @ mk
        coeffs[k] = -np.trace(mk) / k
        mk += coeffs[k] * np.eye(n)
    return [complex(r) for r in np.roots(coeffs)]


# ---------------------------------------------------------------------------
# a cluster's centre as the plain mean of its eigenvalues

def apply_block_mean(b, f, near, hermitian):
    vals, vecs = eigenpairs(b, hermitian)
    vals = vals.astype(complex)
    out_vals = np.empty(len(vals), dtype=complex)
    clusters = _cluster(vals, near)
    for members in clusters:
        center = np.mean(vals[members])
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


# ---------------------------------------------------------------------------
# functional calculus of a normal element through the complex Schur form

def functional_calculus_schur(a, f, tol=DEFAULT_TOL):
    """``functional_calculus`` of a normal element as it read while
    ``scipy.linalg.schur`` diagonalized each non-Hermitian block: the unitary
    Schur vectors take f at each cluster's centre, with no QR."""
    if not lib_is_normal(a, tol):
        raise NotNormal("functional calculus needs a normal element")
    snap = tol.snap_radius(operator_norm(a))
    blocks = []
    for b in a.blocks:
        t, vecs = scipy.linalg.schur(b, output="complex")
        vals = np.diag(t)
        out_vals = np.empty(len(vals), dtype=complex)
        for members in _cluster(vals, lambda d: d <= snap):
            out_vals[members] = f(2 * np.mean(0.5 * vals[members]))
        blocks.append(vecs @ np.diag(out_vals) @ vecs.conj().T)
    return a.algebra.element(blocks)
