"""Tolerance gates settled by a Frobenius bound, held to their SVD definitions.

A gate passes with no SVD when every block's Frobenius norm clears the
threshold by a margin.  These tests require the verdict (or the exception)
of an SVD of every block, as ``loop_oracles`` decides it: at scales 1e-8, 1
and 1e8; at 0.5x, (1 -+ 1e-12)x and 2x each threshold; on rank-one defects,
where ||x||_2 = ||x||_F; and with NaN and inf entries.  The norm tests of
the other modules (map equality and complete positivity, central supports,
zero tests, reconstruction and membership checks, the battery's relative
check) are held to their old SVD bodies the same way.  The last tests pin
the work the gates, the unchecked arithmetic constructor and the square-root
memo save, as SVD and eigh counts.
"""

import copy
import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_oracles as oracle
from vnalg import (adjoint, conjugation_map, equal, functional_calculus, is_involutive,
                   is_multiplicative, is_positive, is_self_adjoint, make_algebra,
                   operator_norm, seq_product, sqrt)
from vnalg.algebra import DEFAULT_TOL, Element, ToleranceConfig, symmetrize
from vnalg.division import _reconstruction_ok, pseudoinverse
from vnalg.errors import NotPositive
from vnalg.maps import (LinMap, choi_blocks, is_completely_positive, maps_equal,
                        random_cp_map)
from vnalg.measurement import _below_complement, factor_through_corner, is_pure
from vnalg.projections import (central_support, central_support_partition, centre,
                               is_central, is_projection)
from vnalg.sampling import random_effect, random_projection, random_unitary
from vnalg.spectral import is_normal
from vnalg.structure import StarSubalgebra
from vnalg.suite import _close
from vnalg.tensor import tensor_algebra

SETTINGS = settings(derandomize=True, deadline=None, max_examples=20)
TOL = DEFAULT_TOL
dims = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(make_algebra)
scales = st.sampled_from([1e-8, 1.0, 1e8])
FACTORS = (0.5, 1 - 1e-12, 1 + 1e-12, 2.0)
seeds = st.integers(0, 2**32 - 1)
# a non-finite entry: (value, in the imaginary part)
poison = st.tuples(st.sampled_from([np.nan, np.inf, -np.inf]), st.booleans())


def outcome(fn, *args):
    """fn(*args), or the type of what it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return fn(*args)
        except Exception as exc:
            return type(exc)


def agree(got, want, *args):
    assert outcome(got, *args) == outcome(want, *args)


def rank_one(alg, rng, scale=1.0):
    """(block index, a unit vector u in it) and blocks of a random element."""
    i = int(rng.integers(alg.num_blocks))
    u = rng.standard_normal(alg.dims[i]) + 1j * rng.standard_normal(alg.dims[i])
    blocks = [scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
              for n in alg.dims]
    return i, u / np.linalg.norm(u), blocks


def hermitian_blocks(alg, rng, scale):
    _, _, blocks = rank_one(alg, rng, scale)
    return [b + b.conj().T for b in blocks]


def with_entry(a, value, imag, rng):
    """a with one entry replaced by a non-finite value."""
    blocks = [np.array(b) for b in a.blocks]
    i = int(rng.integers(len(blocks)))
    r, c = rng.integers(blocks[i].shape[0], size=2)
    blocks[i][r, c] = complex(0.0, value) if imag else complex(value, 0.0)
    return a.algebra.element(blocks)


# ---------------------------------------------------------------------------
# element gates

@SETTINGS
@given(dims, scales, seeds)
def test_is_self_adjoint_matches_svd_at_threshold(alg, scale, seed):
    rng = np.random.default_rng(seed)
    h = alg.element(hermitian_blocks(alg, rng, scale))
    i, u, _ = rank_one(alg, rng)
    thr = TOL.eps_abs + TOL.eps_rel * max(1.0, oracle.svd_norm(h))
    for factor in FACTORS:
        # a - a* = 2t uu* is rank one, with norm 2t
        a = h + alg._block_element(i, 1j * factor * thr / 2 * np.outer(u, u.conj()))
        assert is_self_adjoint(a) == oracle.is_self_adjoint(a)
        assert is_positive(a) == oracle.is_positive(a)


@SETTINGS
@given(dims, scales, seeds)
def test_is_positive_matches_svd_at_threshold(alg, scale, seed):
    rng = np.random.default_rng(seed)
    i = int(rng.integers(alg.num_blocks))
    for factor in FACTORS:
        blocks = []
        for j, n in enumerate(alg.dims):
            q = random_unitary(make_algebra([n]), rng).blocks[0]
            vals = scale * rng.uniform(0.0, 1.0, n)
            vals[0] = scale
            if j == i and n > 1:
                # one rank-one negative part, at factor times the bound
                vals[-1] = -factor * TOL.eps_rel * max(1.0, scale)
            blocks.append((q * vals) @ q.conj().T)
        a = symmetrize(alg.element(blocks))
        assert is_positive(a) == oracle.is_positive(a)


@SETTINGS
@given(dims, scales, seeds, st.booleans())
def test_equal_matches_svd_at_threshold(alg, scale, seed, cached):
    rng = np.random.default_rng(seed)
    i, u, blocks = rank_one(alg, rng, scale)
    a = alg.element(blocks)
    v = rng.standard_normal(alg.dims[i]) + 0j
    thr = TOL.eps_abs + TOL.eps_rel * oracle.svd_norm(a)
    for factor in FACTORS:
        b = a + alg._block_element(i, factor * thr * np.outer(u, v / np.linalg.norm(v)))
        if cached:
            operator_norm(a), operator_norm(b)
        assert equal(a, b) == oracle.equal(a, b)
        assert equal(b, a) == oracle.equal(b, a)


@SETTINGS
@given(dims, scales, seeds)
def test_is_normal_matches_svd_at_threshold(alg, scale, seed):
    rng = np.random.default_rng(seed)
    i, u, _ = rank_one(alg, rng)
    blocks = []
    for n in alg.dims:
        q = random_unitary(make_algebra([n]), rng).blocks[0]
        vals = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        blocks.append((q * vals) @ q.conj().T)
    nrm = max(np.linalg.norm(b, 2) for b in blocks)
    e = np.outer(u, np.roll(u, 1).conj())
    x = blocks[i]
    d = x.conj().T @ e + e.conj().T @ x - x @ e.conj().T - e @ x.conj().T
    thr = TOL.eps_abs + TOL.eps_rel * max(1.0, nrm ** 2)
    # to first order, ||[a*, a]|| = eps ||d||; in M1 everything commutes
    dn = np.linalg.norm(d, 2)
    for factor in FACTORS:
        eps = factor * thr / dn if dn > 1e-6 * scale else factor * scale
        a = alg.element(blocks) + alg._block_element(i, eps * e)
        assert is_normal(a) == oracle.is_normal(a)


@SETTINGS
@given(dims, scales, seeds)
def test_is_projection_matches_svd_at_threshold(alg, scale, seed):
    rng = np.random.default_rng(seed)
    i, u, _ = rank_one(alg, rng)
    p = random_projection(alg, rng)
    thr = TOL.eps_abs + TOL.eps_rel
    for factor in FACTORS:
        for q in (p + alg._block_element(i, factor * thr * np.outer(u, u.conj())), scale * p):
            assert is_projection(q) == oracle.is_projection(q)


@SETTINGS
@given(dims, scales, seeds)
def test_below_complement_matches_svd_at_threshold(alg, scale, seed):
    rng = np.random.default_rng(seed)
    e = random_projection(alg, rng)
    i = int(rng.integers(alg.num_blocks))
    cols = e.blocks[i]
    v = cols[:, int(np.argmax(np.linalg.norm(cols, axis=0)))]
    v = v / max(np.linalg.norm(v), 1e-300)
    for factor in FACTORS:
        # e a e = t vv* when v lies in the range of e: rank one, at factor times
        # 100 eps_abs, read at the given scale
        a = alg.unit() - e + alg._block_element(
            i, factor * 100 * TOL.eps_abs / scale * np.outer(v, v.conj()))
        assert _below_complement(scale * a, e, TOL) == \
            oracle.below_complement(scale * a, e, TOL)


@SETTINGS
@given(dims, scales, seeds, poison)
def test_element_gates_match_svd_on_non_finite_entries(alg, scale, seed, bad):
    rng = np.random.default_rng(seed)
    h = alg.element(hermitian_blocks(alg, rng, scale))
    a = with_entry(h, *bad, rng)
    for got, want in ((is_self_adjoint, oracle.is_self_adjoint),
                      (is_positive, oracle.is_positive), (is_normal, oracle.is_normal),
                      (is_projection, oracle.is_projection)):
        agree(got, want, a)
    agree(equal, oracle.equal, a, h)
    agree(equal, oracle.equal, h, a)
    agree(lambda x, y: _below_complement(x, y, TOL),
          lambda x, y: oracle.below_complement(x, y, TOL), a, alg.unit())


@SETTINGS
@given(dims, scales, seeds)
def test_functional_calculus_matches_eager_snap_radius(alg, scale, seed):
    # Two eigenvalues at factor times the snap radius apart: merged below it,
    # kept apart above it; the result must match bit for bit either way.
    rng = np.random.default_rng(seed)
    for factor in FACTORS:
        blocks = []
        for n in alg.dims:
            q = random_unitary(make_algebra([n]), rng).blocks[0]
            vals = scale * rng.uniform(0.0, 1.0, n)
            vals[0] = scale
            if n > 1:
                vals[1] = scale + factor * TOL.snap_eps * max(1.0, scale)
            blocks.append((q * vals) @ q.conj().T)
        a = symmetrize(alg.element(blocks))
        got, want = sqrt(a), oracle.sqrt(a)
        assert all(np.array_equal(x, y) for x, y in zip(got.blocks, want.blocks))
        cube = lambda lam: lam ** 3  # noqa: E731
        got, want = functional_calculus(a, cube), oracle.functional_calculus(a, cube)
        assert all(np.array_equal(x, y) for x, y in zip(got.blocks, want.blocks))


# ---------------------------------------------------------------------------
# map gates

def _conjugation(alg, rng, scale):
    return scale * conjugation_map(random_unitary(alg, rng))


def _with_image_entry(f, k, value):
    """f with ``value`` added at the first coordinate of a random image: a rank-one defect."""
    matrix = np.array(f.matrix)
    matrix[0, k] += value
    return LinMap(f.dom, f.cod, matrix)


@SETTINGS
@given(dims, scales, seeds)
def test_map_gates_match_svd_at_threshold(alg, scale, seed):
    rng = np.random.default_rng(seed)
    f = _conjugation(alg, rng, scale)
    norm = float(np.linalg.norm(f.matrix, 2))
    for k in rng.integers(alg.dim, size=2):
        for factor in FACTORS:
            g = _with_image_entry(f, k, 1j * factor * (TOL.eps_abs + TOL.eps_rel * max(1.0, norm)))
            assert is_involutive(g) == oracle.is_involutive_svd(g)
            h = _with_image_entry(f, k, factor * (TOL.eps_abs + TOL.eps_rel * max(1.0, norm ** 2)))
            assert is_multiplicative(h) == oracle.is_multiplicative_svd(h)


@SETTINGS
@given(dims, scales, seeds, poison)
def test_map_gates_match_svd_on_non_finite_entries(alg, scale, seed, bad):
    rng = np.random.default_rng(seed)
    f = _conjugation(alg, rng, scale)
    matrix = np.array(f.matrix)
    value, imag = bad
    matrix[rng.integers(alg.dim), rng.integers(alg.dim)] = complex(0, value) if imag else value
    g = LinMap(f.dom, f.cod, matrix)
    agree(is_involutive, oracle.is_involutive_svd, g)
    agree(is_multiplicative, oracle.is_multiplicative_svd, g)


def test_map_gates_match_svd_on_an_infinite_block_beside_a_defect():
    # Image 0 has an involution defect in block 0 and an infinite block 1, whose
    # NaN norm masks the defect in the SVD definition.
    alg = make_algebra([1, 1])
    m = np.eye(2, dtype=complex)
    m[0, 0] += 1j
    m[1, 0] = complex(0.0, np.inf)
    g = LinMap(alg, alg, m)
    agree(is_involutive, oracle.is_involutive_svd, g)
    agree(is_multiplicative, oracle.is_multiplicative_svd, g)


# ---------------------------------------------------------------------------
# the norm tests of the other modules

def same(x, y) -> bool:
    """Equal outcomes: the same exception type, or results with the same bytes."""
    if isinstance(x, Element) and isinstance(y, Element):
        return x.algebra == y.algebra and all(
            p.tobytes() == q.tobytes() for p, q in zip(x.blocks, y.blocks))
    if isinstance(x, LinMap) and isinstance(y, LinMap):
        return (x.dom, x.cod) == (y.dom, y.cod) and x.matrix.tobytes() == y.matrix.tobytes()
    if isinstance(x, list) and isinstance(y, list):
        return len(x) == len(y) and all(same(p, q) for p, q in zip(x, y))
    return type(x) is type(y) and x == y


def agree_bytes(got, want, *args):
    assert same(outcome(got, *args), outcome(want, *args))


def defect(n, rng, size, traceless=False):
    """size * uv* for unit vectors u and v, so of norm size; with v orthogonal
    to u, and so of trace 0, when asked (and n > 1)."""
    u, v = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
    u /= np.linalg.norm(u)
    if traceless and n > 1:
        v -= np.vdot(u, v) * u
    return size * np.outer(u, (v / np.linalg.norm(v)).conj())


def with_block(alg, blocks, i, block):
    return alg.element([block if j == i else b for j, b in enumerate(blocks)])


@SETTINGS
@given(dims, scales, seeds)
def test_maps_equal_matches_svd_at_threshold(alg, scale, seed):
    rng = np.random.default_rng(seed)
    f = _conjugation(alg, rng, scale)
    thr = TOL.threshold(float(np.linalg.norm(f.matrix, 2)))
    for k in rng.integers(alg.dim, size=2):
        for factor in FACTORS:
            g = _with_image_entry(f, k, factor * thr)
            assert maps_equal(f, g) == oracle.maps_equal(f, g)
            assert maps_equal(g, f) == oracle.maps_equal(g, f)


@SETTINGS
@given(dims, scales, seeds)
def test_is_completely_positive_matches_svd_at_threshold(alg, scale, seed):
    rng = np.random.default_rng(seed)
    u = random_unitary(alg, rng)
    f = scale * conjugation_map(u)
    i = int(rng.integers(alg.num_blocks))
    norm = float(np.linalg.norm(choi_blocks(f)[i].matrix, 2))
    # v is Hilbert-Schmidt orthogonal to u in block i, so that the Choi block i
    # of f - t conj(v) has the one negative eigenvalue -t.
    x = defect(alg.dims[i], rng, 1.0)
    x -= np.vdot(u.blocks[i], x) / alg.dims[i] * u.blocks[i]
    v = alg._block_element(i, x / max(np.linalg.norm(x), 1e-300))
    for factor in FACTORS:
        g = f + (-factor * TOL.eps_rel * max(1.0, norm)) * conjugation_map(v)
        assert is_completely_positive(g) == oracle.is_completely_positive(g)
        h = _with_image_entry(f, rng.integers(alg.dim), 1j * factor * TOL.threshold(norm))
        assert is_completely_positive(h) == oracle.is_completely_positive(h)


@SETTINGS
@given(dims, scales, seeds)
def test_central_tests_match_svd_at_threshold(alg, scale, seed):
    rng = np.random.default_rng(seed)
    i, _, blocks = rank_one(alg, rng, scale)
    norm = max((np.linalg.norm(b, 2) for j, b in enumerate(blocks) if j != i), default=0.0)
    lams = scale * rng.uniform(0.5, 1.0, alg.num_blocks)
    central = [lam * np.eye(n) for lam, n in zip(lams, alg.dims)]
    for factor in FACTORS:
        # block i alone is small: a rank-one block at factor times the threshold
        a = with_block(alg, blocks, i, defect(alg.dims[i], rng, factor * TOL.threshold(norm)))
        agree_bytes(central_support, oracle.central_support, a)
        c = with_block(alg, central, i, central[i] + defect(
            alg.dims[i], rng, factor * TOL.threshold(max(lams)), traceless=True))
        assert is_central(c) == oracle.is_central(c)


@SETTINGS
@given(dims, scales, seeds)
def test_zero_tests_match_svd_at_eps_abs(alg, scale, seed):
    rng = np.random.default_rng(seed)
    i, u, blocks = rank_one(alg, rng, scale)
    w = random_unitary(make_algebra([alg.dims[i]]), rng).blocks[0]
    p = np.diag(np.eye(alg.dims[i])[0])
    # a pinching after a unitary: not pure when block i is M2 or larger
    pinching = conjugation_map(alg._block_element(i, p @ w)) + conjugation_map(
        alg._block_element(i, (np.eye(alg.dims[i]) - p) @ w))
    for factor in FACTORS:
        size = factor * TOL.eps_abs
        agree_bytes(pseudoinverse, oracle.pseudoinverse,
                    with_block(alg, blocks, i, defect(alg.dims[i], rng, size)))
        e = alg._block_element(i, size * np.outer(u, u.conj()))
        agree_bytes(central_support_partition, oracle.central_support_partition, e)
        # f(1) = size * 1 in block i
        f = size * pinching
        agree_bytes(is_pure, oracle.is_pure, f)


@SETTINGS
@given(dims, scales, seeds, st.sampled_from([1e-8, 1e-9]))
def test_widened_and_relative_bounds_match_svd_at_threshold(alg, scale, seed, rel):
    rng = np.random.default_rng(seed)
    i, _, blocks = rank_one(alg, rng, scale)
    ref = alg.element(blocks)
    norm = oracle.svd_norm(ref)
    lams = scale * rng.uniform(0.5, 1.0, alg.num_blocks)
    lams[0] = scale
    central = alg.element(lam * np.eye(n) for lam, n in zip(lams, alg.dims))
    sub = StarSubalgebra(alg, centre(alg).basis)
    for factor in FACTORS:
        size = factor * (TOL.eps_abs + 10 * TOL.snap_eps * max(1.0, norm))
        lhs = ref + alg._block_element(i, defect(alg.dims[i], rng, size))
        assert _reconstruction_ok(lhs, ref, TOL) == oracle.reconstruction_ok(lhs, ref, TOL)
        size = factor * (TOL.eps_abs + 1e3 * TOL.eps_rel * max(1.0, scale))
        a = central + alg._block_element(i, defect(alg.dims[i], rng, size, traceless=True))
        assert sub.contains(a) == oracle.contains(sub, a)
        d = alg._block_element(i, defect(alg.dims[i], rng, factor * rel * (1.0 + norm)))
        assert _close(d, ref, rel) == oracle.close(d, ref, rel)


@SETTINGS
@given(dims, scales, seeds)
def test_factor_through_corner_matches_svd_at_threshold(alg, scale, seed):
    rng = np.random.default_rng(seed)
    e = random_projection(alg, rng)
    u, w = random_unitary(alg, rng), random_unitary(alg, rng)
    f = scale * conjugation_map(e @ u)
    thr = TOL.eps_abs + 100 * TOL.eps_rel * max(1.0, float(np.linalg.norm(f.matrix, 2)))
    for factor in FACTORS:
        # g(1 - e) = t w*(1 - e)w, of norm t unless e = 1
        g = f + factor * thr * conjugation_map((alg.unit() - e) @ w)
        agree_bytes(factor_through_corner, oracle.factor_through_corner, g, e)


@SETTINGS
@given(dims, scales, seeds, poison)
def test_other_norm_tests_match_svd_on_non_finite_entries(alg, scale, seed, bad):
    rng = np.random.default_rng(seed)
    h = alg.element(hermitian_blocks(alg, rng, scale))
    a = with_entry(h, *bad, rng)
    for got, want in ((central_support, oracle.central_support),
                      (is_central, oracle.is_central),
                      (central_support_partition, oracle.central_support_partition)):
        agree_bytes(got, want, a)
    agree_bytes(pseudoinverse, oracle.pseudoinverse, a)
    for x, y in ((a, h), (h, a)):
        agree(lambda p, q: _reconstruction_ok(p, q, TOL), oracle.reconstruction_ok, x, y)
        agree(lambda p, q: _close(p, q, 1e-9), lambda p, q: oracle.close(p, q, 1e-9), x, y)
    sub = StarSubalgebra(alg, centre(alg).basis)
    agree(sub.contains, lambda x: oracle.contains(sub, x), a)
    f = _conjugation(alg, rng, scale)
    matrix = np.array(f.matrix)
    value, imag = bad
    matrix[rng.integers(alg.dim), rng.integers(alg.dim)] = complex(0, value) if imag else value
    g = LinMap(f.dom, f.cod, matrix)
    for x, y in ((f, g), (g, f), (g, g)):
        agree(maps_equal, oracle.maps_equal, x, y)
    agree(is_completely_positive, oracle.is_completely_positive, g)
    agree(is_pure, oracle.is_pure, g)
    agree_bytes(factor_through_corner, oracle.factor_through_corner, g, alg.unit())
    agree_bytes(factor_through_corner, oracle.factor_through_corner, f, a)


# ---------------------------------------------------------------------------
# the work saved, as counts

@pytest.fixture
def counts(monkeypatch):
    """Count SVDs (also those inside norm(x, 2)) and Hermitian eigensolves."""
    seen = {"svd": 0, "eigh": 0}
    inner = sys.modules[np.linalg.norm._implementation.__module__]
    for name, key in (("svd", "svd"), ("eigh", "eigh"), ("eigvalsh", "eigh")):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _key=key, **kwargs):
            seen[_key] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
        monkeypatch.setattr(inner, name, counted)
    return seen


def _hermitian_effects(alg, count, seed=0):
    rng = np.random.default_rng(seed)
    return [symmetrize(random_effect(alg, rng)) for _ in range(count)]


def test_seq_product_on_hermitian_effects_runs_no_svd(counts):
    p, q = _hermitian_effects(make_algebra([3]), 2)
    assert np.array_equal(p.blocks[0], p.blocks[0].conj().T)
    seq_product(p, q)
    assert counts["svd"] == 0
    assert counts["eigh"] > 0


def test_sqrt_is_kept_per_tolerance(counts):
    (p,) = _hermitian_effects(make_algebra([2, 3]), 1)
    root = sqrt(p)
    before = counts["eigh"]
    assert sqrt(p) is root
    assert sqrt(p, ToleranceConfig()) is root  # an equal tolerance
    assert counts["eigh"] == before
    other = ToleranceConfig(eps_rel=1e-8)
    again = sqrt(p, other)
    assert counts["eigh"] > before
    assert again is not root
    assert all(np.array_equal(x, y) for x, y in zip(again.blocks, root.blocks))


def test_sqrt_never_keeps_a_refusal():
    a = make_algebra([2]).element([np.diag([1.0, -1.0])])
    for _ in range(2):
        with pytest.raises(NotPositive):
            sqrt(a)
    assert a._sqrt is None


@pytest.mark.parametrize("clone", [pickle.loads, copy.copy, copy.deepcopy])
def test_copied_elements_start_with_empty_caches(clone):
    (p,) = _hermitian_effects(make_algebra([2, 1]), 1)
    sqrt(p)
    operator_norm(p)
    q = clone(pickle.dumps(p)) if clone is pickle.loads else clone(p)
    assert q._sqrt is None and q._norm is None
    assert all(np.array_equal(x, y) for x, y in zip(q.blocks, p.blocks))


def test_arithmetic_results_are_read_only_and_laid_out_as_copies():
    alg = make_algebra([2, 3])
    rng = np.random.default_rng(5)
    x, y = (alg.element(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                        for n in alg.dims) for _ in range(2))
    for r in (x + y, x - y, x @ y, 2.5 * x, -x, adjoint(x), adjoint(x) @ x,
              adjoint(x) + y, symmetrize(x), symmetrize(adjoint(x))):
        for b, n in zip(r.blocks, alg.dims):
            assert b.shape == (n, n) and b.dtype == complex
            assert b.strides == np.array(b, order="K").strides
            with pytest.raises(ValueError):
                b[0, 0] = 1.0
        assert r._norm is None and r._sqrt is None


def test_passing_map_tests_run_no_svd(counts):
    big = tensor_algebra(make_algebra([4]), make_algebra([4])).product
    f = random_cp_map(big, big, np.random.default_rng(0))
    assert is_completely_positive(f)
    assert counts["svd"] == 0
    assert maps_equal(f, f)
    assert counts["svd"] == 0


def test_is_central_runs_no_svd_on_the_centre(counts):
    assert all(is_central(z) for z in centre(make_algebra([2, 1, 3])).basis)
    assert counts["svd"] == 0
