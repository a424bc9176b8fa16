"""Differential tests: index and Kronecker formulas against the basis loops.

Builders must reproduce the loop-built matrices bit for bit (``array_equal``,
which counts -0.0 and 0.0 as equal); what the CLI prints, Choi blocks and map
images, must also carry the same sign on every zero.  Predicates must reach
the loop's verdict, including on maps perturbed to half and twice the
predicate's threshold.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import loop_oracles as oracle
from vnalg import (centre, choi_blocks, classical_unit, commutant, conjugation_map,
                   corner_algebra, distributor, is_involutive, is_multiplicative,
                   left_unitor, make_algebra, multiplication_map, right_unitor,
                   tensor_algebra, tensor_maps, transpose_map)
from vnalg.algebra import DEFAULT_TOL
from vnalg.jsonio import algebra_to_json, dumps, element_to_json, map_to_json
from vnalg.maps import LinMap, block_projection, cp_from_kraus, random_cp_map
from vnalg.measurement import _range_isometry
from vnalg.sampling import random_projection, random_unitary
from vnalg.tensor import braiding

SETTINGS = settings(derandomize=True, deadline=None, max_examples=15)
dims = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(make_algebra)
small_dims = st.lists(st.integers(1, 2), min_size=1, max_size=2).map(make_algebra)
seeds = st.integers(0, 2**32 - 1)


def random_map(dom, cod, rng):
    shape = (cod.dim, dom.dim)
    return LinMap(dom, cod, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def same_bits(x, y):
    """array_equal, and the same sign on every zero."""
    x, y = np.asarray(x), np.asarray(y)
    return np.array_equal(x, y) and np.array_equal(np.signbit(x.real), np.signbit(y.real)) \
        and np.array_equal(np.signbit(x.imag), np.signbit(y.imag))


def maps(alg, rng):
    """Random CP, transpose, random complex and conjugation maps on alg."""
    return [random_cp_map(alg, alg, rng), transpose_map(alg), random_map(alg, alg, rng),
            conjugation_map(random_unitary(alg, rng))]


# ---------------------------------------------------------------------------
# reading a map

@SETTINGS
@given(dims, dims, seeds)
def test_choi_blocks_match_loop(dom, cod, seed):
    rng = np.random.default_rng(seed)
    # -1 * transpose has -0.0 entries, which applying it turns into 0.0
    for f in [random_cp_map(dom, cod, rng), random_map(dom, cod, rng), -1.0 * transpose_map(dom)]:
        got = [cb.matrix for cb in choi_blocks(f)]
        want = oracle.choi_blocks(f)
        assert len(got) == len(want)
        assert all(same_bits(g, w) for g, w in zip(got, want))


@SETTINGS
@given(dims, seeds)
def test_predicates_match_loop(alg, seed):
    rng = np.random.default_rng(seed)
    for f in maps(alg, rng):
        assert is_involutive(f) == oracle.is_involutive(f)
        assert is_multiplicative(f) == oracle.is_multiplicative(f)


def _repeated_conjugation(alg, rng, copies=5):
    """a -> (u*au, ..., u*au), a *-homomorphism whose matrix has norm sqrt(copies).

    A norm well above 1 tells the involution threshold, linear in the norm,
    from the multiplicativity one, quadratic in it.
    """
    u = random_unitary(alg, rng)
    k = alg.num_blocks
    return cp_from_kraus(alg, make_algebra(alg.dims * copies),
                         [(i, c * k + i, u.blocks[i]) for c in range(copies) for i in range(k)])


def _perturbed(f, k, delta):
    """f plus delta * (E_k -> i*1): an involution and multiplicativity defect."""
    matrix = np.array(f.matrix)
    matrix[:, k] += 1j * delta * f.cod.unit().coords()
    return LinMap(f.dom, f.cod, matrix)


@SETTINGS
@given(dims, seeds, st.sampled_from([0.5, 2.0]))
def test_predicates_match_loop_at_threshold(alg, seed, factor):
    # The defect at E_0 (a diagonal unit, so E_0* = E_0 = E_0 E_0) is 2*delta
    # for the involution and delta, up to delta^2, for multiplicativity.
    f = _repeated_conjugation(alg, np.random.default_rng(seed))
    norm = float(np.linalg.norm(f.matrix, 2))
    tol = DEFAULT_TOL
    g = _perturbed(f, 0, factor * (tol.eps_abs + tol.eps_rel * max(1.0, norm)) / 2)
    assert is_involutive(g) == oracle.is_involutive(g) == (factor < 1)
    h = _perturbed(f, 0, factor * (tol.eps_abs + tol.eps_rel * max(1.0, norm ** 2)))
    assert is_multiplicative(h) == oracle.is_multiplicative(h) == (factor < 1)


@SETTINGS
@given(dims, dims, seeds)
def test_map_json_matches_applied_images(dom, cod, seed):
    rng = np.random.default_rng(seed)
    for f in [random_cp_map(dom, cod, rng), -1.0 * transpose_map(dom), random_map(dom, cod, rng)]:
        want = {"dom": algebra_to_json(f.dom), "cod": algebra_to_json(f.cod),
                "images": [element_to_json(x) for x in oracle.map_images(f)]}
        assert dumps(map_to_json(f)) == dumps(want)


# ---------------------------------------------------------------------------
# building a map

@SETTINGS
@given(small_dims, small_dims, small_dims, small_dims, seeds)
def test_tensor_maps_match_loop(a, b, c, d, seed):
    rng = np.random.default_rng(seed)
    ts_dom, ts_cod = tensor_algebra(a, b), tensor_algebra(c, d)
    f, g = random_map(a, c, rng), random_map(b, d, rng)
    assert np.array_equal(tensor_maps(ts_dom, ts_cod, f, g).matrix,
                          oracle.tensor_maps(ts_dom, ts_cod, f, g).matrix)


@SETTINGS
@given(dims, dims, st.lists(dims, min_size=1, max_size=3))
def test_permutation_builders_match_loop(a, b, parts):
    pairs = [(braiding(a, b), oracle.braiding(a, b)),
             (left_unitor(a), oracle.left_unitor(a)),
             (right_unitor(a), oracle.right_unitor(a)),
             (multiplication_map(a), oracle.multiplication_map(a)),
             (distributor(a, parts), oracle.distributor(a, parts)),
             (transpose_map(a), oracle.transpose_map(a)),
             (classical_unit(a), oracle.classical_unit(a))]
    pairs += [(block_projection(a, j), oracle.block_projection(a, j))
              for j in range(a.num_blocks)]
    for got, want in pairs:
        assert (got.dom, got.cod) == (want.dom, want.cod)
        assert np.array_equal(got.matrix, want.matrix)


@SETTINGS
@given(dims, dims, seeds, st.integers(1, 3))
def test_cp_from_kraus_matches_loop(dom, cod, seed, terms):
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(terms):
        i, l = int(rng.integers(dom.num_blocks)), int(rng.integers(cod.num_blocks))
        n, m = dom.dims[i], cod.dims[l]
        ops.append((i, l, rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))))
    assert np.array_equal(cp_from_kraus(dom, cod, ops).matrix,
                          oracle.cp_from_kraus(dom, cod, ops).matrix)


@SETTINGS
@given(dims, seeds)
def test_corner_maps_match_loop(alg, seed):
    ctx = corner_algebra(random_projection(alg, np.random.default_rng(seed)))
    isometries = [_range_isometry(ctx.proj.blocks[i], n)
                  for i, n in zip(ctx.parent_blocks, ctx.corner.dims)]
    embed, compress = oracle.corner_maps(alg, ctx.corner, ctx.parent_blocks, isometries)
    assert np.array_equal(ctx.embed.matrix, embed.matrix)
    assert np.array_equal(ctx.compress.matrix, compress.matrix)


@SETTINGS
@given(dims)
def test_centre_spans_the_commutant_of_the_basis(alg):
    def projector(sub):
        vecs = np.array([b.coords() for b in sub.basis])
        return vecs.T @ vecs.conj()

    closed = centre(alg)
    assert closed.dim == alg.num_blocks
    assert np.allclose(projector(closed), projector(commutant(list(alg.basis()), alg)),
                       atol=1e-12)
