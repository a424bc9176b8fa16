"""Structure, division and corner code on coordinates, held to the loops.

``StarSubalgebra.project`` is one product with the matrix of the basis, the
GNS Gram matrix is read off the state by the matrix-unit index rule, the
banded pseudoinverse visits only the bands an eigenvalue occupies, and
``bracket`` and ``factor_through_filter`` share one corner quotient.  Each is
held to the loop it replaced in ``loop_oracles``, on seeded cases over M2,
M3, M1+M1+M1, M2+M1 and M1+M3+M2: the same bytes, signed zeros and memory
order included, or the same exception.  Membership projections may move in
their last bits; their ``contains`` verdicts may not.
"""

import numpy as np
import pytest

import loop_oracles as oracle
from vnalg import (approximate_pseudoinverse, bracket, conjugation_map, factor_through_filter,
                   functional_from_density, generate_subalgebra, gns, make_algebra, mul,
                   vector_functional)
from vnalg import structure
from vnalg.algebra import DEFAULT_TOL, _eigh, operator_norm, symmetrize
from vnalg.division import _band, _positive_bands
from vnalg.maps import (LinMap, _unit_image, compose, make_map, min_choi_eigenvalue, mult_map,
                        random_cp_map, random_state)
from vnalg.sampling import (random_density, random_element, random_projection,
                            random_rank_one_positive, random_self_adjoint,
                            random_unitary)
from vnalg.spectral import sqrt
from vnalg.structure import _sub_centre_basis

DIMS = [[2], [3], [1, 1, 1], [2, 1], [1, 3, 2]]
CASES = [(d, s) for d in DIMS for s in range(6)]
ids = [f"{'+'.join(map(str, d))}-{s}" for d, s in CASES]


def same_bytes(x, y):
    """Equal arrays, the same sign on every zero and the same memory order."""
    x, y = np.asarray(x), np.asarray(y)
    return (x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
            and x.flags.c_contiguous == y.flags.c_contiguous)


def same_elements(xs, ys):
    return len(xs) == len(ys) and all(
        all(same_bytes(a, b) for a, b in zip(x.blocks, y.blocks)) for x, y in zip(xs, ys))


def outcome(fn, *args):
    """fn(*args).matrix as bytes, or the exception's type and message."""
    try:
        m = fn(*args).matrix
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)
    return m.shape, m.dtype, m.flags.c_contiguous, m.tobytes()


def subalgebra(alg, rng, seed):
    gens = [random_projection(alg, rng)]
    if seed % 3 == 0:
        gens.append(random_self_adjoint(alg, rng))
    elif seed % 3 == 1:
        gens.append(random_rank_one_positive(alg, rng))
    return generate_subalgebra(alg, gens), gens


@pytest.mark.parametrize("dims,seed", CASES, ids=ids)
def test_projection_matches_inner_products(dims, seed):
    alg = make_algebra(dims)
    rng = np.random.default_rng(seed)
    sub, gens = subalgebra(alg, rng, seed)
    inside = [alg.unit(), mul(gens[-1], gens[0]), sub.basis[-1]]
    outside = [random_element(alg, rng) for _ in range(3)]
    verdicts = []
    for a in inside + outside:
        got, want = sub.project(a), oracle.project(sub, a)
        scale = max(1.0, operator_norm(a))
        assert np.allclose(got.coords(), want.coords(), rtol=0, atol=1e-13 * scale)
        assert np.allclose(sub.project_coords(a),
                           [complex(np.vdot(b.coords(), a.coords())) for b in sub.basis],
                           rtol=0, atol=1e-13 * scale)
        verdicts.append(sub.contains(a))
        assert verdicts[-1] == oracle.contains(sub, a)
    assert all(verdicts[:len(inside)])
    assert not all(verdicts) or sub.dim == alg.dim


@pytest.mark.parametrize("dims,seed", CASES, ids=ids)
def test_sub_centre_basis_matches_loop(dims, seed):
    sub, _ = subalgebra(make_algebra(dims), np.random.default_rng(seed), seed)
    assert same_elements(_sub_centre_basis(sub, DEFAULT_TOL), oracle.sub_centre_basis(sub))


def states(alg, rng):
    """A dense state, a rank-deficient one, a vector state, a 0/1 diagonal
    and its conjugate, whose row carries -0.0 imaginary parts."""
    p = random_projection(alg, rng)
    i = int(rng.integers(alg.num_blocks))
    diag = functional_from_density(
        alg.element([np.diag(rng.integers(0, 2, n).astype(float)) for n in alg.dims]))
    return [random_state(alg, rng),
            functional_from_density(symmetrize(mul(mul(p, random_density(alg, rng)), p))),
            vector_functional(alg, i, rng.standard_normal(alg.dims[i])),
            diag, LinMap(diag.dom, diag.cod, diag.matrix.conj())]


@pytest.mark.parametrize("dims,seed", CASES, ids=ids)
def test_gns_matches_gram_loop(dims, seed, monkeypatch):
    alg = make_algebra(dims)
    grams = []
    monkeypatch.setattr(structure, "_eigh", lambda m: grams.append(m) or _eigh(m))
    for omega in states(alg, np.random.default_rng(seed)):
        res = gns(omega)
        assert same_bytes(grams.pop(), oracle.gns_gram(omega))
        hdim, eta, rep = oracle.gns(omega)
        assert res.hilbert_dim == hdim
        assert same_bytes(res.eta, eta)
        assert same_bytes(res.rep.matrix, rep.matrix)


def same_bands(got, want):
    return same_elements(got.terms, want.terms) and got.thresholds == want.thresholds


def with_spectrum(alg, rng, draw):
    """u diag(draw(n)) u* in each block, u a random unitary."""
    u = random_unitary(alg, rng)
    return alg.element([w @ np.diag(draw(len(w))) @ w.conj().T for w in u.blocks])


@pytest.mark.parametrize("dims,seed", CASES, ids=ids)
def test_bands_match_scan(dims, seed):
    """Spectra down to 1e-3, with zeros, and a square: the scan visits each
    of the up to 1,000 bands above the smallest eigenvalue."""
    alg = make_algebra(dims)
    rng = np.random.default_rng(seed)
    spread = lambda n: 10.0 ** rng.uniform(-3, 1, n)
    deficient = lambda n: spread(n) * rng.integers(0, 2, n)
    root = with_spectrum(alg, rng, lambda n: 10.0 ** rng.uniform(-1.5, 0.5, n))
    for x in (with_spectrum(alg, rng, spread), with_spectrum(alg, rng, deficient),
              mul(root, root)):
        assert same_bands(_positive_bands(x, DEFAULT_TOL), oracle.positive_bands(x))


@pytest.mark.parametrize("dims", DIMS, ids=lambda d: "+".join(map(str, d)))
def test_bands_on_the_grid(dims):
    """Eigenvalues at 1/k and one ulp either side, where int(1/v) is one
    band too far and the comparisons must pull it back."""
    alg = make_algebra(dims)
    rng = np.random.default_rng(sum(dims))
    grid = [1.0 / k for k in range(1, 9)]
    for _ in range(20):
        vals = iter([float(np.nextafter(rng.choice(grid), rng.choice([0.0, 1.0, 2.0])))
                     if rng.random() < 0.6 else float(rng.choice(grid)) for _ in range(alg.dim)])
        x = alg.element([np.diag([next(vals) for _ in range(n)]) for n in dims])
        assert same_bands(_positive_bands(x, DEFAULT_TOL), oracle.positive_bands(x))


def test_band_index_meets_its_comparisons():
    ks = np.arange(1, 20001)
    grid = 1.0 / ks
    for v in np.concatenate([grid, np.nextafter(grid, 0.0), np.nextafter(grid, 2.0),
                             np.random.default_rng(0).uniform(1e-7, 3.0, 2000)]):
        n = _band(float(v))
        assert 1.0 / (n + 1) <= v and (n == 0 or v < 1.0 / n)


def test_far_band_costs_one_term():
    """diag(1, 2e-7) needs band 4,999,999; a scan from band 0 visited each."""
    m2 = make_algebra([2])
    res = approximate_pseudoinverse(m2.element([np.diag([1.0, 2e-7])]))
    assert res.thresholds == ((1.0, float("inf")), (1.0 / 5000000, 1.0 / 4999999))
    assert np.allclose(res.terms[0].blocks[0], np.diag([1.0, 0.0]), rtol=0, atol=1e-12)
    assert np.allclose(res.terms[1].blocks[0], np.diag([0.0, 5e6]), rtol=1e-12, atol=1e-12)


def corner_cases(alg, rng, seed):
    """A random CP map, one whose f(1) is rank-deficient, and conjugation by
    a rank-deficient element."""
    cod = make_algebra(DIMS[(DIMS.index(list(alg.dims)) + seed) % len(DIMS)])
    f = random_cp_map(alg, cod, rng, terms=1 + seed % 2)
    q = random_projection(cod, rng)
    v = mul(random_element(alg, rng), random_projection(alg, rng))
    return [f, compose(mult_map(q, q), f), conjugation_map(v)]


@pytest.mark.parametrize("dims,seed", CASES, ids=ids)
def test_bracket_matches_corner_loop(dims, seed):
    for f in corner_cases(make_algebra(dims), np.random.default_rng(seed), seed):
        assert outcome(bracket, f) == outcome(oracle.bracket_loop, f)


@pytest.mark.parametrize("dims,seed", CASES, ids=ids)
def test_factor_through_filter_matches_corner_loop(dims, seed):
    for f in corner_cases(make_algebra(dims), np.random.default_rng(seed), seed):
        root = sqrt(symmetrize(_unit_image(f)))
        for d in (1.5 * root, 3.0 * f.cod.unit(), 1e-3 * f.cod.unit()):
            assert outcome(factor_through_filter, f, d) == \
                outcome(oracle.factor_through_filter_loop, f, d)


def test_bracket_reports_an_indefinite_unit_image_from_ceiling():
    """f(a) = tr(a) h with h indefinite has a carrier but no bracket; the
    message is the ceiling's, as before the corner quotient was shared."""
    m2 = make_algebra([2])
    h = m2.element([np.diag([2.0, -1.0])])
    f = make_map(m2, m2, [complex(np.trace(e.blocks[0])) * h for e in m2.basis()])
    got, want = outcome(bracket, f), outcome(oracle.bracket_loop, f)
    assert got == want
    assert got[1] == "ceiling needs a positive element"


def test_min_choi_eigenvalue_of_a_map_into_nothing_is_zero():
    f = LinMap(make_algebra([2]), make_algebra([]), np.zeros((0, 4), dtype=complex))
    assert min_choi_eigenvalue(f) == 0.0
