"""Subalgebra generation, matrix-sum decomposition, the commutative case,
and representations built from states."""

import numpy as np
import pytest
import scipy.linalg

from vnalg import (adjoint, apply, carrier, central_carrier, commutant, equal,
                   gelfand_finite, generate_subalgebra, gns, is_miu, make_algebra, mul, operator_norm, star_subalgebra,
                   wedderburn, functional_from_density, vector_functional)
from vnalg.errors import ClosureViolated, NotCommutative, NotPositive
from vnalg.maps import random_state, scalar_value
from vnalg.sampling import (random_density, random_element, random_unitary_block)

M2 = make_algebra([2])
M3 = make_algebra([3])


def _conjugated_embedding(dims, big_n, rng):
    inner = make_algebra(dims)
    big = make_algebra([big_n])
    u = random_unitary_block(rng, big_n)
    pad = big_n - sum(dims)

    def embed(x):
        mats = [b for b in x.blocks]
        if pad:
            mats.append(np.zeros((pad, pad)))
        return big.element([u @ scipy.linalg.block_diag(*mats) @ u.conj().T])

    return inner, big, embed


def test_generate_trivial_subalgebra():
    sub = generate_subalgebra(M3, [])
    assert sub.dim == 1
    assert sub.contains(M3.unit())


def test_generate_from_self_adjoint_with_distinct_eigenvalues():
    a = M3.element([np.diag([1.0, 2.0, 5.0])])
    sub = generate_subalgebra(M3, [a])
    assert sub.dim == 3  # the full diagonal in the eigenbasis
    # polynomial interpolation oracle: 1, a, a^2 span the same space
    powers = [M3.unit(), a, mul(a, a)]
    for p in powers:
        assert sub.contains(p)


def test_generate_matrix_units_of_first_block():
    alg = make_algebra([2, 3])
    gens = [e for e in alg.basis()[:4]]
    sub = generate_subalgebra(alg, gens)
    # unit of the ambient is added: four matrix units plus the second
    # block's share of the unit
    assert sub.dim == 5


def test_star_subalgebra_rejects_non_closed_span():
    a = M2.element([np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ClosureViolated):
        star_subalgebra(M2, [M2.unit(), a])  # misses a*


def test_star_subalgebra_of_no_elements_misses_the_unit():
    with pytest.raises(ClosureViolated, match="unit"):
        star_subalgebra(M2, [])


def test_wedderburn_diagonal():
    span = [M3.element([np.diag([1.0, 0, 0])]),
            M3.element([np.diag([0, 1.0, 0])]),
            M3.element([np.diag([0, 0, 1.0])])]
    sub = star_subalgebra(M3, span)
    res = wedderburn(sub, seed=0)
    assert sorted(res.dims) == [1, 1, 1]
    assert is_miu(res.embed)


def test_wedderburn_full_block():
    sub = star_subalgebra(M3, list(M3.basis()))
    res = wedderburn(sub, seed=0)
    assert res.dims == (3,)
    assert is_miu(res.embed)


@pytest.mark.parametrize("seed,dims", [(0, [2, 1]), (1, [1, 1]), (2, [2]),
                                       (3, [3, 1]), (4, [2, 2]), (5, [1, 1, 2])])
def test_wedderburn_recovers_conjugated_sums(seed, dims):
    rng = np.random.default_rng(seed)
    inner, big, embed = _conjugated_embedding(dims, sum(dims), rng)
    sub = star_subalgebra(big, [embed(x) for x in inner.basis()])
    res = wedderburn(sub, seed=seed)
    assert sorted(res.dims) == sorted(dims)
    assert is_miu(res.embed)
    assert sum(k * k for k in res.dims) == sub.dim
    # central projections: central in the subalgebra, orthogonal, sum to 1
    total = big.zero()
    for z in res.min_central_projs:
        assert sub.contains(z)
        for b in sub.basis:
            assert operator_norm(mul(z, b) - mul(b, z)) < 1e-7
        total = total + z
    assert equal(total, big.unit())
    # round trip through coordinates
    x = res.target.basis()[0]
    back = res.to_coordinates(apply(res.embed, x))
    assert equal(back, x)


def test_commutant_dimension_of_embedded_sum():
    # For a conjugated embedded sum with multiplicity-one blocks the
    # commutant dimension equals the number of blocks.
    rng = np.random.default_rng(7)
    dims = [2, 1]
    inner, big, embed = _conjugated_embedding(dims, 3, rng)
    images = [embed(x) for x in inner.basis()]
    comm = commutant(images, big)
    assert comm.dim == len(dims)
    sub = star_subalgebra(big, images)
    # double commutant comes back to the subalgebra itself
    bicomm = commutant([b for b in comm.basis], big)
    assert bicomm.dim == sub.dim
    for b in sub.basis:
        assert bicomm.contains(b)


def test_commutant_dimension_with_multiplicity():
    # One 2x2 block embedded with multiplicity two into M4: the commutant
    # dimension is the squared multiplicity.
    m4 = make_algebra([4])
    rng = np.random.default_rng(8)
    u = random_unitary_block(rng, 4)
    images = []
    for x in M2.basis():
        b = x.blocks[0]
        images.append(m4.element([u @ scipy.linalg.block_diag(b, b) @ u.conj().T]))
    comm = commutant(images, m4)
    assert comm.dim == 4
    sub = star_subalgebra(m4, images)
    res = wedderburn(sub, seed=1)
    assert res.dims == (2,)


def test_gelfand_on_diagonals():
    sub = generate_subalgebra(M3, [M3.element([np.diag([1.0, 2.0, 5.0])])])
    points, res = gelfand_finite(sub, seed=0)
    assert points == 3
    assert res.dims == (1, 1, 1)
    scalars = generate_subalgebra(M2, [])
    assert gelfand_finite(scalars, seed=0)[0] == 1
    m4 = make_algebra([4])
    diag4 = generate_subalgebra(
        m4, [m4.element([np.diag([1.0, 2.0, 3.0, 4.0])])])
    assert gelfand_finite(diag4, seed=0)[0] == 4


def test_gelfand_point_count_matches_spectrum():
    # points of the generated commutative algebra = distinct eigenvalues
    a = M3.element([np.diag([2.0, 2.0, 7.0])])
    sub = generate_subalgebra(M3, [a])
    points, _ = gelfand_finite(sub, seed=0)
    assert points == 2


def test_gelfand_rejects_noncommutative():
    sub = star_subalgebra(M2, list(M2.basis()))
    with pytest.raises(NotCommutative):
        gelfand_finite(sub)


def test_gns_point_evaluation_on_classical_bit():
    c2 = make_algebra([1, 1])
    omega = functional_from_density(c2.element([[[1.0]], [[0.0]]]))
    res = gns(omega)
    assert res.hilbert_dim == 1
    # the representation collapses to evaluation at the first point
    a = c2.element([[[3.0]], [[5.0]]])
    assert apply(res.rep, a).blocks[0][0, 0] == pytest.approx(3.0)


@pytest.mark.parametrize("n", [2, 3])
def test_gns_trace_state_dimension(n):
    alg = make_algebra([n])
    omega = functional_from_density((1.0 / n) * alg.unit())
    res = gns(omega)
    assert res.hilbert_dim == n * n
    assert equal(carrier(res.rep), alg.unit())  # faithful


def test_gns_vector_state_dimension():
    omega = vector_functional(M2, 0, np.array([1.0, 0.0]))
    res = gns(omega)
    assert res.hilbert_dim == 2


def _gram_rank_oracle(omega):
    alg = omega.dom
    basis = alg.basis()
    g = np.zeros((alg.dim, alg.dim), dtype=complex)
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            g[i, j] = scalar_value(apply(omega, mul(adjoint(x), y)))
    return int(np.linalg.matrix_rank(g, tol=1e-9))


@pytest.mark.parametrize("seed", range(4))
def test_gns_dimension_matches_gram_rank(seed):
    rng = np.random.default_rng(seed)
    alg = make_algebra([2, 1])
    omega = random_state(alg, rng)
    assert gns(omega).hilbert_dim == _gram_rank_oracle(omega)


@pytest.mark.parametrize("seed", range(4))
def test_gns_invariants(seed):
    rng = np.random.default_rng(seed)
    omega = random_state(M3, rng)
    res = gns(omega)
    assert is_miu(res.rep)
    for _ in range(5):
        x = random_element(M3, rng)
        y = random_element(M3, rng)
        lhs = complex(np.vdot(res.vector(x), res.vector(y)))
        rhs = scalar_value(apply(omega, mul(adjoint(x), y)))
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))
        assert np.linalg.norm(apply(res.rep, x).blocks[0] @ res.vector(y)
                              - res.vector(mul(x, y))) < 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_gns_carrier_identity(seed):
    rng = np.random.default_rng(seed)
    alg = make_algebra([2, 2])
    rho = random_density(alg, rng)
    if seed == 0:
        # kill the second block to make the carrier proper
        rho = alg.element([rho.blocks[0], np.zeros((2, 2))])
        tr = np.trace(rho.blocks[0]).real
        rho = (1.0 / tr) * rho
    omega = functional_from_density(rho)
    res = gns(omega)
    assert equal(carrier(res.rep), central_carrier(omega))


@pytest.mark.parametrize("seed", range(3))
def test_gns_kadison_via_cauchy_schwarz(seed):
    rng = np.random.default_rng(seed)
    omega = random_state(M2, rng)
    res = gns(omega)
    a = random_element(M2, rng)
    b = random_element(M2, rng)
    lhs = abs(complex(np.vdot(res.vector(a), res.vector(b)))) ** 2
    rhs = float(np.vdot(res.vector(a), res.vector(a)).real
                * np.vdot(res.vector(b), res.vector(b)).real)
    assert lhs <= rhs * (1 + 1e-9) + 1e-12


def test_gns_rejects_non_positive():
    row = np.zeros(4, dtype=complex)
    row[1] = 1.0
    from vnalg.maps import LinMap, SCALARS
    with pytest.raises(NotPositive):
        gns(LinMap(M2, SCALARS, row.reshape(1, 4)))
