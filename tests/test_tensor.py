"""Tensor products, monoidal isomorphisms, duplicability, classical points."""

import numpy as np
import pytest

from vnalg import (adjoint, apply, associator, bang, bang_unit, braiding,
                   ceiling, classical_points, compose, distributor, duplicability_witness,
                   duplicator, equal, identity_map, is_completely_positive,
                   is_duplicable, is_miu, is_positive, is_subunital, is_unital,
                   left_unitor, make_algebra, make_map, maps_equal, mul,
                   multiplication_map, operator_norm, right_unitor,
                   snap_projection, tensor_algebra, tensor_elements,
                   tensor_maps)
from vnalg.errors import AlgebraMismatch, SampleBudgetExhausted, VnalgError
from vnalg.maps import LinMap, block_projection, random_cp_map, scalar_value, random_state
from vnalg.sampling import random_element, random_positive
from vnalg.tensor import factor_through_classical

M2 = make_algebra([2])
SUM = make_algebra([2, 3])
C2 = make_algebra([1, 1])


def test_tensor_dims_lexicographic():
    ts = tensor_algebra(M2, SUM)
    assert ts.product.dims == (4, 6)
    assert ts.block_index(0, 1) == 1
    ts2 = tensor_algebra(SUM, M2)
    assert ts2.product.dims == (4, 6)


def test_kronecker_convention():
    # (a (x) b)[r*m+s, r'*m+s'] = a[r,r'] b[s,s']
    ts = tensor_algebra(M2, M2)
    rng = np.random.default_rng(0)
    a = random_element(M2, rng)
    b = random_element(M2, rng)
    ab = tensor_elements(ts, a, b)
    for r in range(2):
        for rp in range(2):
            for s in range(2):
                for sp in range(2):
                    assert ab.blocks[0][r * 2 + s, rp * 2 + sp] == pytest.approx(
                        a.blocks[0][r, rp] * b.blocks[0][s, sp])


def test_unit_tensors_to_unit():
    ts = tensor_algebra(M2, SUM)
    assert equal(tensor_elements(ts, M2.unit(), SUM.unit()), ts.product.unit())


@pytest.mark.parametrize("seed", range(4))
def test_miu_bilinearity(seed):
    rng = np.random.default_rng(seed)
    ts = tensor_algebra(M2, SUM)
    a, c = random_element(M2, rng), random_element(M2, rng)
    b, d = random_element(SUM, rng), random_element(SUM, rng)
    assert equal(mul(tensor_elements(ts, a, b), tensor_elements(ts, c, d)),
                 tensor_elements(ts, mul(a, c), mul(b, d)))
    assert equal(adjoint(tensor_elements(ts, a, b)),
                 tensor_elements(ts, adjoint(a), adjoint(b)))


def test_simple_tensors_span():
    ts = tensor_algebra(M2, C2)
    vectors = []
    for ea in M2.basis():
        for eb in C2.basis():
            vectors.append(tensor_elements(ts, ea, eb).coords())
    rank = np.linalg.matrix_rank(np.array(vectors))
    assert rank == ts.product.dim


@pytest.mark.parametrize("seed", range(4))
def test_simple_tensor_norm_multiplicative(seed):
    rng = np.random.default_rng(seed)
    ts = tensor_algebra(M2, SUM)
    a = random_element(M2, rng)
    b = random_element(SUM, rng)
    assert operator_norm(tensor_elements(ts, a, b)) == pytest.approx(
        operator_norm(a) * operator_norm(b))


@pytest.mark.parametrize("seed", range(3))
def test_ceiling_of_tensor(seed):
    rng = np.random.default_rng(seed)
    ts = tensor_algebra(M2, SUM)
    a = random_positive(M2, rng)
    b = random_positive(SUM, rng)
    lhs = snap_projection(ceiling(tensor_elements(ts, a, b)))
    rhs = tensor_elements(ts, snap_projection(ceiling(a)),
                          snap_projection(ceiling(b)))
    assert equal(lhs, rhs)


@pytest.mark.parametrize("seed", range(3))
def test_tensor_of_maps(seed):
    rng = np.random.default_rng(seed)
    ts = tensor_algebra(M2, C2)
    f = random_cp_map(M2, M2, rng)
    g = random_cp_map(C2, C2, rng)
    fg = tensor_maps(ts, ts, f, g)
    assert is_completely_positive(fg)
    a = random_element(M2, rng)
    b = random_element(C2, rng)
    assert equal(apply(fg, tensor_elements(ts, a, b)),
                 tensor_elements(ts, apply(f, a), apply(g, b)))
    assert maps_equal(tensor_maps(ts, ts, identity_map(M2), identity_map(C2)),
                      identity_map(ts.product))


def test_tensor_of_miu_maps_is_miu():
    ts_dom = tensor_algebra(SUM, M2)
    ts_cod = tensor_algebra(M2, M2)
    pi = block_projection(SUM, 0)
    fg = tensor_maps(ts_dom, ts_cod, pi, identity_map(M2))
    assert is_miu(fg)


@pytest.mark.parametrize("seed", range(3))
def test_product_states(seed):
    rng = np.random.default_rng(seed)
    ts = tensor_algebra(M2, C2)
    sigma = random_state(M2, rng)
    tau = random_state(C2, rng)
    prod = tensor_maps(ts, tensor_algebra(make_algebra([1]), make_algebra([1])),
                       sigma, tau)
    a = random_element(M2, rng)
    b = random_element(C2, rng)
    lhs = prod(tensor_elements(ts, a, b))
    assert scalar_value(make_algebra([1]).element([lhs.blocks[0]])) == \
        pytest.approx(scalar_value(apply(sigma, a)) * scalar_value(apply(tau, b)))
    x = random_positive(ts.product, rng)
    val = prod(x)
    assert val.blocks[0][0, 0].real >= -1e-10


def test_schur_product_positive():
    rng = np.random.default_rng(4)
    for _ in range(5):
        g1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        g2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = g1 @ g1.conj().T
        b = g2 @ g2.conj().T
        assert np.linalg.eigvalsh(a * b).min() >= -1e-10


def test_associator_unitors_braiding_are_miu():
    al = associator(M2, C2, SUM)
    assert is_miu(al)
    assert is_miu(left_unitor(SUM))
    assert is_miu(right_unitor(SUM))
    br = braiding(M2, SUM)
    assert is_miu(br)
    assert maps_equal(compose(braiding(SUM, M2), br),
                      identity_map(tensor_algebra(M2, SUM).product))


def test_braiding_swaps_simple_tensors():
    rng = np.random.default_rng(5)
    ts = tensor_algebra(M2, SUM)
    ba = tensor_algebra(SUM, M2)
    a = random_element(M2, rng)
    b = random_element(SUM, rng)
    assert equal(apply(braiding(M2, SUM), tensor_elements(ts, a, b)),
                 tensor_elements(ba, b, a))


def test_associator_on_simple_tensors():
    rng = np.random.default_rng(6)
    a = random_element(M2, rng)
    b = random_element(C2, rng)
    c = random_element(SUM, rng)
    ts_bc = tensor_algebra(C2, SUM)
    ts_a_bc = tensor_algebra(M2, ts_bc.product)
    ts_ab = tensor_algebra(M2, C2)
    ts_ab_c = tensor_algebra(ts_ab.product, SUM)
    x = tensor_elements(ts_a_bc, a, tensor_elements(ts_bc, b, c))
    want = tensor_elements(ts_ab_c, tensor_elements(ts_ab, a, b), c)
    assert equal(apply(associator(M2, C2, SUM), x), want)


def test_unitors_on_simple_tensors():
    rng = np.random.default_rng(7)
    one = make_algebra([1])
    a = random_element(SUM, rng)
    z = one.scalar(2.5)
    ts = tensor_algebra(one, SUM)
    assert equal(apply(left_unitor(SUM), tensor_elements(ts, z, a)), 2.5 * a)
    ts2 = tensor_algebra(SUM, one)
    assert equal(apply(right_unitor(SUM), tensor_elements(ts2, a, z)), 2.5 * a)
    assert maps_equal(left_unitor(one), right_unitor(one))


def test_distributor_blocks():
    parts = [make_algebra([2]), make_algebra([3])]
    di = distributor(M2, parts)
    assert di.dom.dims == (4, 6)
    assert di.cod.dims == (4, 6)
    assert is_miu(di)
    rng = np.random.default_rng(8)
    a = random_element(M2, rng)
    b = random_element(SUM, rng)
    ts = tensor_algebra(M2, SUM)
    img = apply(di, tensor_elements(ts, a, b))
    # first codomain block holds a (x) (first part of b)
    ts0 = tensor_algebra(M2, parts[0])
    want0 = np.kron(a.blocks[0], b.blocks[0])
    assert np.allclose(img.blocks[0], want0)


def test_duplicability_verdicts():
    assert is_duplicable(make_algebra([1]))
    assert is_duplicable(make_algebra([1, 1, 1]))
    assert not is_duplicable(M2)
    assert not is_duplicable(make_algebra([2, 1]))
    assert not is_duplicable(make_algebra([3]))


def test_duplicator_on_classical_bit_pair():
    c2 = C2
    dup = duplicator(c2)
    assert dup is not None
    ts = tensor_algebra(c2, c2)
    a = c2.element([[[2.0]], [[3.0]]])
    b = c2.element([[[5.0]], [[7.0]]])
    assert equal(apply(dup, tensor_elements(ts, a, b)),
                 c2.element([[[10.0]], [[21.0]]]))
    assert is_completely_positive(dup)
    assert is_subunital(dup)
    for x in c2.basis():
        assert equal(apply(dup, tensor_elements(ts, x, c2.unit())), x)
        assert equal(apply(dup, tensor_elements(ts, c2.unit(), x)), x)


def test_duplicator_none_and_witness_for_matrix_block():
    assert duplicator(M2) is None
    w = duplicability_witness(M2, samples=1000, seed=3)
    assert w is not None
    assert is_positive(w)
    assert not is_positive(apply(multiplication_map(M2), w))


@pytest.mark.parametrize("samples", [0, -1])
def test_an_exhausted_sample_budget_is_a_typed_error(samples):
    with pytest.raises(SampleBudgetExhausted) as err:
        duplicability_witness(M2, samples=samples)
    assert isinstance(err.value, VnalgError) and isinstance(err.value, RuntimeError)


def test_one_bad_block_spoils_duplicability():
    alg = make_algebra([2, 1])
    assert duplicator(alg) is None
    w = duplicability_witness(alg, samples=2000, seed=4)
    assert not is_positive(apply(multiplication_map(alg), w))


def test_monoid_structure_iff_duplicable():
    # Multiplication is a monoid structure exactly in the classical case:
    # positive and unital there, positivity-violating on a matrix block.
    c3 = make_algebra([1, 1, 1])
    m = multiplication_map(c3)
    assert is_completely_positive(m)
    assert is_unital(m)
    assert duplicability_witness(c3, samples=10, seed=0) is None
    assert duplicability_witness(M2, samples=500, seed=0) is not None


def test_classical_points_and_bang():
    assert classical_points(make_algebra([1, 1, 1])) == [0, 1, 2]
    assert bang(make_algebra([1, 1, 1])).dims == (1, 1, 1)
    assert classical_points(M2) == []
    assert bang(M2).dims == ()
    assert classical_points(make_algebra([2, 1])) == [1]
    assert bang(make_algebra([2, 1])).dims == (1,)


def _character_oracle(n):
    """Solve the multiplicative-functional constraints on one matrix block.

    A character must send exactly one diagonal unit to 1; off-diagonal
    units square to zero yet multiply back to the surviving diagonal unit,
    which is impossible unless the block is one-dimensional.
    """
    if n == 1:
        return 1
    # try each candidate diagonal position and derive a contradiction
    feasible = 0
    for jstar in range(n):
        consistent = True
        for i in range(n):
            if i == jstar:
                continue
            # phi(E_{i,jstar})^2 = phi(E_{i,jstar} E_{i,jstar}) = 0 forces 0,
            # but phi(E_{jstar,i}) phi(E_{i,jstar}) = phi(E_{jstar,jstar}) = 1.
            consistent = False
        if consistent:
            feasible += 1
    return feasible


def test_classical_points_against_character_oracle():
    for dims in [[1], [2], [3], [2, 1], [1, 1]]:
        alg = make_algebra(dims)
        want = sum(_character_oracle(n) for n in alg.dims)
        assert len(classical_points(alg)) == want


def test_bang_unit_is_miu_and_universal():
    alg = make_algebra([2, 1, 1])
    eta = bang_unit(alg)
    assert is_miu(eta)
    assert eta.cod.dims == (1, 1)
    # factorization of a miu map into a classical algebra through bang
    target = make_algebra([1, 1, 1])
    images = []
    for e in alg.basis():
        v1 = e.blocks[1][0, 0]
        v2 = e.blocks[2][0, 0]
        images.append(target.element([[[v2]], [[v1]], [[v1]]]))
    f = make_map(alg, target, images)
    assert is_miu(f)
    g = factor_through_classical(f)
    assert g is not None
    assert maps_equal(compose(g, eta), f)
    assert is_miu(g)
    # uniqueness: eta is surjective on coordinates, so the factor is forced
    g2 = factor_through_classical(f)
    assert maps_equal(g, g2)


def test_factor_through_classical_uses_map_equality():
    # One coordinate 5e-6 off a character: close entrywise at a relative 1e-5,
    # yet neither equal to the character as a map nor miu.
    eta = bang_unit(make_algebra([2, 1, 1]))
    m = np.array(eta.matrix)
    m[0, 4] = 1 + 5e-6
    f = LinMap(eta.dom, eta.cod, m)
    assert not is_miu(f) and not maps_equal(f, eta)
    assert factor_through_classical(f) is None


def test_all_ones_tensor_is_all_ones():
    x = make_algebra([1, 1])
    y = make_algebra([1, 1, 1])
    ts = tensor_algebra(x, y)
    assert ts.product.dims == (1,) * 6
    rng = np.random.default_rng(9)
    f = random_element(x, rng)
    g = random_element(y, rng)
    fg = tensor_elements(ts, f, g)
    for i in range(2):
        for j in range(3):
            assert fg.blocks[ts.block_index(i, j)][0, 0] == pytest.approx(
                f.blocks[i][0, 0] * g.blocks[j][0, 0])


def test_tensor_elements_rejects_mismatch():
    ts = tensor_algebra(M2, C2)
    with pytest.raises(AlgebraMismatch):
        tensor_elements(ts, C2.unit(), C2.unit())
