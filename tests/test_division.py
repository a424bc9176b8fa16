"""Pseudoinverses, division, polar decomposition, sequential quotient."""

import numpy as np
import pytest

from vnalg import (adjoint, add, approximate_pseudoinverse, ceiling, divide,
                   douglas_lambda, equal, is_positive, left_divide, leq,
                   make_algebra, mul, mvn_below, operator_norm, polar,
                   pseudoinverse, range_projection, sandwich_divide,
                   seq_quotient, snap_projection, support)
from vnalg.errors import DivisionUndefined, NotFinite, QuotientUndefined
from vnalg.sampling import (random_element, random_positive, random_projection,
                            random_unitary)
from vnalg.spectral import sqrt

M2 = make_algebra([2])
M3 = make_algebra([3])


def _moore_penrose_oracle(block):
    """Textbook SVD reconstruction, independent of np.linalg.pinv defaults."""
    u, s, vh = np.linalg.svd(block)
    inv = np.array([1.0 / x if x > 1e-10 else 0.0 for x in s])
    return vh.conj().T @ np.diag(inv) @ u.conj().T


def test_pseudoinverse_examples():
    assert equal(pseudoinverse(M2.element([np.diag([2.0, 0.0])])),
                 M2.element([np.diag([0.5, 0.0])]))
    nil = M2.element([np.array([[0.0, 2.0], [0.0, 0.0]])])
    assert equal(pseudoinverse(nil),
                 M2.element([np.array([[0.0, 0.0], [0.5, 0.0]])]))
    u = random_unitary(M2, np.random.default_rng(0))
    assert equal(pseudoinverse(u), adjoint(u))


@pytest.mark.parametrize("seed", range(5))
def test_pseudoinverse_defining_identities(seed):
    rng = np.random.default_rng(seed)
    a = random_element(M3, rng)
    if seed % 2:
        a = mul(a, random_projection(M3, rng))
    t = pseudoinverse(a)
    assert equal(mul(t, a), support(a))
    assert equal(mul(a, t), range_projection(a))
    assert equal(support(t), range_projection(a))
    assert equal(range_projection(t), support(a))
    for b, want in zip(t.blocks, a.blocks):
        assert np.allclose(b, _moore_penrose_oracle(want), atol=1e-9)


def test_pseudoinverse_of_positive_commutes():
    a = random_positive(M3, np.random.default_rng(7))
    t = pseudoinverse(a)
    assert equal(mul(t, a), mul(a, t))


@pytest.mark.parametrize("seed", range(4))
def test_pseudoinverse_antitone_sampled(seed):
    # For commuting pseudoinvertible positives b <= c the inverses reverse;
    # sampled also without commutativity where it still holds.
    rng = np.random.default_rng(seed)
    u = random_unitary(M3, rng)
    vals = rng.uniform(0.2, 1.0, size=3)
    extra = rng.uniform(0.0, 1.0, size=3)
    b_diag = M3.element([np.diag(vals)])
    c_diag = M3.element([np.diag(vals + extra)])
    b = mul(mul(u, b_diag), adjoint(u))
    c = mul(mul(u, c_diag), adjoint(u))
    assert leq(b, c)
    assert leq(pseudoinverse(c), pseudoinverse(b))


def test_approximate_pseudoinverse_zero_and_unit():
    assert approximate_pseudoinverse(M2.zero()).terms == ()
    ap = approximate_pseudoinverse(M2.unit())
    assert len(ap.terms) == 1
    assert equal(ap.terms[0], M2.unit())


def test_approximate_pseudoinverse_banded_example():
    a = M3.element([np.diag([1.0, 0.5, 1.0 / 3.0])])
    ap = approximate_pseudoinverse(a)
    assert len(ap.terms) == 3  # bands [1, inf), [1/2, 1), [1/3, 1/2)
    total = M3.zero()
    for t in ap.terms:
        prod = mul(t, a)
        assert operator_norm(mul(prod, prod) - prod) < 1e-10  # projection
        total = add(total, mul(t, a))
    assert equal(total, M3.unit())
    summed = ap.total(M3)
    assert equal(summed, pseudoinverse(a))


@pytest.mark.parametrize("seed", range(5))
def test_approximate_pseudoinverse_general_elements(seed):
    rng = np.random.default_rng(seed)
    a = random_element(M3, rng)
    if seed % 2:
        a = mul(random_projection(M3, rng), a)
    ap = approximate_pseudoinverse(a)
    left = M3.zero()
    right = M3.zero()
    for t in ap.terms:
        ta, at = mul(t, a), mul(a, t)
        assert operator_norm(mul(ta, ta) - ta) < 1e-7
        assert operator_norm(mul(at, at) - at) < 1e-7
        left = add(left, ta)
        right = add(right, at)
    assert equal(left, support(a))
    assert equal(right, range_projection(a))
    # The series agrees with the closed-form pseudoinverse on the support.
    assert equal(ap.total(M3), pseudoinverse(a))


def test_divide_examples():
    b = M2.element([np.diag([1.0, 0.0])])
    a = M2.element([np.diag([3.0, 0.0])])
    assert equal(divide(a, b), a)
    a2 = M2.element([np.array([[0.0, 2.0], [0.0, 0.0]])])
    b2 = M2.element([np.diag([0.0, 2.0])])
    assert equal(divide(a2, b2), M2.element([np.array([[0.0, 1.0], [0.0, 0.0]])]))
    with pytest.raises(DivisionUndefined):
        divide(M2.element([np.diag([1.0, 0.0])]), M2.element([np.diag([0.0, 1.0])]))


@pytest.mark.parametrize("seed", range(6))
def test_divide_round_trip(seed):
    rng = np.random.default_rng(seed)
    c = random_element(M3, rng)
    b = random_element(M3, rng)
    if seed % 2:
        b = mul(b, random_projection(M3, rng))
    a = mul(c, b)
    q = divide(a, b)
    assert equal(mul(q, b), a)
    assert equal(q, mul(c, range_projection(b)))
    lam = douglas_lambda(a, b)
    assert operator_norm(q) <= lam + 1e-9
    # Douglas criterion: a*a <= lam^2 b*b
    gap = (lam * lam) * mul(adjoint(b), b) - mul(adjoint(a), a)
    from vnalg import ToleranceConfig
    assert is_positive(gap, ToleranceConfig(1e-6, 1e-9, 1e-6))


@pytest.mark.parametrize("seed", range(4))
def test_left_divide_round_trip(seed):
    rng = np.random.default_rng(seed)
    b = random_element(M3, rng)
    c = random_element(M3, rng)
    a = mul(b, c)
    q = left_divide(b, a)
    assert equal(mul(b, q), a)
    assert equal(q, mul(support(b), c))


@pytest.mark.parametrize("seed", range(4))
def test_divide_agrees_with_banded_series(seed):
    # Cross-check the closed form against the series sum_n a t_n built from
    # the banded inverse of b.
    rng = np.random.default_rng(seed)
    c = random_element(M3, rng)
    b = random_element(M3, rng)
    a = mul(c, b)
    series = M3.zero()
    for t in approximate_pseudoinverse(b).terms:
        series = add(series, mul(a, t))
    assert equal(divide(a, b), series)


@pytest.mark.parametrize("seed", range(4))
def test_ab_over_b(seed):
    rng = np.random.default_rng(seed)
    a = random_element(M3, rng)
    b = random_element(M3, rng)
    assert equal(divide(mul(a, b), b), mul(a, range_projection(b)))
    assert equal(left_divide(b, mul(b, a)), mul(support(b), a))


@pytest.mark.parametrize("seed", range(4))
def test_sandwich_positive(seed):
    rng = np.random.default_rng(seed)
    c = random_element(M3, rng)
    inner = random_positive(M3, rng)
    a = mul(mul(adjoint(c), inner), c)
    d = sandwich_divide(adjoint(c), a, c)
    assert is_positive(d, tol=_loose())
    assert equal(mul(mul(adjoint(c), d), c), a)


def _loose():
    from vnalg import ToleranceConfig
    return ToleranceConfig(eps_rel=1e-7, eps_abs=1e-9, snap_eps=1e-6)


def test_douglas_lambda_zero_for_zero():
    assert douglas_lambda(M2.zero(), M2.unit()) == 0.0


def test_polar_examples():
    a = random_positive(M2, np.random.default_rng(1))
    parts = polar(a)
    assert equal(parts.isometry, snap_projection(ceiling(a)))
    assert equal(parts.modulus, a)
    nil = M2.element([np.array([[0.0, 2.0], [0.0, 0.0]])])
    parts = polar(nil)
    assert equal(parts.isometry, M2.element([np.array([[0.0, 1.0], [0.0, 0.0]])]))
    assert equal(parts.modulus, M2.element([np.diag([0.0, 2.0])]))
    u = random_unitary(M2, np.random.default_rng(2))
    parts = polar(u)
    assert equal(parts.isometry, u)
    assert equal(parts.modulus, M2.unit())


@pytest.mark.parametrize("seed", range(8))
def test_polar_round_trip_and_projections(seed):
    rng = np.random.default_rng(seed)
    a = random_element(M3, rng)
    if seed % 3 == 0:
        a = mul(a, random_projection(M3, rng))
    parts = polar(a)
    assert operator_norm(a - mul(parts.isometry, parts.modulus)) \
        <= 1e-9 * (1 + operator_norm(a))
    v = parts.isometry
    assert equal(mul(adjoint(v), v), support(a))
    assert equal(mul(v, adjoint(v)), range_projection(a))
    # sqrt(aa*) [a] = a as well
    assert operator_norm(a - mul(sqrt(mul(a, adjoint(a))), v)) \
        <= 1e-8 * (1 + operator_norm(a))
    # adjoint compatibility
    assert equal(polar(adjoint(a)).isometry, adjoint(v))


@pytest.mark.parametrize("seed", range(4))
def test_polar_gives_mvn_witness(seed):
    # [e a] realizes the subequivalence produced by mvn_below.
    rng = np.random.default_rng(seed)
    e = random_projection(M3, rng, ranks=(2,))
    a = random_element(M3, rng)
    u = polar(mul(e, a)).isometry
    e1 = mul(adjoint(u), u)
    assert equal(e1, support(mul(e, a)))
    assert leq(mul(u, adjoint(u)), e, tol=_loose())
    w = mvn_below(snap_projection(e1), e)
    assert w is not None


def test_seq_quotient_examples():
    rng = np.random.default_rng(3)
    a = random_positive(M2, rng)
    c = seq_quotient(a, M2.unit())
    assert equal(c, a)
    b = random_positive(M2, rng)
    cb = seq_quotient(b, b)
    assert equal(cb, snap_projection(ceiling(b)))


@pytest.mark.parametrize("seed", range(5))
def test_seq_quotient_round_trip(seed):
    rng = np.random.default_rng(seed)
    b = random_positive(M3, rng)
    c0 = random_positive(M3, rng)
    root = sqrt(b)
    a = mul(mul(root, c0), root)
    c = seq_quotient(a, b)
    assert is_positive(c, tol=_loose())
    assert equal(mul(mul(root, c), root), a)
    assert leq(snap_projection(ceiling(c)), snap_projection(ceiling(b)))


def test_seq_quotient_undefined_on_disjoint_supports():
    a = M2.element([np.diag([1.0, 0.0])])
    b = M2.element([np.diag([0.0, 1.0])])
    with pytest.raises(QuotientUndefined):
        seq_quotient(a, b)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("fn", [support, polar, pseudoinverse])
def test_full_svds_refuse_non_finite_blocks(fn, value, capfd):
    # LAPACK's full SVD of such a block can spin forever (inf) or fail (NaN).
    rng = np.random.default_rng(0)
    b = 1e-8 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    b[0, 0] = value
    with pytest.raises(NotFinite):
        fn(M3.element([b]))
    assert capfd.readouterr().err == ""
