"""Spectra, functional calculus, and roots, checked against independent
oracles: characteristic-polynomial roots and the quadratic iteration."""

import warnings

import numpy as np
import pytest

import vnalg.spectral
from loop_oracles import apply_block_mean, eigen_oracle_charpoly, eigenpairs, sqrt_iterative
from vnalg import (absolute, adjoint, add, equal, functional_calculus, leq,
                   make_algebra, mul, neg_part, operator_norm, pos_part, power,
                   scalar_mul, spectral_radius, spectrum, sqrt)
from vnalg.errors import FunctionUndefinedOnSpectrum, NotNormal, NotPositive, NotSelfAdjoint
from vnalg.sampling import random_positive, random_unitary
from vnalg.spectral import _apply_block, named_function

M2 = make_algebra([2])


def test_spectrum_nilpotent_is_zero():
    a = M2.element([np.array([[0, 2], [0, 0]])])
    sp = spectrum(a)
    assert max(abs(v) for v in sp.values) < 1e-9
    assert operator_norm(a) == pytest.approx(2.0)  # radius 0, norm 2


def test_spectrum_blockwise_diagonal():
    alg = make_algebra([2, 1])
    a = alg.element([np.diag([1.0, 2.0]), np.array([[5.0]])])
    sp = spectrum(a)
    assert sorted(v.real for v in sp.values) == pytest.approx([1.0, 2.0, 5.0])
    assert [v.real for v in sp.per_block[1]] == pytest.approx([5.0])


def test_spectrum_against_charpoly_oracle():
    m = [[2.0, 1.0], [1.0, 2.0]]
    oracle = sorted(r.real for r in eigen_oracle_charpoly(m))
    sp = spectrum(M2.element([np.array(m)]))
    assert sorted(v.real for v in sp.values) == pytest.approx(oracle)
    assert oracle == pytest.approx([1.0, 3.0])


@pytest.mark.parametrize("seed", range(4))
def test_spectrum_matches_charpoly_on_random_matrices(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    got = sorted(spectrum(make_algebra([3]).element([m])).values,
                 key=lambda z: (z.real, z.imag))
    want = sorted(eigen_oracle_charpoly(m), key=lambda z: (z.real, z.imag))
    assert np.allclose(got, want, atol=1e-8)


def test_spectral_radius_examples():
    a = M2.element([np.array([[2.0, 1.0], [1.0, 2.0]])])
    assert spectral_radius(a) == pytest.approx(3.0)
    assert spectral_radius(a) == pytest.approx(operator_norm(a))
    nil = M2.element([np.array([[0, 2], [0, 0]])])
    assert spectral_radius(nil) < 1e-9
    assert spectral_radius(M2.unit()) == pytest.approx(1.0)


def test_functional_calculus_identity_and_diag():
    a = M2.element([np.diag([4.0, 9.0])])
    assert equal(functional_calculus(a, lambda z: z), a)
    assert equal(sqrt(a), M2.element([np.diag([2.0, 3.0])]))


def test_sqrt_against_iteration_oracle():
    a = M2.element([np.array([[2.0, 1.0], [1.0, 2.0]])])
    direct = sqrt(a)
    iterated = sqrt_iterative(a, iterations=200)
    assert operator_norm(direct - iterated) < 1e-6
    assert equal(mul(direct, direct), a)
    assert equal(mul(direct, a), mul(a, direct))


@pytest.mark.parametrize("seed", range(5))
def test_sqrt_iteration_agrees_on_random_effects(seed):
    # The iteration is sublinear near eigenvalue zero (error ~ 2/n), so the
    # 200-step/1e-6 budget needs spectra bounded away from the kernel.
    rng = np.random.default_rng(seed)
    alg = make_algebra([3])
    u = random_unitary(alg, rng)
    d = alg.element([np.diag(rng.uniform(0.04, 1.0, size=3))])
    a = mul(mul(u, d), adjoint(u))
    assert operator_norm(sqrt(a) - sqrt_iterative(a, 200)) < 1e-6


def test_sqrt_rejects_non_positive():
    with pytest.raises(NotPositive):
        sqrt(M2.element([np.diag([1.0, -1.0])]))


def test_abs_and_parts():
    assert equal(sqrt(M2.zero()), M2.zero())
    assert equal(absolute(scalar_mul(-1.0, M2.unit())), M2.unit())
    a = M2.element([np.diag([3.0, -2.0])])
    assert equal(pos_part(a), M2.element([np.diag([3.0, 0.0])]))
    assert equal(neg_part(a), M2.element([np.diag([0.0, 2.0])]))
    assert equal(a, pos_part(a) - neg_part(a))
    assert operator_norm(mul(pos_part(a), neg_part(a))) < 1e-12


def test_abs_triangle_inequality_fails():
    # |a+b| need not be below |a| + |b|.
    a = M2.element([0.5 * np.ones((2, 2))])
    b = M2.element([-np.diag([1.0, 0.0])])
    lhs = absolute(add(a, b))
    rhs = add(absolute(a), absolute(b))
    assert not leq(lhs, rhs)


@pytest.mark.parametrize("alpha", [0.5, 0.25])
@pytest.mark.parametrize("seed", range(4))
def test_monotone_roots(alpha, seed):
    rng = np.random.default_rng(seed)
    alg = make_algebra([3])
    a = random_positive(alg, rng)
    b = add(a, random_positive(alg, rng))
    assert leq(power(a, alpha), power(b, alpha))


@pytest.mark.parametrize("seed", range(4))
def test_spectral_mapping_on_random_normals(seed):
    rng = np.random.default_rng(seed)
    u = random_unitary(M2, rng)
    d = M2.element([np.diag(rng.standard_normal(2) + 1j * rng.standard_normal(2))])
    a = mul(mul(u, d), adjoint(u))
    coeffs = rng.standard_normal(3)

    def poly(z):
        return coeffs[0] + coeffs[1] * z + coeffs[2] * z * z

    image = functional_calculus(a, poly)
    got = sorted(spectrum(image).values, key=lambda z: (z.real, z.imag))
    want = sorted((poly(v) for v in spectrum(a).values),
                  key=lambda z: (z.real, z.imag))
    assert np.allclose(got, want, atol=1e-8)
    # (f*g)(a) = f(a) g(a) with f = g = the polynomial
    assert equal(functional_calculus(a, lambda z: poly(z) * poly(z)),
                 mul(image, image))


def test_functional_calculus_rejects_non_normal():
    with pytest.raises(NotNormal):
        functional_calculus(M2.element([np.array([[0, 2], [0, 0]])]), lambda z: z)


def test_functional_calculus_takes_a_self_adjoint_element_as_normal():
    # Self-adjoint within tolerance, but the commutator of its Hermitian and
    # skew parts fails the normality threshold: the calculus runs on the
    # Hermitian part.
    a = M2.element([np.array([[1e4, 4.5e-6], [-4.5e-6, -1e4]])])
    assert not vnalg.spectral.is_normal(a)
    assert equal(functional_calculus(a, lambda z: z), M2.element([np.diag([1e4, -1e4])]))


def test_function_undefined_at_eigenvalue():
    a = M2.element([np.diag([1.0, 0.0])])
    with pytest.raises(FunctionUndefinedOnSpectrum):
        functional_calculus(a, lambda z: 1.0 / z.real)


def test_named_functions():
    f = named_function("pow:0.5")
    assert f(4.0) == pytest.approx(2.0)
    g = named_function("exp-phase")
    assert g(0.0) == 1.0
    assert abs(g(0.25) - g(0.5) ** 2) < 1e-12  # g(x^2) = g(x)^2
    assert abs(g(0.5) - 1.0) > 0.1
    with pytest.raises(KeyError):
        named_function("nope")


@pytest.mark.parametrize("name", ["sqrt", "abs", "pospart", "negpart", "pow:0.5", "exp-phase"])
def test_real_only_named_functions_reject_a_non_real_centre(name):
    # A rotation of M2 is normal with eigenvalues +-i; reading only the real
    # part would take f(0) on both and answer with no error.
    f = named_function(name)
    with pytest.raises(ValueError):
        f(0.25 + 1e-300j)
    assert f(0.25 + 0j) == f(0.25)
    rotation = M2.element([np.array([[0.0, 1.0], [-1.0, 0.0]])])
    with pytest.raises(FunctionUndefinedOnSpectrum, match="real line"):
        functional_calculus(rotation, f)


def test_degenerate_eigenvalues_cluster_consistently():
    # Numerically split eigenvalues must not be separated by the function.
    eps = 1e-12
    a = M2.element([np.diag([1.0, 1.0 + eps])])
    out = functional_calculus(a, lambda z: 0.0 if z.real < 1.0 + 1e-9 else 100.0)
    assert operator_norm(out) < 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_cluster_centres_keep_the_bits_of_the_plain_mean(seed):
    # A cluster's centre is 2 * mean(vals / 2), so that a pair of eigenvalues
    # near the float limit cannot overflow; above the subnormals the scaling
    # is exact, so centres and results keep the bits of the plain mean.
    rng = np.random.default_rng(seed)
    for hermitian in (True, False):
        for exponent in rng.uniform(-280, 300, size=4):
            n = int(rng.integers(3, 7))  # two bases, so some cluster has two members
            base = rng.uniform(0.1, 1.0, size=2) * rng.choice([-1.0, 1.0], size=2)
            if not hermitian:
                base = base * np.exp(1j * rng.uniform(-np.pi, np.pi, size=2))
            vals = base[rng.integers(0, 2, size=n)] * (1 + 1e-12 * rng.standard_normal(n))
            u = random_unitary(make_algebra([n]), rng).blocks[0]
            scale = 10.0 ** exponent
            b = u @ np.diag(vals * scale) @ u.conj().T
            if hermitian:
                b = (b + b.conj().T) / 2
            near = lambda d: d <= 1e-9 * scale  # noqa: E731
            got, want = [], []
            out = _apply_block(*eigenpairs(b, hermitian), lambda z: got.append(z) or z, near,
                               hermitian)
            ref = apply_block_mean(b, lambda z: want.append(z) or z, near, hermitian)
            assert len(got) < n
            assert np.array(got).tobytes() == np.array(want).tobytes()
            assert out.tobytes() == ref.tobytes()


def test_function_not_finite_at_eigenvalue():
    with pytest.raises(FunctionUndefinedOnSpectrum, match="not finite"):
        functional_calculus(M2.unit(), lambda z: complex(np.inf))


def test_power_rejects_non_positive():
    with pytest.raises(NotPositive):
        power(M2.element([np.diag([1.0, -1.0])]), 0.5)


@pytest.mark.parametrize("fn", [absolute, pos_part, neg_part])
def test_abs_and_parts_reject_non_self_adjoint(fn):
    with pytest.raises(NotSelfAdjoint):
        fn(M2.element([np.array([[0.0, 2.0], [0.0, 0.0]])]))


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_roots_and_parts_near_the_float_limit(scale):
    # a*a overflows here, so a normality test of a would see inf; the
    # positivity or self-adjointness check is the only one these need.
    a = M2.element([scale * np.array([[2.0, 1.0], [1.0, 2.0]])])
    root = np.sqrt(scale) * np.array([[np.sqrt(3) + 1, np.sqrt(3) - 1],
                                      [np.sqrt(3) - 1, np.sqrt(3) + 1]]) / 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = {fn.__name__: fn(a) for fn in (sqrt, absolute, pos_part, neg_part)}
        got["power"] = power(a, 0.5)
    for name in ("sqrt", "power"):
        np.testing.assert_allclose(got[name].blocks[0], root, rtol=1e-14)
    for name in ("absolute", "pos_part"):
        np.testing.assert_allclose(got[name].blocks[0], a.blocks[0], rtol=1e-14)
    assert operator_norm(got["neg_part"]) <= 1e-14 * scale


@pytest.mark.parametrize("fn", [sqrt, lambda a: power(a, 0.25), absolute, pos_part, neg_part],
                         ids=["sqrt", "power", "absolute", "pos_part", "neg_part"])
def test_checked_functions_run_no_normality_test(fn, monkeypatch):
    # Positivity and self-adjointness are checked by each function itself;
    # a normality test on top of them would only add an overflow risk.
    calls = []
    real = vnalg.spectral.is_normal
    monkeypatch.setattr(vnalg.spectral, "is_normal", lambda *args: calls.append(1) or real(*args))
    fn(random_positive(make_algebra([3]), np.random.default_rng(0)))
    assert calls == []
