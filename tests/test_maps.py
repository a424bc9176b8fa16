"""Linear maps: structural predicates, Choi blocks, verdicts, carriers,
and the diamond calculus on projections."""

import copy
import itertools
import pickle
import warnings

import numpy as np
import pytest

from vnalg import (Verdict, adjoint, apply, carrier, central_carrier, choi_blocks, compose, conjugation_map, density, diamond_bwd,
                   diamond_box, diamond_fwd, equal, functional_from_density,
                   identity_map, is_completely_positive, is_involutive, is_miu,
                   is_multiplicative, is_positive, is_positive_functional,
                   is_positive_map, is_subunital, is_unital, leq, make_algebra,
                   make_map, maps_equal, min_choi_eigenvalue, mul, mult_map,
                   operator_norm, orthosupplement, range_projection,
                   snap_projection, trace, trace_functional,
                   transpose_map, vector_functional)
from vnalg.errors import NotFinite, NotPositive, ShapeMismatch
from vnalg.maps import (LinMap, block_projection, cp_from_kraus,
                        random_cp_map, random_cpu_map, random_state,
                        scalar_value, zero_map, are_contraposed, are_equivalent)
from vnalg.measurement import (bracket, chevron, factor_through_corner, factor_through_filter,
                               is_diamond_positive, is_pure)
from vnalg.projections import projection_family
from vnalg.sampling import (random_element, random_positive, random_projection,
                            random_self_adjoint, random_unitary)
from vnalg.spectral import sqrt

M2 = make_algebra([2])
M3 = make_algebra([3])
SUM = make_algebra([2, 3])


def test_identity_and_compose():
    rng = np.random.default_rng(0)
    a = random_element(M2, rng)
    assert equal(apply(identity_map(M2), a), a)
    f = conjugation_map(random_element(M2, rng))
    assert maps_equal(compose(f, identity_map(M2)), f)
    assert maps_equal(compose(identity_map(M2), f), f)


def test_make_map_validates_shapes():
    with pytest.raises(ShapeMismatch):
        make_map(M2, M2, [M2.unit()])  # wrong arity
    with pytest.raises(ShapeMismatch):
        apply(identity_map(M2), M3.unit())


def test_conjugation_map_action():
    rng = np.random.default_rng(1)
    v = random_element(M2, rng)
    a = random_element(M2, rng)
    assert equal(apply(conjugation_map(v), a), mul(mul(adjoint(v), a), v))


def test_block_projection_is_miu():
    pi = block_projection(SUM, 1)
    assert is_miu(pi)
    a = SUM.element([np.eye(2), 2.0 * np.eye(3)])
    assert equal(apply(pi, a), make_algebra([3]).scalar(2.0))


def test_transpose_is_unital_involutive_positive_not_multiplicative():
    t = transpose_map(M2)
    assert is_unital(t)
    assert is_involutive(t)
    assert not is_multiplicative(t)
    # basis check: E12 E21 maps differently than the product of images
    e12 = M2.element([np.array([[0.0, 1.0], [0.0, 0.0]])])
    e21 = M2.element([np.array([[0.0, 0.0], [1.0, 0.0]])])
    assert not equal(apply(t, mul(e12, e21)), mul(apply(t, e12), apply(t, e21)))


def test_zero_map_subunital_not_unital():
    z = zero_map(M2, M2)
    assert is_subunital(z)
    assert not is_unital(z)


def test_transpose_choi_block_is_swap():
    blocks = choi_blocks(transpose_map(M2))
    assert len(blocks) == 1
    swap = np.zeros((4, 4))
    for j in range(2):
        for k in range(2):
            swap[j * 2 + k, k * 2 + j] = 1.0
    assert np.allclose(blocks[0].matrix, swap)
    eigs = np.linalg.eigvalsh(swap)
    assert eigs.min() == pytest.approx(-1.0)
    assert min_choi_eigenvalue(transpose_map(M2)) == pytest.approx(-1.0, abs=1e-9)
    assert not is_completely_positive(transpose_map(M2))


@pytest.mark.parametrize("seed", range(4))
def test_conjugation_maps_are_cp(seed):
    v = random_element(SUM, np.random.default_rng(seed))
    assert is_completely_positive(conjugation_map(v))


def test_miu_maps_are_cp():
    assert is_completely_positive(block_projection(SUM, 0))
    assert is_completely_positive(identity_map(SUM))


def test_positive_functional_and_density():
    tau = trace_functional(M2)
    assert is_positive_functional(tau)
    assert equal(density(tau), M2.unit())
    x = np.array([1.0, 1.0]) / np.sqrt(2)
    omega = vector_functional(M2, 0, x)
    assert is_positive_functional(omega)
    assert equal(density(omega), M2.element([np.outer(x, x.conj())]))
    # the entry functional a -> a_12 has a non-Hermitian density
    row = np.zeros(4, dtype=complex)
    row[1] = 1.0
    from vnalg.maps import LinMap, SCALARS
    entry = LinMap(M2, SCALARS, row.reshape(1, 4))
    assert not is_positive_functional(entry)


def test_density_round_trip():
    rng = np.random.default_rng(2)
    rho = random_positive(SUM, rng)
    omega = functional_from_density(rho)
    assert equal(density(omega), rho)
    a = random_element(SUM, rng)
    want = sum(np.trace(r @ b) for r, b in zip(rho.blocks, a.blocks))
    assert scalar_value(apply(omega, a)) == pytest.approx(complex(want))


def test_positivity_verdicts():
    t = transpose_map(M2)
    assert is_positive_map(t).verdict is Verdict.LIKELY_POSITIVE
    f = conjugation_map(random_element(M2, np.random.default_rng(0)))
    assert is_positive_map(f).verdict is Verdict.PROVEN_CP
    report = is_positive_map(-1.0 * identity_map(M2))
    assert report.verdict is Verdict.NOT_POSITIVE
    assert equal(report.witness, M2.unit())
    # Not involutive, so decided; the search still returns a witness.
    f = 1j * identity_map(M2)
    report = is_positive_map(f)
    assert report.verdict is Verdict.NOT_POSITIVE
    assert is_positive(report.witness) and not is_positive(apply(f, report.witness))


def test_positivity_exact_on_commutative_domain():
    c2 = make_algebra([1, 1])
    f = make_map(c2, M2, [M2.element([np.diag([1.0, 0.0])]),
                          M2.element([np.diag([-0.5, 1.0])])])
    report = is_positive_map(f)
    assert report.verdict is Verdict.NOT_POSITIVE
    assert report.witness is not None
    assert is_positive(report.witness)
    g = make_map(c2, M2, [M2.element([np.diag([1.0, 0.0])]),
                          M2.element([np.diag([0.5, 1.0])])])
    assert is_positive_map(g).verdict is Verdict.PROVEN_CP


def test_positivity_exact_on_commutative_codomain():
    c2 = make_algebra([1, 1])
    bad_density = M2.element([np.diag([1.0, -0.5])])
    f = make_map(M2, c2, [
        c2.element([[[scalar_value(apply(functional_from_density(bad_density), e))]],
                    [[trace(e)]]])
        for e in M2.basis()])
    report = is_positive_map(f)
    assert report.verdict is Verdict.NOT_POSITIVE
    assert report.witness is not None
    assert not is_positive(apply(f, report.witness))


def test_commutative_codomain_witness_past_a_density_that_is_only_skew():
    # The first coordinate density is not self-adjoint at its own scale, yet
    # the map is involutive at its scale 1e6; it has no negative direction, and
    # the second density's negative direction e_2 is the witness.
    c2 = make_algebra([1, 1])
    rhos = [M2.element([[[1.0, 1e-5], [0.0, 1.0]]]), M2.element([1e6 * np.diag([1.0, -1.0])])]
    f = LinMap(M2, c2, np.vstack([functional_from_density(rho).matrix for rho in rhos]))
    report = is_positive_map(f)
    assert report.verdict is Verdict.NOT_POSITIVE
    assert report.witness is not None and equal(report.witness, M2.element([np.diag([0.0, 1.0])]))
    assert is_positive(report.witness) and not is_positive(apply(f, report.witness))


def test_functional_with_indefinite_density_has_a_verified_witness():
    # Hermitian with determinant 0.06 - 0.36 < 0, so one eigenvalue is negative.
    rho = M2.element([np.array([[0.2, 0.6j], [-0.6j, 0.3]])])
    f = functional_from_density(rho)
    report = is_positive_map(f)
    assert report.verdict is Verdict.NOT_POSITIVE
    assert is_positive(report.witness)
    assert not is_positive(apply(f, report.witness))


def test_elements_and_maps_survive_pickle_and_copy():
    rng = np.random.default_rng(4)
    a = random_element(SUM, rng)
    operator_norm(a)
    f = random_cp_map(M2, SUM, rng)
    for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        b, g = clone(a), clone(f)
        assert b.algebra == a.algebra and all(
            np.array_equal(x, y) for x, y in zip(b.blocks, a.blocks))
        assert (g.dom, g.cod) == (f.dom, f.cod) and np.array_equal(g.matrix, f.matrix)
        with pytest.raises(AttributeError):
            b.blocks = ()
        with pytest.raises(AttributeError):
            g.matrix = None
        assert not b.blocks[0].flags.writeable and not g.matrix.flags.writeable


def test_carrier_of_conjugation():
    rng = np.random.default_rng(3)
    a = random_element(M3, rng)
    f = conjugation_map(a)  # x -> a* x a
    assert equal(carrier(f), range_projection(a))


def test_carrier_of_vector_functional():
    x = np.array([1.0, 1j]) / np.sqrt(2)
    omega = vector_functional(M2, 0, x)
    assert equal(carrier(omega), M2.element([np.outer(x, x.conj())]))


def test_carrier_of_faithful_map_is_unit():
    assert equal(carrier(identity_map(SUM)), SUM.unit())
    assert equal(carrier(trace_functional(SUM)), SUM.unit())


def test_carrier_reconstruction_property():
    rng = np.random.default_rng(4)
    f = conjugation_map(mul(random_element(M3, rng),
                            random_projection(M3, rng, ranks=(2,))))
    car = carrier(f)
    for _ in range(5):
        a = random_element(M3, rng)
        assert equal(apply(f, a), apply(f, mul(mul(car, a), car)))


def test_carrier_requires_positivity_evidence():
    with pytest.raises(NotPositive):
        carrier(-1.0 * identity_map(M2))


def test_central_carrier_examples():
    pi = block_projection(SUM, 0)
    cc = central_carrier(pi)
    assert equal(cc, SUM.element([np.eye(2), np.zeros((3, 3))]))
    # carrier of a miu map is already central
    assert equal(carrier(pi), cc)
    omega = vector_functional(M2, 0, np.array([1.0, 0.0]))
    assert equal(central_carrier(omega), M2.unit())
    assert equal(central_carrier(identity_map(SUM)), SUM.unit())


def test_diamond_forward_identity():
    for e in projection_family(M2, seed=0):
        assert equal(diamond_fwd(identity_map(M2), e), snap_projection(e))


@pytest.mark.parametrize("seed", range(3))
def test_diamond_galois_adjunction(seed):
    rng = np.random.default_rng(seed)
    f = random_cp_map(M3, M2, rng)
    for s in projection_family(M3, seed=seed, extra=2):
        for t in projection_family(M2, seed=seed + 1, extra=2):
            lhs = leq(diamond_fwd(f, s), orthosupplement(t), tol=_loose())
            rhs = leq(diamond_bwd(f, t), orthosupplement(s), tol=_loose())
            assert lhs == rhs


def _loose():
    from vnalg import ToleranceConfig
    return ToleranceConfig(eps_rel=1e-7, eps_abs=1e-9, snap_eps=1e-6)


def test_adjoint_conjugations_are_contraposed():
    rng = np.random.default_rng(5)
    a = random_element(M2, rng)
    f = conjugation_map(a)           # a* ( ) a
    g = conjugation_map(adjoint(a))  # a ( ) a*
    assert are_contraposed(f, g)
    assert are_contraposed(g, f)


def test_scaled_maps_are_equivalent():
    rng = np.random.default_rng(6)
    f = random_cp_map(M2, M2, rng)
    assert are_equivalent(f, 2.5 * f)
    # compressing to a proper corner changes the forward diamond at the unit
    e = random_projection(M2, rng, ranks=(1,))
    assert not are_equivalent(identity_map(M2), conjugation_map(e))


@pytest.mark.parametrize("seed", range(3))
def test_diamond_of_composition(seed):
    rng = np.random.default_rng(seed)
    f = random_cp_map(M3, M2, rng)
    g = random_cp_map(M2, M2, rng)
    gf = compose(g, f)
    for e in projection_family(M3, seed=seed, extra=3):
        assert equal(diamond_fwd(gf, e), diamond_fwd(g, diamond_fwd(f, e)))


@pytest.mark.parametrize("seed", range(3))
def test_diamond_of_sum_is_join(seed):
    rng = np.random.default_rng(seed)
    f = random_cp_map(M3, M2, rng)
    g = random_cp_map(M3, M2, rng)
    from vnalg import join
    for e in projection_family(M3, seed=seed, extra=3):
        lhs = diamond_fwd(f + g, e)
        rhs = join([diamond_fwd(f, e), diamond_fwd(g, e)])
        assert equal(lhs, rhs)


def test_diamond_box_accessor():
    rng = np.random.default_rng(8)
    f = random_cpu_map(M2, M2, rng)
    for e in projection_family(M2, seed=1, extra=2):
        assert equal(diamond_box(f, e),
                     orthosupplement(diamond_fwd(f, orthosupplement(e))))


@pytest.mark.parametrize("seed", range(5))
def test_kadison_inequality(seed):
    rng = np.random.default_rng(seed)
    omega = random_state(SUM, rng)
    a = random_element(SUM, rng)
    b = random_element(SUM, rng)
    val = abs(scalar_value(apply(omega, mul(adjoint(a), b)))) ** 2
    bound = scalar_value(apply(omega, mul(adjoint(a), a))).real * \
        scalar_value(apply(omega, mul(adjoint(b), b))).real
    assert val <= bound * (1 + 1e-9) + 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_cp_cauchy_schwarz(seed):
    rng = np.random.default_rng(seed)
    f = random_cp_map(M2, M2, rng)
    a = random_element(M2, rng)
    b = random_element(M2, rng)
    lhs = mul(apply(f, mul(adjoint(a), b)), apply(f, mul(adjoint(b), a)))
    rhs = operator_norm(apply(f, mul(adjoint(b), b))) * apply(f, mul(adjoint(a), a))
    assert is_positive(rhs - lhs, tol=_loose())


@pytest.mark.parametrize("seed", range(5))
def test_choi_one_point_multiplicativity(seed):
    # A cpu map multiplicative at a is left-multiplicative against a.
    rng = np.random.default_rng(seed)
    p = random_projection(M3, rng)
    pinch = make_map(M3, M3, [
        mul(mul(p, e), p) + mul(mul(orthosupplement(p), e), orthosupplement(p))
        for e in M3.basis()])
    assert is_unital(pinch) and is_completely_positive(pinch)
    a = p
    assert equal(apply(pinch, mul(adjoint(a), a)),
                 mul(adjoint(apply(pinch, a)), apply(pinch, a)))
    for b in M3.basis():
        assert equal(apply(pinch, mul(b, a)), mul(apply(pinch, b), apply(pinch, a)))


@pytest.mark.parametrize("seed", range(3))
def test_russo_dye_sampled(seed):
    rng = np.random.default_rng(seed)
    f = random_cp_map(M2, M2, rng)
    cap = operator_norm(apply(f, M2.unit()))
    for _ in range(100):
        a = random_self_adjoint(M2, rng)
        n = operator_norm(a)
        if n == 0:
            continue
        assert operator_norm(apply(f, (1.0 / n) * a)) <= cap + 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_gardner_multiplicative_iff_projections_to_projections(seed):
    from vnalg import is_projection
    rng = np.random.default_rng(seed)
    u = random_unitary(M3, rng)
    miu = conjugation_map(u)  # unitary conjugation: multiplicative
    assert is_multiplicative(miu)
    for e in projection_family(M3, seed=seed, extra=3):
        assert is_projection(apply(miu, e))
    # a strictly mixing cpu map sends some projection off the projections
    f = random_cpu_map(M3, M3, rng, terms=3)
    if not is_multiplicative(f):
        found = False
        for e in projection_family(M3, seed=seed, extra=6):
            img = apply(f, e)
            if not is_projection(img):
                found = True
                break
        assert found


@pytest.mark.parametrize("seed", range(4))
def test_cpsu_isomorphism_is_miu(seed):
    rng = np.random.default_rng(seed)
    u = random_unitary(M3, rng)
    iso = conjugation_map(u)
    inv = conjugation_map(adjoint(u))
    assert maps_equal(compose(inv, iso), identity_map(M3))
    assert is_completely_positive(iso) and is_subunital(iso)
    assert is_miu(iso)
    # perturbed versions stop being both an iso-pair of cpsu maps and miu
    perturbed = 0.9 * iso + 0.1 * random_cpu_map(M3, M3, rng)
    if not is_multiplicative(perturbed):
        assert not is_miu(perturbed)


def test_kraus_assembly_between_different_algebras():
    rng = np.random.default_rng(9)
    k = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    f = cp_from_kraus(M2, M3, [(0, 0, k)])
    assert is_completely_positive(f)
    a = random_element(M2, rng)
    assert equal(apply(f, a), M3.element([k.conj().T @ a.blocks[0] @ k]))


def _poisoned(kind, value):
    """The identity on M2 with entry [1, 2] set, or a CP map on M2+M1 with [4, 0] set."""
    if kind == "identity":
        m, alg, at = np.eye(4, dtype=complex), M2, (1, 2)
    else:
        alg, at = make_algebra([2, 1]), (4, 0)
        m = np.array(random_cp_map(alg, alg, np.random.default_rng(3)).matrix)
    m[at] = value
    return LinMap(alg, alg, m)


def factor_through_filter_by_2(f):
    return factor_through_filter(f, 2.0 * f.dom.unit())


def factor_through_corner_of_1(f):
    return factor_through_corner(f, f.dom.unit())


def maps_equal_to_itself(f):
    return maps_equal(f, f)


def maps_equal_to_the_identity(f):
    return maps_equal(f, identity_map(f.dom))


POISON_VALUES = [np.inf, np.nan, complex(0.0, -np.inf)]


@pytest.mark.parametrize("predicate", [is_involutive, is_multiplicative,
                                       is_completely_positive, min_choi_eigenvalue,
                                       is_unital, is_subunital, is_miu,
                                       is_diamond_positive, factor_through_filter_by_2,
                                       factor_through_corner_of_1, maps_equal_to_itself,
                                       maps_equal_to_the_identity])
@pytest.mark.parametrize("value", POISON_VALUES)
@pytest.mark.parametrize("kind", ["identity", "cp"])
def test_non_finite_maps_raise_not_finite_before_lapack(predicate, value, kind, capfd):
    # Unchecked, an SVD of such a block gives NaN norms that compare false, or
    # LAPACK prints to stderr and numpy raises LinAlgError.
    with pytest.raises(NotFinite):
        predicate(_poisoned(kind, value))
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("predicate", [is_unital, is_subunital, is_miu, is_involutive,
                                       is_multiplicative, is_completely_positive,
                                       min_choi_eigenvalue, carrier, is_diamond_positive,
                                       factor_through_filter_by_2, bracket, chevron, is_pure,
                                       factor_through_corner_of_1, maps_equal_to_itself,
                                       maps_equal_to_the_identity])
def test_unit_image_predicates_warn_nothing_on_non_finite_maps(predicate):
    # f(1) of a map with an infinite entry meets 0 * inf, and the stacked
    # differences of the map predicates meet inf - inf; numpy's warning about
    # either would reach stderr before the NotFinite.
    for kind, value in itertools.product(["identity", "cp"], POISON_VALUES):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotFinite):
                predicate(_poisoned(kind, value))
