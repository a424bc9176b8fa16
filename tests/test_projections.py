"""Projection lattice: ceilings, floors, supports, joins, commutants, and
the Murray-von Neumann order, with limit-formula oracles."""

import numpy as np
import pytest

from vnalg import (adjoint, add, ceiling, central_support,
                   central_support_partition, certify_projection, commutant,
                   centre, equal, floor, is_central, is_projection, join, make_algebra, meet, mul, mvn_below,
                   operator_norm, orthosupplement, range_projection,
                   rank_profile, snap_projection, support, leq)
from vnalg.errors import NotEffect, NotPositive, NotProjection
from vnalg.maps import apply, random_cp_map, random_cpu_map
from vnalg.sampling import (random_effect, random_element, random_positive,
                            random_projection)
from vnalg.spectral import sqrt

M2 = make_algebra([2])
M3 = make_algebra([3])


def _ceiling_limit_oracle(a, steps=24):
    """sup of a^(1/2^n), evaluated by repeated square roots."""
    out = a
    for _ in range(steps):
        out = sqrt(out)
    return out


def _floor_limit_oracle(a, steps=24):
    """inf of a^(2^n), evaluated by repeated squaring."""
    out = a
    for _ in range(steps):
        out = mul(out, out)
    return out


def test_ceiling_examples():
    assert equal(ceiling(M2.element([np.diag([0.5, 0.0])])),
                 M2.element([np.diag([1.0, 0.0])]))
    ones = M2.element([np.ones((2, 2))])  # eigenvalues 0 and 2
    assert equal(snap_projection(ceiling(ones)), M2.element([0.5 * np.ones((2, 2))]))
    assert equal(ceiling(M2.zero()), M2.zero())
    assert equal(ceiling(M2.unit()), M2.unit())


@pytest.mark.parametrize("seed", range(4))
def test_ceiling_against_limit_oracle(seed):
    a = random_effect(M3, np.random.default_rng(seed))
    approx = _ceiling_limit_oracle(a)
    assert operator_norm(snap_projection(ceiling(a)) - approx) < 1e-4
    # and the ceiling is the least projection with pa = a
    c = ceiling(a)
    assert equal(mul(c, a), a)


def test_floor_examples():
    assert equal(floor(M2.element([np.diag([1.0, 0.5])])),
                 M2.element([np.diag([1.0, 0.0])]))
    p = random_projection(M3, np.random.default_rng(1))
    assert equal(floor(p), snap_projection(p))


@pytest.mark.parametrize("seed", range(4))
def test_floor_against_squaring_oracle(seed):
    a = random_effect(M3, np.random.default_rng(seed))
    assert operator_norm(floor(a) - _floor_limit_oracle(a, 30)) < 1e-6


def test_floor_rejects_non_effect():
    with pytest.raises(NotEffect):
        floor(M2.element([np.diag([2.0, 0.0])]))
    with pytest.raises(NotPositive):
        ceiling(M2.element([np.diag([-1.0, 0.0])]))


def test_support_and_range_of_nilpotent():
    a = M2.element([np.array([[0, 2], [0, 0]])])
    assert equal(support(a), M2.element([np.diag([0.0, 1.0])]))
    assert equal(range_projection(a), M2.element([np.diag([1.0, 0.0])]))
    # a * support = a, range * a = a
    assert equal(mul(a, support(a)), a)
    assert equal(mul(range_projection(a), a), a)


def test_support_of_rank_one():
    x = np.array([1.0, 1j]) / np.sqrt(2)
    y = np.array([1.0, 1.0]) / np.sqrt(2)
    ketbra = M2.element([np.outer(x, y.conj())])
    assert equal(support(ketbra), M2.element([np.outer(y, y.conj())]))
    assert equal(range_projection(ketbra), M2.element([np.outer(x, x.conj())]))


@pytest.mark.parametrize("seed", range(4))
def test_support_is_adjoint_range(seed):
    a = random_element(M3, np.random.default_rng(seed))
    assert equal(support(adjoint(a)), range_projection(a))


def test_join_meet_examples():
    p = M2.element([np.diag([1.0, 0.0])])
    q = M2.element([0.5 * np.ones((2, 2))])
    assert equal(join([p, M2.zero()]), p)
    assert equal(meet([p, M2.unit()]), p)
    assert equal(join([p, q]), M2.unit())
    assert operator_norm(meet([p, q])) < 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_ceil_pqp_lattice_identity(seed):
    rng = np.random.default_rng(seed)
    p = random_projection(M3, rng)
    q = random_projection(M3, rng)
    lhs = snap_projection(ceiling(mul(mul(p, q), p)))
    rhs = meet([p, join([orthosupplement(p), q])])
    assert equal(lhs, rhs)


@pytest.mark.parametrize("seed", range(6))
def test_floor_of_sandwich_is_meet(seed):
    rng = np.random.default_rng(seed)
    a = random_effect(M3, rng)
    b = random_effect(M3, rng)
    root = sqrt(a)
    assert equal(floor(mul(mul(root, b), root)), meet([floor(a), floor(b)]))


@pytest.mark.parametrize("seed", range(6))
def test_ceiling_floor_duality(seed):
    a = random_effect(M3, np.random.default_rng(seed))
    assert equal(orthosupplement(ceiling(a)), floor(orthosupplement(a)))


@pytest.mark.parametrize("seed", range(4))
def test_ceiling_sum_and_square(seed):
    rng = np.random.default_rng(seed)
    a = random_positive(M3, rng)
    b = random_positive(M3, rng)
    lhs = snap_projection(ceiling(add(a, b)))
    rhs = join([snap_projection(ceiling(a)), snap_projection(ceiling(b))])
    assert equal(lhs, rhs)
    assert equal(snap_projection(ceiling(mul(a, a))), snap_projection(ceiling(a)))


@pytest.mark.parametrize("seed", range(4))
def test_pos_neg_part_ceilings_orthogonal(seed):
    from vnalg import pos_part, neg_part
    from vnalg.sampling import random_self_adjoint
    a = random_self_adjoint(M3, np.random.default_rng(seed))
    cp = snap_projection(ceiling(pos_part(a)))
    cn = snap_projection(ceiling(neg_part(a)))
    assert operator_norm(mul(cp, cn)) < 1e-8


@pytest.mark.parametrize("seed", range(4))
def test_ceiling_naturality_under_positive_maps(seed):
    rng = np.random.default_rng(seed)
    f = random_cp_map(M3, M2, rng)
    a = random_positive(M3, rng)
    lhs = snap_projection(ceiling(apply(f, a)))
    rhs = snap_projection(ceiling(apply(f, snap_projection(ceiling(a)))))
    assert equal(lhs, rhs)


@pytest.mark.parametrize("seed", range(4))
def test_floor_naturality_under_cpsu_maps(seed):
    rng = np.random.default_rng(seed)
    f = random_cpu_map(M3, M2, rng)
    a = random_effect(M3, rng)
    assert equal(floor(apply(f, a)), floor(apply(f, floor(a))))


@pytest.mark.parametrize("seed", range(4))
def test_support_inequality_under_cp_maps(seed):
    rng = np.random.default_rng(seed)
    f = random_cp_map(M3, M3, rng)
    a = random_element(M3, rng)
    lhs = snap_projection(ceiling(apply(f, support(a))))
    rhs = support(apply(f, a))
    assert leq(lhs, rhs, tol=_loose())


def _loose():
    from vnalg import ToleranceConfig
    return ToleranceConfig(eps_rel=1e-7, eps_abs=1e-9, snap_eps=1e-6)


def test_projection_characterization_by_effects_below():
    # An effect is a projection iff only 0 sits below both it and its
    # complement; spot-checked by sampling candidate effects.
    rng = np.random.default_rng(3)
    p = random_projection(M2, rng, ranks=(1,))
    a = random_effect(M2, rng)  # not a projection almost surely
    comp_p = orthosupplement(p)

    def below_both(eff, target):
        return leq(eff, target) and leq(eff, orthosupplement(target))

    for _ in range(50):
        c = random_effect(M2, rng)
        scaled = 0.05 * c
        assert not below_both(scaled, p) or operator_norm(scaled) < 1e-6
    # for the non-projection there is a nonzero effect below a and 1-a
    lam = min(np.linalg.eigvalsh(a.blocks[0]).min(),
              np.linalg.eigvalsh(orthosupplement(a).blocks[0]).min())
    assert lam > 1e-6  # generic effect: both floors leave room
    assert below_both(M2.scalar(lam * 0.9), a)


def test_commutant_of_empty_set_is_whole_algebra():
    sub = commutant([], M2)
    assert sub.dim == M2.dim


def test_commutant_of_nilpotent_not_star_closed():
    a = M2.element([np.array([[0, 1], [0, 0]])])
    sub = commutant([a], M2)
    assert sub.dim == 2  # span{1, a}
    assert sub.contains(a)
    assert not sub.contains(adjoint(a))


def test_centre_of_block_algebra():
    alg = make_algebra([2, 3])
    z = centre(alg)
    assert z.dim == 2
    for b in z.basis:
        assert is_central(b)


def test_central_support_blockwise():
    alg = make_algebra([2, 3])
    a = alg.element([np.zeros((2, 2)), np.diag([1.0, 0.0, 0.0])])
    cs = central_support(a)
    assert equal(cs, alg.element([np.zeros((2, 2)), np.eye(3)]))


def test_central_support_of_rank_one_is_brute_union():
    # least central projection above e equals the union of ceil(a* e a).
    rng = np.random.default_rng(5)
    e = random_projection(M2, rng, ranks=(1,))
    got = central_support(e)
    acc = M2.zero()
    for a in M2.basis():
        x = mul(mul(adjoint(a), e), a)
        if operator_norm(x) > 1e-12:
            acc = join([acc, snap_projection(ceiling(0.5 * (x + adjoint(x))))])
    assert equal(got, acc)
    assert equal(got, M2.unit())


def test_central_element_support():
    alg = make_algebra([2, 3])
    a = alg.element([0.5 * np.eye(2), np.zeros((3, 3))])
    assert is_central(a)
    assert equal(central_support(a), snap_projection(ceiling(a)))


def test_mvn_below_examples():
    e = M3.element([np.diag([1.0, 0.0, 0.0])])
    f = M3.element([np.diag([0.0, 1.0, 1.0])])
    u = mvn_below(e, e)
    assert u is not None and equal(mul(adjoint(u), u), e)
    w = mvn_below(e, f)
    assert w is not None
    assert equal(mul(adjoint(w), w), e)
    assert leq(mul(w, adjoint(w)), f)
    two = M2.element([np.diag([1.0, 1.0])])
    one = M2.element([np.diag([1.0, 0.0])])
    assert mvn_below(two, one) is None


def test_central_support_partition():
    alg = make_algebra([2, 3])
    e = alg.element([np.diag([1.0, 0.0]), np.zeros((3, 3))])
    pieces = central_support_partition(e)
    total = alg.zero()
    for piece in pieces:
        assert is_projection(piece)
        w = mvn_below(piece, e)
        assert w is not None
        total = add(total, piece)
    assert equal(total, central_support(e))
    # only the first block is covered
    assert equal(total, alg.element([np.eye(2), np.zeros((3, 3))]))


def test_central_support_partition_unit_and_rank_one():
    assert len(central_support_partition(M2.unit())) == 1
    rng = np.random.default_rng(2)
    e = random_projection(M2, rng, ranks=(1,))
    pieces = central_support_partition(e)
    assert len(pieces) == 2
    assert equal(add(pieces[0], pieces[1]), M2.unit())
    assert all(rank_profile(p) == (1,) for p in pieces)


def test_snap_restores_idempotency():
    rng = np.random.default_rng(0)
    p = random_projection(M3, rng)
    noisy = p + 1e-9 * random_element(M3, rng)
    snapped = snap_projection(0.5 * (noisy + adjoint(noisy)))
    assert operator_norm(mul(snapped, snapped) - snapped) < 1e-13


def test_certify_projection():
    p = M2.element([np.diag([1.0, 0.0])])
    cert = certify_projection(p)
    assert not cert.snapped
    with pytest.raises(NotProjection):
        certify_projection(M2.element([np.diag([0.5, 0.0])]))


def test_join_requires_projections():
    with pytest.raises(NotProjection):
        join([M2.element([np.diag([0.5, 0.0])])])


@pytest.mark.parametrize("seed", range(4))
def test_support_has_the_rank_of_rank_profile(seed):
    # support reads its rank off the singular values of its own SVD, with
    # rank_profile's rule; singular values near the snap_eps cut and under the
    # eps_abs zero floor probe that rule.
    rng = np.random.default_rng(seed)
    alg = make_algebra([1, 2, 3, 4])
    for _ in range(25):
        blocks = []
        for n in alg.dims:
            u, v = (np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
                    for _ in range(2))
            s = rng.choice([1.0, 0.3, 0.0, 1e-8, 1e-6, 1e-13], size=n)
            blocks.append(rng.choice([1.0, 1e-13, 1e8]) * (u * s) @ v)
        a = alg.element(blocks)
        assert rank_profile(support(a)) == rank_profile(a)
