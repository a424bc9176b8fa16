"""Corners, filters, purity, diamond-positivity, the sequential product,
and its axiom battery with the four counterexample operations."""

import dataclasses

import numpy as np
import pytest

from vnalg import (DEFAULT_TOL, adjoint, apply, bracket, carrier, ceiling,
                   check_axioms, chevron, compose, conjugation_map,
                   corner_algebra, counterexample_ops, equal,
                   factor_through_corner, factor_through_filter, floor,
                   identity_map, is_completely_positive, is_diamond_positive,
                   is_diamond_self_adjoint, is_multiplicative, is_pure,
                   is_unital, make_algebra, make_map, maps_equal, mul,
                   mult_map, operator_norm, orthosupplement, seq_product,
                   snap_projection, standard_corner, standard_filter,
                   standard_op)
from vnalg.errors import (CarrierViolated, FilterBoundViolated, NotEffect,
                          PostconditionViolated, ShapeMismatch)
from vnalg.maps import random_cp_map
from vnalg import measurement
from vnalg.measurement import BinOpSpec, named_op
from vnalg.sampling import (random_effect, random_element, random_positive,
                            random_projection, random_self_adjoint,
                            random_unitary)
from vnalg.spectral import power, sqrt

M2 = make_algebra([2])
M3 = make_algebra([3])
SUM = make_algebra([2, 3])


def test_corner_of_unit_is_whole_algebra():
    ctx = corner_algebra(M3.unit())
    assert ctx.corner.dims == (3,)
    assert maps_equal(compose(ctx.compress, ctx.embed), identity_map(ctx.corner))
    assert maps_equal(ctx.embed, identity_map(M3))


def test_corner_dims_follow_ranks():
    e = M3.element([np.diag([1.0, 1.0, 0.0])])
    assert corner_algebra(e).corner.dims == (2,)
    alg = make_algebra([2, 3])
    e2 = alg.element([np.diag([1.0, 0.0]), np.eye(3)])
    assert corner_algebra(e2).corner.dims == (1, 3)
    assert corner_algebra(alg.zero()).corner.dims == ()


@pytest.mark.parametrize("seed", range(4))
def test_corner_context_invariants(seed):
    rng = np.random.default_rng(seed)
    e = random_projection(SUM, rng)
    ctx = corner_algebra(e)
    assert maps_equal(compose(ctx.compress, ctx.embed), identity_map(ctx.corner))
    assert maps_equal(compose(ctx.embed, ctx.compress), mult_map(ctx.proj, ctx.proj))
    assert is_multiplicative(ctx.embed)
    assert is_completely_positive(ctx.compress) and is_unital(ctx.compress)


def test_standard_corner_and_filter_at_unit():
    c = standard_filter(M2.unit())
    pi = standard_corner(M2.unit())
    assert maps_equal(c, identity_map(M2))
    assert maps_equal(pi, identity_map(M2))


def test_filter_value_at_unit():
    rng = np.random.default_rng(1)
    p = random_positive(SUM, rng)
    c = standard_filter(p)
    assert equal(apply(c, c.dom.unit()), p)
    assert is_completely_positive(c)


def test_filter_of_projection_is_multiplicative():
    rng = np.random.default_rng(2)
    e = random_projection(M3, rng, ranks=(2,))
    c = standard_filter(e)
    assert is_multiplicative(c)


def test_filter_of_scaled_rank_one():
    p = M2.element([np.diag([0.5, 0.0])])
    c = standard_filter(p)
    assert c.dom.dims == (1,)
    lam = c.dom.scalar(3.0)
    assert equal(apply(c, lam), M2.element([np.diag([1.5, 0.0])]))


def test_standard_corner_uses_floor():
    p = SUM.element([np.diag([1.0, 0.5]), 0.25 * np.eye(3)])
    pi = standard_corner(p)
    assert pi.cod.dims == corner_algebra(floor(p)).corner.dims == (1,)


@pytest.mark.parametrize("seed", range(4))
def test_factor_through_filter_round_trip(seed):
    rng = np.random.default_rng(seed)
    d = random_element(M3, rng)
    bound = mul(adjoint(d), d)
    c = standard_filter(bound)
    g0 = random_cp_map(M2, c.dom, rng)
    # normalize so that f(1) <= d*d
    f = compose(c, g0)
    one_img = apply(f, M2.unit())
    scale = 1.0 / max(1.0, operator_norm(one_img) /
                      max(operator_norm(bound), 1e-12) * 4.0)
    f = scale * f
    g0 = scale * g0
    g = factor_through_filter(f, d)
    assert maps_equal(g, g0, tol=_loose())
    assert maps_equal(compose(c, g), f, tol=_loose())
    assert is_completely_positive(g, tol=_loose())


def test_factor_through_filter_identity_and_scaling():
    rng = np.random.default_rng(5)
    p = random_positive(M2, rng)
    d = sqrt(p)
    c = standard_filter(p)
    g = factor_through_filter(c, d)
    assert maps_equal(g, identity_map(c.dom), tol=_loose())
    g_half = factor_through_filter(0.5 * c, d)
    assert maps_equal(g_half, 0.5 * identity_map(c.dom), tol=_loose())


def test_factor_through_filter_bound_violation():
    rng = np.random.default_rng(6)
    d = random_projection(M2, rng, ranks=(1,))
    with pytest.raises(FilterBoundViolated):
        factor_through_filter(2.0 * identity_map(M2), d)


@pytest.mark.parametrize("seed", range(4))
def test_factor_through_corner_round_trip(seed):
    rng = np.random.default_rng(seed)
    e = random_projection(M3, rng, ranks=(2,))
    ctx = corner_algebra(e)
    g0 = random_cp_map(ctx.corner, M2, rng)
    f = compose(g0, ctx.compress)
    g = factor_through_corner(f, e)
    assert maps_equal(g, g0, tol=_loose())
    assert maps_equal(compose(g, ctx.compress), f, tol=_loose())


def test_factor_through_corner_carrier_violation():
    e = M2.element([np.diag([1.0, 0.0])])
    with pytest.raises(CarrierViolated):
        factor_through_corner(identity_map(M2), e)


def _loose():
    from vnalg import ToleranceConfig
    return ToleranceConfig(eps_rel=1e-6, eps_abs=1e-9, snap_eps=1e-6)


def test_bracket_of_conjugation_is_isometry_conjugation():
    rng = np.random.default_rng(7)
    a = random_element(M2, rng)
    f = conjugation_map(a)  # x -> a* x a, pure
    br = bracket(f)
    assert is_unital(br, tol=_loose())
    assert is_pure(f)


def test_faithful_unital_average_is_not_pure():
    c2 = make_algebra([1, 1])
    c1 = make_algebra([1])
    avg = make_map(c2, c1, [c1.scalar(0.5), c1.scalar(0.5)])
    br = bracket(avg)
    assert is_unital(br)
    assert maps_equal(br, avg)  # already faithful and unital
    assert not is_pure(avg)


def test_identity_and_pinching_purity():
    assert is_pure(identity_map(M3))
    p = M2.element([np.diag([1.0, 0.0])])
    pinch = make_map(M2, M2, [
        mul(mul(p, e), p) + mul(mul(orthosupplement(p), e), orthosupplement(p))
        for e in M2.basis()])
    assert not is_pure(pinch)


@pytest.mark.parametrize("seed", range(3))
def test_chevron_is_faithful_with_same_unit_value(seed):
    rng = np.random.default_rng(seed)
    a = random_element(M3, rng)
    f = conjugation_map(mul(a, random_projection(M3, rng, ranks=(2,))))
    ch = chevron(f)
    one_f = apply(f, M3.unit())
    one_ch = apply(ch, ch.dom.unit())
    ctx = corner_algebra(snap_projection(ceiling(0.5 * (one_f + adjoint(one_f)))))
    assert equal(apply(ctx.compress, one_f), one_ch, tol=_loose())
    assert equal(carrier(ch), ch.dom.unit())  # faithful


def test_chevron_needs_endomap():
    with pytest.raises(ShapeMismatch):
        chevron(make_map(M2, M3, [M3.zero()] * M2.dim))


def test_chevron_raises_typed_error_on_broken_postcondition(monkeypatch):
    # The second carrier call checks the result; a zero carrier there means
    # the chevron is not faithful, which must raise even under python -O.
    real = measurement.carrier
    calls = []

    def carrier_of_result_is_zero(f, tol=DEFAULT_TOL):
        calls.append(f)
        return real(f, tol) if len(calls) == 1 else f.dom.zero()

    monkeypatch.setattr(measurement, "carrier", carrier_of_result_is_zero)
    f = conjugation_map(M2.element([np.diag([1.0, 0.5])]))
    with pytest.raises(PostconditionViolated):
        chevron(f)
    assert len(calls) == 2


def test_diamond_self_adjoint_examples():
    rng = np.random.default_rng(8)
    a = random_self_adjoint(M2, rng)
    assert is_diamond_self_adjoint(conjugation_map(a))
    p = random_positive(M2, rng)
    root = sqrt(p)
    assert is_diamond_positive(mult_map(root, root))
    assert is_diamond_self_adjoint(mult_map(root, root))


def test_diamond_positive_uniqueness_route():
    # A diamond-positive map is the square of the self-contraposed
    # conjugation by the fourth root of its unit value.
    rng = np.random.default_rng(9)
    p = random_positive(M3, rng)
    quarter = power(p, 0.25)
    g = mult_map(quarter, quarter)
    f = compose(g, g)
    assert is_diamond_self_adjoint(g)
    assert is_diamond_positive(f)
    root = sqrt(0.5 * (apply(f, M3.unit()) + adjoint(apply(f, M3.unit()))))
    assert maps_equal(f, mult_map(root, root), tol=_loose())


def test_twisted_conjugation_not_diamond_positive():
    rng = np.random.default_rng(10)
    p = M2.element([np.diag([1.0, 0.25])])
    u = M2.element([np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)])
    root = sqrt(p)
    f = compose(mult_map(root, root), conjugation_map(u))
    assert is_pure(f)
    assert equal(apply(f, M2.unit()), p)
    assert not is_diamond_positive(f)


def test_carrier_equals_unit_ceiling_for_diamond_self_adjoint():
    rng = np.random.default_rng(11)
    a = random_self_adjoint(M3, rng)
    f = conjugation_map(a)
    lhs = carrier(f)
    rhs = snap_projection(ceiling(
        0.5 * (apply(f, M3.unit()) + adjoint(apply(f, M3.unit())))))
    assert equal(lhs, rhs)


def test_seq_product_basics():
    rng = np.random.default_rng(12)
    p = random_effect(M2, rng)
    assert equal(seq_product(p, M2.unit()), p)
    d1 = M2.element([np.diag([0.5, 1.0])])
    d2 = M2.element([np.diag([1.0, 0.5])])
    assert equal(seq_product(d1, d2), M2.element([np.diag([0.5, 0.5])]))
    q = M2.element([np.diag([1.0, 0.0])])
    h = M2.element([0.5 * np.ones((2, 2))])
    root = sqrt(h)
    assert equal(seq_product(h, q), mul(mul(root, q), root))
    with pytest.raises(NotEffect):
        seq_product(2.0 * M2.unit(), M2.unit())


def test_seq_product_on_commuting_effects_is_product():
    rng = np.random.default_rng(13)
    u = random_unitary(M2, rng)
    d1 = mul(mul(u, M2.element([np.diag([0.3, 0.9])])), adjoint(u))
    d2 = mul(mul(u, M2.element([np.diag([0.6, 0.2])])), adjoint(u))
    assert equal(seq_product(d1, d2), mul(d1, d2))


def test_standard_op_passes_all_axioms():
    rep = check_axioms(standard_op(), M2, trials=40, seed=3, purity_trials=8)
    assert all(v["status"] == "pass" for v in rep.values()), rep


@pytest.mark.parametrize("dims", [[2], [3], [2, 1]])
def test_counterexamples_fail_exactly_their_axiom(dims):
    alg = make_algebra(dims)
    for op in counterexample_ops(alg):
        rep = check_axioms(op, alg, trials=25, seed=3, purity_trials=6)
        for axiom, res in rep.items():
            want = "fail" if axiom == op.target_axiom else "pass"
            assert res["status"] == want, (op.name, axiom, res)
        assert rep[op.target_axiom]["witness"] is not None


def _counting(op):
    """op with every q-side evaluation recorded as its (p, q) pair."""
    calls = []

    def at(p):
        op_p = op.at(p)

        def counted(q):
            calls.append((p, q))
            return op_p(q)
        return counted
    return dataclasses.replace(op, at=at), calls


@pytest.mark.parametrize("name", ["std", "sign"])
def test_linearize_in_q_evaluation_budget(name):
    # One shared baseline op(p, 1/2), two directions per basis element,
    # four sanity checks; the per-algebra probe table lists an argument
    # equal bit for bit to an earlier one once.  On M3 that saves 6 of 23:
    # the symmetric parts of E_ij and E_ji agree (3 pairs), and the zero
    # imaginary part of each of the 3 diagonal units gives the baseline 1/2.
    op, calls = _counting(named_op(name, M3))
    p = random_effect(M3, np.random.default_rng(21))
    assert measurement._linearize_in_q(op.at(p), M3, DEFAULT_TOL) is not None
    assert len(calls) == 2 * M3.dim + 1 + 4 - 6
    keys = [tuple(b.tobytes() for b in q.blocks) for _, q in calls]
    assert len(set(keys)) == len(keys)


def test_check_axioms_reports_an_operation_not_linear_in_q_and_without_witness():
    # q -> q q ignores p: B finds no linearization and D has no witness.
    op = BinOpSpec("square", lambda p: lambda q: mul(q, q))
    rep = check_axioms(op, M2, trials=3, seed=5, purity_trials=2)
    assert rep["B"]["status"] == "n/a"
    assert rep["B"]["witness"]["reason"] == "not linear in q"
    assert rep["D"] == {"status": "n/a",
                        "witness": {"axiom": "D", "reason": "no witness supplied"}}
    assert rep["A"]["status"] == rep["C"]["status"] == "fail"


def test_check_axioms_fails_d_on_a_wrong_witness():
    # op(p, p) = p^2 differs from p for the first structured effect diag(1/2, 0).
    op = dataclasses.replace(standard_op(), d_witness=lambda p: p)
    rep = check_axioms(op, M2, trials=3, seed=5, purity_trials=2)
    assert {k: v["status"] for k, v in rep.items()} == {
        "A": "pass", "B": "pass", "C": "pass", "D": "fail", "E": "pass"}
    w = rep["D"]["witness"]
    assert w["q"] is w["p"]
    assert np.array_equal(w["p"].blocks[0], np.diag([0.5, 0.0]))


@pytest.mark.parametrize("name", ["std", "sign"])
def test_check_axioms_linearizes_each_effect_once(name, monkeypatch):
    seen = []
    linearize = measurement._linearize_in_q

    def recording(op_p, alg, tol):
        seen.append(op_p)
        return linearize(op_p, alg, tol)
    monkeypatch.setattr(measurement, "_linearize_in_q", recording)
    rep = check_axioms(named_op(name, M2), M2, trials=3, seed=5, purity_trials=2)
    assert rep["B"]["status"] == rep["E"]["status"] == "pass"
    # Each linearization gets its own effect's curried op.
    assert len({id(op_p) for op_p in seen}) == len(seen)
    # B reaches the structured and purity effects, E the structured and
    # random trial effects; the structured ones are shared.
    assert len(seen) == len(measurement._structured_effects(M2)) + 2 + 3


@pytest.mark.parametrize("name", ["std", "ceil", "floorsplit", "sign", "phase"])
def test_check_axioms_curries_each_effect_once(name):
    op = named_op(name, M2)
    seen = []

    def at(p):
        seen.append(p)
        return op.at(p)
    trials, purity_trials = 3, 2
    rep = check_axioms(dataclasses.replace(op, at=at), M2, trials=trials, seed=5,
                       purity_trials=purity_trials)
    for axiom, res in rep.items():
        assert res["status"] == ("fail" if axiom == op.target_axiom else "pass"), (axiom, res)
    # No element is curried twice (the list keeps each one alive, so ids are
    # not reused).
    assert len({id(p) for p in seen}) == len(seen)
    if name == "std":
        # The counterexamples stop at their axiom's first failure; std runs
        # every loop to the end.  A and E curry the corpus effects, B the
        # purity effects too; C adds op(p, p) and D the witness q, one fresh
        # element per corpus effect each.
        corpus = len(measurement._structured_effects(M2)) + trials
        assert len(seen) == corpus + purity_trials + 2 * corpus


def test_ceil_op_forced_witness():
    rep = check_axioms(named_op("ceil", M2), M2, trials=10, seed=7)
    w = rep["A"]["witness"]
    assert w is not None
    assert np.allclose(w["p"].blocks[0], np.diag([0.5, 0.0]))


def test_counterexamples_fix_unit_on_left():
    # op(1, q) = q for every variant: the conjugators of 1 are trivial.
    rng = np.random.default_rng(14)
    q = random_effect(M2, rng)
    for op in counterexample_ops(M2):
        assert equal(op.eval(M2.unit(), q), q)


@pytest.mark.parametrize("seed", range(3))
def test_filter_composites_factor_as_filters(seed):
    # The composite of standard filters factors through the filter of its
    # own unit value with a unital cofactor: the composite is itself a filter.
    rng = np.random.default_rng(seed)
    p = random_positive(M3, rng)
    c1 = standard_filter(p)
    q = random_positive(c1.dom, rng)
    c2 = standard_filter(q)
    comp = compose(c1, c2)
    value = apply(comp, c2.dom.unit())
    d = sqrt(0.5 * (value + adjoint(value)))
    g = factor_through_filter(comp, d)
    assert is_unital(g, tol=_loose())
    assert maps_equal(compose(standard_filter(mul(d, d)), g), comp, tol=_loose())


def test_unital_pu_map_splitting_instance():
    # Any pu map F with F(a, a) = a is a central convex split F(a, b) =
    # a p + b (1-p); random diagonal instances on a classical algebra.
    c3 = make_algebra([1, 1, 1])
    both = make_algebra([1, 1, 1, 1, 1, 1])  # c3 + c3
    rng = np.random.default_rng(15)
    t = rng.uniform(0.0, 1.0, size=3)

    def split(a, b):
        return c3.element([[[t[i] * a.blocks[i][0, 0]
                             + (1 - t[i]) * b.blocks[i][0, 0]]] for i in range(3)])

    images = []
    for e in both.basis():
        a = c3.element([e.blocks[i] for i in range(3)])
        b = c3.element([e.blocks[i + 3] for i in range(3)])
        images.append(split(a, b))
    f = make_map(both, c3, images)
    assert is_unital(f)
    one = c3.unit()
    p = apply(f, both.element([np.eye(1)] * 3 + [np.zeros((1, 1))] * 3))
    from vnalg import is_central
    assert is_central(p)
    for _ in range(5):
        a = random_element(c3, rng)
        b = random_element(c3, rng)
        ab = both.element([*a.blocks, *b.blocks])
        assert equal(apply(f, ab), mul(a, p) + mul(b, one - p))


def test_pu_split_on_matrix_block_forces_central():
    # On a full matrix algebra the only decompositions F = G + (id - G)
    # with both parts CP are the scalar convex combinations, whose F(1, 0)
    # is central; twisting with a transpose part breaks positivity.
    lam = 0.4
    g = lam * identity_map(M2)
    rest = identity_map(M2) + (-1.0 * g)
    assert is_completely_positive(g) and is_completely_positive(rest)
    p = apply(g, M2.unit())
    from vnalg import is_central
    assert is_central(p)
    from vnalg.maps import transpose_map, is_positive_map, Verdict
    twisted = 0.4 * transpose_map(M2)
    complement = identity_map(M2) + (-1.0 * twisted)
    assert is_positive_map(complement, samples=300, seed=4).verdict \
        is Verdict.NOT_POSITIVE
