"""The curried effect operations against their uncurried bodies in
``loop_oracles``.

``check_axioms`` runs each of the five operations twice, once as the library
curries it (the work on p done once per effect) and once from the oracle's
body (that work redone on every evaluation), at the benchmark's trial counts.
The reports must agree in every status and in the block bytes of every
witness element, and each curried value op(p, q) must equal the oracle's bit
for bit.  The linearizations of q -> op(p, q), whose arguments the library
builds once per algebra, must equal the oracle's, which rebuilds them on
every call, bit for bit.
"""

import numpy as np
import pytest

import loop_oracles as oracle
from vnalg import DEFAULT_TOL, Element, check_axioms, make_algebra, mul, seq_product
from vnalg import measurement
from vnalg.errors import NotEffect
from vnalg.measurement import BinOpSpec, named_op
from vnalg.sampling import random_effect

ALGEBRAS = {"M2": make_algebra([2]), "M3": make_algebra([3]), "M2+M1": make_algebra([2, 1])}
TRIALS = {"phase": 24}
SEEDS = range(6)


def canonical(value):
    """A report with each witness element replaced by its blocks' bytes."""
    if isinstance(value, Element):
        return tuple(b.tobytes() for b in value.blocks)
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    return value


@pytest.mark.parametrize("name", ["std", "ceil", "floorsplit", "sign", "phase"])
@pytest.mark.parametrize("alg_name", sorted(ALGEBRAS))
def test_check_axioms_reports_match_the_uncurried_ops(alg_name, name):
    alg = ALGEBRAS[alg_name]
    mine = named_op(name, alg)
    (ref,) = [op for op in oracle.uncurried_ops() if op.name == name]
    for seed in SEEDS:
        kw = dict(trials=TRIALS.get(name, 4), seed=seed, purity_trials=2)
        got = canonical(check_axioms(mine, alg, **kw))
        assert got == canonical(check_axioms(ref, alg, **kw)), seed
        if mine.target_axiom is not None:
            assert got[mine.target_axiom]["witness"] is not None, seed


@pytest.mark.parametrize("alg_name", sorted(ALGEBRAS))
def test_curried_ops_match_the_uncurried_bodies_bit_for_bit(alg_name):
    # One at(p) serves several q, as in the checker.
    alg = ALGEBRAS[alg_name]
    rng = np.random.default_rng(11)
    for ref in oracle.uncurried_ops():
        mine = named_op(ref.name, alg)
        for _ in range(4):
            p = random_effect(alg, rng)
            op_p = mine.at(p)
            for q in [random_effect(alg, rng) for _ in range(3)] + [p, alg.unit()]:
                got, want = op_p(q), ref.eval(p, q)
                assert all(np.array_equal(a, b) for a, b in zip(got.blocks, want.blocks)), ref.name


@pytest.mark.parametrize("alg_name", sorted(ALGEBRAS))
def test_linearizations_match_the_per_call_oracle_bit_for_bit(alg_name):
    alg = ALGEBRAS[alg_name]
    rng = np.random.default_rng(13)
    effects = measurement._structured_effects(alg)[:3] + [random_effect(alg, rng)
                                                          for _ in range(3)]
    square = BinOpSpec("square", lambda p: lambda q: mul(q, q))  # not linear in q
    for op in [named_op(name, alg) for name in ["std", "ceil", "floorsplit", "sign", "phase"]]:
        for p in effects:
            got = measurement._linearize_in_q(op.at(p), alg, DEFAULT_TOL)
            want = oracle.linearize_in_q(op.at(p), alg)
            assert got.matrix.shape == want.matrix.shape, op.name
            assert got.matrix.tobytes() == want.matrix.tobytes(), op.name
    p = effects[-1]
    assert measurement._linearize_in_q(square.at(p), alg, DEFAULT_TOL) is None
    assert oracle.linearize_in_q(square.at(p), alg) is None
    assert measurement._probes(alg) is measurement._probes(alg)


def test_seq_product_refuses_non_effects_as_before():
    # A non-effect on either side raises the same error type and message.
    alg = ALGEBRAS["M2+M1"]
    p = random_effect(alg, np.random.default_rng(3))
    not_effect = 2.0 * alg.unit()
    for args in ((not_effect, p), (p, not_effect), (not_effect, not_effect)):
        with pytest.raises(NotEffect) as mine:
            seq_product(*args)
        with pytest.raises(NotEffect) as ref:
            oracle.seq_product(*args)
        assert str(mine.value) == str(ref.value)
