"""The battery's stacked n-positivity oracle against its one-Element-at-a-time
definition in ``loop_oracles.npos_total``.

Each tuple is drawn from two generators in the same state, one per
implementation: both must leave the generator in the same state, give the
same positivity verdict and sums within 1e-13 of the largest entry.  The
stacked draws are ``random_element``'s, bit for bit.
"""

import copy

import numpy as np
import pytest

import loop_oracles as oracle
from vnalg import make_algebra
from vnalg.algebra import DEFAULT_TOL, is_positive
from vnalg.maps import compose, is_completely_positive, random_cp_map, transpose_map
from vnalg.sampling import _element_stacks, random_element
from vnalg.suite import _npos_oracle, _npos_total, _random_mixture_map

M2, M3, M21, M22 = (make_algebra(d) for d in ([2], [3], [2, 1], [2, 2]))
PAIRS = {"M2": (M2, M2), "M2+M1": (M21, M21), "M2+M1->M3": (M21, M3), "M3->M2+M2": (M3, M22)}
KINDS = ["cp", "mixture", "transpose"]
TUPLES = 40


def build(kind, dom, cod, rng):
    """A map dom -> cod: CP, or a CP map after a transpose or a twisted mixture
    on dom (a mixture without its transpose factor is CP, so it is redrawn)."""
    cp = random_cp_map(dom, cod, rng)
    if kind == "cp":
        return cp
    inner = transpose_map(dom)
    if kind == "mixture":
        inner = _random_mixture_map(dom, rng)
        while is_completely_positive(inner, DEFAULT_TOL):
            inner = _random_mixture_map(dom, rng)
    return inner if dom == cod else compose(cp, inner)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_stacked_tuples_match_the_element_loop(pair, kind):
    dom, cod = PAIRS[pair]
    rng = np.random.default_rng(13)
    f = build(kind, dom, cod, rng)
    verdicts = set()
    for t in range(TUPLES):
        mine = copy.deepcopy(rng)
        want = oracle.npos_total(f, t, 4, rng)
        got = _npos_total(f, t, 4, mine)
        assert mine.bit_generator.state == rng.bit_generator.state
        assert got.algebra == cod
        scale = max(float(np.abs(b).max()) for b in want.blocks)
        for g, w in zip(got.blocks, want.blocks):
            assert np.abs(g - w).max() <= 1e-13 * scale
        verdict = is_positive(want, DEFAULT_TOL)
        assert is_positive(got, DEFAULT_TOL) == verdict
        verdicts.add(verdict)
    # A CP map passes every tuple; the oracle catches the others.
    assert (False in verdicts) == (kind != "cp") == (not is_completely_positive(f, DEFAULT_TOL))


def test_oracle_rejects_the_transpose_and_accepts_a_cp_map():
    rng = np.random.default_rng(7)
    assert not _npos_oracle(transpose_map(M2), 20, 4, rng)
    assert _npos_oracle(random_cp_map(M2, M2, rng), 20, 4, rng)


@pytest.mark.parametrize("dims", [[2], [2, 1], [1, 3, 2]])
def test_element_stacks_are_random_element_draws(dims):
    alg = make_algebra(dims)
    rng = np.random.default_rng(3)
    mine = copy.deepcopy(rng)
    want = [random_element(alg, rng) for _ in range(5)]
    got = _element_stacks(alg, mine, 5)
    assert mine.bit_generator.state == rng.bit_generator.state
    assert [s.shape for s in got] == [(5, m, m) for m in dims]
    for k, el in enumerate(want):
        assert [s[k].tobytes() for s in got] == [b.tobytes() for b in el.blocks]
