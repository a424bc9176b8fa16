"""The sites that now hand raw blocks to ``algebra._eigh`` / ``_eigvalsh``
agree with the spellings that fed the eigensolvers ``symmetrize(a)``.

``(b + b*) / 2`` and ``0.5 * (b + b*)`` round alike except in the sign of a
zero, and Householder reflectors tell -0.0 from 0.0.  So on inputs whose
Hermitian part has no zero entry the outputs must be the same bytes; on
sparse inputs with signed zeros the verdicts and ranks must be the same and
the outputs ``equal``.
"""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

import loop_oracles as oracle
from vnalg import equal, make_algebra
from vnalg.algebra import DEFAULT_TOL, is_positive, operator_norm
from vnalg.projections import _spectral_projection, rank_profile
from vnalg.sampling import random_unitary_block
from vnalg.spectral import functional_calculus, named_function

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)
TOL = DEFAULT_TOL
dims = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(make_algebra)
seeds = st.integers(0, 2**32 - 1)
scales = st.sampled_from([1e-8, 1.0, 1e8])
FUNCTIONS = ["sqrt", "abs", "pospart", "exp-phase", "pow:0.5"]
# Lipschitz on all of R, so that eigenvalue rounding moves their values by as
# much and no more; the others are taken on positive elements, as sqrt and
# power take them.
LIPSCHITZ = ["abs", "pospart"]


def outcome(fn, *args):
    """fn(*args), or the type of what it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return fn(*args)
        except Exception as exc:
            return type(exc)


def predicates(a):
    """The spectral cuts of ceiling and floor."""
    return [lambda v: v > TOL.snap_eps * operator_norm(a),
            lambda v: v >= 1.0 - TOL.snap_eps]


def dense(alg, seed, scale):
    """U diag(vals) U* per block, near the positivity floor and near 1, with a
    skew defect around the self-adjointness threshold."""
    rng = np.random.default_rng(seed)
    blocks = []
    for n in alg.dims:
        u = random_unitary_block(rng, n)
        vals = rng.choice([rng.uniform(-1, 1), 1.0 - TOL.snap_eps * rng.uniform(0.5, 2),
                           -TOL.eps_rel * rng.uniform(0.5, 2), rng.uniform(0, 1)],
                          size=n, replace=False)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        skew = TOL.eps_rel * rng.choice([0.0, 0.1, 10.0]) * (g - g.conj().T)
        blocks.append(scale * (u @ np.diag(vals) @ u.conj().T + skew))
    return alg.element(blocks)


def hermitian_part(a):
    return [(b + b.conj().T) / 2 for b in a.blocks]


def same_bytes(x, y):
    return all(p.tobytes() == q.tobytes() for p, q in zip(x.blocks, y.blocks))


@SETTINGS
@given(dims, seeds, scales)
def test_dense_inputs_give_the_same_bytes_and_verdicts(alg, seed, scale):
    a = dense(alg, seed, scale)
    assert all(np.all(h != 0) for h in hermitian_part(a))
    assert is_positive(a, TOL) == oracle.is_positive_symmetrized(a, TOL)
    for pred in predicates(a):
        assert same_bytes(_spectral_projection(a, pred),
                          oracle.spectral_projection_symmetrized(a, pred))
    for name in FUNCTIONS:
        f = named_function(name)
        got = outcome(functional_calculus, a, f, TOL)
        want = outcome(oracle.functional_calculus_symmetrized, a, f, TOL)
        if isinstance(want, type):
            assert got is want
        else:
            assert same_bytes(got, want)


POOL = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.5, 2.0]


@st.composite
def sparse(draw):
    """A Hermitian element with zero entries of either sign, or x x* of one."""
    alg = draw(dims)
    blocks = []
    for n in alg.dims:
        entry = st.sampled_from(POOL)
        re = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
        im = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
        low = np.tri(n, k=-1, dtype=bool)
        re, im = np.where(low, re.T, re), np.where(low, -im.T, im)
        im[np.diag_indices(n)] = np.copysign(0.0, im.diagonal())
        x = np.empty((n, n), dtype=complex)
        x.real, x.imag = re, im  # keeps the sign of each zero
        if draw(st.booleans()):
            x = x @ x.conj().T
        blocks.append(x)
    return alg.element(blocks)


@SETTINGS
@given(sparse())
def test_signed_zeros_change_no_verdict_rank_or_equality(a):
    positive = is_positive(a, TOL)
    assert positive == oracle.is_positive_symmetrized(a, TOL)
    for pred in predicates(a):
        got = _spectral_projection(a, pred)
        want = oracle.spectral_projection_symmetrized(a, pred)
        assert rank_profile(got, TOL) == rank_profile(want, TOL)
        assert equal(got, want, TOL)
    for name in FUNCTIONS if positive else LIPSCHITZ:
        f = named_function(name)
        got = outcome(functional_calculus, a, f, TOL)
        want = outcome(oracle.functional_calculus_symmetrized, a, f, TOL)
        if isinstance(want, type):
            assert got is want
        else:
            assert equal(got, want, TOL)
