"""One ranked SVD per element block, held to the bodies it replaced.

``support``, ``range_projection``, ``polar``, ``rank_profile`` and
``pseudoinverse`` take their SVD, finiteness check, overflow check and rank
cut from ``projections._ranked_svd``.  On a seeded sweep (M1, M2, M3, M2+M1,
M4, M3+M2+M1 and M6; generic, rank-deficient, zero, 1e-12-scale, 1e+-14-scaled
and graded blocks, mixed block by block) each gives the bytes, or the
exception type, of its old body in ``loop_oracles``.  The SVD layer's other
users refuse a NaN or infinite entry with ``NotFinite`` and no warning.
"""

import warnings

import numpy as np
import pytest

import loop_oracles as oracle
from vnalg import (ToleranceConfig, commutant, make_algebra, polar, pseudoinverse,
                   range_projection, rank_profile, star_subalgebra, support)
from vnalg.algebra import DEFAULT_TOL, adjoint
from vnalg.division import PolarParts
from vnalg.errors import NotFinite

ALGEBRAS = [[1], [2], [3], [2, 1], [4], [3, 2, 1], [6]]
TOLS = [DEFAULT_TOL, ToleranceConfig(eps_rel=1e-6, eps_abs=1e-10, snap_eps=1e-4)]
SEEDS = range(40)


def _gaussian(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _unitary(n, rng):
    return np.linalg.qr(_gaussian(n, rng))[0]


KINDS = {
    "generic": _gaussian,
    "rank-deficient": lambda n, rng: (
        lambda r: _gaussian(n, rng)[:, :r] @ _gaussian(n, rng)[:r])(int(rng.integers(n))),
    "zero": lambda n, rng: np.zeros((n, n), dtype=complex),
    "1e-12": lambda n, rng: 1e-12 * _gaussian(n, rng),
    "1e+14": lambda n, rng: 1e14 * _gaussian(n, rng),
    "1e-14": lambda n, rng: 1e-14 * _gaussian(n, rng),
    "graded": lambda n, rng: _unitary(n, rng) @ np.diag(
        np.logspace(0, -9, n) * 10.0 ** rng.integers(-3, 4)) @ _unitary(n, rng),
}
# Spoilers of a block: a NaN or infinite entry, or entries whose norm overflows.
BAD = {
    "nan": lambda b: b.__setitem__((0, 0), np.nan),
    "inf": lambda b: b.__setitem__((0, -1), np.inf),
    "1e308": lambda b: b.__setitem__(slice(None), 1e308),
}


def draw(dims, seed, bad=None):
    """A seeded element of M_dims whose blocks take kinds in turn, the first
    block spoiled by ``BAD[bad]`` when asked."""
    rng = np.random.default_rng(seed)
    names = sorted(KINDS)
    blocks = [np.array(KINDS[names[(seed + i) % len(names)]](n, rng), dtype=complex)
              for i, n in enumerate(dims)]
    if bad:
        BAD[bad](blocks[0])
    return make_algebra(dims).element(blocks)


def outcome(fn, *args):
    """fn(*args) as bytes and shapes, or the type of what it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = fn(*args)
        except Exception as exc:  # the exception's type is the outcome compared
            return type(exc)
    if isinstance(out, tuple):
        return out
    parts = (out.isometry, out.modulus) if isinstance(out, PolarParts) else (out,)
    return [(b.shape, b.dtype, b.tobytes()) for el in parts for b in el.blocks]


PAIRS = [
    (support, oracle.support_svd),
    (range_projection, lambda a, tol: oracle.support_svd(adjoint(a), tol)),
    (polar, oracle.polar_svd),
    (pseudoinverse, oracle.pseudoinverse_pinv),
    (rank_profile, oracle.rank_profile_values),
]


@pytest.mark.parametrize("dims", ALGEBRAS, ids=lambda d: "+".join(map(str, d)))
def test_the_five_users_match_their_old_bodies(dims):
    for seed in SEEDS:
        a = draw(dims, seed)
        for tol in TOLS:
            for got, want in PAIRS:
                assert outcome(got, a, tol) == outcome(want, a, tol), (got.__name__, seed)


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("dims", ALGEBRAS, ids=lambda d: "+".join(map(str, d)))
def test_non_finite_entries_and_norms_raise_what_they_raised(dims, bad):
    # The old values-only SVD of rank_profile raised numpy's LinAlgError on a
    # NaN entry; the funnel raises NotFinite before any SVD.  An M1 block of
    # 1e308 has a finite norm and an answer.
    for seed in range(3):
        a = draw(dims, seed, bad)
        for got, want in PAIRS if bad == "1e308" else PAIRS[:4]:
            assert outcome(got, a, DEFAULT_TOL) == outcome(want, a, DEFAULT_TOL), got.__name__
        if bad != "1e308" or dims[0] > 1:
            assert outcome(rank_profile, a, DEFAULT_TOL) == outcome(support, a, DEFAULT_TOL) \
                == NotFinite


@pytest.mark.parametrize("dims", ALGEBRAS, ids=lambda d: "+".join(map(str, d)))
def test_rank_profile_is_the_rank_of_the_support(dims):
    for seed in SEEDS:
        a = draw(dims, seed)
        for tol in TOLS:
            ranks = tuple(int(round(np.trace(p).real)) for p in support(a, tol).blocks)
            assert rank_profile(a, tol) == ranks


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_the_span_users_refuse_a_non_finite_entry_without_a_warning(value):
    m2 = make_algebra([2])
    b = np.eye(2, dtype=complex)
    b[0, 1] = value
    a = m2.element([b])
    for fn in (lambda: commutant([a], m2), lambda: star_subalgebra(m2, [m2.unit(), a])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotFinite):
                fn()
