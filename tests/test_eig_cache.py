"""One Hermitian decomposition per element, held to the uncached definitions.

``algebra._eigpairs`` keeps ``algebra._eigh`` of each block on the element.
``is_positive`` and ``is_effect`` read it only when an eigenvalue clears its
bound by a relative margin, and otherwise run the eigvalsh rules that
``loop_oracles`` keeps: their verdicts must agree on seeded sweeps at scales
1e-8, 1 and 1e8, and on spectra placed a few ulps from each bound and each
margin.  The spectral sites that read the decomposition must give the bytes
of their uncached definitions whether or not it was filled first.  The
difference quotients of ``measurement._linearize_in_q`` must give the bytes
of the ``Element`` loop they replace.
"""

import numpy as np
import pytest

import loop_oracles as oracle
from vnalg import (DEFAULT_TOL, approximate_pseudoinverse, ceiling, floor, is_effect,
                   is_positive, make_algebra, mul, power, pseudoinverse, snap_projection, sqrt)
from vnalg import algebra
from vnalg.algebra import _FRO_MARGIN, Element, _eigh, _eigpairs
from vnalg.errors import NotFinite
from vnalg.measurement import BinOpSpec, _linearize_in_q, _structured_effects, named_op
from vnalg.sampling import (random_effect, random_element, random_positive, random_projection,
                            random_self_adjoint, random_unitary)

TOL = DEFAULT_TOL
ALGEBRAS = [make_algebra(d) for d in ([1], [2], [3], [2, 1], [1, 1, 2])]
IDS = ["M" + "+M".join(map(str, a.dims)) for a in ALGEBRAS]


def fresh(a):
    """A copy of a with nothing cached."""
    return Element(a.algebra, a.blocks)


def filled(a):
    """A copy of a with its decomposition cached."""
    out = fresh(a)
    _eigpairs(out)
    return out


def with_spectrum(alg, rng, spectra, rotate=True):
    """u diag(vals) u* per block (u = 1 unless ``rotate``), vals from ``spectra``."""
    units = random_unitary(alg, rng).blocks if rotate else [np.eye(n) for n in alg.dims]
    return alg.element([u @ np.diag(v) @ u.conj().T for u, v in zip(units, spectra)])


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type is part of the verdict
        return type(exc)


def same_bytes(x, y):
    if isinstance(x, type) or isinstance(y, type):
        return x is y
    return all(a.tobytes() == b.tobytes() for a, b in zip(x.blocks, y.blocks))


def sweep(alg, rng, scale):
    draws = [random_effect, random_positive, random_self_adjoint, random_element,
             random_projection]
    for draw in draws:
        for _ in range(4):
            yield scale * draw(alg, rng)
    yield scale * alg.unit()
    yield alg.unit() - scale * random_effect(alg, rng)


def edge_spectra(n, rng, scale):
    """Least eigenvalues a few ulps from the positivity floor, its relative
    margin and the floor at scale ``scale``; largest ones a few ulps from
    1 - floor and from 1 - floor less the margin."""
    floor = TOL.positivity_floor()
    bounds = [floor, floor + _FRO_MARGIN * scale, TOL.positivity_floor(scale)]
    tops = [1.0 - floor, 1.0 - floor - _FRO_MARGIN]
    for b in bounds:
        for ulps in (-3, -1, 0, 1, 3):
            low = b + ulps * np.spacing(b)
            yield np.sort(np.r_[low, rng.uniform(0.1, 1.0, n - 1) * scale])
    for t in tops:
        for ulps in (-3, -1, 0, 1, 3):
            high = t + ulps * np.spacing(t)
            yield np.sort(np.r_[rng.uniform(0.0, 0.9, n - 1), high])


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_positivity_and_effect_verdicts_match_the_eigvalsh_rules(alg, scale):
    rng = np.random.default_rng(int(scale * 1e8) % 2**32 + alg.dim)
    for x in sweep(alg, rng, scale):
        want = (oracle.is_positive_uncached(fresh(x)), oracle.is_effect_uncached(fresh(x)))
        for y in (fresh(x), filled(x)):
            assert (is_positive(y), is_effect(y)) == want


@pytest.mark.parametrize("rotate", [False, True])
@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("alg", ALGEBRAS[1:], ids=IDS[1:])
def test_verdicts_at_the_margins_match_and_reach_both_fallbacks(alg, scale, rotate, monkeypatch):
    # Without a rotation each spectrum is exact, a few ulps from a bound.
    calls = {"eigvalsh": 0, "orthosupplement": 0}

    def counted(name, real):
        def fn(*args):
            calls[name] += 1
            return real(*args)
        return fn
    monkeypatch.setattr(algebra, "_eigvalsh", counted("eigvalsh", algebra._eigvalsh))
    monkeypatch.setattr(algebra, "orthosupplement",
                        counted("orthosupplement", algebra.orthosupplement))
    rng = np.random.default_rng(alg.dim)
    verdicts = set()
    for spectrum in edge_spectra(alg.dims[0], rng, scale):
        spectra = [spectrum] + [rng.uniform(0.2, 0.8, n) for n in alg.dims[1:]]
        x = with_spectrum(alg, rng, spectra, rotate)
        want = (oracle.is_positive_uncached(fresh(x)), oracle.is_effect_uncached(fresh(x)))
        assert (is_positive(fresh(x)), is_effect(fresh(x))) == want
        verdicts.add(want)
    assert (True, True) in verdicts and (False, False) in verdicts
    assert calls["eigvalsh"] and calls["orthosupplement"]


@pytest.mark.parametrize("factor", [0.5, 1 - 1e-12, 1.0, 1 + 1e-12, 2.0])
def test_effect_verdicts_when_the_skew_part_sits_at_the_threshold(factor):
    # a - a* = 2i k with ||2k||_F at factor times threshold(): the Frobenius
    # test of 1 - a is the test of a, and the verdicts must agree either way.
    alg = make_algebra([2, 1])
    rng = np.random.default_rng(7)
    for _ in range(10):
        k = random_self_adjoint(alg, rng)
        k = (factor * TOL.threshold() / (2 * np.sqrt(sum(np.vdot(b, b).real
                                                          for b in k.blocks)))) * k
        x = random_effect(alg, rng) + 1j * k
        want = (oracle.is_positive_uncached(fresh(x)), oracle.is_effect_uncached(fresh(x)))
        assert (is_positive(fresh(x)), is_effect(fresh(x))) == want


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_spectral_sites_keep_their_bytes_with_or_without_the_cache(alg):
    rng = np.random.default_rng(alg.dim + 100)
    effects = _structured_effects(alg) + [random_effect(alg, rng) for _ in range(6)]
    positives = [random_positive(alg, rng) for _ in range(4)] + [1e-8 * random_positive(alg, rng),
                                                                 1e8 * random_positive(alg, rng)]
    near_projections = [random_projection(alg, rng) + 1e-9 * random_self_adjoint(alg, rng)
                        for _ in range(4)]
    sites = [
        (ceiling, oracle.ceiling_uncached, effects + positives),
        (floor, oracle.floor_uncached, effects + positives),
        (sqrt, oracle.sqrt_uncached, effects + positives),
        (lambda a: power(a, 0.3), lambda a: oracle.power_uncached(a, 0.3), effects + positives),
        (snap_projection, oracle.snap_uncached, near_projections + effects[:2]),
        (pseudoinverse, pseudoinverse, effects + positives),
    ]
    for lib, old, inputs in sites:
        for x in inputs:
            want = outcome(old, fresh(x))
            for y in (fresh(x), filled(x)):
                assert same_bytes(outcome(lib, y), want)
    # The oracle scans every band down to the least eigenvalue: spectra from 1e-3.
    banded = _structured_effects(alg) + [with_spectrum(alg, rng, [10 ** rng.uniform(-3, 1, n)
                                                                  for n in alg.dims])
                                         for _ in range(3)]
    for x in banded:
        want = oracle.positive_bands(fresh(x))
        for y in (fresh(x), filled(x)):
            got = approximate_pseudoinverse(y)
            assert all(same_bytes(a, b) for a, b in zip(got.terms, want.terms))
            assert (len(got.terms), got.thresholds) == (len(want.terms), want.thresholds)


def test_the_cache_holds_eigh_of_each_block_and_starts_empty():
    alg = make_algebra([2, 3])
    rng = np.random.default_rng(3)
    x, y = random_self_adjoint(alg, rng), random_effect(alg, rng)
    pairs = _eigpairs(x)
    assert pairs is _eigpairs(x)
    for (vals, vecs), b in zip(pairs, x.blocks):
        want_vals, want_vecs = _eigh(b)
        assert vals.tobytes() == want_vals.tobytes() and vecs.tobytes() == want_vecs.tobytes()
    for r in (x + y, x - y, x @ y, 2.0 * x, -x, x.adjoint(), fresh(x)):
        assert r._eig is None


def test_a_not_finite_decomposition_is_raised_on_every_call():
    # Finite entries whose eigenvalue 2e308 overflows.
    x = make_algebra([2]).element([np.full((2, 2), 1e308)])
    for fn in (_eigpairs, is_positive, sqrt, ceiling, _eigpairs):
        with pytest.raises(NotFinite):
            fn(x)
        assert x._eig is None


def test_the_trivial_algebra_keeps_its_vacuous_truths():
    alg = make_algebra([])
    for x in (alg.zero(), alg.unit(), fresh(alg.zero())):
        assert is_positive(x) and is_effect(x)
        assert _eigpairs(x) == ()
        assert ceiling(x).blocks == floor(x).blocks == sqrt(x).blocks == ()


def test_unit_and_zero_are_built_once_per_algebra():
    alg = make_algebra([2, 1])
    assert alg.unit() is make_algebra([2, 1]).unit() and alg.zero() is alg.zero()
    assert alg.scalar(1.0) is not alg.scalar(1.0)
    assert [b.tobytes() for b in alg.unit().blocks] == [np.eye(n, dtype=complex).tobytes()
                                                        for n in alg.dims]
    assert all(not b.any() for b in alg.zero().blocks)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_coordinate_quotients_match_the_element_loop_bit_for_bit(alg):
    rng = np.random.default_rng(17 + alg.dim)
    effects = _structured_effects(alg)[:3] + [random_effect(alg, rng) for _ in range(3)]
    ops = [named_op(name, alg) for name in ("std", "ceil", "floorsplit", "sign", "phase")]
    nonlinear = [BinOpSpec("square", lambda p: lambda q: mul(q, q)),
                 BinOpSpec("root", lambda p: lambda q: sqrt(q))]
    refuted = 0
    for op in ops + nonlinear:
        for p in effects:
            got = _linearize_in_q(op.at(p), alg, TOL)
            want = oracle.linearize_in_q_elements(op.at(p), alg)
            assert (got is None) == (want is None), op.name
            if got is None:
                refuted += 1
            else:
                assert got.matrix.tobytes() == want.matrix.tobytes(), op.name
                assert got.matrix.flags.c_contiguous
    assert refuted >= len(effects)  # the square is never linear in q
