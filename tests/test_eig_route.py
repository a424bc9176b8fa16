"""Functional calculus on non-Hermitian normal elements: numpy's ``eig`` and
one QR per block, held to the complex Schur route it replaced.

``loop_oracles.functional_calculus_schur`` diagonalizes each block with
``scipy.linalg.schur``.  The library takes ``numpy.linalg.eig``, clusters
the eigenvalues, and orthonormalizes the eigenvectors cluster by cluster
with one QR, so each cluster contributes f(centre) times its spectral
projection.  A seeded sweep over M1-M8 and direct sums, scales 1e-8 to 1e8,
generic spectra, repeated cube roots of unity and repeated values with
nearly equal real parts, under five functions, holds the two within 1e-13
of the largest entry on exactly normal elements and within 1e-8 on nearly
normal ones, N + E with ||E|| <= 1e-9 ||N|| that pass ``is_normal``.
"""

import numpy as np
import pytest

from loop_oracles import functional_calculus_schur
from vnalg import functional_calculus, make_algebra
from vnalg.errors import NotNormal
from vnalg.sampling import random_unitary_block

EXACT_BOUND = 1e-13
NEARLY_BOUND = 1e-8
ALGEBRAS = [make_algebra(d) for d in ([1], [2], [3], [4], [5], [6], [7], [8], [2, 1], [3, 2])]
SCALES = (1e-8, 1e-4, 1.0, 1e4, 1e8)
FUNCTIONS = {
    "conj": lambda z: z.conjugate(),
    "square": lambda z: z * z,
    "power i": lambda z: np.exp(1j * np.log(z)) if z else 1.0,  # the phase op's lam^i
    "abs": abs,
    "sqrt": np.sqrt,
}


def spectrum(kind, n, rng):
    if kind == "generic":
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "cube roots":  # repeated, so clusters have several members
        return rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.integers(0, 3, size=n) / 3)
    # two values with nearly equal real parts, each repeated
    pair = np.array([1.0 + 0.5j, 1.0 + 1e-6 - 0.7j]) * np.exp(1j * rng.uniform(-0.2, 0.2))
    return pair[rng.integers(0, 2, size=n)]


def normal_block(kind, n, rng):
    v = random_unitary_block(rng, n)
    return v @ np.diag(spectrum(kind, n, rng)) @ v.conj().T


def sweep(seed, perturbation):
    """The largest difference from the Schur route, relative to the largest
    entry of its result, and the number of elements compared."""
    rng = np.random.default_rng(seed)
    worst, compared = 0.0, 0
    for alg in ALGEBRAS:
        for kind in ("generic", "cube roots", "near reals"):
            for scale in SCALES:
                blocks = []
                for n in alg.dims:
                    b = normal_block(kind, n, rng)
                    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    size = perturbation * rng.uniform(0.01, 1.0) * np.linalg.norm(b, 2)
                    blocks.append(scale * (b + size * e / np.linalg.norm(e, 2)))
                a = alg.element(blocks)
                for f in FUNCTIONS.values():
                    try:
                        want = functional_calculus_schur(a, f)
                    except NotNormal:
                        with pytest.raises(NotNormal):
                            functional_calculus(a, f)
                        continue
                    got = functional_calculus(a, f)
                    largest = max(np.abs(w).max() for w in want.blocks)
                    diff = max(np.abs(g - w).max() for g, w in zip(got.blocks, want.blocks))
                    worst, compared = max(worst, diff / largest), compared + 1
    return worst, compared


def test_eig_route_matches_schur_on_exactly_normal_elements():
    worst, compared = sweep(2026, 0.0)
    assert compared == len(ALGEBRAS) * 3 * len(SCALES) * len(FUNCTIONS)
    assert worst <= EXACT_BOUND, worst


def test_eig_route_matches_schur_on_nearly_normal_elements():
    worst, compared = sweep(2027, 1e-9)
    assert compared >= 100
    assert worst <= NEARLY_BOUND, worst
