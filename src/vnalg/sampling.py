"""Seeded random generators for elements, effects, projections, and maps.

All functions take an explicit ``numpy.random.Generator`` so that every
randomized check in the test battery is reproducible from its seed.
"""

from __future__ import annotations

import numpy as np

from .algebra import Element, FdAlgebra, adjoint, mul


def _ginibre(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_element(algebra: FdAlgebra, rng: np.random.Generator) -> Element:
    return algebra.element(_ginibre(rng, n) for n in algebra.dims)


def _element_stacks(algebra: FdAlgebra, rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """The blocks of n ``random_element`` draws, one (n, m, m) stack per block."""
    z = rng.standard_normal((n, 2 * algebra.dim))  # per element: real, imaginary per block
    return [(z[:, 2 * o:2 * o + m * m] + 1j * z[:, 2 * o + m * m:2 * (o + m * m)])
            .reshape(n, m, m) for o, m in zip(algebra.offsets, algebra.dims)]


def random_self_adjoint(algebra: FdAlgebra, rng: np.random.Generator) -> Element:
    blocks = []
    for n in algebra.dims:
        g = _ginibre(rng, n)
        blocks.append((g + g.conj().T) / 2)
    return algebra.element(blocks)


def random_positive(algebra: FdAlgebra, rng: np.random.Generator) -> Element:
    a = random_element(algebra, rng)
    return mul(adjoint(a), a)


def random_unitary_block(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, n))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_unitary(algebra: FdAlgebra, rng: np.random.Generator) -> Element:
    return algebra.element(random_unitary_block(rng, n) for n in algebra.dims)


def random_effect(algebra: FdAlgebra, rng: np.random.Generator) -> Element:
    """Random unitary conjugation of uniform [0,1] eigenvalues."""
    blocks = []
    for n in algebra.dims:
        u = random_unitary_block(rng, n)
        vals = rng.uniform(0.0, 1.0, size=n)
        blocks.append(u @ np.diag(vals) @ u.conj().T)
    return algebra.element(blocks)


def random_projection(algebra: FdAlgebra, rng: np.random.Generator,
                      ranks: tuple[int, ...] | None = None) -> Element:
    blocks = []
    for i, n in enumerate(algebra.dims):
        r = int(rng.integers(0, n + 1)) if ranks is None else ranks[i]
        u = random_unitary_block(rng, n)
        v = u[:, :r]
        blocks.append(v @ v.conj().T)
    return algebra.element(blocks)


def random_rank_one_positive(algebra: FdAlgebra, rng: np.random.Generator) -> Element:
    """v v* supported in a random single block."""
    i = int(rng.integers(0, algebra.num_blocks))
    v = _ginibre(rng, algebra.dims[i], 1)
    v /= np.linalg.norm(v)
    return algebra._block_element(i, v @ v.conj().T)


def random_density(algebra: FdAlgebra, rng: np.random.Generator) -> Element:
    rho = random_positive(algebra, rng)
    tr = sum(np.trace(b).real for b in rho.blocks)
    return (1.0 / tr) * rho
