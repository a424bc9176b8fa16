"""Tensor products of algebras, elements, and maps; monoidal isomorphisms;
duplicability; the classical-points functor.

The tensor of two direct sums of matrix algebras is realized concretely:
block (i, j) of the product is the Kronecker product of blocks i and j, and
the product's block list is ordered lexicographically, left index major.
The Kronecker convention is (a (x) b)[r*m + s, r'*m + s'] = a[r, r'] b[s, s'],
fixed so that serialized fixtures are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import (DEFAULT_TOL, Element, FdAlgebra, ToleranceConfig,
                      _unit_index, direct_sum, is_positive)
from .errors import AlgebraMismatch, SampleBudgetExhausted, ShapeMismatch
from .maps import LinMap, apply, block_projection, compose, identity_map, maps_equal
from . import sampling


@dataclass(frozen=True)
class TensorStructure:
    """The realized tensor of two algebras with its block bookkeeping."""

    left: FdAlgebra
    right: FdAlgebra
    product: FdAlgebra

    def block_index(self, i: int, j: int) -> int:
        return i * self.right.num_blocks + j


def tensor_algebra(left: FdAlgebra, right: FdAlgebra) -> TensorStructure:
    dims = tuple(n * m for n in left.dims for m in right.dims)
    return TensorStructure(left, right, FdAlgebra(dims))


def tensor_elements(ts: TensorStructure, a: Element, b: Element) -> Element:
    if a.algebra != ts.left or b.algebra != ts.right:
        raise AlgebraMismatch("factors do not match the tensor structure")
    blocks = [np.kron(x, y) for x in a.blocks for y in b.blocks]
    return ts.product.element(blocks)


def _tensor_of(x: Element, y: Element) -> Element:
    """x (x) y in the tensor of the algebras of x and y."""
    return tensor_elements(tensor_algebra(x.algebra, y.algebra), x, y)


def _basis_map(dom: FdAlgebra, cod: FdAlgebra, rows, cols) -> LinMap:
    """The map sending E_cols[k] to E_rows[k] and every other basis element to 0."""
    matrix = np.zeros((cod.dim, dom.dim), dtype=complex)
    matrix[rows, cols] = 1.0
    return LinMap(dom, cod, matrix)


def tensor_maps(ts_dom: TensorStructure, ts_cod: TensorStructure,
                f: LinMap, g: LinMap) -> LinMap:
    """The unique linear map acting as f on left factors and g on right ones.

    Its matrix is kron(F, G) with rows and columns moved from Kronecker
    order to the coordinates of the realized products.
    """
    if f.dom != ts_dom.left or g.dom != ts_dom.right:
        raise ShapeMismatch("map domains do not match the tensor structure")
    if f.cod != ts_cod.left or g.cod != ts_cod.right:
        raise ShapeMismatch("map codomains do not match the tensor structure")
    matrix = np.zeros((ts_cod.product.dim, ts_dom.product.dim), dtype=complex)
    rows = _unit_index(ts_cod.left, ts_cod.right).reshape(-1)
    cols = _unit_index(ts_dom.left, ts_dom.right).reshape(-1)
    matrix[np.ix_(rows, cols)] = np.kron(f.matrix, g.matrix)
    return LinMap(ts_dom.product, ts_cod.product, matrix)


def _tensor_of_maps(f: LinMap, g: LinMap) -> LinMap:
    """f (x) g from the tensor of their domains to the tensor of their codomains."""
    return tensor_maps(tensor_algebra(f.dom, g.dom), tensor_algebra(f.cod, g.cod), f, g)


def associator(a: FdAlgebra, b: FdAlgebra, c: FdAlgebra) -> LinMap:
    """a (x) (b (x) c) -> (a (x) b) (x) c.

    With the lexicographic block order and strict Kronecker products the two
    sides coincide coordinatewise: both list the blocks n*m*k in the order of
    (n, m, k), so the associator is the identity matrix of that one algebra.
    """
    return identity_map(tensor_algebra(a, tensor_algebra(b, c).product).product)


def braiding(a: FdAlgebra, b: FdAlgebra) -> LinMap:
    """a (x) b -> b (x) a, swapping Kronecker factors blockwise."""
    ab = tensor_algebra(a, b)
    ba = tensor_algebra(b, a)
    return _basis_map(ab.product, ba.product, _unit_index(b, a).T.reshape(-1),
                      _unit_index(a, b).reshape(-1))


def left_unitor(a: FdAlgebra) -> LinMap:
    """scalars (x) a -> a."""
    s = FdAlgebra((1,))
    return _basis_map(tensor_algebra(s, a).product, a, np.arange(a.dim),
                      _unit_index(s, a).reshape(-1))


def right_unitor(a: FdAlgebra) -> LinMap:
    """a (x) scalars -> a."""
    s = FdAlgebra((1,))
    return _basis_map(tensor_algebra(a, s).product, a, np.arange(a.dim),
                      _unit_index(a, s).reshape(-1))


def distributor(a: FdAlgebra, parts: Sequence[FdAlgebra]) -> LinMap:
    """a (x) (direct sum of parts) -> direct sum of the tensors.

    A pure block permutation: block (i, (l, j)) of the domain is block
    (l, (i, j)) of the codomain.
    """
    summed = direct_sum(list(parts))
    dom_ts = tensor_algebra(a, summed)
    cod = direct_sum([tensor_algebra(a, p).product for p in parts])
    # E_s (x) E_t with E_t in part l goes to E_s (x) E_t in the l-th summand.
    rows = np.zeros((a.dim, summed.dim), dtype=int)
    t = base = 0
    for p in parts:
        rows[:, t:t + p.dim] = base + _unit_index(a, p)
        t += p.dim
        base += a.dim * p.dim
    return _basis_map(dom_ts.product, cod, rows.reshape(-1), _unit_index(a, summed).reshape(-1))


def is_duplicable(algebra: FdAlgebra) -> bool:
    """Duplicators exist exactly for the classical algebras."""
    return algebra.is_commutative()


def multiplication_map(algebra: FdAlgebra) -> LinMap:
    """The linear extension of a (x) b -> a b on the realized tensor square."""
    ts = tensor_algebra(algebra, algebra)
    index = _unit_index(algebra, algebra)
    matrix = np.zeros((algebra.dim, ts.product.dim), dtype=complex)
    for off, n in zip(algebra.offsets, algebra.dims):
        # E_rc E_cc' = E_rc'; every other product of matrix units is 0
        r, c, c2 = np.indices((n, n, n)).reshape(3, -1)
        matrix[off + r * n + c2, index[off + r * n + c, off + c * n + c2]] = 1.0
    return LinMap(ts.product, algebra, matrix)


def duplicator(algebra: FdAlgebra) -> Optional[LinMap]:
    """The unique duplicator (coordinatewise multiplication) when one exists."""
    if not is_duplicable(algebra):
        return None
    return multiplication_map(algebra)


def duplicability_witness(algebra: FdAlgebra, samples: int = 1000, seed: int = 0,
                          tol: ToleranceConfig = DEFAULT_TOL) -> Optional[Element]:
    """A positive element of the tensor square that multiplication maps to a
    non-positive element; None only for duplicable algebras.

    A search that finds none raises :class:`SampleBudgetExhausted` rather
    than letting a flaky search masquerade as duplicability.
    """
    if is_duplicable(algebra):
        return None
    m = multiplication_map(algebra)
    ts = tensor_algebra(algebra, algebra)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        w = sampling.random_rank_one_positive(ts.product, rng)
        if not is_positive(apply(m, w), tol):
            return w
    raise SampleBudgetExhausted("no positivity violation found; sample budget too small")


def classical_points(algebra: FdAlgebra) -> list[int]:
    """Indices of the one-dimensional blocks: the characters of the algebra.

    A multiplicative unital functional kills every block of dimension at
    least two, so these indices enumerate all of them.
    """
    return [i for i, n in enumerate(algebra.dims) if n == 1]


def classical_reflection(algebra: FdAlgebra) -> FdAlgebra:
    """The all-ones algebra over the classical points."""
    return FdAlgebra(tuple(1 for _ in classical_points(algebra)))


def classical_unit(algebra: FdAlgebra) -> LinMap:
    """The miu map onto the classical reflection: evaluation at each character."""
    points = classical_points(algebra)
    return _basis_map(algebra, classical_reflection(algebra), np.arange(len(points)),
                            [algebra.offsets[i] for i in points])


def factor_through_classical(f: LinMap,
                             tol: ToleranceConfig = DEFAULT_TOL) -> Optional[LinMap]:
    """Factor a miu map into a classical algebra through the classical unit.

    Each coordinate of f is a character of the domain, hence evaluation at
    some classical point; the factoring map permutes and reads off those
    coordinates.  Returns None when some coordinate of f is not a character
    (then f was not miu to begin with).
    """
    if not f.cod.is_commutative():
        raise ShapeMismatch("factorization needs a classical codomain")
    points = classical_points(f.dom)
    cols = []
    for y in range(f.cod.num_blocks):
        omega = compose(block_projection(f.cod, y), f)
        matched = None
        for idx, i in enumerate(points):
            if maps_equal(omega, block_projection(f.dom, i), tol):
                matched = idx
                break
        if matched is None:
            return None
        cols.append(matched)
    return _basis_map(classical_reflection(f.dom), f.cod, np.arange(len(cols)), cols)


# Aliases matching the external interface names.
nsp = classical_points
bang = classical_reflection
bang_unit = classical_unit
